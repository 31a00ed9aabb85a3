import json

import pytest
from hypothesis import given, settings

from conftest import FIXTURE_DIR, small_oriented
from oriented_hypergraphs.errors import DomainError
from oriented_hypergraphs.jsonio import (
    dumps_oriented,
    load_oriented_file,
    loads_oriented,
    oriented_to_dict,
    parse_oriented,
)


def test_fixture_files_load():
    k3 = load_oriented_file(str(FIXTURE_DIR / "g1_k3.json"))
    assert len(k3.vertices) == 3
    assert len(k3.incidences) == 6
    assert k3.sigma("i12a") == 1
    assert k3.sigma("i12b") == -1
    mixed = load_oriented_file(str(FIXTURE_DIR / "g2_sigma2.json"))
    assert [mixed.sigma(i.id) for i in mixed.incidences] == [1, 1, -1]


def test_sign_defaults_to_plus_one():
    og = loads_oriented(
        '{"vertices": ["a"], "edges": ["e"],'
        ' "incidences": [{"id": "i", "vertex": "a", "edge": "e"}]}'
    )
    assert og.sigma("i") == 1


def test_loaded_flag_round_trips():
    og = parse_oriented(
        {
            "vertices": ["a"],
            "edges": ["e"],
            "incidences": [
                {"id": "i", "vertex": "a", "edge": "e", "sign": 0, "loaded": True}
            ],
        }
    )
    assert og.loaded == frozenset({"i"})
    again = parse_oriented(json.loads(dumps_oriented(og)))
    assert again == og


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("[]", "expected an object"),
        ('{"vertices": [], "edges": []}', "missing key"),
        ('{"vertices": [], "edges": [], "incidences": [], "extra": 1}', "unknown keys"),
        ('{"vertices": [1], "edges": [], "incidences": []}', "expected a string"),
        (
            '{"vertices": ["a"], "edges": ["e"],'
            ' "incidences": [{"id": "i", "vertex": "a", "edge": "e", "sign": 2}]}',
            "sign",
        ),
        (
            '{"vertices": ["a"], "edges": ["e"],'
            ' "incidences": [{"id": "i", "vertex": "a", "edge": "ghost"}]}',
            "ghost",
        ),
        ('{"vertices": ["a", "a"], "edges": [], "incidences": []}', "duplicate"),
        ("{", "invalid JSON"),
    ],
)
def test_rejects_malformed_input(payload, fragment):
    with pytest.raises(DomainError) as err:
        loads_oriented(payload)
    assert fragment in str(err.value)


_INCIDENCE = '"id": "i", "vertex": "a", "edge": "e"'


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param(
            '{"vertices": {}, "edges": [], "incidences": []}',
            "^vertices: expected a list$",
            id="not-a-list",
        ),
        pytest.param(
            '{"vertices": ["a"], "edges": ["e"], "incidences": [["i", "a", "e"]]}',
            r"^incidences\[0\]: expected an object$",
            id="incidence-not-an-object",
        ),
        pytest.param(
            '{"vertices": ["a"], "edges": ["e"], "incidences": [{%s, "weight": 1}]}' % _INCIDENCE,
            r"^incidences\[0\]: unknown keys \['weight'\]$",
            id="incidence-unknown-key",
        ),
        pytest.param(
            '{"vertices": ["a"], "edges": ["e"], "incidences": [{"id": "i", "vertex": "a"}]}',
            r"^incidences\[0\]: missing key 'edge'$",
            id="incidence-missing-key",
        ),
        pytest.param(
            '{"vertices": ["a"], "edges": ["e"], "incidences": [{%s, "loaded": 1}]}' % _INCIDENCE,
            r"^incidences\[0\]\.loaded: expected a boolean$",
            id="loaded-not-a-boolean",
        ),
    ],
)
def test_bad_input_raises_domain_error(payload, message):
    with pytest.raises(DomainError, match=message):
        loads_oriented(payload)


def test_missing_file_is_a_domain_error(tmp_path):
    with pytest.raises(DomainError):
        load_oriented_file(str(tmp_path / "absent.json"))


@settings(max_examples=50, deadline=None)
@given(small_oriented())
def test_round_trip_preserves_everything(og):
    assert loads_oriented(dumps_oriented(og)) == og
    as_dict = oriented_to_dict(og)
    assert list(as_dict) == ["vertices", "edges", "incidences"]
