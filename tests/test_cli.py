import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, rung
from oriented_hypergraphs.cli import main
from oriented_hypergraphs.contributors import total_minor_poly
from oriented_hypergraphs.corpus import bidirected_corpus, graph_structure
from oriented_hypergraphs.jsonio import dumps_oriented
from oriented_hypergraphs.matrices import graph_orientation

K3 = str(FIXTURE_DIR / "g1_k3.json")
STAR_PLUS = str(FIXTURE_DIR / "g2_sigma1.json")
STAR_MIXED = str(FIXTURE_DIR / "g2_sigma2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_text_output(capsys):
    code, out, _ = run(capsys, "charpoly", K3, "--matrix", "laplacian", "--mode", "det")
    assert code == 0
    assert out == "x^3 - 6x^2 + 9x\n"
    code, out, _ = run(capsys, "charpoly", K3, "--matrix", "adjacency", "--mode", "perm")
    assert code == 0
    assert out == "x^3 + 3x - 2\n"


def test_charpoly_multivariate(capsys):
    code, out, _ = run(
        capsys,
        "charpoly",
        STAR_MIXED,
        "--matrix",
        "laplacian",
        "--mode",
        "det",
        "--multivariate",
    )
    assert code == 0
    assert out.startswith("+1*x[v1,v1]*x[v2,v2]*x[v3,v3]")


def test_charpoly_is_cross_checked_on_the_figure_route(capsys, monkeypatch):
    # Without --multivariate the circle-cover polynomial is checked against
    # the matrix: a disagreement exits 3, and the vertex guard exits 2.
    import oriented_hypergraphs.contributors as contributors

    argv = ["charpoly", K3, "--matrix", "adjacency", "--mode", "det"]
    with monkeypatch.context() as patch:
        patch.setattr(contributors, "_circles", lambda options, signs: {})
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "contributor route disagrees for adjacency/det" in err
        code, _, _ = run(capsys, *argv, "--multivariate")
        assert code == 0
    code, out, err = run(capsys, *argv, "--max-vertices", "2")
    assert (code, out) == (2, "")
    assert "univariate contributor route limited to 2 vertices, got 3" in err


def test_matrices_on_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text('{"vertices": [], "edges": [], "incidences": []}')
    code, out, _ = run(capsys, "matrices", str(src))
    assert code == 0
    assert out == "H (0x0):\nA (0x0):\nD (0x0):\nL (0x0):\n"


def test_matrices_alignment(capsys):
    code, out, _ = run(capsys, "matrices", K3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H (3x3):"
    assert "v2   -1    0    1" in out


def test_total_minor_and_contributors(capsys):
    code, out, _ = run(
        capsys, "total-minor", STAR_MIXED, "--target", "laplacian", "--mode", "det"
    )
    assert code == 0
    assert len(out.strip().split()) == 24
    code, out, _ = run(capsys, "contributors", STAR_PLUS)
    assert code == 0
    assert out.splitlines()[0] == "contributors: 6"
    code, out, _ = run(capsys, "contributors", K3, "--strong")
    assert out.splitlines()[0] == "contributors: 2"
    code, out, _ = run(capsys, "contributors", K3, "--class", "v1:v1")
    assert out.splitlines()[0] == "contributors: 10"
    assert "class: v1->v1" in out


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", STAR_MIXED)
    assert code == 0
    assert out.splitlines() == [
        "adjacency det: PASS",
        "adjacency perm: PASS",
        "laplacian det: PASS",
        "laplacian perm: PASS",
    ]


def test_loading_and_omega(capsys):
    code, out, _ = run(capsys, "loading", K3)
    assert code == 0
    assert "incidences: 6 -> 9" in out
    assert "added 0:0,2 at (v1, e23)" in out
    code, out, _ = run(capsys, "omega")
    assert code == 0
    assert "truth: vertex 1:v edge 1:e incidence 1:i" in out


def test_omega_text_is_pinned(capsys):
    code, out, _ = run(capsys, "omega")
    assert code == 0
    assert out == (
        "vertices: 1:v 0\n"
        "edges: 1:e 0\n"
        "incidences:\n"
        "  1:i at (1:v, 1:e)\n"
        "  0:0 at (1:v, 1:e)\n"
        "  0:1 at (1:v, 0)\n"
        "  0:2 at (0, 1:e)\n"
        "  0:3 at (0, 0)\n"
        "truth: vertex 1:v edge 1:e incidence 1:i\n"
    )


def test_classify_text_is_pinned(capsys):
    code, out, _ = run(
        capsys, "classify", K3, "--vertices", "v1,v2", "--edges", "e12", "--incidences", "i12a,i12b"
    )
    assert code == 0
    assert out == (
        "vertex map:\n"
        "  v1 -> 1:v\n"
        "  v2 -> 1:v\n"
        "  v3 -> 0\n"
        "edge map:\n"
        "  e12 -> 1:e\n"
        "  e13 -> 0\n"
        "  e23 -> 0\n"
        "incidence map:\n"
        "  i12a -> 1:i\n"
        "  i12b -> 1:i\n"
        "  i13a -> 0:1\n"
        "  i13b -> 0:3\n"
        "  i23a -> 0:1\n"
        "  i23b -> 0:3\n"
    )


def test_classify_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        K3,
        "--vertices",
        "v1,v2",
        "--edges",
        "e12",
        "--incidences",
        "i12a,i12b",
    )
    assert code == 0
    assert "v1 -> 1:v" in out
    assert "v3 -> 0" in out
    assert "i13a -> 0:1" in out


def test_arborescences_subcommand(capsys):
    code, out, _ = run(capsys, "arborescences", K3, "--roots", "v1")
    assert code == 0
    assert out.splitlines()[0] == "arborescences: 3"
    assert out.splitlines()[-1] == "coefficient of x[v1,v1]: 3"
    code, out, _ = run(capsys, "arborescences", K3, "--roots", "v1,v2")
    assert out.splitlines()[0] == "arborescences: 2"
    assert out.splitlines()[-1] == "coefficient of x[v1,v1]*x[v2,v2]: -2"


def test_arborescence_coefficient_is_the_catalog_coefficient(tmp_path, capsys, monkeypatch):
    # The printed coefficient is a principal minor of the Laplacian; it
    # must equal the coefficient of the figure route's minor polynomial,
    # and the command must not build the minor catalog to find it.
    import oriented_hypergraphs.contributors as contributors

    cases = []
    for k, bg in enumerate(bidirected_corpus()):
        og = bg.og
        src = tmp_path / f"g{k}.json"
        src.write_text(dumps_oriented(og))
        poly = total_minor_poly(og, "laplacian", "det")
        for roots in [og.vertices[:1], og.vertices[:2], og.vertices[1:]]:
            want = poly.coefficient([(u, u) for u in roots])
            cases.append((str(src), ",".join(roots), want))

    def refuse(*args, **kwargs):
        raise AssertionError("the arborescences command built the minor catalog")

    monkeypatch.setattr(contributors, "minor_catalog", refuse)
    for src, roots, want in cases:
        code, out, _ = run(capsys, "arborescences", src, "--roots", roots)
        assert code == 0
        assert out.splitlines()[-1].endswith(f": {want}")


def test_arborescences_max_enum_is_checked_on_the_count(capsys):
    code, _, err = run(capsys, "arborescences", K3, "--roots", "v1", "--max-enum", "2")
    assert code == 2
    assert "got 3" in err
    code, out, _ = run(capsys, "arborescences", K3, "--roots", "v1", "--max-enum", "3")
    assert code == 0
    assert out.splitlines()[0] == "arborescences: 3"


def test_activation_subcommand(capsys):
    code, out, _ = run(capsys, "activation", K3)
    assert code == 0
    assert out.splitlines()[0] == "activation classes: 8"


def test_activation_text_is_pinned(capsys):
    # Class order is bottom order; generator order and each cycle's
    # rotation follow the walk of the would-be-head map.
    code, out, _ = run(capsys, "activation", K3)
    assert code == 0
    assert out == (
        "activation classes: 8\n"
        "#1 size=2 generators=1 bottom_backsteps=3 cycles: (v1 v2)\n"
        "#2 size=2 generators=1 bottom_backsteps=3 cycles: (v1 v2)\n"
        "#3 size=2 generators=1 bottom_backsteps=3 cycles: (v1 v2 v3)\n"
        "#4 size=2 generators=1 bottom_backsteps=3 cycles: (v2 v3)\n"
        "#5 size=2 generators=1 bottom_backsteps=3 cycles: (v1 v3)\n"
        "#6 size=2 generators=1 bottom_backsteps=3 cycles: (v1 v3 v2)\n"
        "#7 size=2 generators=1 bottom_backsteps=3 cycles: (v1 v3)\n"
        "#8 size=2 generators=1 bottom_backsteps=3 cycles: (v3 v2)\n"
    )


def test_class_text_is_pinned(capsys):
    # Each member's steps, then what is left off the class rows and the
    # head map of any extension.
    code, out, _ = run(capsys, "contributors", K3, "--class", "v1:v2")
    assert code == 0
    assert out == (
        "contributors: 3\n"
        "class: v1->v2\n"
        "#1 backsteps=1 loops=0 circles=1 odd=0 even=1 positive=1 negative=0 zero=0 sign=+1\n"
        "  v1 -[i12a e12 i12b]-> v2\n"
        "  v2 -[i12b e12 i12a]-> v1\n"
        "  v3 -[i13b e13 i13b]-> v3\n"
        "  reduced: v2 -[i12b e12 i12a]-> v1; v3 -[i13b e13 i13b]-> v3\n"
        "  permutation: v1->v2 v2->v1 v3->v3\n"
        "#2 backsteps=1 loops=0 circles=1 odd=0 even=1 positive=1 negative=0 zero=0 sign=+1\n"
        "  v1 -[i12a e12 i12b]-> v2\n"
        "  v2 -[i12b e12 i12a]-> v1\n"
        "  v3 -[i23b e23 i23b]-> v3\n"
        "  reduced: v2 -[i12b e12 i12a]-> v1; v3 -[i23b e23 i23b]-> v3\n"
        "  permutation: v1->v2 v2->v1 v3->v3\n"
        "#3 backsteps=0 loops=0 circles=1 odd=1 even=0 positive=1 negative=0 zero=0 sign=-1\n"
        "  v1 -[i12a e12 i12b]-> v2\n"
        "  v2 -[i23a e23 i23b]-> v3\n"
        "  v3 -[i13b e13 i13a]-> v1\n"
        "  reduced: v2 -[i23a e23 i23b]-> v3; v3 -[i13b e13 i13a]-> v1\n"
        "  permutation: v1->v2 v2->v3 v3->v1\n"
    )


def test_exit_code_for_bad_input(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("{")
    code, _, err = run(capsys, "matrices", str(src))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["contributors", K3, "--class", "v1,:v2"], "class rows: empty item", id="csv"),
        pytest.param(["contributors", K3, "--class", "v1"], "class must look like", id="no-colon"),
        pytest.param(
            ["contributors", K3, "--class", "v1:v2:v3"], "class must look like", id="two-colons"
        ),
    ],
)
def test_bad_class_flag_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


def test_exit_code_for_bad_flag_value(capsys):
    code, _, err = run(capsys, "charpoly", K3, "--matrix", "nope", "--mode", "det")
    assert code == 1
    assert "error:" in err


def test_exit_code_for_enumeration_cap(capsys):
    code, _, err = run(capsys, "contributors", K3, "--max-enum", "3")
    assert code == 2
    assert "resource limit" in err


def test_enumeration_cap_is_the_exact_contributor_count(capsys):
    # K3 has 16 contributors.
    code, _, err = run(capsys, "contributors", K3, "--max-enum", "15")
    assert code == 2
    assert "got 16" in err
    code, out, _ = run(capsys, "contributors", K3, "--max-enum", "16")
    assert code == 0
    assert out.startswith("contributors: 16\n")


def test_class_enumeration_cap_runs_on_the_class_count(capsys):
    # K3 has 3 contributors sending v1 to v2.
    code, _, err = run(capsys, "contributors", K3, "--class", "v1:v2", "--max-enum", "2")
    assert code == 2
    assert "got 3" in err
    code, out, _ = run(capsys, "contributors", K3, "--class", "v1:v2", "--max-enum", "3")
    assert code == 0
    assert out.startswith("contributors: 3\n")


def test_activation_cap_runs_on_the_contributor_count(capsys):
    # K3's activation classes hold its 16 contributors.
    code, _, err = run(capsys, "activation", K3, "--max-enum", "15")
    assert code == 2
    assert "got 16" in err
    code, out, _ = run(capsys, "activation", K3, "--max-enum", "16")
    assert code == 0
    assert out.startswith("activation classes: 8\n")


def test_exit_code_for_vertex_guard(capsys):
    code, _, err = run(capsys, "contributors", K3, "--max-vertices", "2")
    assert code == 2


def test_guard_flags_take_zero_as_a_value(capsys):
    code, _, err = run(capsys, "contributors", K3, "--max-vertices", "0")
    assert code == 2
    assert "limited to 0 vertices, got 3" in err


@pytest.mark.parametrize(
    "argv", [["verify"], ["total-minor", "--target", "laplacian", "--mode", "det"]]
)
def test_catalog_commands_refuse_k9_from_the_term_count(tmp_path, capsys, argv):
    # Every block of K9 is reached: 17,572,114 completions, the bound for
    # 9 vertices, refused after the sweep and before any block is opened.
    vertices = [f"v{k}" for k in range(1, 10)]
    g = graph_structure(vertices, itertools.combinations(vertices, 2))
    src = tmp_path / "k9.json"
    src.write_text(dumps_oriented(graph_orientation(g)))
    code, out, err = run(capsys, argv[0], str(src), *argv[1:], "--max-vertices", "9")
    assert code == 2
    assert out == ""
    assert err == "resource limit: minor polynomials limited to 1500000 terms, got 17572114\n"


# A child under a 1 GB address-space cap, as size_ladder runs its items:
# it prints the seconds ``main`` took and exits with its code.
CAPPED_MAIN = """
import resource, sys, time
cap = 1024 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from oriented_hypergraphs.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def refusal_under_the_cap(tmp_path, og, argv) -> str:
    """Run ``argv`` on ``og`` as CAPPED_MAIN; require exit 2 in under 1 s, return stderr."""
    src = tmp_path / "input.json"
    src.write_text(dumps_oriented(og))
    source = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, argv[0], str(src), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert float(done.stdout) < 1.0
    return done.stderr


@pytest.mark.parametrize(
    "argv", [["verify"], ["total-minor", "--target", "laplacian", "--mode", "det"]]
)
def test_catalog_commands_refuse_c10_on_the_oracle_rows(tmp_path, argv):
    # The oracle refuses C10's 10 rows before the sweep weighs any figure.
    err = refusal_under_the_cap(tmp_path, rung("C", 10), [*argv, "--max-vertices", "10"])
    assert err == "resource limit: Leibniz expansion limited to 9 rows, got 10\n"


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_charpoly_multivariate_refuses_c9_on_the_term_count(tmp_path, output):
    # C9's sweep leaves blocks with 4,743,226 completions (the bound for
    # 9 vertices is 17,572,114), refused before any block is opened.
    argv = ["charpoly", "--matrix", "laplacian", "--mode", "det", "--multivariate", *output]
    err = refusal_under_the_cap(tmp_path, rung("C", 9), argv)
    assert err == "resource limit: minor polynomials limited to 1500000 terms, got 4743226\n"


def test_guard_flags_only_where_they_are_read(capsys):
    code, _, err = run(capsys, "omega", "--max-enum", "5")
    assert code == 1
    assert "unrecognized arguments" in err
    code, _, err = run(capsys, "matrices", K3, "--max-vertices", "3")
    assert code == 1
    assert "unrecognized arguments" in err


def test_json_output_is_deterministic_and_tagged(capsys):
    code, first, _ = run(capsys, "activation", K3, "--json")
    assert code == 0
    code, second, _ = run(capsys, "activation", K3, "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["format"] == 1
    assert payload["command"] == "activation"
    assert payload["count"] == 8


def test_json_charpoly_payload(capsys):
    code, out, _ = run(
        capsys, "charpoly", K3, "--matrix", "laplacian", "--mode", "det", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [0, 9, -6, 1]
    assert payload["multivariate"] is False


def test_json_total_minor_payload(capsys):
    code, out, _ = run(
        capsys, "total-minor", K3, "--target", "adjacency", "--mode", "det", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    top = payload["terms"][0]
    assert len(top["monomial"]) == 3
    assert isinstance(top["coefficient"], int)
