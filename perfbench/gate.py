"""The output gate: frozen digests and the command-line replay.

At each workload's default seed every item that passed at freeze time
must reproduce its frozen output digest.  On every invocation, each
``ohg`` subcommand is replayed on the three fixtures, as text and as
``--json``, and must print exactly the frozen bytes with the frozen exit
code.  ``freeze.py`` writes both files; nothing here writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
FIXTURES = HERE / "fixtures"

# Per fixture: (--vertices, --edges, --incidences) of a valid subhypergraph.
_CLASSIFY = {
    "g1_k3": ("v1,v2", "e12", "i12a"),
    "g2_sigma1": ("v1,v2", "e1", "i1"),
    "g2_sigma2": ("v1,v2", "e1", "i1"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests(workload: str) -> dict:
    """{"seed": default seed, "digests": {item: digest}} as frozen."""
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_invocations() -> list[list[str]]:
    """Every subcommand on every fixture; ``{fixture}`` stands for its path."""
    per_fixture: list[list[str]] = [["matrices"]]
    for matrix in ("adjacency", "laplacian"):
        for mode in ("det", "perm"):
            per_fixture.append(["charpoly", "--matrix", matrix, "--mode", mode])
            per_fixture.append(["charpoly", "--matrix", matrix, "--mode", mode, "--multivariate"])
            per_fixture.append(["total-minor", "--target", matrix, "--mode", mode])
    per_fixture += [
        ["contributors"],
        ["contributors", "--strong"],
        ["contributors", "--class", "v1:v2"],
        ["loading"],
        ["arborescences", "--roots", "v1"],
        ["activation"],
        ["verify"],
    ]
    out = []
    for name, (vs, es, is_) in _CLASSIFY.items():
        path = f"{{fixtures}}/{name}.json"
        runs = [[cmd[0], path, *cmd[1:]] for cmd in per_fixture]
        runs.append(["classify", path, "--vertices", vs, "--edges", es, "--incidences", is_])
        out += runs
    out.append(["omega"])
    return [argv + extra for argv in out for extra in ([], ["--json"])]


def run_cli(argv: list[str]) -> dict:
    """Exit code and exact output of one in-process ``ohg`` invocation."""
    from oriented_hypergraphs import cli

    real = [arg.replace("{fixtures}", str(FIXTURES)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def replay_cli() -> list[str]:
    """Replay every frozen invocation; returns a line per mismatch."""
    with open(GOLDEN / "cli.json", encoding="utf-8") as fh:
        frozen = json.load(fh)
    mismatches = []
    if [case["argv"] for case in frozen] != cli_invocations():
        mismatches.append("cli: the frozen invocation list differs from the replay list")
    for case in frozen:
        got = run_cli(case["argv"])
        if got != case:
            mismatches.append("cli: " + " ".join(case["argv"]))
    return mismatches
