"""Freeze the output gate from the library as it is now.

    python3 perfbench/freeze.py

Writes ``golden/<workload>.json`` (the output digest of every item that
passes at the workload's default seed) and ``golden/cli.json`` (the
exact output of every replayed ``ohg`` invocation).  Run it only when a
change of outputs is intended; the diff of these files shows that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import gate
    import inputs
    import workloads

    gate.GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        seed = inputs.DEFAULT_SEEDS[workload]
        prelude, items = workloads.items_for(workload, seed)
        outcome = run._one_pass(workload, prelude, items, True, False)
        digests = {r["item"]: r["digest"] for r in outcome["outcomes"] if "digest" in r}
        failures = [f"{r['item']} ({r['status']})" for r in outcome["outcomes"] if r["status"] != "ok"]
        with open(gate.GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "digests": digests}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(digests)} digests; not frozen: {', '.join(failures) or 'none'}")
    cases = [gate.run_cli(argv) for argv in gate.cli_invocations()]
    with open(gate.GOLDEN / "cli.json", "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    print(f"cli: {len(cases)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
