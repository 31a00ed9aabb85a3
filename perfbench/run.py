"""Benchmark of the oriented-hypergraphs library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload size_ladder --seed 2019 --seconds 5 --trace 0

``--workload`` is one of corpus_oracle, size_ladder, topos_laws, or
``all`` to run the three in turn.  ``--seed`` defaults to the seed that
reproduces the acceptance suite's inputs.  ``--seconds`` is the time
given to timing short items again (see ``_measure``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  ``--report FILE`` also writes
every item's outcome.  The exit code is 0 only when every output check
and the replay passed.

Load shape: a closed loop.  This single-threaded driver forks one worker
child at a time and sends the next item only after the previous one has
returned.  A size_ladder item gets a child of its own, with a fixed
wall-time budget and address-space cap; the other workloads run a
slice of a pass, or a round of repeats, in one child.  Fork is safe here
because the driver starts no threads, and a fork per item lets the
driver read each item's peak resident set from the kernel's accounting
of that child.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Ladder rules.  The slowest passing items take about 4 s, so a 6 s budget
# leaves them room; every item failing at commit 67cde84 needs 20 s or
# more.  The cap is ROADMAP's "under 1 GB".
ITEM_BUDGET_S = 6.0
ITEM_CAP_MB = 1024
# A corpus_oracle or topos_laws pass (about 19 s and 11 s at commit 67cde84).
PASS_BUDGET_S = 120.0
# A traced ladder item may take this many budgets before it is abandoned.
TRACE_SLACK = 5
# A run is one untraced pass in CHUNKS slices, one child each (on the
# ladder a child per item anyway).  After every slice, a round times short
# items again: items that passed and took at most REPEAT_BELOW times the
# median item time so far, fewest repeats first, at most MAX_REPEATS
# each, for up to --seconds / CHUNKS of their time.  A last round gives
# every short item at least one repeat.  An item's time is the mean of
# its timings without the slowest; README.md ("Timing") says why.
CHUNKS = 6
REPEAT_BELOW = 3.0
MAX_REPEATS = 5


def _fork_worker(work, budget_s: float, cap_mb: int | None):
    """Run ``work(emit)`` in a forked child, reading JSON records it emits.

    Returns (records, killed, usage), ``usage`` being the child's rusage.
    A child still running at the budget is killed; records it emitted
    before that are kept.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # The child's collector then leaves the driver's objects alone, so it
    # does not copy their pages while an item is being timed.
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            if cap_mb is not None:
                cap = cap_mb * 1024 * 1024
                resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            with os.fdopen(write_fd, "w", encoding="utf-8") as out:

                def emit(record: dict) -> None:
                    out.write(json.dumps(record) + "\n")
                    out.flush()

                work(emit)
        except BaseException:  # the child must never return into the driver
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    deadline = monotonic() + budget_s
    chunks = []
    killed = False
    try:
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    lines = b"".join(chunks).decode("utf-8").split("\n")[:-1]  # drop a partial last line
    return [json.loads(line) for line in lines], killed, usage


@contextlib.contextmanager
def _untraced(tracer):
    """Library calls inside are not traced (warm-ups and digests)."""
    if tracer is not None:
        tracer.enabled = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.enabled = True


def _execute(item, digests: bool, tracer) -> tuple[dict, float]:
    """Run one item; returns its record and the untimed digest time."""
    from oriented_hypergraphs.errors import ResourceLimitError
    from workloads import Wrong

    if item.warmup is not None:
        with _untraced(tracer):
            try:
                item.warmup()
            except Exception:  # the smallest rung's own item reports its failure
                pass
    detail = ""
    result = None
    start = perf_counter()
    try:
        result = item.run()
        status = "ok"
    except Wrong as exc:
        status, detail = "wrong", str(exc)
    except MemoryError:
        status = "memory"
    except ResourceLimitError as exc:
        status, detail = ("ok" if item.limit_ok else "limit"), str(exc)
    except Exception as exc:  # reported as a wrong outcome of this item
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    record = {"item": item.name, "status": status, "s": elapsed, "detail": detail}
    if not (digests and status == "ok" and result is not None):
        return record, 0.0
    from gate import digest

    mark = perf_counter()
    with _untraced(tracer):
        record["digest"] = digest(item.summary(result))
    return record, perf_counter() - mark


def _worker(items, prelude, digests: bool, traced: bool):
    """The child's work: optional tracing, the prelude, then the items,
    each reported as it ends.  ``pass_s`` leaves out digests and reports."""

    def work(emit) -> None:
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        untimed = 0.0
        if prelude is not None:
            prelude()
        for item in items:
            record, digest_s = _execute(item, digests, tracer)
            mark = perf_counter()
            emit(record)
            untimed += digest_s + perf_counter() - mark
        emit({"pass_s": perf_counter() - start - untimed})
        if tracer is not None:
            emit({"trace": tracer.snapshot()})

    return work


def _whole_pass(items, prelude, digests: bool, traced: bool) -> dict:
    """corpus_oracle and topos_laws: the whole pass in one child."""
    records, killed, usage = _fork_worker(_worker(items, prelude, digests, traced), PASS_BUDGET_S, None)
    done = {r["item"]: r for r in records if "item" in r}
    lost = {"status": "time" if killed else "crash", "s": PASS_BUDGET_S, "detail": ""}
    outcomes = [done.get(item.name, {"item": item.name, **lost}) for item in items]
    return {
        "run_s": next((r["pass_s"] for r in records if "pass_s" in r), PASS_BUDGET_S),
        "outcomes": outcomes,
        "peak_mb": usage.ru_maxrss / 1024,
        "traces": [r["trace"] for r in records if "trace" in r],
    }


def _ladder_pass(items, digests: bool, traced: bool, passed=None, failed_chains=None) -> dict:
    """size_ladder: one child per item, under the ladder rules.

    A failed item is charged the full budget in time and the full cap in
    memory.  Once an item fails, the later items of its chain (the same
    kind on larger rungs of the family) are recorded as failed unrun; a
    pass run in slices shares ``failed_chains`` between them.  A traced
    pass runs only the items in ``passed``, with more time.
    """
    budget = ITEM_BUDGET_S * (TRACE_SLACK if traced else 1)
    failed_chains = set() if failed_chains is None else failed_chains
    outcomes, traces = [], []
    peak = 0.0
    for item in items:
        if item.chain in failed_chains or (passed is not None and item.name not in passed):
            record = {"item": item.name, "status": "skipped", "s": 0.0, "detail": ""}
        else:
            work = _worker([item], None, digests, traced)
            records, killed, usage = _fork_worker(work, budget, ITEM_CAP_MB)
            lost = {"item": item.name, "status": "time" if killed else "crash", "s": budget, "detail": ""}
            record = next((r for r in records if "item" in r), lost)
            record["peak_mb"] = usage.ru_maxrss / 1024
            traces += [r["trace"] for r in records if "trace" in r]
            peak = max(peak, record["peak_mb"])
        if record["status"] != "ok":
            record["s"] = ITEM_BUDGET_S
            peak = float(ITEM_CAP_MB)
            if item.chain is not None:
                failed_chains.add(item.chain)
        outcomes.append(record)
    return {
        "run_s": sum(r["s"] for r in outcomes),
        "outcomes": outcomes,
        "peak_mb": peak,
        "traces": traces,
    }


def _one_pass(workload, prelude, items, digests, traced, passed=None, failed_chains=None) -> dict:
    if workload == "size_ladder":
        return _ladder_pass(items, digests, traced, passed, failed_chains)
    return _whole_pass(items, prelude, digests, traced)


def _join(parts: list[dict]) -> dict:
    """One pass from the passes of its slices."""
    return {
        "run_s": sum(p["run_s"] for p in parts),
        "outcomes": [r for p in parts for r in p["outcomes"]],
        "peak_mb": max(p["peak_mb"] for p in parts),
    }


_SETUP = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import gate, workloads
workloads.items_for({workload!r}, {seed!r})
gate.load_digests({workload!r})
print(time.perf_counter() - start)
"""


def _time_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter: imports, inputs, frozen digests."""
    code = _SETUP.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _repeat_round(workload, prelude, items, outcomes, repeats: dict, budget_s: float, below: int):
    """A round of short items timed again, or None when none is due.

    Due are the items that passed everywhere in ``outcomes``, took at most
    REPEAT_BELOW times the median, and have fewer than ``below`` repeats.
    The fewest repeats go first, up to ``budget_s`` of their times (at
    least one item).  The round is a pass of its own over them
    (fresh children, the ladder rules), so every timing starts from the
    same cold state.
    """
    failed = {r["item"] for r in outcomes if r["status"] != "ok"}
    times = {name: s for name, s in _item_times(outcomes).items() if name not in failed}
    if not times:
        return None
    limit = REPEAT_BELOW * statistics.median(times.values())
    due = [i for i in items if times.get(i.name, limit + 1) <= limit and repeats.get(i.name, 0) < below]
    chosen, cost = set(), 0.0
    for item in sorted(due, key=lambda i: repeats.get(i.name, 0)):
        if not chosen or cost + times[item.name] <= budget_s:
            chosen.add(item.name)
            cost += times[item.name]
            repeats[item.name] = repeats.get(item.name, 0) + 1
    if not chosen:
        return None
    return _one_pass(workload, prelude, [i for i in items if i.name in chosen], False, False)


def _measure(workload, prelude, items, digests: bool, seconds: float, after_slice):
    """The untraced pass, in slices, with a repeat round after each slice
    and a last round for short items no round reached yet.
    ``after_slice()`` runs after each slice.  Returns (pass, rounds)."""
    parts: list[dict] = []
    rounds: list[dict] = []
    repeats: dict = {}
    failed_chains: set = set()
    size = -(-len(items) // CHUNKS)
    for k in range(0, len(items), size):
        parts.append(_one_pass(workload, prelude, items[k : k + size], digests, False, None, failed_chains))
        seen = [r for p in parts + rounds for r in p["outcomes"]]
        again = _repeat_round(workload, prelude, items, seen, repeats, seconds / CHUNKS, MAX_REPEATS)
        if again is not None:
            rounds.append(again)
        after_slice()
    seen = [r for p in parts + rounds for r in p["outcomes"]]
    again = _repeat_round(workload, prelude, items, seen, repeats, float("inf"), 1)
    if again is not None:
        rounds.append(again)
    return _join(parts), rounds


def _item_times(outcomes: list[dict]) -> dict:
    """Each item's time: the mean of its timings, leaving out the slowest
    when there are three or more, or what its failure was charged when it
    failed in any pass or round."""
    timings: dict = {}
    failed: dict = {}
    for r in outcomes:
        if r["status"] == "ok":
            timings.setdefault(r["item"], []).append(r["s"])
        else:
            failed[r["item"]] = r["s"]
    means = {name: statistics.fmean(sorted(ts)[:-1] if len(ts) >= 3 else ts) for name, ts in timings.items()}
    return {**means, **failed}


def run_workload(workload: str, seed: int | None, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: set-ups, the replay gate, the pass and its repeat rounds
    (``seconds`` of repeats, see ``_measure``), metrics.

    Set-up is timed in a fresh interpreter before the pass and after each
    of its slices, and ``setup_s`` is the median.  A traced run adds one
    traced pass after the untraced one.
    """
    import gate
    import inputs
    import workloads

    if seed is None:
        seed = inputs.DEFAULT_SEEDS[workload]
    setups = [_time_setup(workload, seed)]
    prelude, items = workloads.items_for(workload, seed)
    golden = gate.load_digests(workload)
    digests = seed == golden["seed"]

    problems = gate.replay_cli()
    untraced, rounds = _measure(
        workload, prelude, items, digests, seconds, lambda: setups.append(_time_setup(workload, seed))
    )
    setup_s = statistics.median(setups)
    first = untraced["outcomes"]
    # A repeat that fails fails its item.
    by_name = {r["item"]: r for r in first}
    for r in (r for p in rounds for r in p["outcomes"] if r["status"] != "ok"):
        by_name[r["item"]].update(status=r["status"], detail=r["detail"])
    outcomes = [r for p in [untraced, *rounds] for r in p["outcomes"]]
    item_s = _item_times(outcomes)
    timings: dict = {}
    for r in outcomes:
        timings.setdefault(r["item"], []).append(r["s"])
    run_s = sum(item_s.values())

    traced = None
    if trace:
        passed = {r["item"] for r in first if r["status"] == "ok"}
        traced = _one_pass(workload, prelude, items, digests, True, passed)
        outcomes += traced["outcomes"]

    for record in outcomes:
        if record["status"] in ("wrong", "error"):
            problems.append(f"{record['item']}: {record['status']} {record['detail']}")
        frozen = golden["digests"].get(record["item"])
        if frozen is not None and "digest" in record and record["digest"] != frozen:
            problems.append(f"{record['item']}: output digest {record['digest']} != frozen {frozen}")

    attempted = len(first)
    failed = sum(r["status"] != "ok" for r in first)
    if trace:
        from tracer import layer_metrics, merge

        total: dict = {}
        for part in traced["traces"]:
            merge(total, part)
        metrics = layer_metrics(total, traced["run_s"] / untraced["run_s"] - 1)
    else:
        latencies = [s * 1000 for s in item_s.values()]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "item_ms.p50": {"value": statistics.median(latencies), "unit": "ms"},
            "item_ms.p90": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": max(p["peak_mb"] for p in [untraced, *rounds]), "unit": "MB"},
            "passed_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "pass_s": untraced["run_s"],
        "repeat_rounds": len(rounds),
        "problems": problems,
        "failures": [
            {"item": r["item"], "status": r["status"], "detail": r["detail"]}
            for r in first
            if r["status"] != "ok"
        ],
        "items": [{**r, "item_s": item_s[r["item"]], "timings_s": timings[r["item"]]} for r in first],
        "result": result,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus_oracle", "size_ladder", "topos_laws", "all"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=5.0, help="time for repeat timings of short items")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="write every item's outcome to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "oriented_hypergraphs" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    names = ("corpus_oracle", "size_ladder", "topos_laws") if args.workload == "all" else (args.workload,)
    results, reports = {}, []
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        reports.append(report)
        for problem in report["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(reports if len(reports) > 1 else reports[0], fh, indent=1)
            fh.write("\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
