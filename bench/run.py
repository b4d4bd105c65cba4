"""The benchmark's one command.

Driver form (see ``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs that workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` every workload runs, each in a fresh child
process, one at a time::

    python3 bench/run.py [--seed 0] [--laps 3] [--traced] [--smoke]
    python3 bench/run.py --selfcheck

``PYTHONPATH=src python -m bench.run`` is the same program; the script
puts the checkout's ``src/`` on the path itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FACTS_PREFIX = "#facts "
SELFCHECK_REPEATS = 3
#: a set-up difference below this is never a regression: the 12x12
#: workloads set up in 18 ms, and one page fault more is 5 % of that
SETUP_FLOOR_S = 0.05


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the
    driver's checkout is not a repository and reports ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def _envelope(seed: int, laps: int) -> dict:
    return {
        "git": _git_sha(),
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "laps": laps,
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in SPEC["workloads"]],
        help="run this workload in this process (default: all, one child "
             "process each)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="time budget of one run; laps repeat while they fit",
    )
    parser.add_argument(
        "--laps", type=int, default=None,
        help="run exactly this many laps instead of filling --seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", action="store_true",
        help="all-workloads form: add the traced run after the end-to-end "
             "run of each workload",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, two laps: a quick end-to-end check of the "
             "harness; the numbers are not comparable",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="two interleaved sets of runs, their medians compared "
             "against the bounds and their counts exactly",
    )
    return parser


# -- one workload, in this process --------------------------------------------


def run_here(args) -> int:
    from bench import harness

    run = harness.trace if args.trace else harness.measure
    laps = args.laps
    if args.smoke and laps is None:
        laps = 1 if args.trace else harness.MIN_LAPS
    report = run(args.workload, args.seed, args.seconds, laps, args.smoke)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"== {report.workload}: {kind}"
          f"{' [smoke: not comparable]' if args.smoke else ''} ==")
    print("  envelope " + json.dumps(_envelope(args.seed, report.laps)))
    for line in report.lines:
        print(line)
    print(f"  ops_attempted {report.attempted}  ops_failed {report.failed}")
    for problem in report.problems:
        print(f"  PROBLEM: {problem}")
    print(FACTS_PREFIX + json.dumps(report.facts, sort_keys=True))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }))
    return 0 if report.correct else 1


# -- every workload, one child process each ------------------------------------


def _child(args, workload: str, trace: int) -> dict:
    """Run one workload in a fresh interpreter; relay what it prints."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.laps is not None:
        command += ["--laps", str(args.laps)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    facts, result = {}, None
    for line in done.stdout.splitlines():
        if line.startswith(FACTS_PREFIX):
            facts = json.loads(line[len(FACTS_PREFIX):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["facts"] = facts
    return result


def run_set(args, workloads, traced: bool) -> dict:
    """``{(workload, trace): child result}`` for one pass over the
    workloads."""
    results = {}
    for workload in workloads:
        for trace in (0, 1) if traced else (0,):
            results[workload, trace] = _child(args, workload, trace)
    return results


def _all_correct(results: dict) -> bool:
    return all(result["correct"] for result in results.values())


def selfcheck(args, workloads) -> int:
    """Two sets of the same code must agree within the benchmark's own
    bounds, and in every count exactly.

    A set is ``SELFCHECK_REPEATS`` runs of every workload, compared by
    their medians; the two sets' runs alternate, so a slow spell of the
    host (they last tens of seconds here) lands on both.
    """
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    sets = ([], [])
    for repeat in range(SELFCHECK_REPEATS):
        for runs in sets:
            # the traced runs are there for their counts: once per set
            runs.append(run_set(args, workloads, traced=repeat == 0))
    ok = all(_all_correct(results) for runs in sets for results in runs)
    reference = sets[0][0]
    for runs in sets:
        for results in runs:
            for key, result in results.items():
                if result["facts"] != reference[key]["facts"]:
                    ok = False
                    print(f"  {key[0]}: digest or counts differ between runs")

    def set_median(runs, workload, name):
        values = [
            results[workload, 0]["metrics"].get(name, {}).get("value")
            for results in runs
        ]
        return None if None in values else statistics.median(values)

    print(f"== selfcheck: medians of {SELFCHECK_REPEATS} runs, "
          "set 1 against set 2 ==")
    print(f"  {'workload':<17}{'metric':<18}{'set 1':>12}{'set 2':>12}"
          f"{'diff':>8}{'bound':>7}")
    for workload in workloads:
        for name, bound in bounds.items():
            a = set_median(sets[0], workload, name)
            b = set_median(sets[1], workload, name)
            if a is None or b is None:
                ok = False
                print(f"  {workload:<17}{name:<18} missing")
                continue
            diff = abs(b - a) / abs(a)
            within = diff <= bound or (
                name == "setup_s" and abs(b - a) < SETUP_FLOOR_S
            )
            verdict = "" if within else "  OUT OF BOUND"
            ok = ok and within
            print(f"  {workload:<17}{name:<18}{a:>12.5g}{b:>12.5g}"
                  f"{diff:>8.1%}{bound:>7.0%}{verdict}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload and not args.selfcheck and not args.traced:
        return run_here(args)
    workloads = (
        [args.workload] if args.workload
        else [w["name"] for w in SPEC["workloads"]]
    )
    if args.selfcheck:
        return selfcheck(args, workloads)
    results = run_set(args, workloads, traced=args.traced)
    return 0 if _all_correct(results) else 1


if __name__ == "__main__":
    sys.exit(main())
