"""Compare a parent and a change on the benchmark, over interleaved run pairs.

    python3 bench/compare.py --parent DIR --change DIR [--pairs 10]
                             [--workload NAME ...]

``DIR`` is the root of a checkout of each side.  Both sides run this
checkout's ``bench/run.py`` (identical benchmark code and settings, runs
of ``run_seconds`` from ``BENCHMARK.json``, the length its bounds were
measured at) with the side's own ``src/`` under test.  At least
``MIN_PAIRS`` pairs are required.  Pair ``i`` runs both sides on seed
``BASE_SEED + i``, the parent first in even pairs and the change first
in odd ones.  One row per workload and end-to-end metric gives each side's
median and quartiles, the pairs the change won, and a verdict:

* ``gain``: the change won at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's IQR and by
  more than ``MIN_GAIN`` of the parent's median (a near-constant metric
  such as peak RSS has an IQR near zero, so otherwise two checkouts of
  the same code in different directories can differ "significantly");
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: either side's IQR, as a share of its median, is wider
  than the bound, and not every change run beats every parent run;
* ``no change`` otherwise.

A gain does not count when the change failed a larger share of its
operations than the parent.  The exit code is 1 when any row is a
regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BASE_SEED = 1000
MIN_PAIRS = 10  # a gain needs 9 wins in at least 10 pairs
MIN_GAIN = 0.01  # of the parent's median, the smallest gain claimed


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric: dict, parent: list[float], change: list[float],
            more_failures: bool) -> tuple[int, str]:
    """Pairs the change won, and the row's verdict (see module doc)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    bound = metric["bound"]
    if sign * (pmed - cmed) > bound * abs(pmed):
        return wins, "regression"
    spread = max((p3 - p1) / abs(pmed), (c3 - c1) / abs(cmed))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return wins, "unresolved"
    margin = sign * (cmed - pmed)
    if (wins >= 0.9 * len(parent) and margin > p3 - p1
            and margin > MIN_GAIN * abs(pmed) and not more_failures):
        return wins, "gain"
    return wins, "no change"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: dict[tuple[str, str], list[dict]] = {}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 \
            else ["change", "parent"]
        for workload in workloads:
            for side in order:
                result = run_side(sides[side], workload, BASE_SEED + pair,
                                  spec["run_seconds"])
                runs.setdefault((workload, side), []).append(result)
                print(f"pair {pair} {workload} {side}: done", file=sys.stderr)

    regressions = 0
    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in workloads:
        parent_runs = runs[(workload, "parent")]
        change_runs = runs[(workload, "change")]
        shares = {}
        for side, results in (("parent", parent_runs),
                              ("change", change_runs)):
            shares[side] = sum(r["failed"] for r in results) \
                / sum(r["attempted"] for r in results)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            wins, outcome = verdict(metric, parent, change,
                                    shares["change"] > shares["parent"])
            regressions += outcome == "regression"
            p1, pmed, p3 = quartiles(parent)
            c1, cmed, c3 = quartiles(change)
            print(f"{workload:16} {name:18} "
                  f"{pmed:12.4g} [{p1:8.4g}, {p3:8.4g}] "
                  f"{cmed:12.4g} [{c1:8.4g}, {c3:8.4g}] "
                  f"{wins:>3}/{len(parent):<2}  {outcome}")
        worse = shares["change"] > shares["parent"]
        print(f"{workload:16} {'failed share':18} "
              f"{shares['parent']:12.4g} {'':20} "
              f"{shares['change']:12.4g} {'':20} {'':6}  "
              f"{'more failures' if worse else 'ok'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
