#!/usr/bin/env python3
"""A/A self-check: is the benchmark steady enough for its own bounds?

    python3 simbench/aa.py [--seconds S] [--out results.json]

Runs the same build in two sets. Each set makes one run of every workload
in BENCHMARK.json for each of the seeds 1-10, through
`simbench/run.py --trace 0`, for `--seconds` each (default: run_seconds).
For every end-to-end metric and workload it then reports, per set, the
median and the spread (distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median),
and how far the second set's median moved from the first's, in either
direction. A metric agrees when both spreads and the size of the move are
within its bound; it is steady when both spreads are below a third of its
bound. The exit code is 1 if any metric disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"aa: {workload} seed {seed} reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", help="write every measured value and the verdicts to this file")
    a = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    # values[set][workload][metric] = one value per seed
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for seed in SEEDS:
            for w in workloads:
                for k, v in one_run(w, seed, a.seconds).items():
                    values[s][w].setdefault(k, []).append(v)
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)
    ok = True
    steady = True
    rows = []
    print(f"{'workload':<16}{'metric':<20}{'bound':>6}{'median1':>14}{'spread1':>9}"
          f"{'median2':>14}{'spread2':>9}{'move':>8}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(values[s][w][name]) for s in range(SETS)]
            spreads = [spread(values[s][w][name]) for s in range(SETS)]
            move = meds[1] / meds[0] - 1
            agree = abs(move) <= bound and max(spreads) <= bound
            calm = max(spreads) < bound / 3
            ok &= agree
            steady &= calm
            rows.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                         "medians": meds, "spreads": spreads, "move": move,
                         "agree": agree, "steady": calm})
            verdict = ("agree" if agree else "DISAGREE") + ("" if calm else ", not steady")
            print(f"{w:<16}{name:<20}{bound:>6}{meds[0]:>14.6g}{spreads[0]:>9.4f}"
                  f"{meds[1]:>14.6g}{spreads[1]:>9.4f}{move:>8.4f}  {verdict}")
    print(f"A/A: {'all metrics agree' if ok else 'some metrics disagree'}; "
          f"{'steady' if steady else 'some spreads exceed a third of their bound'}")
    if a.out:
        out = {"sets": SETS, "seconds": a.seconds, "seeds": list(SEEDS),
               "rows": rows, "values": values}
        Path(a.out).write_text(json.dumps(out, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
