#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `simbench` package
(release, offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when that
is unset, then runs one workload:

* `--trace 0` runs the untraced binary for `--seconds` and reports the
  end-to-end metrics;
* `--trace 1` runs the untraced binary and then the traced binary
  (counting allocator + host profiler) for half of `--seconds` each, and
  reports the per-layer metrics, with `bench.trace_overhead` = traced
  `wall_s` / untraced `wall_s`.

`--workload all` runs every workload untraced, one after another, and
prints the end-to-end metrics of all of them, and `fail_frac`, as one
table. The last line of standard output is always one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cpuid-trap", "memcached-etc", "tpcc-wal", "memcached-chaos"]
# Upper bound on one binary run, so that a hung run cannot stall the caller.
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Builds both binaries; returns their directory, or exits non-zero."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet", "--bins",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    # Cargo's output goes to stderr: stdout carries only the report.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"simbench: build failed (exit {done.returncode})")
    return target / "release"


def run_binary(path, workload, seed, seconds):
    """Runs one binary; echoes its report and returns its JSON result."""
    cmd = [str(path), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"simbench: {path.name} exited {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"simbench: malformed result from {path.name}")
    return result


def check_names(metrics, expected, what):
    got = set(metrics)
    want = {m["name"] for m in expected}
    if got != want:
        sys.exit(
            f"simbench: {what} metrics do not match BENCHMARK.json: "
            f"missing {sorted(want - got)}, extra {sorted(got - want)}"
        )


def measure(bins, workload, seed, seconds, trace, bench):
    """Runs one workload; a result that is not correct passes through as is."""
    if not trace:
        result = run_binary(bins / "simbench", workload, seed, seconds)
        if result["correct"]:
            check_names(result["metrics"], bench["end_to_end"], "end-to-end")
        return result
    half = seconds / 2
    plain = run_binary(bins / "simbench", workload, seed, half)
    traced = run_binary(bins / "simbench-traced", workload, seed, half)
    metrics = traced["metrics"]
    correct = plain["correct"] and traced["correct"]
    if correct:
        traced_wall = metrics.pop("bench.wall_s")["value"]
        metrics["bench.trace_overhead"] = {
            "value": traced_wall / plain["metrics"]["wall_s"]["value"],
            "unit": "ratio",
        }
        check_names(metrics, bench["per_layer"], "per-layer")
    return {
        "correct": correct,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def run_all(bins, seed, seconds, bench):
    results = {w: measure(bins, w, seed, seconds, False, bench) for w in WORKLOADS}
    names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print()
    print(f"{'metric':<22}{'unit':<7}" + "".join(f"{w:>17}" for w in WORKLOADS))
    for name in names + ["fail_frac"]:
        row = f"{name:<22}{units.get(name, 'ratio'):<7}"
        for w in WORKLOADS:
            r = results[w]
            if name == "fail_frac":
                v = r["failed"] / r["attempted"]
            else:
                v = r["metrics"].get(name, {}).get("value", float("nan"))
            row += f"{v:>17.6g}"
        print(row)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    bench = spec()
    bins = build()
    if a.workload == "all":
        run_all(bins, a.seed, a.seconds, bench)
    else:
        print(json.dumps(measure(bins, a.workload, a.seed, a.seconds, a.trace == 1, bench)))


if __name__ == "__main__":
    main()
