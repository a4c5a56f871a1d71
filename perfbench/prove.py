"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/prove.py --workloads mc-l1l2 audit --seeds 1-10 \\
        --out perfbench/_work/prove.json

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to a third of the metric's bound from BENCHMARK.json.  Runs are made
one after another, each in its own process that is waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for key in ("env", "detail"):
        result[key] = next((json.loads(line[len(key) + 1:]) for line in lines
                            if line.startswith(key + " ")), None)
    return result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the summary and every result as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    moves = tracing.MOVES if args.trace else {}

    report = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in parse_seeds(args.seeds)]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        report[workload] = {"failed": sum(r["failed"] for r in results),
                            "attempted": sum(r["attempted"] for r in results),
                            "metrics": metrics, "runs": results}
        print(f"{workload}: failed {report[workload]['failed']} of "
              f"{report[workload]['attempted']}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            limit = f"  (bound/3 {bound / 3:.3f})" if bound else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:44s} median {s['median']:.6g}  spread {spread}{limit}"
                  + (f"  moves: {moves[name]}" if name in moves else ""))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
