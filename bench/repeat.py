"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 bench/repeat.py --workload paper_2s4 --seeds 1-10 --seconds 28 [--trace 1]

Prints one JSON object: for every metric its median, quartiles and spread
(interquartile distance over the median, from statistics.quantiles(n=4)),
plus each run's attempted/failed counts and raw per-operation wall times.
Runs are sequential, each in a fresh process started from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """'1-10' or '3,5,8'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    runs, metrics = [], {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "op_walls": context["op_walls"],
                     "slowdowns": context["slowdowns"], "quality": context["quality"]})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}",
              file=sys.stderr, flush=True)
    out = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "git_commit": context["git_commit"], "src_sha256": context["src_sha256"],
           "metrics": {n: {"unit": m["unit"], **summary(m["values"])} for n, m in metrics.items()},
           "runs": runs}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
