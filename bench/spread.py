#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's median,
quartiles and spread (interquartile distance over the median).

    python3 bench/spread.py --workload mc --seeds 1-10 [--trace 0|1] [--seconds 30]

Runs are sequential, one process at a time. Every run's result line is
appended to ``bench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    bad = 0
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = next((json.loads(line[len("detail "):]) for line in lines
                       if line.startswith("detail ")), None)
        bad += not result["correct"]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result, "detail": detail}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.2%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
