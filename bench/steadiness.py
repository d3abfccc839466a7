"""Steadiness report: repeated runs of one commit, with median and quartiles per metric.

Run from the root of a checkout:

    python3 bench/steadiness.py --seeds 1-10

Each seed is one untraced run of bench/run.py per workload of BENCHMARK.json,
one at a time, at its ``run_seconds``.  For every end-to-end metric the report
gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and the
metric's bound; a spread above a third of the bound is flagged.  For the time
metrics it also gives the median and spread of the unscaled wall times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list) -> tuple:
    """(median, q1, q3, spread)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            *_, raw_line, result_line = proc.stdout.splitlines()
            result = json.loads(result_line)
            raw = {k: v["value"] for k, v in json.loads(raw_line)["raw_wall"].items()}
            runs.setdefault(workload, []).append((result, raw))
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'workload':12} {'metric':14} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'raw median':>11} {'raw spread':>10}")
    for workload, results in runs.items():
        for name, bound in bounds.items():
            med, q1, q3, spread = quartiles([r["metrics"][name]["value"] for r, _ in results])
            raw = ""
            if name in results[0][1]:
                raw_med, _, _, raw_spread = quartiles([w[name] for _, w in results])
                raw = f" {raw_med:11.4g} {raw_spread:10.3f}"
            flag = "" if spread <= bound / 3 else "  above bound/3"
            print(f"{workload:12} {name:14} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound:6.2f}{raw}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
