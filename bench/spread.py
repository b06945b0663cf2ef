"""Run one workload on several seeds and print each metric's median and
spread (quartile distance over median), the figures bench/README.md quotes.

    python3 bench/spread.py --workload search --seeds 1-10 --seconds 20

Runs one after another, each in its own process, and waits for each.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{done.stderr}")
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{args.workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds} s runs, failed/attempted {sorted(shares)}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:38s} {median:14.6g} {units[name]:6s} "
              f"spread {100 * spread:5.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
