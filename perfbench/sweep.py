"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--workloads pairs-near,tuples] [--trace 1]

Runs ``run.py`` once per seed and workload, sequentially and each in a fresh
process, cycling through the workloads for each seed so that a drift in
machine speed during the sweep reaches every workload alike. Then prints, per
workload and metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median. ``--out`` also appends every run's JSON line, tagged with
its workload and seed, to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pairs-unrelated", "pairs-near", "tuples", "cli-batch")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    runs = {}
    ok = True
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            runs.setdefault(workload, []).append(dict(result, seed=seed))
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(dict(result, workload=workload, seed=seed)) + "\n")
            print(f"{workload} seed {seed}: attempted {result.get('attempted')} failed {result.get('failed')}",
                  flush=True)

    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        names = sorted({k for r in results for k in r.get("metrics", {})})
        for name in names:
            values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
            unit = next(r["metrics"][name]["unit"] for r in results if name in r.get("metrics", {}))
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} median {med:12.6g} {unit:10s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
