"""Run-to-run spread of the benchmark across seeds.

    python3 perfbench/spread.py --workload variance-n5000 --seeds 1-10 --seconds 30

Runs the benchmark command once per seed, one run at a time, and prints
for each metric the median, the quartiles and the quartile distance as a
share of the median, the figure the metric's bound is compared with.
`--out` also writes the runs and the summary as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        lines = proc.stdout.splitlines()
        manifest = json.loads(next(line for line in lines if line.startswith("manifest ")).split(" ", 1)[1])
        runs.append({"seed": seed, "wall_s": wall, "manifest": manifest, **json.loads(lines[-1])})
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"] if len(runs) > 1 else ():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}
        print(f"{name:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/median {summary[name]['iqr_share']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
