"""Benchmark command for the `snipe` package.

    python3 perfbench/run.py --workload experiment-n5000 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports `snipe` from its
`src/`. One run repeats the workload for `--seconds` and prints, as its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a separately traced pass with `--trace 1`. The lines before it give the
run's manifest and each metric with its unit. The exit code is 1 when a
correctness check or the coverage guard fails, 2 when the command cannot
run at all. `--workload all` runs every workload, each in a fresh process.

BLAS and OpenMP threads are pinned to 1 before numpy is imported, and the
process is pinned to the allowed CPU that runs a fixed loop fastest: on a
shared host the CPUs of one machine were measured to differ by a third in
speed for minutes at a time, so a run that lands on the slower one would
otherwise read a third slower.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("experiment-n5000", "variance-n5000", "oracle-n16")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_sha():
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _loop_seconds() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(200_000):
        s += i
    return perf_counter() - t0


def _pin_fastest_cpu() -> int:
    """Pin this process to the allowed CPU with the fastest median loop
    time, probing the CPUs in turn so that drift hits all of them alike."""
    cpus = sorted(os.sched_getaffinity(0))
    times = {c: [] for c in cpus}
    for _ in range(9):
        for c in cpus:
            os.sched_setaffinity(0, {c})
            times[c].append(_loop_seconds())
    best = min(cpus, key=lambda c: statistics.median(times[c]))
    os.sched_setaffinity(0, {best})
    return best


def _manifest(args, units, cpu):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "snipe" / "__init__.py").is_file():
        print(f"error: no snipe package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import snipe

    if Path(snipe.__file__).resolve().parent != (src / "snipe").resolve():
        print(f"error: imported snipe from {snipe.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    cpu = _pin_fastest_cpu()
    result, tally, units = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print("manifest " + json.dumps(_manifest(args, units, cpu)))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        code = max(code, proc.returncode)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results), flush=True)
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
