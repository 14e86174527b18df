#!/usr/bin/env python3
"""Runs the benchmark repeatedly and records a baseline.

From the repository root:

    python3 perfbench/baseline.py                      # every workload
    python3 perfbench/baseline.py --runs 5 serve_lenet_w1
    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Each workload runs `--runs` times untraced, each run with its own seed, and
once traced. For every end-to-end metric it prints the median and the
spread (first-to-third quartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) next to the
metric's bound from BENCHMARK.json. With `--out` it writes the medians, the
traced run's per-layer numbers and the host description to a JSON file.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The result line must hold every metric of its list, in its unit.
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        sys.exit(f"{workload} seed {seed} trace {trace}: metrics {got} differ from {wanted}")
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s", flush=True)
    return result, printed(lines, r"resolved backend: ([\w-]+)"), \
        printed(lines, r"build features: ([\w,]*)")


def printed(lines, pattern):
    """The first capture of `pattern` in the run's output, or None."""
    return next((m.group(1) for m in map(re.compile(pattern).search, lines) if m), None)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
    except OSError:
        return platform.processor(), []
    model = re.search(r"model name\s*:\s*(.*)", info)
    flags = re.search(r"flags\s*:\s*(.*)", info)
    wanted = ["avx2", "fma", "avx512f", "avx512vnni"]
    have = flags.group(1).split() if flags else []
    return (model.group(1) if model else "unknown"), [f for f in wanted if f in have]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=101, help="seed of the first run")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", help="write the baseline to this JSON file")
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    baseline = {"workloads": {}}
    backends, features = set(), set()
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            result, backend, feats = run_once(bench, workload, seed, args.seconds, 0)
            backends.add(backend)
            features.add(feats)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: outputs not correct: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print(f"  {name:<16} median {med:<14.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}, {spread / bounds[name]:.2f} of it)")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        traced, backend, feats = run_once(bench, workload, args.seed0, args.seconds, 1)
        backends.add(backend)
        features.add(feats)
        baseline["workloads"][workload] = {
            "runs": args.runs,
            "seeds": [args.seed0, args.seed0 + args.runs - 1],
            "end_to_end": summary,
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
    print(f"largest spread: {worst:.2f} of its bound")

    if args.out:
        model, flags = cpu_model()
        baseline["host"] = {
            "nproc": os.cpu_count(),
            "cpu_model": model,
            "cpu_flags": flags,
            "resolved_backend": sorted(b for b in backends if b),
            "build_features": sorted({f for fs in features if fs for f in fs.split(",")}),
            "run_seconds": args.seconds,
        }
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
