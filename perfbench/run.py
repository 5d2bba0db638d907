#!/usr/bin/env python3
"""End-to-end benchmark of the accelerex pipeline (see README.md here).

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark (Release, default ACX_SIMD) from this checkout into
.bench_build/ (or $CARGO_TARGET_DIR), runs one workload and prints the
metrics, one `#` line each with unit and sample count, then as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics, and also writes a Chrome trace file.

Other modes:
    --selftest       build and run the tests of the benchmark's metric code
    --steadiness     run two sets of seeds per workload on this commit and
                     report each end-to-end metric's medians, quartiles and
                     whether the sets agree within the bounds of BENCHMARK.json
                     (--runs N per set, --workloads a,b, --first-seed)
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUN_LIMIT_S = 170  # the measuring binary's own limit, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no program sources next to the benchmark "
            f"({REPO / 'src'} is missing); nothing to build")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: cmake configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        sys.exit(1)
    return out


def source_identity():
    """The git sha when this is a git checkout, and always a digest of
    the sources the benchmark builds from."""
    sha = "none"
    if (REPO / ".git").exists():
        r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for root in (REPO / "src", HERE / "src"):
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def declared_metrics():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def fmt(v):
    return "null" if v is None else f"{v:.6g}"


def run_one(args):
    out = build()
    spec = declared_metrics()
    sha, digest = source_identity()
    trace_out = out / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out),
                "--disk-root", str(out / "fs" / f"{args.workload}-seed{args.seed}")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_LIMIT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: benchmark binary exited {proc.returncode}")
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    meta = result["meta"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# git_sha {sha} source_digest {digest} build_type {meta['build_type']} "
          f"ACX_SIMD {'ON' if meta['acx_simd_default'] else 'OFF'} "
          f"({meta['acx_simd_kernels']}) nproc {meta['nproc']} "
          f"threads {meta['threads']}")
    for name, m in result["metrics"].items():
        dist = ""
        if "per_event" in m:
            d = m["per_event"]
            dist = f"; per event: median {fmt(d['median'])}"
            if "tail_q" in d:
                dist += f", p{100 * d['tail_q']:g} {fmt(d['tail'])}"
        print(f"# {name} = {fmt(m['value'])} {m['unit']} "
              f"(n={m['samples']}{dist})")
    for e in result["errors"]:
        print(f"# CHECK FAILED: {e}")
    if args.trace:
        print(f"# chrome trace: {trace_out}")

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    correct = bool(result["correct"])
    if sorted(wanted) != sorted(result["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(wanted) ^ set(result['metrics']))}")
        correct = False
    if any(m["value"] is None for m in result["metrics"].values()):
        log("perfbench: a metric could not be measured")
        correct = False
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in wanted if n in result["metrics"]},
    }
    print(json.dumps(line))
    return 0 if correct else 1


def run_selftest():
    out = build()
    return subprocess.run([str(out / "perfbench_selftest")]).returncode


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def run_steadiness(args):
    spec = declared_metrics()
    build()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    agree = True
    seed = args.first_seed
    for workload in workloads:
        # The two sets interleave run by run, so a drift of the host's
        # speed lands on both alike.
        sets = ([], [])
        for _ in range(args.runs):
            for runs in sets:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                took = time.monotonic() - t0
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: run failed\n{proc.stdout}"
                          f"{proc.stderr[-2000:]}")
                    return 1
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({n: m["value"] for n, m in line["metrics"].items()})
                print(f"{workload} seed {seed}: {took:.1f} s "
                      + " ".join(f"{n}={v:.6g}" for n, v in runs[-1].items()),
                      flush=True)
                seed += 1
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets):
                q1, q2, q3, s = spread([r[name] for r in runs])
                medians.append(q2)
                within = s <= bound
                verdict = ("steady" if s <= bound / 3 else
                           "within bound" if within else "TOO WIDE")
                agree &= within
                print(f"  {name:<16} {k + 1:>3} {q1:>12.6g} {q2:>12.6g} "
                      f"{q3:>12.6g} {s:>8.4f} {bound:>6}  {verdict}")
            base, now = medians
            worse = ((now - base) / base if m["better"] == "lower"
                     else (base - now) / base) if base else 0.0
            ok = worse <= bound
            agree &= ok
            print(f"  {name:<16} set 2 vs 1: median worse by "
                  f"{100 * worse:+.2f} % -> {'agree' if ok else 'DISAGREE'}")
    print("\nall sets agree within the bounds" if agree
          else "\nsets DISAGREE or spread too wide")
    return 0 if agree else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.selftest:
        return run_selftest()
    if args.steadiness:
        return run_steadiness(args)
    if not args.workload:
        p.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
