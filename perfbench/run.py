#!/usr/bin/env python3
"""Builds and runs the simulator benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-loops --seed 1 \
        --seconds 10 --trace 0

It refuses to run when any HMTX_* environment knob is set, builds the
benchmark (perfbench/CMakeLists.txt, Release) from the checkout's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs
the one workload in a process of its own, and passes its output
through. The last line of standard output is the result as one JSON
object. Workloads, metrics and layers are described in
perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-loops", "kv-hot-keys", "kv-scan-writes", "check-matrix")
# One run measures for --seconds; everything else it does (set-up,
# warm-up pass, report) takes a few seconds more.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--heldout", action="store_true",
                   help="derive the seed list from the held-out stream")
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (a few small units per pass)")
    return p.parse_args()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for f in sorted(top.rglob("*")):
            if f.is_file() and f.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=log, stderr=log)
    return build_dir / "perfbench"


def main():
    args = parse_args()
    knobs = sorted(k for k in os.environ if k.startswith("HMTX_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set", 2)
    if not (ROOT / "src" / "workloads" / "kv_serve.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--trace-out",
           str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    if args.heldout:
        cmd.append("--heldout")
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
