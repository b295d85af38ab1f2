#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced twice and traced once, and
checks that
  - the result JSON names exactly the metrics BENCHMARK.json lists
    (end_to_end untraced, per_layer traced), each with its unit, and a
    "metric"/"layer" line prints each by name with that unit;
  - every ratio and per-access cost prints its base (num / den);
  - no operation failed, at least one was attempted, and the run
    reports correct;
  - two untraced runs at one seed print the same simulated-identity
    digest, and the held-out stream gives a different seed list.
Exits 1 and lists the problems if any check fails.
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BASE = re.compile(r"\(\S+ \S+ / \S+ \S+\)$")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_output(workload, trace, lines, result, spec, problems):
    where = f"{workload} trace={trace}"
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: metric names differ from "
                        f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    prefix = "layer" if trace else "metric"
    printed = {}
    for line in lines:
        parts = line.split(" ", 4)
        if parts[0] == prefix and len(parts) >= 4:
            printed[parts[1]] = (parts[3], parts[4] if len(parts) > 4
                                 else "")
    for name, unit in want.items():
        if name in got and got[name]["unit"] != unit:
            problems.append(f"{where}: {name} has unit {got[name]['unit']}"
                            f", BENCHMARK.json says {unit}")
        if name not in printed:
            problems.append(f"{where}: no '{prefix} {name}' line")
            continue
        punit, rest = printed[name]
        if punit != unit:
            problems.append(f"{where}: {name} printed with unit {punit}")
        is_ratio = unit == "ratio" or "ns_per_access" in name or \
            name == "trace.overhead_pct"
        if is_ratio and "not measured" not in rest and \
                not BASE.search(rest):
            problems.append(f"{where}: ratio {name} prints no base: "
                            f"{rest!r}")
    if result["failed"] != 0 or result["attempted"] < 1 or \
            result["correct"] is not True:
        problems.append(f"{where}: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")


def field(lines, prefix):
    return next((l for l in lines if l.startswith(prefix)), None)


def digest(lines):
    """The hex of the "sim_digest <workload> <hex> (...)" line."""
    line = field(lines, "sim_digest")
    return line.split()[2] if line else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        lines0, res0 = run(wl, 0)
        check_output(wl, 0, lines0, res0, spec["end_to_end"], problems)
        lines1, res1 = run(wl, 1)
        check_output(wl, 1, lines1, res1, spec["per_layer"], problems)
        again, _ = run(wl, 0)
        d0, d1 = digest(lines0), digest(again)
        if d0 is None or d0 != d1:
            problems.append(f"{wl}: digests differ at one seed: {d0!r} vs "
                            f"{d1!r}")
        held, _ = run(wl, 0, "--heldout")
        if wl != "paper-loops" and \
                field(held, "params") == field(lines0, "params"):
            problems.append(f"{wl}: --heldout did not change the seed list")
        print(f"{wl}: {res0['attempted']} attempted, {res0['failed']} "
              f"failed, digest {d0}")
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
