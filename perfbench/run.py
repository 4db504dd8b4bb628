#!/usr/bin/env python3
"""Build the ringnet benchmark program (perfbench) from source and run it.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --self-test               # benchmark self-tests

Run from the repository root. The program (perfbench/src, built with
perfbench/CMakeLists.txt against the repository's own library sources) is
compiled in Release mode under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. Build output goes to stderr; the
program's standard output is passed through, so its last line is the
result JSON. The exit code is the program's (non-zero when an output check
fails), or 1 when the build fails.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build the program; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_perfbench(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE)
    return proc.returncode, proc.stdout.decode(errors="replace")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """Names agree with BENCHMARK.json, a short run of every workload passes
    its output checks, and the outside latency stamps agree with the
    program's own MhRuntime::latencies_us() to within one tick."""
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rc, listing = run_perfbench(binary, ["--list"])
    printed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        kind, *rest = line.split()
        printed[kind].append(tuple(rest))
    declared = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for kind in declared:
        if sorted(declared[kind]) != sorted(printed[kind]):
            failures.append("%s names differ: BENCHMARK.json %s, perfbench %s"
                            % (kind, declared[kind], printed[kind]))
    e2e = sorted(m["name"] for m in spec["end_to_end"])
    tick_us = 1000  # NodeLoop's default tick
    for w in spec["workloads"]:
        before = len(failures)
        rc, out = run_perfbench(binary, ["--workload", w["name"], "--seed", "7",
                                      "--seconds", "1", "--trace", "0"])
        result = last_json(out)
        if rc != 0 or not result or not result["correct"] or result["failed"] != 0:
            failures.append("%s: short run failed its output checks (rc %d)\n%s"
                            % (w["name"], rc, out))
            continue
        if sorted(result["metrics"]) != e2e:
            failures.append("%s: printed metrics %s" % (w["name"], sorted(result["metrics"])))
        stamp = re.search(r"own-latency max \|outside - latencies_us\(\)\| = (\d+) us over (\d+)", out)
        if w["name"] != "sim_100k":
            if not stamp or int(stamp.group(2)) == 0 or int(stamp.group(1)) > tick_us:
                failures.append("%s: latency stamps disagree with the program: %s"
                                % (w["name"], stamp.group(0) if stamp else "no self-check line"))
        print("self-test %s: %s" % (w["name"], "ok" if len(failures) == before else "FAIL"))
    for f in failures:
        print("FAIL: " + f)
    print("self-test: %s" % ("PASS" if not failures else "FAIL"))
    return 0 if not failures else 1


def main():
    binary = build()
    if binary is None:
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
