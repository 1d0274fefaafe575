#!/usr/bin/env python3
"""The repository benchmark (see opmbench/METRICS.md).

Run from the root of a checkout:

    python3 opmbench/run.py --workload repro-cold --seed 1 --seconds 30 --trace 0
    python3 opmbench/run.py compare RESULT_A.json RESULT_B.json
    python3 opmbench/run.py --record-digests

The first form builds the repository and the benchmark program from source
(Release, into $CARGO_TARGET_DIR or .bench_build), runs its
self-tests, then runs one workload. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The full result,
with the host fingerprint, lands in <build>/opmbench/results/, and a
traced run (--trace 1) also writes spans and a per-layer self-time table
to <build>/opmbench/traces/.

`compare` reads two such result files. It prints "host changed" and makes
no verdict when their host fingerprints differ. Otherwise it checks each
metric against the bound in BENCHMARK.json.

`--record-digests` prints a fresh harness digest table (for a change that
alters harness output on purpose).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro-cold", "serve-hot")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("opmbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(cmake_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(cmake_dir, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "opmbench_all", "-j", jobs],
                   check=True, **quiet)
    subprocess.run([os.path.join(cmake_dir, "opmbench_selftest"), "--gtest_brief=1"],
                   check=True, **quiet)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "opmbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def compare(paths):
    if len(paths) != 2:
        fail("usage: run.py compare RESULT_A.json RESULT_B.json")
    a, b = (json.load(open(p)) for p in paths)
    if a["host"]["id"] != b["host"]["id"]:
        print("host changed: %s (%s) vs %s (%s); absolute metrics are not compared"
              % (a["host"]["id"], a["host"]["cpu_model"], b["host"]["id"], b["host"]["cpu_model"]))
        return 0
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        fail("the results are of different workloads or modes")
    print("host steal time: %s%% vs %s%%" % (a.get("host_steal_pct", "?"), b.get("host_steal_pct", "?")))
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_any = False
    for name, old in a["result"]["metrics"].items():
        new = b["result"]["metrics"].get(name)
        meta = declared.get(name)
        if new is None or meta is None:
            continue
        change = (new["value"] - old["value"]) / old["value"] if old["value"] else 0.0
        worse = -change if meta["better"] == "higher" else change
        bound = meta.get("bound")
        verdict = "" if bound is None else ("REGRESSION" if worse > bound else "ok")
        worse_any |= verdict == "REGRESSION"
        print("%-32s %14.6g -> %14.6g %-6s %+7.1f%% %s"
              % (name, old["value"], new["value"], meta["unit"], 100 * change, verdict))
    return 1 if worse_any else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not args.record_digests and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "bench/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)

    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    try:
        build(cmake_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build or self-test failed: %s" % e, 1)

    program = [os.path.join(cmake_dir, "opmbench"), "--bin-dir=" + cmake_dir,
               "--digests=" + os.path.join(HERE, "digests.txt"),
               "--out-dir=" + os.path.join(out, "opmbench")]
    if args.record_digests:
        program.append("--record-digests")
    else:
        program += ["--workload=" + args.workload, "--seed=%d" % args.seed,
                    "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
                    "--benchmark-json=" + os.path.join(ROOT, "BENCHMARK.json"),
                    "--revision=" + revision()]
    try:
        return subprocess.run(program, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S, 1)


if __name__ == "__main__":
    sys.exit(main())
