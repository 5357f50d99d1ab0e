#!/usr/bin/env python3
"""Campaign benchmark: builds the classfuzz libraries and the campbench
binary from source, runs one workload, checks determinism against earlier
runs of the same workload and seed, and prints every metric.

    python3 campbench/run.py --workload stbr-triage --seed 7 --seconds 50 --trace 0
    python3 campbench/run.py --self-test

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/campbench (default .bench_build/campbench), span traces
to .bench_out/ and the digests of earlier runs to .bench_state/, keyed by
a hash of the sources under test. The last line of standard output is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the campbench binary; returns its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "campbench"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("campbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "campbench")


def run_bench(cmd):
    """Runs the campbench binary to completion; returns its last stdout line."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("campbench: run timed out")
        return None
    lines = out.strip().splitlines()
    if proc.returncode or not lines:
        log("campbench: run exited with %d" % proc.returncode)
        return None
    return lines[-1]


def source_hash():
    """Hash of every file under src/ and campbench/: the code under test.
    A change to it may change the trajectory, so it starts a new record."""
    h = hashlib.sha256()
    for top in ("src", "campbench"):
        for root, dirs, files in os.walk(os.path.join(REPO_DIR, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, REPO_DIR).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_determinism(result):
    """A campaign whose digest or exact counts differ from an earlier run
    of the same sources, workload and campaign seed fails; traced and
    untraced runs share the record. Returns (attempted, failed)."""
    state_dir = ".bench_state"
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, "digests.json")
    try:
        with open(path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    attempted = failed = 0
    code = source_hash()
    for campaign in result["campaigns"]:
        key = "%s/%s/%d" % (code, result["workload"], campaign["seed"])
        mine = {"digest": campaign["digest"], "counts": campaign["counts"]}
        earlier = state.setdefault(key, mine)
        if earlier is mine:
            continue
        attempted += 1
        if earlier != mine:
            failed += 1
            log("campbench: %s differs from an earlier run: %s vs %s"
                % (key, earlier, mine))
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the dd-fine digest is the same at jobs 1 and 2")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    exe = build()
    if exe is None:
        return 1
    if args.self_test:
        line = run_bench([exe, "selftest"])
        if line is None:
            return 1
        print(line)
        return 0

    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".bench_out", "spans-%s-%d.json" % (args.workload, args.seed))]
    line = run_bench(cmd)
    if line is None:
        return 1
    result = json.loads(line)
    attempted, failed = result["attempted"], result["failed"]
    det_attempted, det_failed = check_determinism(result)
    attempted += det_attempted
    failed += det_failed
    for msg in result["failures"]:
        log("campbench: check failed: " + msg)

    print("campbench %s seed=%d trace=%d rounds=%d"
          % (result["workload"], result["seed"], args.trace,
             result["rounds"]))
    for campaign in result["campaigns"]:
        print("  campaign seed=%d digest=%s %s" % (
            campaign["seed"], campaign["digest"],
            " ".join("%s=%d" % kv for kv in sorted(campaign["counts"].items()))))
    speed = result.get("speed")
    if speed:
        print("  host speed: kernel %.4g ms against %.4g ms reference, n=%d;"
              " times and rates below are scaled by %.4g"
              % (speed["kernel_ms"], speed["reference_ms"], speed["n"],
                 speed["scale"]))
    for name, m in result["metrics"].items():
        print("  %-34s %14.6g %-8s n=%d" % (name, m["value"], m["unit"],
                                             m["n"]))
    print("  %-34s %14.6g %-8s n=%d" % (
        "error_frac", failed / attempted if attempted else 0.0, "ratio",
        attempted))
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
