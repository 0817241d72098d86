#!/usr/bin/env python3
"""Build and run the repo benchmark; print its JSON record as the last line.

    python3 perfbench/run.py --workload elephant --seed 1 --seconds 30 --trace 0 \
        --rates elephant=150,many_flows=300,conn_churn=250

Run from the repository root. The first run configures and builds the
sprayer libraries and the benchmark program under .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench); later runs rebuild incrementally. The
record's metric names are checked against BENCHMARK.json before it is
printed. Exit codes: 0 ok, 1 a self-check failed, 2 bad usage or missing
sources, 3 build failure, 4 malformed record, 5 timeout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("elephant", "many_flows", "conn_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the sprayer sources (src/) are not in this checkout")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(3)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_record(line, trace):
    """Return an error string if `line` is not a well-formed record."""
    try:
        rec = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(rec) != ["attempted", "correct", "failed", "metrics"]:
        return "record keys are %s" % sorted(rec)
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in rec["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s" % (
            missing, extra, wrong)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rates", default="",
                    help="open-loop latency rate per workload, name=kpps,...")
    ap.add_argument("--build-only", action="store_true")
    ap.add_argument("--dump", type=int, default=0,
                    help="write this many generated frames to --dump-path and exit")
    ap.add_argument("--dump-path", default="")
    args = ap.parse_args()

    binary = build()
    if args.build_only:
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    cmd = [binary, "workload=" + args.workload, "seed=%d" % args.seed]
    if args.dump:
        cmd += ["dump=%d" % args.dump, "dump_path=" + args.dump_path]
        return subprocess.run(cmd, check=False).returncode
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd += ["seconds=%g" % args.seconds, "trace=%d" % args.trace,
            "rates=" + args.rates, "out=" + out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 5
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log("perfbench: program exited with %d" % proc.returncode)
        return proc.returncode or 4
    error = check_record(lines[-1], args.trace)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("perfbench: " + error)
        return 4
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
