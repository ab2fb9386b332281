#!/usr/bin/env python3
"""Pipeline benchmark of the psk library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the library and the
harness from source into .bench_build/ (CMake, Release); later calls reuse
the build. Then it runs one workload (see perfbench/README.md) and prints a
human-readable summary followed, as the last line of standard output, by one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics and writes the run's spans to .bench_out/.

Exit codes: 0 after a run (its correctness is in the JSON), 2 for a usage
error (nothing is built, run or written), 1 when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
RUNNER = BUILD_DIR / "psk_perfbench"
SELFTEST = BUILD_DIR / "psk_perfbench_selftest"
WORKLOADS = ("csv_release_100k", "lattice_search_8qi", "scheduler_jobs_2k")
# A run measures for --seconds, then finishes the release or replay under
# way; set-up, calibration and warm-up come on top. The margin holds all of
# that: at --seconds 10 the run is stopped after 155 s.
RUN_MARGIN_S = 145
BUILD_TIMEOUT_S = 850


class Terminated(Exception):
    pass


def _on_sigterm(signum, frame):
    raise Terminated()


def _whole(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside {lo}..{hi}")
        return value
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_whole(0, 2**63 - 1))
    parser.add_argument("--seconds", required=True, type=_whole(1, 600))
    parser.add_argument("--trace", required=True, type=_whole(0, 1))
    return parser.parse_args(argv)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout or SIGTERM kills it and waits."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except (subprocess.TimeoutExpired, Terminated, KeyboardInterrupt):
        proc.kill()
        proc.wait()
        raise


def build():
    """Configures once, then (re)builds the harness; logs go to stderr."""
    if not (ROOT / "src" / "psk").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no psk sources next to perfbench/; "
                 "run from the root of a full checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        code, _ = run_child(step, max(1, deadline - time.monotonic()),
                            stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    build()
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")]
    code, out = run_child(cmd, args.seconds + RUN_MARGIN_S,
                          stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: {RUNNER.name} exited with {code}")
    result = json.loads(lines[-1])
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected_metrics(args.trace):
        sys.stderr.write(out)
        sys.exit("perfbench: emitted metrics differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.TimeoutExpired, Terminated, KeyboardInterrupt) as err:
        sys.exit(f"perfbench: stopped ({type(err).__name__})")
