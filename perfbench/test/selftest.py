#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

    python3 perfbench/test/selftest.py

Builds the harness (as perfbench/run.py does), then checks that
  * the release checks catch corrupted releases (psk_perfbench_selftest);
  * every workload, traced and untraced, on two seeds, passes its own
    correctness checks on its full-size inputs (--seconds 1, so each timed
    loop runs about once) and emits exactly the metric names and units
    BENCHMARK.json lists for that mode;
  * malformed command lines exit 2 without running or writing anything.
Exits 0 when every check passes. It takes about 1.5 minutes on 4 vCPUs.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def output_files():
    """Name -> modification time of every file the benchmark wrote."""
    if not run.OUT_DIR.exists():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in run.OUT_DIR.iterdir()}


def main():
    run.build()
    code = subprocess.run([str(run.SELFTEST)]).returncode
    check(code == 0, "release checks catch corrupted releases")

    for trace in (0, 1):
        expected = run.expected_metrics(trace)
        for workload in run.WORKLOADS:
            for seed in (1, 2):
                out = subprocess.run(
                    [str(run.RUNNER), "--workload", workload, "--seed",
                     str(seed), "--seconds", "1", "--trace", str(trace)],
                    capture_output=True, text=True)
                what = f"{workload} seed {seed} trace {trace}"
                if out.returncode != 0:
                    check(False, f"{what}: exit {out.returncode}: "
                                 f"{out.stderr.strip()}")
                    continue
                result = json.loads(out.stdout.strip().splitlines()[-1])
                check(result["correct"] and result["failed"] == 0 and
                      result["attempted"] > 0, f"{what}: releases correct")
                emitted = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                check(emitted == expected,
                      f"{what}: metrics match BENCHMARK.json "
                      f"(missing {sorted(set(expected) - set(emitted))}, "
                      f"extra {sorted(set(emitted) - set(expected))})")

    before = output_files()
    bad_lines = [
        ["--workload", "csv_release_100k", "--seed", "1", "--seconds", "1",
         "--trace", "1", "--bogus"],
        ["--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        ["--workload", "csv_release_100k", "--seed", "1", "--seconds", "1x",
         "--trace", "1"],
        ["--workload", "csv_release_100k", "--seed", "-1", "--seconds", "1",
         "--trace", "1"],
        ["--workload", "csv_release_100k", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "csv_release_100k", "--seed", "1", "--seconds", "1"],
        ["--work", "csv_release_100k", "--seed", "1", "--seconds", "1",
         "--trace", "1"],
    ]
    for args in bad_lines:
        for cmd in ([sys.executable, str(Path(run.__file__))],
                    [str(run.RUNNER)]):
            out = subprocess.run(cmd + args, capture_output=True, text=True)
            check(out.returncode == 2 and out.stdout == "",
                  f"usage error, exit 2, no output: {Path(cmd[-1]).name} "
                  f"{' '.join(args)}")
    check(output_files() == before, "usage errors write no output file")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
