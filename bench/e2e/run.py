#!/usr/bin/env python3
"""Builds qclab_e2e from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The first call configures and
builds bench/e2e (and the library through the root CMakeLists.txt) in
.bench_build/e2e; later calls only rebuild what changed.  The workload
runs in a fresh process with OMP_NUM_THREADS=2 and OMP_PROC_BIND=false
(two unbound threads).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json untraced, its per_layer metrics with --trace 1.  The exit
code is non-zero when the build, the run or any output check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "e2e"
OMP_SETTINGS = {"OMP_NUM_THREADS": "2", "OMP_PROC_BIND": "false"}
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds; compiler output goes to stderr."""
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        *generator], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "qclab_e2e"], check=True, stdout=sys.stderr)
    return BUILD_DIR / "qclab_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        command += ["--trace", str(trace_dir / f"{args.workload}_seed"
                                   f"{args.seed}_trace.json")]
    # Its own session, so a timeout also stops the set-up probe processes
    # qclab_e2e starts.
    with subprocess.Popen(command, env={**os.environ, **OMP_SETTINGS},
                          stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            print(f"run.py: qclab_e2e took over {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    try:
        result = json.loads(stdout)
    except json.JSONDecodeError:
        print(f"run.py: qclab_e2e exited {run.returncode} without a result",
              file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in benchmark[section]:
        name = metric["name"]
        if name not in result["metrics"]:
            print(f"run.py: qclab_e2e reported no {name}", file=sys.stderr)
            return 1
        metrics[name] = result["metrics"][name]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
