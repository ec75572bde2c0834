#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload design|certify|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build/ there
(configured once, then an incremental `cmake --build`); build output goes to
stderr.  The benchmark's own output is passed through, after checking that
its last line names exactly the metrics BENCHMARK.json declares for the mode.
Exits non-zero, printing no result, when the build fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def cached_source_dir():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if cached_source_dir() not in (None, HERE):
        shutil.rmtree(BUILD)  # a build tree of another checkout
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2e_bench")


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: e2e_bench exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    declared = declared_metrics(trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared is not None and reported != declared:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(set(reported.items()) ^ set(declared.items()))}",
              file=sys.stderr)
        result["correct"] = False
        lines[-1] = json.dumps(result)
        proc.returncode = 1
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
