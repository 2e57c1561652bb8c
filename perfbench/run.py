#!/usr/bin/env python3
"""Builds the cachesched benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to .bench_build/perfbench
(an optimized build of every file under src/ plus perfbench/src/). Temporary
data (.dag files, result-store snapshots) lives under .bench_build/ and is
removed when the run ends. With --trace 1 the span log is written to
.bench_build/traces/. The last line of standard output is the JSON result;
see perfbench/README.md for the workloads and metrics.

BENCHMARK.json at the root of the checkout is the one list of metric names
and units: the result must report exactly its end_to_end metrics (--trace 0)
or only names from its per_layer list (--trace 1), where a layer metric that
does not apply to the workload is reported as 0.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"

BUILD_TIMEOUT_S = 840
# A run takes --seconds plus its set-ups and, with --trace 1, one traced
# pass per untraced pass and the layer probes (about 40 s on paper_sweep).
RUN_TIMEOUT_S = 175


def run_timeout(seconds):
    return max(RUN_TIMEOUT_S, 3 * seconds + 60)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(f"{what}: '{cmd[0]}' is not installed")
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {BUILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = spec["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in listed}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def complete(result, declared, trace):
    """Checks the result's metrics against BENCHMARK.json; with --trace 1
    adds the layer metrics the workload does not report, as 0."""
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not listed in "
                 "BENCHMARK.json with that unit")
    missing = [n for n in declared if n not in metrics]
    if missing and not trace:
        fail(f"end-to-end metrics not reported: {', '.join(missing)}")
    result["metrics"] = {
        n: metrics.get(n, {"value": 0, "unit": u}) for n, u in declared.items()
    }
    return result


def build():
    if not (ROOT / "src" / "exp" / "sweep.h").is_file():
        fail(f"no cachesched sources under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs], "cmake build")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite perfbench/reference/<workload>.digest "
                         "from this run (default seed only)")
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    build()

    work = BUILD_ROOT / f"work-{os.getpid()}"
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work),
           "--reference", str(BENCH_DIR / "reference"),
           "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.spans.jsonl")]
    if args.write_reference:
        cmd.append("--write-reference")
    timeout = run_timeout(args.seconds)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {timeout:.0f} s and was killed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(proc.returncode or 1)
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the last output line is not a JSON result: {lines[-1]}")
    print(json.dumps(complete(result, declared, args.trace)))


if __name__ == "__main__":
    main()
