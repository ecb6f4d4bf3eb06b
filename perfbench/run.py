#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path, into $CARGO_TARGET_DIR
(default: .bench_build). The last line of standard output is the result
JSON of the run; the exit code is 0 only when every check passed.

Scratch state (the durable workload's write-ahead logs) lives under
.perfbench_tmp/ and is removed after every run, failed ones included.
Traced runs write their spans under .perfbench_out/.

--smoke runs every workload at a tiny scale, end to end and traced, on
seed 1 and on a held-out seed, and checks that each run is correct, emits
exactly the metric names BENCHMARK.json lists, and repeats its
deterministic metrics bit for bit in a second process.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One invocation must end within 180 s once the program is built.
RUN_LIMIT_S = 170
# A seed kept out of tuning, for checking later claims on unseen input.
HELD_OUT_SEED = 4099
# Metrics that must repeat exactly for one seed (the rest are timings).
DETERMINISTIC = {
    "space_ratio_max",
    "realloc_cost_ratio",
    "write_amp",
    "loop.windows",
    "core.flushes",
    "core.ops_per_req",
    "core.moved_volume",
    "plan.coalesced_frac",
    "plan.cancelled_frac",
    "plan.applied_per_raw",
    "substrate.cells_written_per_req",
    "wal.records_per_group",
    "wal.bytes_per_req",
    "wal.engine_bytes_per_req",
    "device.sim_us_per_req",
    "recover.replayed_records",
}


def build():
    """Builds the benchmark; returns the executable, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr)
    except OSError as error:
        print(f"run.py: cannot run cargo: {error}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return target / "release" / "perfbench"


def run(binary, args, deadline):
    """Runs the benchmark binary once; returns (exit code, stdout lines).

    The binary spawns one process per repetition, so it runs in a process
    group of its own, and a timeout kills the whole group.
    """
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    command = [str(binary), *args, "--scratch", str(scratch),
               "--out-dir", str(ROOT / ".perfbench_out")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return 1, out.splitlines()
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def result_of(lines):
    """The result JSON on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def smoke(binary):
    """Tiny-scale run of every workload; returns the number of problems."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            for seed in (1, HELD_OUT_SEED):
                seen = []
                for _ in range(2):
                    args = ["--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace), "--smoke"]
                    code, lines = run(binary, args, time.monotonic() + RUN_LIMIT_S)
                    result = result_of(lines)
                    label = f"{workload} trace {trace} seed {seed}"
                    if code != 0 or result is None or not result.get("correct"):
                        print(f"FAIL {label}: exit {code}", *lines[-5:], sep="\n")
                        problems += 1
                        break
                    names = set(result["metrics"])
                    if names != wanted[trace]:
                        print(f"FAIL {label}: missing {sorted(wanted[trace] - names)}, "
                              f"unlisted {sorted(names - wanted[trace])}")
                        problems += 1
                    seen.append({k: v["value"] for k, v in result["metrics"].items()
                                 if k in DETERMINISTIC})
                if len(seen) == 2 and seen[0] != seen[1]:
                    diff = sorted(k for k in seen[0] if seen[0][k] != seen[1].get(k))
                    print(f"FAIL {label}: deterministic metrics differ: {diff}")
                    problems += 1
                print(f"ok   {label}" if len(seen) == 2 else f"...  {label}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if not opts.smoke and None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None or not binary.is_file():
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    if opts.smoke:
        problems = smoke(binary)
        print("smoke: OK" if problems == 0 else f"smoke: {problems} problems")
        return 0 if problems == 0 else 1

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, lines = run(binary, args, time.monotonic() + RUN_LIMIT_S)
    print("\n".join(lines))
    if code == 0 and result_of(lines) is None:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
