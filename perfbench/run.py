#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package in
`perfbench/` (release, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, runs the binary in a fresh process, and adds the metrics
that come from that process's own `getrusage` (taken with `wait4`, so
set-up, build and other runs never leak into them):

- `--trace 0`: `peak_rss_mb` (the process's `ru_maxrss`);
- `--trace 1`: `process.cpu_s` and `process.minor_faults`.

It prints a host fingerprint line, every metric with its unit, and, as
the last line, the JSON result. It exits non-zero, printing no result,
when the program cannot be built or the run fails; and with code 1 after
printing `"correct": false` when an output check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


# The child process running now (the build or the benchmark binary).
child = None


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def stop_child(signum, _frame):
    """Kills and reaps the running child, then exits: a terminated runner
    leaves no process behind."""
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()
    fail(f"stopped by signal {signum}")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint(seed):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": command_output(["rustc", "-V"]),
        "commit": (command_output(["git", "rev-parse", "HEAD"])
                   if (ROOT / ".git").exists() else "unknown (not a git checkout)"),
        "machine": platform.machine(),
        "seed": seed,
    }


def build(target_dir):
    for crate in ("graph", "congest", "core"):
        if not (ROOT / "crates" / crate / "Cargo.toml").is_file():
            fail(f"program source crates/{crate} is missing; nothing to benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    global child
    try:
        child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        code = child.wait(timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        fail(f"build failed: {e}")
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    if code != 0:
        fail(f"build failed with code {code}")
    binary = target_dir / "release" / "drw-perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def record_dir(target_dir, binary):
    """Where runs of this exact build keep their output records."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    return target_dir / "perfbench-records" / digest


def run(binary, args, records, spans_out):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record-dir", str(records)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    # The executor is pinned by the benchmark itself; drop the harness
    # variable the experiment binaries read so nothing can override it.
    env = {k: v for k, v in os.environ.items() if k != "DRW_EXECUTOR"}
    global child
    proc = child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                    text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    binary = build(target_dir)
    spans_out = None
    if args.trace:
        spans_dir = target_dir / "perfbench-spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_out = spans_dir / f"{args.workload}-seed{args.seed}.json"

    print("# host " + json.dumps(host_fingerprint(args.seed)), flush=True)
    code, out, usage = run(binary, args, record_dir(target_dir, binary), spans_out)
    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail(f"{args.workload} exited with code {code} and printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} exited with code {code} without a result line")

    if args.trace:
        extra = {
            "process.cpu_s": (usage.ru_utime + usage.ru_stime, "s"),
            "process.minor_faults": (usage.ru_minflt, "count"),
        }
    else:
        extra = {"peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB")}
    for name, (value, unit) in extra.items():
        result["metrics"][name] = {"value": value, "unit": unit}
    for line in lines[:-1]:
        print(line)
    for name, (value, unit) in extra.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    if spans_out is not None:
        print(f"# spans written to {spans_out}")
    print(json.dumps(result), flush=True)
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    main()
