#!/usr/bin/env python3
"""Run one workload of the two-clock benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds the `perfbench` package (a
package of its own, so the repository's workspace is untouched) into
$CARGO_TARGET_DIR, default `.bench_build`, then runs the workload in a
process of its own so its peak RSS is its own. The last line of standard
output is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

with every `end_to_end` metric of BENCHMARK.json under `--trace 0` and
every `per_layer` metric under `--trace 1`. `correct` is false when an
output check fails, a pass did not repeat the reference pass, the traced
run differed from the untraced one, or a layer the workload must leave
idle (perfbench/spec.json, "idle") did any work. Exits 0 only when correct.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env=None, cpus=None):
    """Run `cmd` in its own process group, on `cpus` if given; kill the
    group on timeout or when this script is terminated, and wait for it, so
    nothing outlives it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_DFL)
    return proc.returncode, out


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    code, out = run(cmd, BUILD_TIMEOUT_S, env)
    sys.stderr.write(out)
    if code != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    seed = args.seed % 2**64

    binary = build()
    # A workload whose threads hand work to each other runs on one CPU: on
    # shared cores its wall time otherwise depends on whether a second core
    # happens to be free (see spec.json, "one_cpu").
    cpus = None
    if args.workload in spec["one_cpu"]:
        cpus = {min(os.sched_getaffinity(0))}
    code, out = run(
        [binary, "--workload", args.workload, "--seed", str(seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        RUN_TIMEOUT_S,
        cpus=cpus,
    )
    lines = out.strip().splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit {code})")
    report = json.loads(lines[-1])

    errors = list(report["errors"])
    if code != 0 and not errors:
        errors.append(f"perfbench exited with {code}")
    measured = report["metrics"]
    # Bypass invariants: the program's own counts in every run, and the
    # decorators' counts too in a traced run.
    for name in spec["idle"][args.workload]:
        for source in (report["counts"], measured):
            if source.get(name, 0) != 0:
                errors.append(f"{name} = {source[name]}, but {args.workload} must leave it idle")

    wanted = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {m['name']} was not measured")
            continue
        if args.trace == "0" and value <= 0:
            errors.append(f"end-to-end metric {m['name']} is {value}, expected > 0")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": max(1, int(report["attempted"])),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
