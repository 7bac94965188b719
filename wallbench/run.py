#!/usr/bin/env python3
"""Build and run one wallbench workload from the root of a checkout.

    python3 wallbench/run.py --workload train_cold|reproduce_warm|service_oneshot \
        --seed N --seconds S --trace 0|1

Builds `sweepd`, `sweepctl` and the benchmark from source (release,
offline, into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload, and prints one JSON line last on stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are every end-to-end metric of BENCHMARK.json. With --trace 1 an untraced
run is made first (for half the time), then a run of the traced build
(kernel timers on, spans recorded); the metrics are every per-layer one,
including `trace.overhead_share`, the traced run's slowdown on
`work_per_s`. Exits non-zero, printing no result, when the build or
the workload fails; prints `"correct": false` and exits 1 when an output
check fails. Working files go under `.wallbench/` and are removed.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("train_cold", "reproduce_warm", "service_oneshot")
# The metric the tracing overhead is taken on (higher is better).
HEADLINE = "work_per_s"
RUN_TIMEOUT_S = 170


def cargo(args, target, root):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"wallbench: build failed: cargo build {' '.join(args)}")


def declared(section, reported, fill):
    """The `reported` values of one BENCHMARK.json section, in its order
    and with its units. Names the section does not declare are an error.
    A declared name the workload did not report is an error too, unless
    `fill` (per-layer metrics: layers a workload never reaches read 0)."""
    names = [m["name"] for m in section]
    unknown = sorted(set(reported) - set(names))
    missing = [n for n in names if n not in reported]
    if unknown or (missing and not fill):
        sys.exit(f"wallbench: metrics not declared in BENCHMARK.json: {unknown}, "
                 f"declared but not reported: {missing}")
    return {
        m["name"]: {"value": reported.get(m["name"], 0.0), "unit": m["unit"]}
        for m in section
    }


def run_workload(binary, opts, seconds, trace, target, root, timeout):
    work = root / ".wallbench"
    cmd = [
        str(binary),
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--sweepd", str(target / "release" / "sweepd"),
        "--sweepctl", str(target / "release" / "sweepctl"),
        "--work", str(work),
    ]
    child = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        shutil.rmtree(work / f"{opts.workload}-{child.pid}", ignore_errors=True)
        sys.exit(f"wallbench: {opts.workload} did not finish within {timeout} s")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"wallbench: {opts.workload} exited {child.returncode} without a result")
    return child.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or not 0 < opts.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    root = pathlib.Path.cwd()
    here = pathlib.Path(__file__).resolve().parent
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    manifest = ["--manifest-path", str(here / "Cargo.toml")]
    traced_target = target / "wallbench-profile"
    # Everything is built on every run (a no-op once built), so the first
    # run of a checkout pays for all builds and no later run does.
    cargo(["-p", "adacomm-bench", "--bin", "sweepd", "--bin", "sweepctl"], target, root)
    cargo(manifest, target, root)
    cargo([*manifest, "--features", "profile"], traced_target, root)

    spec = json.loads((here.parent / "BENCHMARK.json").read_text())
    plain = target / "release" / "wallbench"
    if not opts.trace:
        code, result = run_workload(plain, opts, opts.seconds, 0, target, root, RUN_TIMEOUT_S)
        metrics = declared(
            spec["end_to_end"], {k: v["value"] for k, v in result["metrics"].items()}, False)
        for name, value in result["metrics"].items():
            if value["unit"] != metrics[name]["unit"]:
                sys.exit(f"wallbench: {name} reported in {value['unit']}, "
                         f"declared in {metrics[name]['unit']}")
    else:
        budget = RUN_TIMEOUT_S // 2
        code_u, untraced = run_workload(
            plain, opts, max(1.0, opts.seconds / 2), 0, target, root, budget)
        code, result = run_workload(
            traced_target / "release" / "wallbench", opts, opts.seconds, 1, target, root, budget)
        code = code or code_u
        result["correct"] = result["correct"] and untraced["correct"]
        plain_v = untraced["metrics"][HEADLINE]["value"]
        traced_v = result["metrics"][HEADLINE]["value"]
        layers = dict(result["layers"], **{"trace.overhead_share": plain_v / traced_v - 1.0})
        metrics = declared(spec["per_layer"], layers, True)
        print(
            f"wallbench: tracing overhead on {HEADLINE}: untraced {plain_v}, traced {traced_v}",
            file=sys.stderr,
        )
        for key, value in untraced["metrics"].items():
            traced = result["metrics"].get(key, {}).get("value")
            print(f"  {key}: untraced {value['value']} traced {traced}", file=sys.stderr)

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
