"""delta-lens benchmark: one seeded closed-loop workload per run.

    python3 benchmark/run.py --workload {portrait,lines-census} --seed N \
        --seconds S --trace {0,1}
    python3 benchmark/run.py --selftest

Run from the repository root.  The program is imported from src/ (no build
or install step).  Each run starts the workload in fresh child processes
with DELTA_LENS_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS unset, so
it measures the thread defaults a user gets: the measured child, with a few
set-up-only children (import plus one warm-up op) before and after it.
setup_s is the median set-up time over all of them.  Every timing is
scaled to a reference host speed (workloads.host_probe, README.md).

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs the same ops untraced and then traced and prints the per-layer
metrics with the tracing overhead.  Every failing op is printed and written
to .bench_out/; the last stdout line is the JSON result.

--selftest runs every workload at tiny sizes in both modes, checks that
every named metric is emitted with its unit, and checks that corrupted
outputs (a flipped pixel, a perturbed catalog ordinate, a wrong winding)
count as failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("portrait", "lines-census")
SETUP_PROBES = 5          # set-up-only children beside the measured one
SETUP_MARGIN = 100.0      # seconds beyond --seconds for set-up children and the last op
THREAD_VARS = ("DELTA_LENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, deadline):
    """Start workloads.py with `args`, wait for it, return its last JSON line."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload child exceeded the time budget: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload child failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_version():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    return {"git_sha": sha or None}


def run(workload, seed, seconds, trace, smoke=False, setup_probes=SETUP_PROBES):
    """One benchmark run; returns (result line, report dict)."""
    if not (ROOT / "src" / "delta_lens" / "__init__.py").is_file():
        raise BenchError(f"no delta_lens sources under {ROOT / 'src'}")
    if not (HERE / "reference.json").is_file():
        raise BenchError("benchmark/reference.json is missing; run benchmark/make_reference.py")
    deadline = time.monotonic() + seconds + SETUP_MARGIN
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    # set-up time is an end-to-end metric, so traced runs skip the extra children.
    # Half of them run before the measured child and half after it, so the
    # samples span the run and not one phase of the host's speed.
    probes = 0 if trace else setup_probes

    def setup_children(count):
        return [run_child(common + ["--seconds", "0", "--setup-only"], deadline)
                for _ in range(count)]

    setups = setup_children(probes // 2)
    main = run_child(common + ["--seconds", repr(float(seconds)), "--trace", str(trace)],
                     deadline)
    setups += [main] + setup_children(probes - probes // 2)
    metrics = dict(main["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    failed = len(main["failed_ops"])
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(units) - set(metrics))}, "
                         f"unexpected {sorted(set(metrics) - set(units))}")
    line = {"correct": failed == 0, "attempted": main["attempted"], "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": {**main["env"], **code_version()},
              "setup_s_samples": [s["setup_s"] for s in setups],
              "raw_setup_s_samples": [s["raw_setup_s"] for s in setups],
              "host_probe_s": main.get("host_probe_s"), "raw_metrics": main.get("raw_metrics"),
              "op_samples": main.get("op_samples"),
              "tail": main.get("tail"), "spans_file": main.get("spans_file"),
              "failed_ops": main["failed_ops"]}
    return line, report


def metric_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest():
    """Tiny runs of every workload in both modes, then the corruption checks."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, report = run(workload, 1, 2.0, trace, smoke=True, setup_probes=1)
            want = metric_units(trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want or set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys or units are wrong")
            if any(not isinstance(v["value"], (int, float)) for v in line["metrics"].values()):
                problems.append(f"{workload} trace={trace}: a metric value is not a number")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {report['failed_ops']}")
            print(f"selftest {workload} trace={trace}: {line['attempted']} ops, "
                  f"{line['failed']} failed", flush=True)
    proc = subprocess.run([sys.executable, str(HERE / "selftest_checks.py")], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=SETUP_MARGIN)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        problems.append(f"corruption checks failed:\n{proc.stdout}{proc.stderr[-4000:]}")
    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="delta-lens benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        line, report = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(report["env"]))
    if report["tail"]:
        print(f"latency_tail_ms is p{report['tail']['tail_percentile']:.1f} "
              f"of N = {report['tail']['n']} ops")
    for f in report["failed_ops"]:
        op = {k: v for k, v in f["op"].items() if k not in ("probes", "cli")}
        print("FAILED " + json.dumps({"index": f["index"], "op": op, "exception": f["exception"],
                                      "failures": f["failures"]}))
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
