"""The NEC benchmark: one command, each workload run in fresh processes.

    python3 perfbench/run.py --workload live --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is the ``src/`` tree next to this directory.
Each invocation:

1. synthesises the workload's inputs from ``--seed`` in a child process
   (``perfbench/workload.py inputs``), so nothing is generated while timed;
2. runs the workload in a fresh child process and reads its result;
3. untraced (``--trace 0``): starts two more children that only set up, and
   reports the median of the three set-up times as ``setup_s``;
   traced (``--trace 1``): runs the workload again with the span tracer of
   ``perfbench/spans.py`` installed, reports the per-layer metrics, and
   prints the tracing overhead (traced minus untraced end-to-end numbers).

A child that is killed (for example by the OOM killer), times out or fails is
recorded as failed operations; the harness itself still prints a result.  It
prints human-readable lines (host fingerprint, every metric by name and unit,
the correctness checks), then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` untraced, its per-layer metrics traced.  The full
record also goes to ``.perfbench_out/`` in the repository root, traced spans
as JSON lines next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
OUTPUT = ROOT / ".perfbench_out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Wall-clock budget of one invocation; every child gets what is left.
BUDGET_S = 170.0


def run_child(arguments: Sequence[str], deadline: float) -> Dict[str, object]:
    """Run ``workload.py`` in a fresh process; its last stdout line is the result."""
    spawned_at = time.monotonic()
    command = [sys.executable, str(WORKLOAD), *arguments, "--spawned-at", repr(spawned_at)]
    timeout = max(deadline - spawned_at, 1.0)
    try:
        # On timeout, run() kills the child and waits for it.
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if completed.returncode < 0:
        return {"error": f"killed by signal {-completed.returncode}"}
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-3:]
        return {"error": f"exit code {completed.returncode}: {' | '.join(tail)}"}
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {"error": "no result"}


def workload_arguments(args: argparse.Namespace, workdir: Path) -> List[str]:
    return [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]


def named_metrics(specs: Sequence[Dict], values: Dict[str, float]) -> Dict[str, Dict]:
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
        if spec["name"] in values
    }


def print_metrics(title: str, metrics: Dict[str, Dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="NEC speaker-cancellation benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = workload_arguments(args, workdir)
    spans_path = OUTPUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced: Dict[str, object] = {}
    try:
        inputs = run_child(["inputs", *base], deadline)
        untraced = inputs if "error" in inputs else run_child(["run", *base], deadline)
        setups = [untraced["setup_s"]] if "setup_s" in untraced else []
        if args.trace:
            if "error" not in untraced:
                traced = run_child(["run", *base, "--trace", "--spans", str(spans_path)], deadline)
        else:
            for _ in range(SETUP_RUNS - 1):
                if "error" in untraced:
                    break
                setup = run_child(["run", *base, "--setup-only"], deadline)
                if "setup_s" in setup:
                    setups.append(setup["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another invocation's work directory is still there

    measured = traced if args.trace else untraced
    errors = [run["error"] for run in (untraced, traced) if "error" in run]
    attempted = max(int(measured.get("attempted", 1)), 1)
    failed = attempted if errors else int(measured.get("failed", attempted))
    if args.trace:
        attempted += int(untraced.get("attempted", 0))
        failed += int(untraced.get("failed", 0))

    end_to_end = dict(untraced.get("metrics", {}))
    if setups:
        end_to_end["setup_s"] = statistics.median(setups)
    e2e = named_metrics(spec["end_to_end"], end_to_end)

    host = measured.get("host") or untraced.get("host") or {}
    print(f"NEC benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("host: " + ", ".join(f"{key}={value}" for key, value in host.items()))
    for error in errors:
        print(f"FAILED RUN: {error}")
    print_metrics("end-to-end (untraced):", e2e)
    for name, value in untraced.get("metrics", {}).items():
        if name not in e2e:
            print(f"  {name} = {value:.6g} (reported, not bounded)")
    print(f"  setup_s samples = {', '.join(f'{value:.4f}' for value in setups)}")
    print(f"  error_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, (value, unit) in untraced.get("report", {}).items():
        print(f"  {name} = {value:.6g} {unit}")
    print("checks: " + json.dumps(untraced.get("checks", {}), sort_keys=True))
    for flag, raised in untraced.get("flags", {}).items():
        print(f"flag {flag}: {'RAISED' if raised else 'clear'}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "errors": errors,
        "untraced": untraced, "setup_samples_s": setups,
    }
    metrics = e2e
    if args.trace:
        layers = named_metrics(spec["per_layer"], traced.get("layers", {}))
        print_metrics("per-layer (traced):", layers)
        overhead = {
            name: traced["metrics"][name] - untraced["metrics"][name]
            for name in traced.get("metrics", {})
            if name in untraced.get("metrics", {})
        }
        print("tracing overhead (traced minus untraced):")
        for name, value in overhead.items():
            print(f"  {name} = {value:+.6g}")
        for name, (value, unit) in traced.get("report", {}).items():
            if name.startswith("unexplained"):
                print(f"  {name} = {value:.6g} {unit} (traced latency minus traced "
                      "feed, queue wait, tick and collect time)")
        record.update(traced=traced, overhead=overhead)
        metrics = layers

    OUTPUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUTPUT / name).write_text(json.dumps(record, indent=2, sort_keys=True))

    checks_ok = all(value is not False for value in measured.get("checks", {}).values())
    correct = not errors and failed == 0 and checks_ok
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
