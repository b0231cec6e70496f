"""Host cost per cloud request on the observed campaign path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload unbind-sweep --seed 11 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` is the separate traced run that
attributes each request's host time to the layers it crosses and
reports the per-layer metrics.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the same numbers for people,
plus the environment and every failed check.  The exit code is 0 only
when every check passed.  Results (and, when traced, every span) are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("unbind-sweep", "fleet-soak", "pooled-sweep")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="start measured cycles while another still fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workers: int) -> Dict[str, Any]:
    from repro.parallel.pool import preferred_start_method

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "start_method": preferred_start_method(),
        "commit": git_commit(),
        "seed": seed,
        "workers": workers,
        "oversubscribed": workers > (nproc or 1),
    }


def stop_helpers() -> None:
    """Stop the forkserver and resource tracker multiprocessing started."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def run_traced(workload: Any, seed: int, seconds: float, tally: Any) -> tuple:
    """Traced cycles for *seconds*; per-layer medians and the last cycle's spans."""
    from workloads import repeat_within

    cycles = repeat_within(seconds, lambda: workload.trace_cycle(seed, tally))
    rows = [layers for layers, _ in cycles]
    merged = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    return merged, cycles[-1][1], len(rows)


def layer_table(layers: Dict[str, float], self_layers: Dict[str, Any]) -> List[str]:
    """Self time per request along the blocking path, and what it adds to."""
    lines = ["self time per request (traced):"]
    for metric in self_layers:
        lines.append(f"  {metric:<32} {layers[metric]:10.3f} us")
    untraced = layers["trace.untraced_us_per_req"]
    overhead = layers["trace.overhead_us_per_req"]
    total = layers["trace.self_sum_us_per_req"]
    lines.append(f"  {'sum of self times':<32} {total:10.3f} us")
    lines.append(
        f"  untraced us_per_req {untraced:.3f} us; |sum - untraced| = "
        f"{abs(total - untraced):.3f} us vs tracing overhead {overhead:.3f} us"
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # multiprocessing keeps its temporary files under the temp directory;
    # keep them inside the checkout, for this process and its children.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    env = environment(args.seed, workload.workers)
    lines = [f"workload {args.workload} (trace={args.trace})",
             "env: " + " ".join(f"{k}={v}" for k, v in env.items())]
    if env["oversubscribed"]:
        lines.append(f"WARNING: {env['workers']} workers on {env['nproc']} CPUs")
    try:
        if args.trace:
            measured, recorder, cycles = run_traced(workload, args.seed, args.seconds, tally)
            declared = spec["per_layer"]
            recorder.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
            info = {"cycles": cycles, "spans": len(recorder)}
            lines.extend(layer_table(measured, workloads.SELF_LAYERS))
        else:
            measured, info = workload.measure(args.seed, args.seconds, tally)
            declared = spec["end_to_end"]
            lines.append(
                "rejections: " + " ".join(f"{k}={v}" for k, v in info.pop("rejections").items())
            )
    finally:
        stop_helpers()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": float(measured[metric["name"]]), "unit": metric["unit"]}
            for metric in declared
        },
    }
    lines.append("info: " + " ".join(f"{k}={v}" for k, v in info.items()))
    lines.append(f"fail_ratio {tally.failed / tally.attempted:.6f} "
                 f"({tally.failed}/{tally.attempted} operations)")
    lines.extend(f"FAILED: {problem}" for problem in tally.problems)
    for name, value in result["metrics"].items():
        lines.append(f"{name:<34} {value['value']:14.6f} {value['unit']}")
    for name, unit in workloads.REPORTED_UNITS.items():
        if name in measured:
            lines.append(f"{name:<34} {measured[name]:14.6f} {unit} (reported, not gated)")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, env=env, info=info, problems=tally.problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
