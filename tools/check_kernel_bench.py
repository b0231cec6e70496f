#!/usr/bin/env python3
"""Kernel-bench regression gate: fail CI when BENCH_kernel.json regresses.

Reads the artifact ``benchmarks/bench_sim_kernel.py`` just wrote and
compares the freshly measured ``after`` numbers against the pinned
``thresholds`` section: the current kernel's medians over repeated runs
(``pinned``), divided (throughput) or multiplied (latency) by the
``noise_factor`` measured from those runs' spread.  A regression past
that band on the event loop, the packet path or the cloud handle
percentiles (p99 is the median over the bench's fresh-fleet sweeps) —
or a decision cache that stopped hitting — fails the build.

Usage: python tools/check_kernel_bench.py [path/to/BENCH_kernel.json]
"""

from __future__ import annotations

import json
import pathlib
import sys

DEFAULT = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/output/BENCH_kernel.json"
)

#: (after-key, threshold-key, direction); "min" = measured must be >=,
#: "max" = measured must be <=.
GATES = [
    ("events_per_sec", "min_events_per_sec", "min"),
    ("timer_events_per_sec", "min_timer_events_per_sec", "min"),
    ("packets_per_sec", "min_packets_per_sec", "min"),
    ("handle_p50_us", "max_handle_p50_us", "max"),
    ("handle_p99_us", "max_handle_p99_us", "max"),
]


def check(path: pathlib.Path) -> int:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"FAIL: {path} missing — run benchmarks/bench_sim_kernel.py first")
        return 1
    after = data.get("after", {})
    thresholds = data.get("thresholds", {})
    if not after or not thresholds:
        print(f"FAIL: {path} has no after/thresholds sections")
        return 1

    failures = []
    for after_key, threshold_key, direction in GATES:
        measured = after.get(after_key)
        bound = thresholds.get(threshold_key)
        if measured is None or bound is None:
            failures.append(f"{after_key}: not measured (after/threshold missing)")
            continue
        ok = measured >= bound if direction == "min" else measured <= bound
        mark = "ok  " if ok else "FAIL"
        op = ">=" if direction == "min" else "<="
        print(f"  {mark} {after_key} = {measured} ({op} {bound})")
        if not ok:
            failures.append(f"{after_key} = {measured}, bound {op} {bound}")

    floor = thresholds.get("min_decision_cache_hit_rate", 0.0)
    cache = data.get("decision_cache", {})
    if not cache:
        failures.append("decision_cache: no campaigns measured")
    for name, stats in sorted(cache.items()):
        rate = stats.get("hit_rate", 0.0)
        ok = rate >= floor
        print(f"  {'ok  ' if ok else 'FAIL'} decision_cache.{name}.hit_rate = {rate} (>= {floor})")
        if not ok:
            failures.append(f"decision_cache.{name}.hit_rate = {rate} < {floor}")

    if failures:
        print(f"\nFAIL: {len(failures)} kernel-bench regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nkernel-bench gate: all measurements within thresholds")
    return 0


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    sys.exit(check(target))
