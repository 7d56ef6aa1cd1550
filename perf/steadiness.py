#!/usr/bin/env python3
"""How steady the end-to-end metrics are: the contract's own procedure.

    python perf/steadiness.py --out perf/steadiness/aa.jsonl

runs every workload ten times, each time with another seed, twice over
(set 1, then set 2, on the same tree), exactly as the driver form of
``run.py`` would, and keeps every run with its per-repeat samples (raw
CPU seconds and host slowdown) as one JSON line. It then prints, per workload and end-to-end metric, the
spread of each set (distance between the first and third quartile of the
ten values as a share of their median) and how much worse the second
set's median is than the first's: the two numbers ``CONTRACT.md`` holds
against the metric's bound. A second table gives, from the same runs,
the spread the two times would have without the host calibration.
``--report`` prints the tables of a file collected earlier.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

import run

SEEDS = range(1, 11)


def collect(path: str, contract: dict, names: List[str], sets: int) -> None:
    with open(path, "w") as handle:
        for index in range(1, sets + 1):
            # Seed-major: a workload's ten runs are spread over the whole
            # set, so they sample the host's phases, not one of them.
            for seed in SEEDS:
                for name in names:
                    started = time.time()
                    result = run.measure(
                        contract, name, seed, float(contract["run_seconds"]), 0, False
                    )
                    detail = result.pop("detail")
                    result.update({
                        "set": index, "seed": seed, "workload": name,
                        "started": started, "took_s": time.time() - started,
                        "loadavg": os.getloadavg()[0],
                        "raw_cpu_s_repeats": detail["raw_cpu_s_repeats"],
                        "host_slowdown_repeats": detail["host_slowdown_repeats"],
                        "raw_setup_s_repeats": detail["raw_setup_s_repeats"],
                        "setup_s_repeats": detail["setup_s_repeats"],
                        "wall_s_repeats": detail["wall_s_repeats"],
                        "sim_digest": detail["sim_digest"],
                    })
                    handle.write(json.dumps(result) + "\n")
                    handle.flush()
                    print(f"set {index} seed {seed} {name}: {result['took_s']:.1f} s",
                          file=sys.stderr)


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return float("nan")  # a set still being collected
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def report(path: str, contract: dict) -> bool:
    """Print the table; say whether every metric stays within its bound."""
    runs: Dict[tuple, List[dict]] = {}
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            runs.setdefault((row["workload"], row["set"]), []).append(row)
    within = True
    print("| workload | metric | bound | " + " | ".join(
        f"set {s} median | set {s} spread"
        for s in sorted({s for _, s in runs})) + " | set 2 worse by |")
    for name in [w["name"] for w in contract["workloads"]]:
        sets = sorted(s for w, s in runs if w == name)
        for spec in contract["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            cells, medians = [], []
            for index in sets:
                values = [r["metrics"][metric]["value"] for r in runs[(name, index)]]
                medians.append(statistics.median(values))
                cells.append(f"{medians[-1]:.4g} | {spread(values):.1%}")
                # The driver exempts setup_s from the spread rule only.
                within = within and (metric == "setup_s" or spread(values) <= bound)
            worse = ""
            if len(medians) == 2:
                sign = 1 if spec["better"] == "lower" else -1
                shift = sign * (medians[1] - medians[0]) / medians[0]
                worse = f"{shift:+.1%}"
                within = within and shift <= bound
            print(f"| {name} | {metric} | {bound:g} | " + " | ".join(cells) + f" | {worse} |")
    # The same runs without the calibration, to show what it buys: the
    # median over repeats of raw CPU seconds, as ``cpu_s`` would be.
    median = statistics.median
    if all("raw_cpu_s_repeats" in rows[0] for rows in runs.values()):
        print("\n| workload | set | cpu_s spread | raw CPU-s spread | raw CPU-s median |"
              " setup_s spread | raw set-up spread |")
    for (name, index), rows in sorted(runs.items()):
        if "raw_cpu_s_repeats" not in rows[0]:
            continue  # steadiness/raw-only.jsonl: its metrics are the raw ones
        raw = [median(r["raw_cpu_s_repeats"]) for r in rows]
        print(f"| {name} | {index} "
              f"| {spread([r['metrics']['cpu_s']['value'] for r in rows]):.1%} "
              f"| {spread(raw):.1%} | {median(raw):.4g} "
              f"| {spread([r['metrics']['setup_s']['value'] for r in rows]):.1%} "
              f"| {spread([median(r['raw_setup_s_repeats']) for r in rows]):.1%} |")
    failed = sum(r["failed"] for rows in runs.values() for r in rows)
    took = [r["took_s"] for rows in runs.values() for r in rows]
    print(f"\n{len(took)} runs, {failed} failed operations, "
          f"{statistics.mean(took):.1f} s per run on average, {max(took):.1f} s at most")
    return within and failed == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file of the runs")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="+", metavar="NAME")
    parser.add_argument("--report", action="store_true",
                        help="only print the table of an existing --out file")
    args = parser.parse_args(argv)
    contract = run.load_contract()
    if not args.report:
        names = args.workloads or [w["name"] for w in contract["workloads"]]
        collect(args.out, contract, names, args.sets)
    return 0 if report(args.out, contract) else 1


if __name__ == "__main__":
    sys.exit(main())
