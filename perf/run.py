#!/usr/bin/env python3
"""The repo's perf ledger: one command, every workload, every layer.

    python perf/run.py                      # all workloads, then the traced pass
    python perf/run.py --quick              # shrunk sizes, under a minute
    python perf/run.py --selfcheck          # A/A: the untraced pass twice
    python perf/run.py --workload tornado_iw --seed 3 --seconds 8 --trace 0

The last form is the benchmark driver's (``BENCHMARK.json``): one
workload, one pass, one JSON object on the last line of stdout. Every
measurement runs in a fresh child interpreter (``child.py``); this file
only starts children, bounds their lifetime and reads their results, and
imports nothing from ``src/``. See ``perf/README.md`` for the metric and
workload catalogue.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
OUT = os.path.join(PERF, "out")

#: A child that runs longer is killed with its whole process group.
CHILD_TIMEOUT_S = 150
#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Workloads that simulate identical work and must agree on the digest.
SAME_WORK = ("torus512_sat", "torus512_sat_fast", "torus512_sat_shard2")


class WorkloadError(RuntimeError):
    """A child interpreter failed, hung, or printed no result."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool, phase: str = "full") -> dict:
    """One child interpreter, from launch to its parsed result."""
    env = dict(os.environ)
    # Switches of the program under test are the workloads' to set.
    for name in ("REPRO_FASTPATH", "REPRO_SWEEP_WORKERS"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # multiprocessing and tempfile stay inside the checkout.
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    argv = [
        sys.executable, os.path.join(PERF, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--phase", phase, "--out", OUT,
    ] + (["--quick"] if quick else [])
    child = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # own process group: server, shards, pool
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        # Nothing the child started may outlive it, however it ended.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0:
        raise WorkloadError(f"{workload}: child exited with {child.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkloadError(f"{workload}: child printed no result")


def measure(contract: dict, workload: str, seed: int, seconds: float,
            trace: int, quick: bool) -> dict:
    """One pass of one workload as the driver wants it, plus diagnostics.

    The returned dict carries the contract's four keys and, under
    ``detail``, what the ledger prints beside them.
    """
    if trace:
        child = run_child(workload, seed, seconds, 1, quick)
        metrics = {
            spec["name"]: {
                # The driver wants every per-layer metric from every
                # workload (CONTRACT.md): a layer this one does not
                # exercise reads 0 on the driver's line. ``measured``
                # tells the ledger which values are real.
                "value": float(child["layers"].get(spec["name"], 0.0)),
                "unit": spec["unit"],
            }
            for spec in contract["per_layer"]
        }
        unknown = set(child["layers"]) - set(metrics)
        if unknown:
            raise WorkloadError(f"{workload}: unlisted layer metrics {sorted(unknown)}")
        detail = {
            "trace_file": os.path.relpath(child["trace_file"], ROOT),
            "measured": [name for name in metrics if name in child["layers"]],
        }
    else:
        setups = [
            run_child(workload, seed, seconds, 0, quick, phase="setup")
            for _ in range(0 if quick else SETUP_REPEATS - 1)
        ]
        child = run_child(workload, seed, seconds, 0, quick)
        setups.append(child)
        # CPU seconds at the reference host speed (measure.Calibrator);
        # the raw samples and slowdowns are kept beside them.
        setup_s = [s["setup_s"] / s["setup_slowdown"] for s in setups]
        repeat_s = [c / s for c, s in zip(child["cpu_s"], child["slowdown"])]
        cpu_s = statistics.median(repeat_s)
        values = {
            "cpu_s": cpu_s,
            "sim_cycles_per_cpu_s": child["cycles"] / cpu_s,
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(setup_s),
        }
        metrics = {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in contract["end_to_end"]
        }
        detail = {
            "repeats": len(repeat_s),
            "cpu_s_repeats": repeat_s,
            "setup_s_repeats": setup_s,
            "raw_cpu_s_repeats": child["cpu_s"],
            "raw_setup_s_repeats": [s["setup_s"] for s in setups],
            "host_slowdown_repeats": child["slowdown"],
            "wall_s_repeats": child["wall_s"],
            "sim_cycles": child["cycles"],
        }
    detail.update({"sim_digest": child["digest"], "failures": child["failures"]})
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def failed_result(error: Exception) -> dict:
    """A workload that raised counts as one failed operation out of one."""
    return {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        "detail": {"sim_digest": None, "failures": [str(error)]},
    }


# --- the ledger -----------------------------------------------------------------


def fingerprint(seed: int) -> dict:
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git",) + argv, cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "loadavg_at_start": os.getloadavg()[0],
    }


def show(name: str, result: dict) -> None:
    detail = result["detail"]
    share = result["failed"] / result["attempted"]
    print(f"== {name}  sim_digest={detail['sim_digest']}  "
          f"failed_share={share:g} ({result['failed']}/{result['attempted']})")
    for failure in detail["failures"]:
        print(f"   FAILED: {failure}")
    for metric, entry in result["metrics"].items():
        if metric in detail.get("measured", result["metrics"]):
            print(f"   {metric} = {entry['value']:.6g} {entry['unit']}")
    if "wall_s_repeats" in detail:
        median = statistics.median
        print(f"   (repeats={detail['repeats']}; diagnostics: raw CPU-s median "
              f"{median(detail['raw_cpu_s_repeats']):.3f}, host slowdown median "
              f"{median(detail['host_slowdown_repeats']):.2f}, wall_s median "
              f"{median(detail['wall_s_repeats']):.3f})")
    sys.stdout.flush()


def run_pass(contract: dict, names: List[str], seed: int, seconds: float,
             trace: int, quick: bool) -> Dict[str, dict]:
    results = {}
    for name in names:
        try:
            results[name] = measure(contract, name, seed, seconds, trace, quick)
        except WorkloadError as error:
            results[name] = failed_result(error)
        show(name, results[name])
    twins = {results[n]["detail"]["sim_digest"] for n in SAME_WORK if n in results}
    if len(twins) > 1:
        for name in SAME_WORK:
            if name in results:
                results[name]["correct"] = False
                results[name]["failed"] = max(1, results[name]["failed"])
                results[name]["detail"]["failures"].append(
                    f"digests of {', '.join(SAME_WORK)} differ: {sorted(map(str, twins))}"
                )
        print(f"FAILED: {', '.join(SAME_WORK)} simulate the same work but disagree")
    return results


def selfcheck(contract: dict, first: Dict[str, dict], second: Dict[str, dict]) -> bool:
    """A/A: two untraced passes of one tree must agree within each bound."""
    agree = True
    for name in first:
        a, b = first[name], second[name]
        if a["detail"]["sim_digest"] != b["detail"]["sim_digest"]:
            print(f"selfcheck {name}: sim_digest differs between the two sets")
            agree = False
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            if metric not in a["metrics"] or metric not in b["metrics"]:
                agree = False
                continue
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            apart = abs(x - y) / min(x, y)
            verdict = "ok" if apart <= spec["bound"] else "OUTSIDE BOUND"
            agree = agree and apart <= spec["bound"]
            line = (f"selfcheck {name}.{metric}: {x:.6g} vs {y:.6g} "
                    f"({apart:.1%} apart, bound {spec['bound']:.0%}) {verdict}")
            samples = f"{metric}_repeats"
            if samples in a["detail"]:
                line += "  repeats min/median/max " + " | ".join(
                    f"{min(s):.4g}/{statistics.median(s):.4g}/{max(s):.4g}"
                    for s in (a["detail"][samples], b["detail"][samples])
                )
            print(line)
    return agree


def ledger(args, contract: dict) -> int:
    known = [w["name"] for w in contract["workloads"]]
    names = args.workloads or known
    seconds = 0.0 if args.quick else float(contract["run_seconds"])
    host = fingerprint(args.seed)
    print(f"host: {json.dumps(host)}")
    print("-- untraced pass: end-to-end metrics")
    untraced = run_pass(contract, names, args.seed, seconds, 0, args.quick)
    ok = all(r["correct"] for r in untraced.values())
    if args.selfcheck:
        print("-- untraced pass again (A/A)")
        again = run_pass(contract, names, args.seed, seconds, 0, args.quick)
        ok = ok and all(r["correct"] for r in again.values())
        ok = selfcheck(contract, untraced, again) and ok
        traced = {}
    else:
        print("-- traced pass: per-layer metrics (a workload lists the layers it measures)")
        traced = run_pass(contract, names, args.seed, seconds, 1, args.quick)
        ok = ok and all(r["correct"] for r in traced.values())
        for name in names:
            if traced[name]["detail"]["sim_digest"] != untraced[name]["detail"]["sim_digest"]:
                print(f"FAILED: {name}: measuring changed the simulated result")
                ok = False
    record = {
        "host": host,
        "quick": args.quick,
        "workloads": {
            name: {
                "sim_digest": untraced[name]["detail"]["sim_digest"],
                "failed_share": untraced[name]["failed"] / untraced[name]["attempted"],
                "end_to_end": {k: v["value"] for k, v in untraced[name]["metrics"].items()},
                "per_layer": {
                    k: traced[name]["metrics"][k]["value"]
                    for k in traced.get(name, {}).get("detail", {}).get("measured", [])
                },
                "detail": untraced[name]["detail"],
            }
            for name in names
        },
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "ledger.json"), "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    if args.append_history:
        line = {
            "host": host,
            "quick": args.quick,
            "end_to_end": {n: record["workloads"][n]["end_to_end"] for n in names},
            "sim_digest": {n: record["workloads"][n]["sim_digest"] for n in names},
            "repeats": {n: untraced[n]["detail"].get("repeats") for n in names},
        }
        with open(args.append_history, "a") as handle:
            handle.write(json.dumps(line, separators=(",", ":")) + "\n")
    print("ledger: " + ("ok" if ok else "FAILED") + ", written to perf/out/ledger.json")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="driver mode: this workload only, JSON on the last line")
    parser.add_argument("--seconds", type=float, help="driver mode: measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--workloads", nargs="+", metavar="NAME", help="ledger: only these")
    parser.add_argument("--quick", action="store_true", help="shrunk sizes, one repeat")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced pass twice and compare within the bounds")
    parser.add_argument("--append-history", metavar="PATH",
                        help="append the end-to-end table to PATH as one JSON line")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf/run.py: no src/repro beside perf/; nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    for name in (args.workloads or []) + ([args.workload] if args.workload else []):
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    if args.workload is None:
        return ledger(args, contract)

    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    try:
        result = measure(contract, args.workload, args.seed, seconds, args.trace, args.quick)
    except WorkloadError as error:
        print(f"perf/run.py: {error}", file=sys.stderr)
        return 1
    show(args.workload, result)
    del result["detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
