"""Smoke test of the perf ledger itself.

Run as ``python -m pytest perf -q``; deliberately outside the tier-1
``testpaths`` because it drives every workload (at ``--quick`` size) in
child interpreters and takes most of a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perf", "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def serve_processes():
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro" in argv and b"serve" in argv:
            found.append(pid)
    return found


def test_contract_schema():
    doc = contract()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len(doc["workloads"]) == 7
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        # 0.25 is the largest bound CONTRACT.md allows.
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert "setup_s" in [metric["name"] for metric in doc["end_to_end"]]


def test_quick_ledger(tmp_path):
    doc = contract()
    before = serve_processes()
    history = tmp_path / "history.jsonl"
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--append-history", str(history)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert serve_processes() == before, "the serve subprocess was not reaped"

    with open(os.path.join(ROOT, "perf", "out", "ledger.json")) as handle:
        ledger = json.load(handle)
    rows = ledger["workloads"]
    assert list(rows) == [w["name"] for w in doc["workloads"]]
    end_to_end = [m["name"] for m in doc["end_to_end"]]
    per_layer = [m["name"] for m in doc["per_layer"]]
    for name, row in rows.items():
        assert row["failed_share"] == 0, (name, row["detail"]["failures"])
        assert list(row["end_to_end"]) == end_to_end
        assert all(value > 0 for value in row["end_to_end"].values()), name
        # A row lists only the layers its workload measures.
        assert set(row["per_layer"]) <= set(per_layer)
        assert row["per_layer"]["trace_overhead_ratio"] > 0
    # Every listed layer metric is measured by at least one workload, and
    # the standalone probes by exactly one.
    measured_by = {m: [n for n, row in rows.items() if m in row["per_layer"]]
                   for m in per_layer}
    assert all(measured_by.values()), [m for m, by in measured_by.items() if not by]
    for probe in ("arbiters.rr.grant_ns", "sim.wheel.push_take_ns",
                  "core.routing.compute_us", "cli.import_s"):
        assert len(measured_by[probe]) == 1, (probe, measured_by[probe])
    assert rows["demand_faulted_ckpt"]["per_layer"]["faults.dropped"] == 0
    twins = {rows[n]["sim_digest"] for n in
             ("torus512_sat", "torus512_sat_fast", "torus512_sat_shard2")}
    assert len(twins) == 1
    for key in ("cpu_model", "cpu_count", "python", "numpy", "git_sha",
                "git_dirty", "seed", "loadavg_at_start"):
        assert key in ledger["host"]

    for name in rows:
        with open(os.path.join(ROOT, "perf", "out", f"trace-{name}.jsonl")) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans and all(span["workload"] == name for span in spans)
        plain = [span for span in spans if not span.get("aggregate")]
        assert all({"name", "start", "end", "parent", "repeat"} <= set(s) for s in plain)

    (line,) = history.read_text().splitlines()
    assert set(json.loads(line)["end_to_end"]) == set(rows)


def test_driver_mode_prints_the_contract_object_last():
    doc = contract()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, RUN, "--workload", "tornado_iw", "--seed", "2",
             "--seconds", "0", "--trace", str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == RESULT_KEYS and result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in doc[section]]
        for spec in doc[section]:
            assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "tornado_iw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
