"""The harness keeps its own contract.

Run with ``python -m pytest bench/tests`` (outside tier-1's
``testpaths``: it runs the whole suite in ``--quick`` mode, about a
minute and a half).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from common import load_spec  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=900)


def record_in(out: Path) -> dict:
    (path,) = out.glob("record-*.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    done = bench("--quick", "--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return out, done, record_in(out)


def test_every_declared_metric_appears_with_its_unit(quick):
    _out, _done, record = quick
    assert record["quick"] is True
    assert set(record["workloads"]) == set(WORKLOADS)
    for entry in record["workloads"].values():
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["unit"] == \
                metric["unit"]
    seen = {}
    for entry in record["workloads"].values():
        for name, cell in entry["per_layer"].items():
            seen[name] = cell["unit"]
    # run.py refuses to emit an undeclared name, so equality here means
    # declared == emitted.
    assert seen == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_names_and_units_fit_the_contract():
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                entry["name"])
            if "unit" in entry:
                assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])


def test_no_failures_and_layers_add_up(quick):
    _out, _done, record = quick
    for name, entry in record["workloads"].items():
        assert entry["failed_share"] == 0, (name, entry["errors"])
        coverage = entry["per_layer"]["trace.coverage_share"]["value"]
        assert 0.9 <= coverage <= 1.1, (name, coverage)
        assert "obs.trace_overhead_share" in entry["per_layer"]
    churn = record["workloads"]["snapshot_churn"]["per_layer"]
    assert churn["serve.audit_survivors"]["value"] == 0


def test_record_carries_machine_facts_and_traces(quick):
    out, done, record = quick
    for key in ("cpu_count", "python", "platform", "git_commit",
                "uptime_s", "loadavg_at_start", "pythonhashseed_children"):
        assert key in record["machine"]
    for name in WORKLOADS:
        assert (out / f"trace-{name}.jsonl").stat().st_size > 0
        assert re.fullmatch(
            r"[0-9a-f]{64}",
            next(iter(record["workloads"][name]["inputs"].values())))
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["claim"] is None and record["claim"] is None


def test_work_counts_repeat_exactly(quick, tmp_path):
    _out, _done, record = quick
    done = bench("--quick", "--seed", "1", "--workload", "flwor_correlated",
                 "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    again = record_in(tmp_path)["workloads"]["flwor_correlated"]["per_layer"]
    first = record["workloads"]["flwor_correlated"]["per_layer"]
    for name in ("physical.scan_nodes", "physical.scan_comparisons",
                 "engine.bind_tuples"):
        assert first[name]["value"] == again[name]["value"] > 0


def test_contract_mode_last_line(tmp_path):
    done = bench("--workload", "compile_cold", "--seed", "3", "--seconds",
                 "1", "--trace", "0", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_injected_wrong_answer_is_a_failed_op(tmp_path):
    done = bench("--quick", "--workload", "flwor_correlated", "--no-traced",
                 "--inject-wrong-answer", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    entry = record_in(tmp_path)["workloads"]["flwor_correlated"]
    assert entry["failed_share"] > 0
    assert entry["errors"] == {"WrongAnswer": 1}


def test_crashed_workload_fails_alone(tmp_path, monkeypatch):
    def crashing(workload, *args, **kwargs):
        if workload == "compile_cold":
            raise run.WorkloadCrashed("compile_cold: exit 1")
        return {"attempted": 5, "failed": 0, "errors": {}, "inputs": {},
                "speed_factor": 1.0, "metrics": {}}

    monkeypatch.setattr(run, "run_one", crashing)
    assert run.main(["--quick", "--no-traced", "--out", str(tmp_path)]) == 0
    record = record_in(tmp_path)
    assert record["workloads"]["compile_cold"]["failed_share"] == 1.0
    assert record["workloads"]["table3_paths"]["failed_share"] == 0


def full(record: dict, scale: float = 1.0) -> dict:
    """A copy posing as a full-length record, one metric scaled."""
    copy = json.loads(json.dumps(record))
    copy["quick"] = False
    cell = copy["workloads"]["table3_paths"]["end_to_end"]["latency_ms_p50"]
    cell["value"] *= scale
    return copy


def test_compare_verdicts(quick, capsys):
    _out, _done, record = quick
    assert compare.compare([full(record)], [full(record)], SPEC) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.compare([full(record)], [full(record, 1.5)], SPEC) == 1
    assert "regressed" in capsys.readouterr().out
    noisy = [full(record, s) for s in (1.0, 1.6, 2.4)]
    assert compare.compare(noisy, noisy, SPEC) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_refuses_what_it_cannot_compare(quick):
    _out, _done, record = quick
    with pytest.raises(compare.NotComparable, match="quick"):
        compare.compare([record], [full(record)], SPEC)
    other = full(record)
    other["seed"] = 2
    with pytest.raises(compare.NotComparable, match="seeds"):
        compare.compare([full(record)], [other], SPEC)
    other = full(record)
    other["workloads"]["wire_closed"]["inputs"]["library.xml"] = "0" * 64
    with pytest.raises(compare.NotComparable, match="digests"):
        compare.compare([full(record)], [other], SPEC)


def test_median_record(quick):
    _out, _done, record = quick
    merged = compare.median_record(
        [full(record, s) for s in (1.0, 3.0, 2.0)])
    base = record["workloads"]["table3_paths"]["end_to_end"][
        "latency_ms_p50"]["value"]
    assert merged["runs"] == 3
    assert merged["workloads"]["table3_paths"]["end_to_end"][
        "latency_ms_p50"]["value"] == pytest.approx(2.0 * base)
