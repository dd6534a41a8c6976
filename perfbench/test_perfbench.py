"""Tests of the benchmark itself, at a tiny size: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLE_SIZE", 4)
    monkeypatch.setattr(workloads, "WORDS", 5)


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def test_spec_lists_the_benchmarked_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.BENCHMARKED)
    assert set(run.BENCHMARKED) < set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.BENCHMARKED)
def test_untraced_run_emits_every_end_to_end_metric(name, tiny):
    r = run.run_workload(name, seed=1, seconds=0, trace=False)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert units(r) == E2E_UNITS
    m = values(r)
    # The forked run starts at this test process's size and may fit its ops
    # into heap that process freed; test_command_... checks a fresh process.
    assert m.pop("op_peak_rss_mib") >= 0
    assert all(v > 0 for v in m.values())
    assert set(r["reported"]) == {"op_tail_s", "ops_per_s"}


@pytest.mark.parametrize(
    "name, largest",
    [
        ("quotient-screen", None),
        ("star-mod3", "wythoff.flag_orbits_s"),
        ("amalgam-explore", "amalgam.ball_s"),
    ],
)
def test_traced_run_emits_layer_metrics_that_add_up(name, largest, tiny):
    r = run.run_workload(name, seed=1, seconds=0, trace=True)
    assert r["correct"]
    assert units(r) == LAYER_UNITS
    m = values(r)
    self_times = {k: m[k] for k in tracing.SPAN_METRICS}
    assert sum(self_times.values()) + m["trace.unattributed_s"] == pytest.approx(m["trace.op_s"])
    if largest:
        assert max(self_times, key=self_times.get) == largest


@pytest.mark.parametrize("name, index", [("star-mod3", None), ("amalgam-explore", 0)])
def test_flipped_hasse_digest_counts_as_failure(name, index, tiny, tmp_path):
    refs = json.loads(run.REFS.read_text())
    ref = refs[name] if index is None else refs[name][index]
    digest = ref["hasse_sha256"]
    ref["hasse_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    r = run.run_workload(name, seed=1, seconds=0, trace=False, refs_path=path)
    assert not r["correct"]
    # The corrupted input ran twice: in the untimed pass and in the timed one.
    assert r["failed"] == 2 and r["fail_ratio"] == 2 / r["attempted"]


def test_star_mod5_reference_has_the_measured_values():
    ref = json.loads(run.REFS.read_text())["star-mod5"]
    got = (ref["order"], ref["fvec"], ref["flags"], ref["orbits"], ref["class"])
    assert got == (28800, "(120, 3600, 4800, 600+240)", 57600, 2, "TwoOrbit")


def test_seed_determines_the_quotient_sample():
    lib = workloads.import_program(run.SRC)
    refs = json.loads(run.REFS.read_text())

    def sample(seed):
        return [(str(d), lengths, p) for (d, lengths, p), _ in workloads.screen_inputs(lib, refs, seed)]

    assert sample(1) == sample(1) != sample(2)
    assert len(sample(1)) == workloads.SAMPLE_SIZE
    largest = max(e["ref"]["order"] for e in refs["quotient-screen"])
    for seed in range(1, 11):
        inputs = workloads.screen_inputs(lib, refs, seed)
        assert max(ref["order"] for _, ref in inputs) == largest


def test_host_probe_scales_by_the_probes_near_an_interval(monkeypatch):
    monkeypatch.setattr(run, "PROBE_REACH", 2.0)
    host = run.HostProbe.__new__(run.HostProbe)
    host.at = [0.0, 1.0, 10.0, 11.0, 12.0]
    ref = run.PROBE_REF_S
    host.times = [ref, ref, 2 * ref, 2 * ref, 4 * ref]
    # Only the probes at 0 and 1 s are within reach of an op at 1-2 s.
    assert host.scaled(1.0, 1.0) == pytest.approx(1.0)
    # A host running at half speed doubles the wall time; scaling undoes it.
    assert host.scaled(10.5, 1.0) == pytest.approx(0.5)
    # Past the last probe's reach the nearest probe is used.
    assert host.scaled(30.0, 1.0) == pytest.approx(0.25)


def test_stratified_draw_gives_each_entry_its_share():
    for seed in range(5):
        picks = workloads.stratified_draw([1, 1, 2], 4, random.Random(seed))
        assert sorted(picks) == [0, 1, 2, 2]


def test_catalogue_weights_are_a_distribution():
    weights = [e["weight"] for e in json.loads(run.REFS.read_text())["quotient-screen"]]
    assert all(w > 0 for w in weights) and sum(weights) == pytest.approx(1)


def command(seconds, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quotient-screen",
         "--seed", "3", "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_object_last():
    proc = command(1, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and set(last["metrics"]) == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = command(1, tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
