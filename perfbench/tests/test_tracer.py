"""The benchmark's own code: span arithmetic, wrapper installation, the
traced run's repeatability, and the gate's reading of fflab output.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parents[2]
SMALL_SWEEP = ["sweep", "--ids", "QF-1,EX-3,KK-1,FT-3", "--primes", "3",
               "--dims", "2,3", "--seed", "0"]


def test_self_times_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.child", 5.5, 6.0, 3),
        ("b.child", 7.0, 8.5, 3),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]
    assert sum(tracer.self_times(spans)) == 10.0


def test_layer_self_times_and_unattributed_add_up_to_wall():
    t = tracer.Tracer()
    names = [tracer.ROOT, "kakeya.maximal_ratio", "kakeya.kakeya_maximal",
             "fourier.fourier_transform"]
    opened = [t.open(name) for name in names]
    for idx in reversed(opened[1:]):
        t.close(idx)
    t.close(t.open("harness.run_scenario"))
    t.close(opened[0])
    s = t.summary()
    layers = sum(s[layer + ".self_s"] for layer in tracer.LAYERS)
    assert s["kakeya.maximal_ratio.calls"] == 1
    assert s["fourier.fourier_transform.calls"] == 1
    assert layers + s["trace.unattributed_s"] == pytest.approx(s["trace.wall_s"], abs=1e-12)


def test_install_rebinds_every_holder_and_uninstall_restores():
    from fflab import cli, fourier, qforms, surfaces, kakeya, combinatorics
    from fflab.harness import baselines, scenarios
    originals = (fourier.fourier_transform, qforms.enumerate_max_isotropic,
                 baselines.BaselineStore.__dict__["load"])
    t = tracer.Tracer()
    t.install()
    try:
        for holder in (fourier, surfaces, combinatorics, scenarios):
            assert holder.fourier_transform is not originals[0]
            assert holder.fourier_transform.__wrapped__ is originals[0]
        for holder in (qforms, combinatorics, scenarios):
            assert holder.enumerate_max_isotropic is not originals[1]
        assert cli.run_scenario is scenarios.run_scenario
        assert kakeya.is_totally_isotropic is qforms.is_totally_isotropic
    finally:
        t.uninstall()
    assert fourier.fourier_transform is originals[0]
    assert scenarios.enumerate_max_isotropic is originals[1]
    assert baselines.BaselineStore.__dict__["load"] is originals[2]


def test_missing_entry_point_fails_install():
    t = tracer.Tracer()
    renamed = (("fourier.fft", "fflab.fourier", "fft", tracer.SPAN),)
    with pytest.raises(tracer.TraceSetupError, match="not found"):
        t.install(renamed)


def test_wrappers_keep_baseline_verification_passing():
    import fflab.harness as harness
    t = tracer.Tracer()
    t.install()
    try:
        store = harness.BaselineStore.load()
        tracked = [sid for sid, sc in harness.REGISTRY.items()
                   if sc.kind == "constant_tracked"]
        assert tracked
        for sid in tracked:
            store.verify(sid, harness.REGISTRY[sid].runner)
        report = harness.run_scenario("EX-3", prime=3, dim=3, trials=20, seed=0)
    finally:
        t.uninstall()
    assert report.status == "report_only"
    s = t.summary()
    assert s["harness.BaselineStore.load.calls"] == 2
    assert s["harness.run_scenario.calls"] == 1
    assert s["combinatorics.max_isotropic_slice.calls"] > 0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return env


def _traced(tmp_path, name):
    out = tmp_path / name
    summary = tmp_path / f"{name}.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                    str(summary), "--", *SMALL_SWEEP, "--out", str(out)],
                   check=True, capture_output=True, env=_child_env(), timeout=120)
    return json.loads(summary.read_text()), (out / "report.json").read_bytes()


def test_traced_counts_repeat_exactly_and_reports_match_untraced(tmp_path):
    first, report_a = _traced(tmp_path, "a")
    second, report_b = _traced(tmp_path, "b")
    plain = tmp_path / "plain"
    subprocess.run([sys.executable, "-m", "fflab.cli", *SMALL_SWEEP, "--out", str(plain)],
                   check=True, capture_output=True, env=_child_env(), timeout=120)
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    assert counts == {k: v for k, v in second.items() if isinstance(v, int)}
    assert counts["qforms.enumerate_max_isotropic.calls"] > 0
    assert counts["qforms.rref_mod.calls"] > 0
    assert counts["kakeya.kakeya_maximal.calls"] > 0
    assert report_a == report_b == (plain / "report.json").read_bytes()


def test_declared_per_layer_metrics_are_all_measured():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = tracer.derive(tracer.Tracer().summary())
    measured["trace.overhead_s"] = 0.0
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    assert missing == []


def test_analysis_ids_are_registered_and_skip_isotropic_scenarios():
    from fflab.harness import REGISTRY
    assert len(run.ANALYSIS_IDS) == 33
    assert set(run.ANALYSIS_IDS) <= set(REGISTRY)
    assert not {"QF-1", "QF-2", "EX-3", "MX-1", "MX-2", "MX-3"} & set(run.ANALYSIS_IDS)


def _outcome(expected, code=0):
    job = run.Job("k", ["sweep"], expected)
    return run.Outcome(job, run.Proc(code, 1.0, 1.0, 10.0), traced=False)


def test_gate_counts_a_failed_process_as_every_run_failed():
    o = _outcome(156, code=1)
    run.check_outcome(o, Path("."), "boom")
    assert "exit code 1" in o.breach and o.failed == 156


def test_run_ms_averages_each_run_over_repetitions():
    reps = []
    for times in ((10.0, 200.0), (12.0, 150.0), (30.0, 180.0)):
        o = _outcome(2)
        o.runtimes_ms = {"FT-1 p=3 d=2 seed=0": times[0], "KK-1 p=13 d=3 seed=0": times[1]}
        reps.append(o)
    # means 52/3 and 530/3 ms, then percentiles over the two runs
    assert run.run_ms(reps) == {"run_ms_p50": pytest.approx(97.0),
                                "run_ms_p90": pytest.approx(52 / 3 + 0.9 * 478 / 3)}


def test_gate_rejects_a_short_sweep(tmp_path):
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "fflab.cli", "sweep", "--ids", "FT-3",
                    "--primes", "3", "--dims", "2", "--out", str(out)],
                   check=True, capture_output=True, env=_child_env(), timeout=120)
    o = _outcome(1)
    run.check_outcome(o, tmp_path, "")
    assert (o.breach, o.failed, len(o.runtimes_ms)) == ("", 0, 1)
    o = _outcome(2)
    run.check_outcome(o, tmp_path, "")
    assert "expected 2" in o.breach and o.failed == 2


def test_entry_point_held_in_a_container_fails_install(monkeypatch):
    from fflab import kakeya
    monkeypatch.setattr(kakeya, "_DISPATCH", {"max": kakeya.kakeya_maximal},
                        raising=False)
    t = tracer.Tracer()
    try:
        with pytest.raises(tracer.TraceSetupError, match="fflab.kakeya._DISPATCH"):
            t.install()
    finally:
        t.uninstall()
