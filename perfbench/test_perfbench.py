"""Tests of the benchmark itself: names, the indel certificate, the tracer, smoke runs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads
from gapedit.metering import RandomStream
from gapedit.strings import ed_exact, ed_lower_bound

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("n,p", [(64, 0), (256, 3), (1024, 8), (1024, 200), (4096, 32), (4096, 257)])
def test_indel_certificate_brackets_the_exact_distance(n, p):
    for seed in range(2):
        x, y, cert = workloads.indel_instance(n, p, RandomStream(seed).child(f"{n}-{p}"))
        assert len(x) == len(y) == n
        assert (cert.lo, cert.hi) == (p, 2 * p)
        assert ed_lower_bound(x, y) >= p
        assert p <= ed_exact(x, y) <= 2 * p


def test_indel_instance_rejects_impossible_counts():
    with pytest.raises(ValueError):
        workloads.indel_instance(16, 17, RandomStream(0))


def test_planned_reads_only_for_multilevel_workloads():
    fine = workloads.WORKLOADS["fine-blocks"]
    assert fine.planned_reads() == 6782976  # 25.875 * 2n at n = 2^17
    assert workloads.WORKLOADS["h1-sampled"].planned_reads() is None


def test_gates_report_wrong_tier_verdict_and_read_count():
    fine = workloads.WORKLOADS["fine-blocks"]
    good = workloads.Trial("yes", truth="YES", verdict="YES", reads=fine.planned_reads())
    assert workloads.check(fine, good) == []
    bad = workloads.Trial("yes", truth="YES", verdict="NO", reads=1)
    assert len(workloads.check(fine, bad)) == 2
    mislabelled = workloads.Workload("x", fine.family, fine.n, fine.k, fine.c, "h1", "")
    assert len(workloads.check(mislabelled, good)) == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(30))
    value, pct = run.tail(values)
    assert value == 19 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def _fake_module():
    mod = types.ModuleType("fake_layers")

    def inner(d):
        return d

    def outer(d):
        return mod.inner(d) + mod.inner(d)

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_self_time_excludes_children_and_restores_sites(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    original = mod.outer
    tr = tracing.Tracer([
        tracing.Target("outer", ("fake_layers:outer",)),
        tracing.Target("inner", ("fake_layers:inner",), observe=lambda a, r: {"arg": a[0]}),
        tracing.Target("gone", ("fake_layers:missing", "no_such_module:f")),
    ])
    with tr:
        tr.scope = "s"
        assert mod.outer(2) == 4
    assert mod.outer is original
    assert tr.absent == ["gone"]
    outer, inner = tr.total("outer"), tr.total("inner")
    assert (outer.calls, inner.calls) == (1, 2)
    assert inner.counters == {"arg": 4}
    assert inner.self_ns == inner.total_ns
    assert outer.self_ns == outer.total_ns - inner.total_ns
    assert tr.total("inner", lambda s: s != "s").calls == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_one_trial_pair(name, trace):
    w = workloads.WORKLOADS[name]
    if w.tier == "multilevel" and w.n > 4096:  # smaller instances, same tier
        w = workloads.Workload(name, w.family, w.n // 4, w.k, w.c, w.tier, w.why)
    result = run.measure(w, seed=5, seconds=0, trace=bool(trace))
    assert len(result.trials) == 2
    assert [t.failures for t in result.trials] == [[], []]
    if trace:
        metrics, report = run.per_layer(w, result)
        expected = SPEC["per_layer"]
        assert report["absent wrap targets"][0] == "none"
    else:
        metrics, _ = run.end_to_end(w, result, setup_s=1.0)
        expected = SPEC["end_to_end"]
        assert metrics["accuracy"][0] == 1.0
    assert {m["name"]: m["unit"] for m in expected} == {k: u for k, (_, u) in metrics.items()}
