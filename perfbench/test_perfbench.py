"""Tests of the benchmark's own code: sampling, tracing and the gate."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from staircase_groth import grothendieck, shapes, symfunc, tableaux  # noqa: E402
from staircase_groth.shapes import contains, staircase  # noqa: E402

META = json.loads((HERE / "workloads.json").read_text())


@pytest.fixture(scope="module")
def populations():
    return {w: cases.population(w) for w in cases.POPULATIONS}


def _listing(workload, seed, pop):
    return [(c.id, c.flip) for c in cases.sample(workload, seed, pop)]


def test_same_seed_same_cases_other_seed_other_cases(populations):
    for w, pop in populations.items():
        first = _listing(w, 7, pop)
        assert first == _listing(w, 7, pop)
        assert first != _listing(w, 8, pop)


def test_seeds_vary_the_side_order_not_the_work(populations):
    for w, pop in populations.items():
        runs = [cases.sample(w, s, pop) for s in (1, 2)]
        assert [c.id for c in runs[0]] == [c.id for c in runs[1]]
        assert [c.flip for c in runs[0]] != [c.flip for c in runs[1]]


def test_flipped_case_gives_the_same_outputs(populations):
    case = populations["stembridge-g6"][200]
    plain = cases.run_case(replace(case, flip=False))
    flipped = cases.run_case(replace(case, flip=True))
    assert cases.canonical(case, *plain) == cases.canonical(case, *flipped)


def test_sampled_mu_lie_inside_rho(populations):
    for w in ("stembridge-g6", "stembridge-G6"):
        for c in cases.sample(w, 1, populations[w]):
            rho, mu, muc, _ = c.args
            assert rho == staircase(6)
            assert contains(rho, mu) and contains(rho, muc)
    for c in populations["hopf4"]:
        if c.kind == "skew-g":
            lam, mu, _ = c.args
            assert contains(staircase(4), lam) and contains(lam, mu)
        else:
            assert contains(staircase(4), c.args[1])


def test_metadata_matches_the_code(populations):
    for w, pop in populations.items():
        meta = META["workloads"][w]
        n = len(cases.sample(w, meta["default_seed"], pop))
        assert meta["population_size"] == len(pop)
        assert meta["cases_per_run"] == n == meta["tail_samples"]
        assert meta["tail_percentile"] == worker.tail_percentile(n)
        assert n * (100 - meta["tail_percentile"]) >= 1000


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["workloads"]] == list(cases.POPULATIONS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    tracer = tracing.Tracer()
    for layer, names in tracing.LAYERS.items():
        for n in names:
            tracer.wrap(f"{layer}.{n}", lambda: None)
    layers = worker.layer_metrics(tracer, 1, {n: 0.0 for n in tracing.DISTINCT})
    layers["trace.overhead_s"] = 0.0
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: run.layer_unit(k) for k in layers}


def test_self_time_of_nested_calls():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_leaf()
        now[0] += 3.0
        traced_leaf()

    traced_leaf = tracer.wrap("tableaux.count_fillings", leaf)
    traced_outer = tracer.wrap("grothendieck.dual_g", outer)
    tracer.case = "c1"
    traced_outer()
    assert tracer.calls == {"tableaux.count_fillings": 2,
                            "grothendieck.dual_g": 1}
    assert tracer.self_s["grothendieck.dual_g"] == 4.0
    assert tracer.total_s["grothendieck.dual_g"] == 8.0
    assert tracer.self_s["tableaux.count_fillings"] == 4.0
    assert tracer.layer_self_s()["tableaux"] == 4.0
    # count_fillings is counted only; dual_g is a span
    assert tracer.spans == [(1, "grothendieck.dual_g", 0.0, 8.0, None, "c1")]
    assert tracer.distinct_share("grothendieck.dual_g") == 1.0


def _bindings():
    mods = tracing.library_modules()
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_install_rebinds_every_importing_namespace():
    before = _bindings()
    with tracing.installed(tracing.Tracer()):
        after = _bindings()
        for layer, names in tracing.LAYERS.items():
            module = getattr(sys.modules["staircase_groth"], layer)
            for attr in names:
                original = before[(module.__name__, attr)]
                if isinstance(original, type):
                    assert original.__init__.__wrapped__ is not None
                    continue
                holders = [key for key, v in before.items() if v is original]
                assert len(holders) >= 1
                for key in holders:
                    assert after[key] is not original
                    assert after[key].__wrapped__ is original
        # names the library calls through sibling-module imports
        assert grothendieck.m_to_schur is symfunc.m_to_schur
        assert tableaux.contains is shapes.contains
        assert hasattr(tableaux.contains, "__wrapped__")


def test_traced_replay_counts_calls_and_restores_the_library(populations):
    before = _bindings()
    inits = {c: c.__dict__["__init__"] for c in (shapes.SkewShape,
                                                 symfunc.SymFunc)}
    pop = populations["hopf4"]
    case_list = [c for c in pop if c.kind == "skew-g" and sum(c.args[0]) <= 3]
    replay = worker.Replay(case_list, worker.load_reference("hopf4"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        replay.run_pass(tracer)
    assert replay.failures == []
    assert tracer.calls["grothendieck.skew_by"] == len(case_list)
    assert tracer.calls["grothendieck.dual_g"] == 2 * len(case_list)
    assert 0 < tracer.distinct_share("grothendieck.dual_g") < 1
    assert tracer.calls["shapes.SkewShape"] > 0
    assert {s[5] for s in tracer.spans} == {c.id for c in case_list}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert all(c.__dict__["__init__"] is f for c, f in inits.items())


def test_gate_fails_wrong_outputs_and_exceptions(populations):
    pop = populations["lattice6"]
    reference = worker.load_reference("lattice6")
    tampered = list(reference)
    tampered[pop[0].index] = "0" * cases.DIGEST_HEX
    replay = worker.Replay(pop[:3], tampered)
    replay.run_pass()
    assert replay.attempted == 3
    assert [f["case"] for f in replay.failures] == [pop[0].id]

    broken = cases.Case(0, "broken", "no-such-kind", ())
    replay = worker.Replay([broken], reference)
    replay.run_pass()
    assert replay.failures[0]["error"].startswith("ValueError")


def test_clear_caches_reaches_through_wrappers():
    grothendieck.dual_g(shapes.SkewShape((2, 1), ()),
                        symfunc.TruncationProfile.for_degree(3))
    with tracing.installed(tracing.Tracer()):
        cases.clear_caches()
    assert grothendieck._dual_g_cached.cache_info().currsize == 0
    assert shapes.subpartitions.cache_info().currsize == 0
    assert tableaux._chain_cache == {}


def test_scaling_to_the_reference_speed():
    ref = speed.REF_S
    assert speed.scale(2.0, ref, ref) == 2.0
    # twice as slow before and after: half the measured time
    assert speed.scale(2.0, 2 * ref, 2 * ref) == 1.0
    # the faster sample sets the speed
    assert speed.scale(2.0, ref, 3 * ref) == 2.0
    assert speed.sample() > 0
