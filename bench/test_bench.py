"""Tests of the benchmark itself: each output check accepts a correct result
and rejects a sabotaged one, and BENCHMARK.json names the metrics the
benchmark prints.

    python3 -m pytest bench -q
"""

import copy
import json
import signal
import sys
import time
from types import SimpleNamespace

import mpmath as mp
import pytest

import run
import speed
import tracing
import workloads
from workloads import OPT8

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def pb():
    return run.fresh_package()


def test_certify8_check_rejects_flipped_minus_certificate(pb):
    spec = pb.magic.magic_spec(8).flipped_minus_copy()
    result = workloads.run_certify8(pb, {"spec": spec}, {})
    assert result["status"] != "verified"
    assert workloads.check_certify8(result, {})


def test_certify8_check_needs_the_optimal_bound():
    good = {"status": "verified", "bound": mp.mpf(OPT8)}
    assert workloads.check_certify8(good, {}) == []
    assert workloads.check_certify8({**good, "bound": mp.mpf(OPT8 * 1.01)}, {})


def test_lp8_check_rejects_a_bound_below_the_optimum():
    good = {"feasible": True, "bound": 0.3660806421550655}
    assert workloads.check_lp8(good, {}) == []
    assert workloads.check_lp8({**good, "bound": OPT8 * (1 - 1e-9)}, {})
    assert workloads.check_lp8({**good, "bound": 1.6 * OPT8}, {})
    assert workloads.check_lp8({**good, "feasible": False}, {})


def test_eval_check_accepts_real_values_and_rejects_a_perturbed_one(pb):
    inputs = workloads.inputs_eval(seed=7)
    inputs["radii"] = {n: radii[:4] for n, radii in inputs["radii"].items()}
    state = workloads.setup_eval(pb)
    result = workloads.run_eval(pb, state, inputs)
    assert workloads.check_eval(result, inputs) == []

    r = inputs["radii"][24][2]
    f, fhat = result[24][r]
    bad = copy.deepcopy(result)
    bad[24][r] = (f, type(fhat)(fhat.value + 1e3 * fhat.error + 1e-30,
                                fhat.error))
    assert workloads.check_eval(bad, inputs)

    f0, fhat0 = result[8]["0"]
    bad = copy.deepcopy(result)
    bad[8]["0"] = (type(f0)(f0.value + 2e-6, f0.error), fhat0)
    assert workloads.check_eval(bad, inputs)


def test_eval_draws_depend_on_the_seed_only():
    assert workloads.inputs_eval(1) == workloads.inputs_eval(1)
    assert workloads.inputs_eval(1) != workloads.inputs_eval(2)


def test_exact_check_rejects_a_wrong_shell_count(pb):
    state = workloads.setup_exact(pb)
    result = workloads.run_exact(pb, state, {})
    assert workloads.check_exact(result, {}) == []

    bad = copy.deepcopy(result)
    bad["shells"][4] -= 1
    bad["theta"][4] -= 1
    assert workloads.check_exact(bad, {})
    bad = copy.deepcopy(result)
    bad["shells"][8] += 1
    assert workloads.check_exact(bad, {})
    bad = copy.deepcopy(result)
    bad["census"][12] = 2575
    assert workloads.check_exact(bad, {})
    bad = copy.deepcopy(result)
    bad["residual_leech"] = mp.mpf("2e-8")
    assert workloads.check_exact(bad, {})


def test_cold_cache_guard_catches_a_warm_package():
    pb = run.fresh_package()
    assert run.module_cache_problems(pb) == []
    state = workloads.setup_certify8(pb)
    assert run.spec_cache_problems(state) == []
    state["spec"].pair(1.5)
    assert run.spec_cache_problems(state)
    assert run.module_cache_problems(pb)


def test_speed_probe_times_a_call_without_its_own_samples():
    def busy():
        end = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
        return "done"

    with speed.SpeedProbe() as probe:
        result, seconds, factor = probe.timed(busy)
    assert result == "done"
    assert len(probe.samples) >= 5     # one before, one after, the timer's
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.spent_between(0, time.perf_counter()) == probe.spent
    assert probe.spent_between(-2, -1) == 0
    assert 0 < seconds / factor < 4 * speed.INTERVAL_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_metrics_self_times_and_pair_hits():
    def span(i, name, start, end, parent=None, **extra):
        return {"id": i, "name": name, "op": 1, "phase": "op",
                "parent": parent, "start": start, "end": end, **extra}

    spans = [span(0, "certify.certify_magic", 0, 10),
             span(1, "magic.pair", 1, 4, 0, hit=False),
             span(2, "magic.pair", 4, 4.5, 0, hit=True),
             span(3, "magic.taylor_quadratic", 5, 9, 0),
             span(4, "magic.pair", 6, 8, 3, hit=False)]
    no_probe = SimpleNamespace(spent_between=lambda start, end: 0.0)
    m = tracing.layer_metrics(spans, {"op": 2.0}, no_probe)
    assert (m["magic.pair_calls"], m["magic.pair_distinct"]) == (3, 2)
    assert m["magic.pair_hit_ratio"] == pytest.approx(1 / 3)
    assert m["magic.pair_s"] == pytest.approx(2 * 5.5)
    assert m["magic.taylor_s"] == pytest.approx(2 * 4)
    assert m["certify.magic_self_s"] == pytest.approx(2 * (10 - 3 - 0.5 - 4))
    assert set(m) | {"trace.overhead_ratio"} == {n for n, _, _ in
                                                  tracing.PER_LAYER}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    loop = SimpleNamespace(walls=[1.0], setups=[1.0], failed=0, attempted=1)
    printed = run.end_to_end(loop)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == [(name, m["unit"]) for name, m in printed.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
