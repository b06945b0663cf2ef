import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from blocksched import CostWeights, algorithm2, expand_block, noshow
from blocksched.noshow import (ExpectedMetrics, NoShowProbs,
                               build_overbook_plan, enumerate_expected_metrics,
                               expected_cost_per_patient)
from blocksched.timeline import AppointmentTemplate, evaluate_paths
from blocksched.units import tenths

from conftest import mk_instance, oracle_cost, oracle_timeline

PROBS = NoShowProbs.of("0.2", "0.3")


@pytest.fixture(scope="module")
def schedule_s(table7):
    return algorithm2(expand_block(table7))


class TestBuildPlan:
    def test_level_front_load_listing(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "lf", PROBS)
        assert plan.e_plus == 2 and plan.e == 2
        assert plan.listing() == ("HC(1) HC(1) L(1) MC MC MC MC LC L(1) LC L "
                                  "LC LC M M H")
        assert plan.duplicates == ((0, 1), (1, 1), (2, 1), (8, 1))

    def test_fully_front_load_listing(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "ff", PROBS)
        assert plan.listing() == ("HC(2) HC L(2) MC MC MC MC LC L LC L "
                                  "LC LC M M H")
        assert plan.duplicates == ((0, 2), (2, 2))

    def test_zero_probs_empty_plan(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "lf", NoShowProbs.of(0, 0))
        assert plan.duplicates == () and plan.n_scheduled == 16
        assert plan.template() == schedule_s

    def test_rounding_half_away(self):
        # 6 Q patients at p=0.25 -> 1.5 -> 2 duplicates
        inst = mk_instance([("Q", 5, 0, 6), ("A", 10, 12, 2)])
        tpl = algorithm2(expand_block(inst))
        plan = build_overbook_plan(tpl, "lf", NoShowProbs.of(0, "0.25"))
        assert plan.e == 2

    def test_duplicates_share_host_tau_and_type(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "ff", PROBS)
        tpl = plan.template()
        assert len(tpl.slots) == 20
        assert [p.name for p in tpl.slots[:4]] == ["HC", "HC", "HC", "HC"]
        assert tpl.taus[0] == tpl.taus[1] == tpl.taus[2] == 0
        assert len({p.uid for p in tpl.slots}) == 20

    def test_empty_block_keeps_its_bound(self):
        # blocks 0 and 2 hold two patients each and block 1 none: each bound
        # moves by the duplicates placed before it
        seq = expand_block(mk_instance([("Q", 5, 0, 2), ("A", 10, 12, 2)]))
        base = AppointmentTemplate(seq, (0, 50, 100, 150), (0, 2, 2, 4))
        plan = build_overbook_plan(base, "lf", NoShowProbs.of(0, "0.5"))
        assert plan.duplicates == ((0, 1),)
        assert plan.template().block_bounds == (0, 3, 3, 5)


def brute_force_expected(plan, probs, regular_time):
    """Oracle: full 2^n enumeration through the plain conftest timeline."""
    tpl = plan.template()
    n = len(tpl.slots)
    totals = {"wait": Fraction(0), "idle_a": Fraction(0), "idle_p": Fraction(0),
              "overtime_a": Fraction(0), "overtime_p": Fraction(0)}
    mass = Fraction(0)
    for pattern in itertools.product((True, False), repeat=n):
        prob = Fraction(1)
        for shown, patient in zip(pattern, tpl.slots):
            ns = probs.for_patient(patient)
            prob *= (1 - ns) if shown else ns
        ev = oracle_timeline(tpl.slots, tpl.taus, shows=list(pattern),
                             regular_time=regular_time)
        totals["wait"] += prob * (ev["wait_a"] + ev["wait_p"])
        totals["idle_a"] += prob * ev["idle_a"]
        totals["idle_p"] += prob * ev["idle_p"]
        totals["overtime_a"] += prob * ev["b_a"]
        totals["overtime_p"] += prob * ev["b_p"]
        mass += prob
    return {k: v / 10 for k, v in totals.items()}, mass


class TestEnumerate:
    def test_show_probability_one_equals_deterministic(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "none", NoShowProbs.of(0, 0))
        metrics = enumerate_expected_metrics(plan, NoShowProbs.of(0, 0),
                                             tenths(150))
        ev = oracle_timeline(schedule_s.slots, schedule_s.taus,
                             regular_time=tenths(150))
        assert metrics.wait == Fraction(ev["wait_a"] + ev["wait_p"], 10)
        assert metrics.idle_a == Fraction(ev["idle_a"], 10)
        assert metrics.idle_p == Fraction(ev["idle_p"], 10)
        assert metrics.overtime_a == Fraction(ev["b_a"], 10)
        assert metrics.overtime_p == Fraction(ev["b_p"], 10)
        assert metrics.mass == 1

    def test_single_patient_expected_overtime(self):
        inst = mk_instance([("A", 10, 0, 1)])
        tpl = algorithm2(expand_block(inst))
        probs = NoShowProbs.of(0, "0.3")
        plan = build_overbook_plan(tpl, "none", probs)
        metrics = enumerate_expected_metrics(plan, probs, regular_time=0)
        assert metrics.overtime_a == Fraction(7)  # 0.7 * 10 minutes
        assert metrics.mass == 1 and metrics.path_count == 2

    def test_cap_exceeded_points_to_monte_carlo(self, schedule_s,
                                                monkeypatch):
        monkeypatch.setattr(noshow, "STATE_BUDGET", 10)
        plan = build_overbook_plan(schedule_s, "lf", PROBS)
        with pytest.raises(ValueError, match="Monte-Carlo"):
            enumerate_expected_metrics(plan, PROBS, tenths(150))

    def test_class_aggregation_matches_full_enumeration(self):
        # 4 base slots + 3 duplicates = 7 patients, 128 raw patterns
        inst = mk_instance([("Q", 6, 0, 2), ("A", 10, 14, 2)])
        tpl = algorithm2(expand_block(inst))
        probs = NoShowProbs.of("0.75", "0.6")  # e+ = 1.5 -> 2, e = 1.2 -> 1
        plan = build_overbook_plan(tpl, "ff", probs)
        assert plan.n_scheduled == 7
        metrics = enumerate_expected_metrics(plan, probs, tenths(30))
        oracle, mass = brute_force_expected(plan, probs, tenths(30))
        assert mass == 1 and metrics.mass == 1
        assert metrics.wait == oracle["wait"]
        assert metrics.idle_a == oracle["idle_a"]
        assert metrics.idle_p == oracle["idle_p"]
        assert metrics.overtime_a == oracle["overtime_a"]
        assert metrics.overtime_p == oracle["overtime_p"]

    def test_same_slot_swap_leaves_metrics_unchanged(self):
        inst = mk_instance([("Q", 6, 0, 1), ("A", 10, 14, 2)])
        tpl = algorithm2(expand_block(inst))
        plan = build_overbook_plan(tpl, "ff", NoShowProbs.of("0.5", "0.5"))
        expanded = plan.template()
        host = next(t for t, p in enumerate(expanded.slots) if p.qplus)
        shows = np.ones((2, len(expanded.slots)), bool)
        shows[0, host] = shows[1, host + 1] = False
        rows, _ = evaluate_paths(expanded, [p.lam for p in expanded.slots],
                                 [p.mu for p in expanded.slots], 2, shows,
                                 tenths(30))
        assert rows[0].tolist() == rows[1].tolist()


class TestPerPatientCost:
    def test_zero_metrics(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "none", NoShowProbs.of(0, 0))
        metrics = enumerate_expected_metrics(plan, NoShowProbs.of(0, 0),
                                             tenths(1000))
        zeroed = type(metrics)(0, 0, 0, 0, 0, metrics.path_count, Fraction(1))
        assert expected_cost_per_patient(zeroed, CostWeights.of(1, 1, 1, 1, 1),
                                         16) == 0

    def test_overtime_slope_identity(self, schedule_s):
        plan = build_overbook_plan(schedule_s, "none", PROBS)
        metrics = enumerate_expected_metrics(plan, PROBS, tenths(150))
        lo = CostWeights.of("0.4", 1, 1, "1.2", "1.2")
        hi = CostWeights.of("0.4", 1, 1, "1.5", "1.5")
        delta = (expected_cost_per_patient(metrics, hi, 16)
                 - expected_cost_per_patient(metrics, lo, 16))
        assert delta == Fraction(3, 10) * (metrics.overtime_a
                                           + metrics.overtime_p) / 16

    def test_weight_decomposition_matches_per_path_costing(self):
        inst = mk_instance([("Q", 6, 0, 1), ("A", 10, 14, 2)])
        tpl = algorithm2(expand_block(inst))
        probs = NoShowProbs.of("0.2", "0.3")
        plan = build_overbook_plan(tpl, "lf", probs)
        metrics = enumerate_expected_metrics(plan, probs, tenths(40))
        weights = CostWeights.of("0.7", 2, 3, "1.1", "1.3")
        # oracle: expectation of the per-path cost, weights applied inside
        expanded = plan.template()
        total = Fraction(0)
        for pattern in itertools.product((True, False),
                                         repeat=len(expanded.slots)):
            prob = Fraction(1)
            for shown, patient in zip(pattern, expanded.slots):
                ns = probs.for_patient(patient)
                prob *= (1 - ns) if shown else ns
            ev = oracle_timeline(expanded.slots, expanded.taus,
                                 shows=list(pattern), regular_time=tenths(40))
            total += prob * oracle_cost(ev, weights)
        assert expected_cost_per_patient(metrics, weights, plan.n_scheduled) \
            == total / plan.n_scheduled

    def test_lf_at_most_ff_spot_check(self, schedule_s):
        m_lf = enumerate_expected_metrics(
            build_overbook_plan(schedule_s, "lf", PROBS), PROBS, tenths(150))
        m_ff = enumerate_expected_metrics(
            build_overbook_plan(schedule_s, "ff", PROBS), PROBS, tenths(150))
        w = CostWeights.of("0.5", 1, 1, "1.2", "1.2")
        assert expected_cost_per_patient(m_lf, w, 20) <= \
            expected_cost_per_patient(m_ff, w, 20)


def test_class_aggregation_random_plans_match_brute_force():
    rng = np.random.default_rng(91)
    for trial in range(6):
        n_q = int(rng.integers(0, 3))
        n_qp = int(rng.integers(1, 3))
        types = [(f"Q{i}", int(rng.integers(3, 12)), 0, 1)
                 for i in range(n_q)]
        types += [(f"A{i}", int(rng.integers(3, 12)),
                   int(rng.integers(12, 25)), int(rng.integers(1, 3)))
                  for i in range(n_qp)]
        inst = mk_instance(types)
        tpl = algorithm2(expand_block(inst))
        probs = NoShowProbs.of(Fraction(int(rng.integers(0, 11)), 10),
                               Fraction(int(rng.integers(0, 11)), 10))
        strategy = ("none", "lf", "ff")[trial % 3]
        plan = build_overbook_plan(tpl, strategy, probs)
        if plan.n_scheduled > 9:
            continue
        R = int(rng.integers(0, 40)) * 10
        metrics = enumerate_expected_metrics(plan, probs, R)
        oracle, mass = brute_force_expected(plan, probs, R)
        assert mass == 1 and metrics.mass == 1
        assert metrics.as_tuple() == (oracle["wait"], oracle["idle_a"],
                                      oracle["idle_p"], oracle["overtime_a"],
                                      oracle["overtime_p"])


def test_state_budget_error_names_the_state_count(schedule_s, monkeypatch):
    monkeypatch.setattr(noshow, "STATE_BUDGET", 10)
    plan = build_overbook_plan(schedule_s, "lf", PROBS)
    with pytest.raises(ValueError, match=r"^\d+ merged show states .* "
                                         r"10-state budget"):
        enumerate_expected_metrics(plan, PROBS, tenths(150))


def test_merged_pass_matches_brute_force_on_seeded_random_plans():
    """FF multi-copy slots, no-show probabilities 0, 1 and 1/3, and R
    before the day, at its start and mid-day."""
    rng = np.random.default_rng(505)
    levels = (Fraction(0), Fraction(1), Fraction(1, 3))
    multi_copy = checked = 0
    for p_plus, p in itertools.product(levels, levels):
        for strategy in ("ff", "lf"):
            while True:
                types = [(f"Q{i}", int(rng.integers(3, 12)), 0,
                          int(rng.integers(1, 4)))
                         for i in range(int(rng.integers(0, 2)))]
                types += [(f"A{i}", int(rng.integers(3, 12)),
                           int(rng.integers(3, 25)), int(rng.integers(1, 6)))
                          for i in range(int(rng.integers(1, 3)))]
                tpl = algorithm2(expand_block(mk_instance(types)))
                probs = NoShowProbs.of(p_plus, p)
                try:
                    plan = build_overbook_plan(tpl, strategy, probs)
                except ValueError:  # LF capacity
                    continue
                if plan.n_scheduled <= 10:
                    break
            multi_copy += any(c > 1 for _, c in plan.duplicates)
            for R in (-10, 0, tpl.taus[len(tpl.taus) // 2]):
                metrics = enumerate_expected_metrics(plan, probs, R)
                oracle, mass = brute_force_expected(plan, probs, R)
                assert metrics.mass == mass == 1
                assert metrics.as_tuple() == (
                    oracle["wait"], oracle["idle_a"], oracle["idle_p"],
                    oracle["overtime_a"], oracle["overtime_p"])
                assert metrics.path_count == 2**plan.n_scheduled
                assert metrics.states > 0
                checked += 1
    assert checked == 54 and multi_copy >= 4


def test_table7_k2_lf_within_five_se_of_monte_carlo(table7):
    """35 patients: beyond brute force, so check against the show-mask
    Monte-Carlo fallback at mean service times (all sds zero)."""
    from dataclasses import replace

    from blocksched import DistributionSpec, algorithm4
    from blocksched.stochastic import evaluate_template_mc
    inst = replace(table7, blocks=2,
                   types=tuple(replace(t, lam_sd=0, mu_sd=0)
                               for t in table7.types))
    plan = build_overbook_plan(algorithm4(inst), "lf", PROBS)
    assert plan.n_scheduled == 35
    exact = enumerate_expected_metrics(plan, PROBS, inst.regular_time)
    assert exact.mass == 1
    stats = evaluate_template_mc(plan.template(), inst,
                                 DistributionSpec("normal"), 2000, seed=17,
                                 tag="noshow-k2", noshow_probs=PROBS)
    mc_wait = stats.mean["wait_a"] + stats.mean["wait_p"]
    assert abs(float(mc_wait - exact.wait)) <= \
        5 * (stats.se["wait_a"] + stats.se["wait_p"])
    for name in ("idle_a", "idle_p", "overtime_a", "overtime_p"):
        assert abs(float(stats.mean[name] - getattr(exact, name))) <= \
            5 * stats.se[name], name


def test_fraction_times_match_brute_force():
    """Robust-template (Fraction) appointment times, service means off the
    tenths grid and a Fraction regular time: the pass scales every time to
    an exact integer and back."""
    from dataclasses import replace

    from blocksched.heuristics import robust_template
    rng = np.random.default_rng(313)
    checked = 0
    while checked < 12:
        types = [(f"Q{i}", int(rng.integers(3, 12)), 0,
                  int(rng.integers(1, 3)))
                 for i in range(int(rng.integers(0, 2)))]
        types += [(f"A{i}", int(rng.integers(3, 12)),
                   int(rng.integers(3, 25)), int(rng.integers(1, 4)))
                  for i in range(int(rng.integers(1, 3)))]
        inst = mk_instance(types)
        inst = replace(inst, types=tuple(
            replace(t, lam=t.lam + Fraction(int(rng.integers(1, 7)), 7),
                    mu=t.mu and t.mu + Fraction(int(rng.integers(1, 5)), 3))
            for t in inst.types))
        tpl = robust_template(algorithm2(expand_block(inst)).slots,
                              Fraction(int(rng.integers(1, 10)), 11))
        levels = (Fraction(0), Fraction(1, 3), Fraction(3, 10), Fraction(1))
        probs = NoShowProbs.of(levels[rng.integers(4)], levels[rng.integers(4)])
        try:
            plan = build_overbook_plan(tpl, ("none", "lf", "ff")[checked % 3],
                                       probs)
        except ValueError:  # LF capacity
            continue
        if plan.n_scheduled > 9 or all(Fraction(tau).denominator == 1
                                       for tau in tpl.taus):
            continue
        R = Fraction(int(rng.integers(-70, 3000)), 7)
        metrics = enumerate_expected_metrics(plan, probs, R)
        oracle, mass = brute_force_expected(plan, probs, R)
        assert metrics.mass == mass == 1
        assert metrics.as_tuple() == (oracle["wait"], oracle["idle_a"],
                                      oracle["idle_p"], oracle["overtime_a"],
                                      oracle["overtime_p"])
        checked += 1


@pytest.mark.parametrize("p_plus, p, width, dtypes", [
    (Fraction(1, 3), Fraction(1, 4), None, ["int64", "int64"]),
    # 6 patients at denominators near 10**7 put the weights near 10**42
    (Fraction(1, 10**7 + 19), Fraction(3, 10**7 + 79), None,
     ["int64", "object"]),
    # robust-template times over about 2*10**12 do not fit int64 when squared
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 10**12 + 39),
     ["object", "object"]),
])
def test_times_and_weights_run_as_int64_or_python_integers(
        monkeypatch, p_plus, p, width, dtypes):
    """Times and weights are int64 when every key and weighted sum provably
    fits, Python integers otherwise; each gives the brute-force
    expectation."""

    from blocksched import noshow
    from blocksched.heuristics import robust_template
    seen = []

    class Spy:  # records the dtypes the times and the weights start with
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, dtype=None):
            if dtype is not bool:
                seen.append(np.dtype(dtype).name)
            return np.zeros(shape, dtype)

        def ones(self, shape, dtype=None):
            seen.append(np.dtype(dtype).name)
            return np.ones(shape, dtype)

    inst = mk_instance([("Q", 6, 0, 2), ("A", 10, 14, 4)])
    tpl = algorithm2(expand_block(inst))
    if width is not None:
        tpl = robust_template(tpl.slots, width)
    probs = NoShowProbs.of(p_plus, p)
    plan = build_overbook_plan(tpl, "none", probs)
    assert plan.n_scheduled == 6
    monkeypatch.setattr(noshow, "np", Spy())
    metrics = enumerate_expected_metrics(plan, probs, tenths(40))
    assert seen == dtypes
    oracle, mass = brute_force_expected(plan, probs, tenths(40))
    assert metrics.mass == mass == 1
    assert metrics.as_tuple() == (oracle["wait"], oracle["idle_a"],
                                  oracle["idle_p"], oracle["overtime_a"],
                                  oracle["overtime_p"])


@pytest.mark.parametrize("call, message", [
    (lambda tpl: NoShowProbs.of("0.2", "1.5"),
     "no-show probabilities must be in [0, 1]"),
    (lambda tpl: build_overbook_plan(tpl, "late", PROBS),
     "unknown overbooking strategy: LATE"),
    # the record checks itself, so no plan asks for more duplicates than
    # slots
    (lambda tpl: NoShowProbs(Fraction(2), 0),
     "no-show probabilities must be in [0, 1]"),
    (lambda tpl: expected_cost_per_patient(
        ExpectedMetrics(0, 0, 0, 0, 0, 1, 1), CostWeights.of(1, 1, 1), 0),
     "n_scheduled must be positive"),
], ids=["probability", "strategy", "lf-capacity", "n-scheduled"])
def test_input_checks_name_the_fault(schedule_s, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(schedule_s)
