import itertools
import re
from dataclasses import replace
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest

from blocksched import CostWeights, algorithm2, expand_block, noshow
from blocksched.noshow import (ExpectedMetrics, NoShowProbs,
                               build_overbook_plan, enumerate_expected_metrics,
                               expected_cost_per_patient)
from blocksched.timeline import (AppointmentTemplate, _overtime, _slot,
                                 evaluate_paths)
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


def merged_pass_oracle(plan, probs, regular_time, budget=10**6):
    """Oracle: the exact pass without slack folding.  Show patterns merge
    slot by slot on equal (assistant free, physician free, started flags)
    only, so its states grow with the plan; `budget` bounds them."""
    tpl = plan.template()
    no_show = [probs.for_patient(slot) for slot in tpl.slots]
    denominator = prod(q.denominator for q in no_show)
    D = lcm(*(Fraction(x).denominator for x in (
        regular_time, *tpl.taus,
        *(v for slot in tpl.slots for v in (slot.lam, slot.mu)))))
    R = int(regular_time * D)
    day = int(D * (max((abs(tau) for tau in tpl.taus), default=0)
                   + sum(slot.lam + slot.mu for slot in tpl.slots)))
    bound = 2 * day + abs(R) + 1
    time_dtype = np.int64 if 4 * (day + 1)**2 + abs(R) < 2**63 else object
    weight_dtype = (np.int64 if time_dtype is np.int64
                    and denominator * bound < 2**63 else object)
    state = (*np.zeros((2, 1), time_dtype), *np.zeros((2, 1), bool))
    W = np.ones(1, weight_dtype)
    wait = idle_a = idle_p = 0
    rest = denominator
    visited = 0
    for t, slot in enumerate(tpl.slots):
        q = no_show[t]
        show_num = q.denominator - q.numerator
        rest //= q.denominator
        (pa, pp, _, sp), (d_wait_a, d_wait_p, d_idle_a, d_idle_p), _ = _slot(
            *state, *(int(x * D) for x in (tpl.taus[t], slot.lam, slot.mu)),
            slot.qplus)
        started = np.full(len(W), True)
        show_state = (pa, pp, started, started if slot.qplus else sp)
        wait += int(W.dot(d_wait_a + d_wait_p)) * show_num * rest
        idle_a += int(W.dot(d_idle_a)) * show_num * rest
        if slot.qplus:
            idle_p += int(W.dot(d_idle_p)) * show_num * rest
        weights, kids = zip(*((w, kid) for w, kid in
                              ((q.numerator, state), (show_num, show_state))
                              if w))
        pa, p, sa, sp = (np.concatenate(column) for column in zip(*kids))
        key = (pa * (day + 1) + p) * 4 + sa * 2 + sp
        order = np.argsort(key)
        key = key[order]
        runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        first = order[runs]
        state = (pa[first], p[first], sa[first], sp[first])
        W = np.add.reduceat(np.concatenate([W * w for w in weights])[order],
                            runs)
        assert len(W) <= budget, f"{len(W)} oracle states after slot {t + 1}"
        visited += len(W)
    overtime = [int(W.dot(x)) for x in _overtime(*state, R)]
    to_minutes = lambda v: Fraction(v, denominator * D) / 10
    return ExpectedMetrics(*map(to_minutes, (wait, idle_a, idle_p, *overtime)),
                           2**plan.n_scheduled,
                           Fraction(int(W.sum()), denominator), visited)


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


class HandBuiltPlan:
    """A no-duplicate plan whose template keeps its appointment times in the
    given order, which AppointmentTemplate rejects when they decrease."""

    def __init__(self, slots, taus):
        self.tpl = AppointmentTemplate(tuple(slots), tuple(sorted(taus)),
                                       (0, len(slots)))
        object.__setattr__(self.tpl, "taus", tuple(taus))
        self.n_scheduled = len(slots)

    def template(self):
        return self.tpl


CROSS_CHECK_KINDS = ("alg2", "fraction", "unsorted", "alg4")


def random_noshow_case(rng, kind):
    """A seeded (plan, probs, regular_time) of one kind: an alg2 block, a
    robust (Fraction) template with service means off the tenths grid, a
    hand-built template with unsorted appointment times, or an alg4
    horizon of 1-5 blocks.  No-show probabilities include 0 and 1, and the
    regular time falls before the day, at its start, at or a tenth of a
    minute before an appointment, inside the day or past its end."""
    from blocksched import algorithm4
    from blocksched.heuristics import robust_template
    levels = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 10),
              Fraction(1, 5), Fraction(7, 9))
    while True:
        probs = NoShowProbs(levels[rng.integers(6)], levels[rng.integers(6)])
        types = [(f"Q{i}", int(rng.integers(2, 12)), 0,
                  int(rng.integers(1, 4)))
                 for i in range(int(rng.integers(0, 3)))]
        types += [(f"A{i}", int(rng.integers(2, 12)),
                   int(rng.integers(2, 20)), int(rng.integers(1, 4)))
                  for i in range(int(rng.integers(1, 4)))]
        inst = mk_instance(types, blocks=int(rng.integers(1, 6))
                           if kind == "alg4" else 1)
        if kind == "fraction":
            inst = replace(inst, types=tuple(
                replace(t, lam=t.lam + Fraction(int(rng.integers(1, 7)), 7),
                        mu=t.mu and t.mu + Fraction(int(rng.integers(1, 5)),
                                                    3))
                for t in inst.types))
        strategy = ("none", "lf", "ff")[rng.integers(3)]
        try:
            if kind == "alg4":
                base = algorithm4(inst)
            else:
                base = algorithm2(expand_block(inst))
            if kind == "fraction":
                base = robust_template(base.slots, Fraction(
                    int(rng.integers(1, 10)), 11))
            if kind == "unsorted":
                taus = [0] + [int(rng.integers(0, 400))
                              for _ in base.slots[1:]]
                rng.shuffle(taus)
                plan = HandBuiltPlan(base.slots, taus)
            else:
                plan = build_overbook_plan(base, strategy, probs)
        except ValueError:   # an unbalanceable instance
            continue
        if plan.n_scheduled <= 60:
            break
    tpl = plan.template()
    day = max(tpl.taus) + sum(s.lam + s.mu for s in tpl.slots)
    tau = tpl.taus[int(rng.integers(len(tpl.taus)))]
    R = (int(rng.integers(-60, 0)), 0, tau, tau - 1,
         Fraction(int(rng.integers(0, 7 * day)), 7),
         day + int(rng.integers(0, 30)))[rng.integers(6)]
    return plan, probs, R


def test_folded_pass_matches_the_unfolded_oracle_on_seeded_plans():
    """Every field but `states` equals the unfolded pass's on 1,000 seeded
    plans, and the folded pass never holds more states; on the smallest
    plans the oracle itself equals brute force."""
    rng = np.random.default_rng(3131)
    fewer = brute = 0
    for trial in range(1000):
        kind = CROSS_CHECK_KINDS[trial % len(CROSS_CHECK_KINDS)]
        plan, probs, R = random_noshow_case(rng, kind)
        got = enumerate_expected_metrics(plan, probs, R)
        want = merged_pass_oracle(plan, probs, R)
        assert replace(got, states=0) == replace(want, states=0), (
            trial, kind)
        assert got.mass == 1
        assert got.states <= want.states
        fewer += got.states < want.states
        if plan.n_scheduled <= 7 and trial % 3 == 0:
            oracle, mass = brute_force_expected(plan, probs, R)
            assert want.as_tuple() == tuple(oracle[k] for k in (
                "wait", "idle_a", "idle_p", "overtime_a", "overtime_p"))
            brute += 1
    assert fewer >= 400 and brute >= 50


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("strategy", ["lf", "ff"])
def test_table7_horizons_match_the_unfolded_oracle(table7, strategy, k):
    """The table7 alg4 horizons that the unfolded pass can price (up to k=5,
    83 patients and 46,031 live states), on the oracle's own budget."""
    from blocksched import algorithm4
    inst = replace(table7, blocks=k)
    plan = build_overbook_plan(algorithm4(inst), strategy, PROBS)
    got = enumerate_expected_metrics(plan, PROBS, inst.regular_time)
    want = merged_pass_oracle(plan, PROBS, inst.regular_time)
    assert replace(got, states=0) == replace(want, states=0)
    assert got.mass == 1 and got.states < want.states


def test_table7_k2_lf_within_five_se_of_monte_carlo(table7):
    """35 patients: beyond brute force, so check against the show-mask
    Monte-Carlo fallback at mean service times (all sds zero)."""
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
    # a weight denominator near 2**59 fits int64, though its product with
    # the bound does not, as for the table7 LF and FF plans: every weighted
    # sum is two int64 dots on a split of the weights
    (Fraction(1, 1999), Fraction(3, 211), None, ["int64", "int64"]),
    # robust-template times scaled by 10,007 reach about 10**7, and the same
    # denominator then leaves no split whose low dot stays in int64
    (Fraction(1, 1999), Fraction(3, 211), Fraction(1, 10007),
     ["int64", "object"]),
])
def test_times_and_weights_run_as_int64_or_python_integers(
        monkeypatch, p_plus, p, width, dtypes):
    """Times are int64 when every key provably fits, and weights when their
    denominator fits and every weighted sum splits into two int64 dots;
    Python integers otherwise.  Each gives the brute-force expectation."""

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


def test_split_sums_are_exact_at_their_bounds():
    """Σ W·x from the two int64 dots on W's halves equals the Python-integer
    sum for weights that sum to 2^63 - 1, on the most rows a slot makes,
    with x at its bound, where one int64 dot wraps.  Past the largest bound
    no shift serves, and Python-integer weights give the exact sum."""
    from blocksched.noshow import STATE_BUDGET, _dot, _halves, _weight_shift
    rng = np.random.default_rng(3101)
    rows, total = 2 * STATE_BUDGET, 2**63 - 1
    shows = slice(-STATE_BUDGET, None)
    W = rng.integers(0, 2**40, rows)
    W[0] = total - int(W[1:].sum())          # one weight near 2^63 - 1
    exact = lambda W, x: sum(w * v for w, v in zip(W.tolist(), x.tolist()))
    for x_bound in (1, 7_000, 2**20 + 1, 2**23):
        shift = _weight_shift(total, x_bound, rows)
        assert shift is not None
        halves = _halves(W, shift)
        for x in (np.full(rows, x_bound), np.full(rows, -x_bound),
                  rng.integers(-x_bound, x_bound + 1, rows)):
            want = exact(W, x)
            assert _dot(halves, x, shift) == want
            assert _dot(halves, x[shows], shift, shows) == exact(W[shows],
                                                                 x[shows])
        if x_bound > 1:
            assert int(W.dot(np.full(rows, x_bound))) != x_bound * total
    # the largest x bound a split serves, with every other low half full
    lo, hi = 1, 2**40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = ((mid, hi) if _weight_shift(total, mid, rows) is not None
                  else (lo, mid))
    shift = _weight_shift(total, lo, rows)
    W = np.full(rows, (1 << shift) - 1)
    W[0] = total - int(W[1:].sum())
    x = np.full(rows, lo)
    assert _dot(_halves(W, shift), x, shift) == exact(W, x)
    x_bound = hi
    assert _weight_shift(total, x_bound, rows) is None
    W = np.array([*W.tolist(), 2**70], object)
    x = np.append(rng.integers(-x_bound, x_bound + 1, rows), x_bound)
    assert _dot(_halves(W, 0), x, 0) == exact(W, x)


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
