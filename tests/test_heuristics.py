import itertools
from fractions import Fraction

import numpy as np
import pytest

from blocksched import (algorithm1, algorithm2, algorithm3, algorithm4,
                        closed_form_wait, concatenate, evaluate, expand_block,
                        fcfa, junction_theta, robust_template,
                        single_block_template, w_threshold, wait_bound_block,
                        wait_bound_horizon)
from blocksched.stochastic import DistributionSpec, draw_scenarios
from blocksched.units import tenths

from conftest import (mk_instance, random_conformant_instance,
                      realization_for_template)


class TestAlgorithm1:
    def test_example1_sequence(self, ex1):
        assert [p.name for p in algorithm1(expand_block(ex1))] == [
            "T3", "T4", "T4", "T4", "T2", "T2", "T1", "T1", "T1"]

    def test_all_qplus_descending(self):
        inst = mk_instance([("A", 10, 12, 1), ("B", 30, 35, 1), ("C", 20, 22, 1)])
        assert [p.name for p in algorithm1(expand_block(inst))] == ["B", "C", "A"]

    def test_tie_breaks_on_smaller_mu(self):
        inst = mk_instance([("A", 10, 30, 1), ("B", 10, 12, 1)])
        assert [p.name for p in algorithm1(expand_block(inst))] == ["B", "A"]


class TestAlgorithm2:
    def test_example1_sequence_and_wait(self, ex1):
        tpl = algorithm2(expand_block(ex1))
        assert [p.name for p in tpl.slots] == [
            "T3", "T1", "T4", "T1", "T1", "T4", "T2", "T4", "T2"]
        ev = evaluate(tpl)
        assert ev.wait_p == tenths(5)
        assert ev.idle_a == 0 and ev.idle_p == 0

    def test_gaps_exactly_filled(self):
        # one 10-minute assistant gap in the chain, one 10-minute Q patient
        inst = mk_instance([("Q", 10, 0, 1), ("A", 20, 30, 2)])
        tpl = algorithm2(expand_block(inst))
        assert [p.name for p in tpl.slots] == ["A", "Q", "A"]
        ev = evaluate(tpl)
        assert ev.wait == 0 and ev.idle_a == 0 and ev.idle_p == 0

    def test_leftovers_appended_ascending(self):
        # no gap fits either Q patient; they trail in ascending stage-1 order
        inst = mk_instance([("Qbig", 50, 0, 1), ("Qsmall", 40, 0, 1),
                            ("A", 20, 21, 2)])
        tpl = algorithm2(expand_block(inst))
        assert [p.name for p in tpl.slots] == ["A", "A", "Qsmall", "Qbig"]


class TestHorizonTemplates:
    def test_alg3_example1_two_blocks(self, ex1):
        tpl = algorithm3(ex1)
        ev = evaluate(tpl, regular_time=ex1.regular_time)
        assert ev.wait_p == tenths(180)
        assert ev.completion == tenths(280)

    def test_k1_equals_single_block(self, ex1):
        inst = mk_instance([(t.name, Fraction(t.lam, 10), Fraction(t.mu, 10),
                             t.ratio) for t in ex1.types], blocks=1)
        tpl = algorithm3(inst)
        base = single_block_template(algorithm1(expand_block(inst)))
        assert tpl.taus == base.taus
        assert [p.uid for p in tpl.slots] == [p.uid for p in base.slots]

    def test_alg3_example2_overflow_metrics(self, ex2):
        ev = evaluate(algorithm3(ex2), regular_time=ex2.regular_time)
        assert ev.overtime_a == tenths(65)
        assert ev.idle_a == tenths(5)
        assert ev.idle_p == 0 and ev.overtime_p == 0
        assert ev.wait == tenths(180)

    def test_alg4_matches_alg3_resource_metrics(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_conformant_instance(rng, blocks=3)
            ev3 = evaluate(algorithm3(inst), regular_time=inst.regular_time)
            ev4 = evaluate(algorithm4(inst), regular_time=inst.regular_time)
            assert ev4.wait_p <= ev3.wait_p
            assert ev4.idle_a == ev3.idle_a and ev4.idle_p == ev3.idle_p == 0
            assert ev4.overtime_a == ev3.overtime_a
            assert ev4.overtime_p == ev3.overtime_p


class TestFcfa:
    def test_block_multisets_preserved(self, ex1):
        tpl = fcfa(ex1, np.random.default_rng(3))
        for c in range(2):
            names = sorted(p.name for p in
                           tpl.slots[tpl.block_bounds[c]:tpl.block_bounds[c + 1]])
            assert names == sorted(p.name for p in expand_block(ex1))

    def test_same_seed_identical(self, ex1):
        a = fcfa(ex1, np.random.default_rng(42))
        b = fcfa(ex1, np.random.default_rng(42))
        assert a == b

    def test_slot1_frequencies_multinomial(self, ex1):
        rng = np.random.default_rng(4)
        n = 10_000
        counts = {}
        for _ in range(n):
            tpl = fcfa(ex1, rng)
            counts[tpl.slots[0].name] = counts.get(tpl.slots[0].name, 0) + 1
        for t in ex1.types:
            p = t.ratio / ex1.r
            sigma = (n * p * (1 - p)) ** 0.5
            assert abs(counts.get(t.name, 0) - n * p) <= 3 * sigma


class TestClosedFormWait:
    def test_example1_expansion(self, ex1):
        # 3*(25-15) + 2*(35-15) + 1*(35-15)
        assert closed_form_wait(algorithm1(expand_block(ex1))) == tenths(90)

    def test_single_qplus_empty_sum(self):
        inst = mk_instance([("A", 10, 12, 1)])
        assert closed_form_wait(algorithm1(expand_block(inst))) == 0

    def test_identical_patients_zero(self):
        inst = mk_instance([("A", 10, 10, 3)])
        assert closed_form_wait(algorithm1(expand_block(inst))) == 0

    def test_matches_engine_on_random_blocks(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            inst = random_conformant_instance(rng)
            seq = algorithm1(expand_block(inst))
            ev = evaluate(single_block_template(seq))
            assert closed_form_wait(seq) == ev.wait_p


class TestBounds:
    def test_example1_block_bound(self, ex1):
        assert wait_bound_block(algorithm1(expand_block(ex1))) == tenths(120)

    def test_example1_horizon_bound(self, ex1):
        seq = algorithm1(expand_block(ex1))
        assert junction_theta(seq) == tenths(5)
        assert wait_bound_horizon(seq, 2) == tenths(260)

    def test_gamma_one_gives_zero(self):
        inst = mk_instance([("A", 10, 12, 1), ("Q", 5, 0, 2)])
        assert wait_bound_block(algorithm1(expand_block(inst))) == 0

    def test_bounds_dominate_realized_waits(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            inst = random_conformant_instance(rng)
            seq = algorithm1(expand_block(inst))
            wait = evaluate(single_block_template(seq)).wait_p
            bound = wait_bound_block(seq)
            assert wait <= bound
            front = [p for p in seq if p.qplus]
            if len(front) >= 2:
                gamma1 = max(p.mu for p in front[:-1])
                gamma2 = min(p.lam for p in front[1:])
                assert wait >= gamma1 - gamma2  # tightness interval
            k = 3
            horizon = evaluate(concatenate(single_block_template(seq), k))
            assert horizon.wait_p <= wait_bound_horizon(seq, k)

    def test_front_is_best_among_tie_orders(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            lams = [int(rng.choice([100, 150])) for _ in range(5)]
            fronts = [(lam, lam + int(rng.integers(0, 120)))
                      for lam in lams]
            inst = mk_instance(
                [(f"A{i}", Fraction(l, 10), Fraction(m, 10), 1)
                 for i, (l, m) in enumerate(fronts)])
            seq = algorithm1(expand_block(inst))
            best = evaluate(single_block_template(seq)).wait_p
            # every nonincreasing-lambda ordering of the same patients
            patients = list(expand_block(inst))
            for perm in itertools.permutations(patients):
                if any(perm[i].lam < perm[i + 1].lam for i in range(4)):
                    continue
                wait = evaluate(single_block_template(tuple(perm))).wait_p
                assert best <= wait


class TestRobustness:
    def test_example1_threshold(self, ex1):
        assert w_threshold(algorithm1(expand_block(ex1))) == Fraction(1, 2)

    def test_example1_robust_taus(self, ex1):
        seq = algorithm1(expand_block(ex1))
        tpl = robust_template(seq, Fraction(1, 2))
        expected = [Fraction(3, 4) * x for x in
                    (0, 200, 350, 500, 650, 800, 950, 1050, 1150)]
        assert [Fraction(t) for t in tpl.taus] == expected

    def test_identical_patients_zero_threshold(self):
        inst = mk_instance([("A", 10, 10, 3)])
        assert w_threshold(algorithm1(expand_block(inst))) == 0

    def test_negative_prefix_slack_zero(self):
        # a nonconformant front patient (mu < lam) can push the first prefix
        # slack negative: no positive width keeps the physician busy
        inst = mk_instance([("A", 30, 20, 1), ("B", 25, 30, 1)])
        assert w_threshold(algorithm1(expand_block(inst))) == 0

    def test_no_p_idle_at_threshold_width(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 15:
            inst = random_conformant_instance(rng, max_r=9)
            seq = algorithm1(expand_block(inst))
            w_star = w_threshold(seq)
            if w_star <= 0:
                continue
            checked += 1
            tpl = robust_template(seq, w_star)
            dist = DistributionSpec.uniform(w_star)
            scen = draw_scenarios(inst, dist, 50, seed=checked, tag="robust")
            for s in range(scen.K):
                ev = evaluate(tpl, *realization_for_template(scen, s, tpl))
                assert ev.idle_p == 0


@pytest.mark.parametrize("builder", [algorithm3, algorithm4])
def test_unbalanceable_instance_is_rejected(builder):
    # L_a = 20 + 6 + 6 > L_p = 8 + 9, and the Q+ stage-1 load (26) alone
    # exceeds the stage-2 load, so no removal of Q patients can balance it
    inst = mk_instance([("P", 10, 4, 2), ("R", 6, 9, 1), ("Q", 3, 0, 2)])
    with pytest.raises(ValueError, match="^instance cannot be balanced: Q\\+ "
                       "workload alone exceeds the stage-2 workload$"):
        builder(inst)


def test_algorithm1_without_qplus_returns_q_only(caplog):
    import logging
    inst = mk_instance([("Q1", 10, 0, 2), ("Q2", 15, 0, 1)])
    with caplog.at_level(logging.WARNING):
        seq = algorithm1(expand_block(inst))
    assert [p.name for p in seq] == ["Q2", "Q1", "Q1"]
    assert any("no Q+" in rec.message for rec in caplog.records)


def test_algorithm1_on_an_empty_block_warns_nothing(caplog):
    # balancing can empty a block; it is not a block of Q patients only
    import logging
    with caplog.at_level(logging.WARNING):
        assert algorithm1(()) == ()
    assert not caplog.records


class TestReports:
    def test_bound_report_ordering_when_conformant(self):
        rng = np.random.default_rng(61)
        from blocksched import bound_report
        for _ in range(50):
            inst = random_conformant_instance(rng, blocks=3)
            report = bound_report(inst)
            assert report.conformant
            assert report.closed_form_wait <= report.block_bound
            assert report.horizon_bound >= inst.blocks * report.block_bound
