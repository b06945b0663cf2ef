import re
from fractions import Fraction

import numpy as np
import pytest

from blocksched import (CostWeights, algorithm1, algorithm2, algorithm3,
                        balance_workload, balanced_blocks, concatenate,
                        evaluate, expand_block, sections,
                        single_block_template, total_cost)
from blocksched.heuristics import robust_template
from blocksched.noshow import NoShowProbs, build_overbook_plan
from blocksched.stochastic import (DistributionSpec, draw_scenarios,
                                   metric_paths, scenario_average_cost)
from blocksched.timeline import AppointmentTemplate, evaluate_paths
from blocksched.units import tenths

from conftest import (mk_instance, oracle_timeline, random_conformant_instance,
                      realization_for_template)


def fig2_template(ex1):
    return single_block_template(algorithm1(expand_block(ex1)))


def no_qplus_instance():
    """No Q+ type: L_p is 0, so balancing moves every patient to the
    overflow block and each of the two base blocks is empty."""
    return mk_instance([("A", 5, 0, 2), ("B", 3, 0, 1)], regular_time=30,
                       blocks=2)


class TestEvaluate:
    def test_example1_sorted_block_timeline(self, ex1):
        ev = evaluate(fig2_template(ex1))
        assert list(ev.e_a) == [tenths(x) for x in
                                (0, 20, 35, 50, 65, 80, 95, 105, 115)]
        p_finishes = [ev.f_p[t] for t in range(9) if ev.qplus[t]]
        assert p_finishes == [tenths(x) for x in (45, 80, 115, 150)]
        assert ev.wait_p == tenths(90)
        assert ev.wait_a == 0
        assert ev.idle_a == 0 and ev.idle_p == 0

    def test_single_q_patient(self):
        inst = mk_instance([("A", 10, 0, 1)])
        tpl = single_block_template(expand_block(inst))
        ev = evaluate(tpl, regular_time=tenths(4))
        assert ev.e_a[0] == 0 and ev.f_a[0] == tenths(10)
        assert ev.wait == 0 and ev.idle_a == 0 and ev.idle_p == 0
        assert ev.overtime_a == tenths(6)  # max(0, 10 - R)
        assert ev.overtime_p == 0

    def test_example1_gap_filled_timeline(self, ex1):
        tpl = algorithm2(expand_block(ex1))
        ev = evaluate(tpl)
        assert [p.name for p in tpl.slots] == [
            "T3", "T1", "T4", "T1", "T1", "T4", "T2", "T4", "T2"]
        # the assistant runs 0-125 without a break; only the third T4 waits
        assert ev.first_start_a == 0 and ev.last_finish_a == tenths(125)
        assert ev.idle_a == 0
        assert ev.last_finish_p == tenths(150)
        third_t4 = [t for t in range(9) if tpl.slots[t].name == "T4"][2]
        assert ev.f_a[third_t4] == tenths(110)
        assert ev.e_p[third_t4] == tenths(115)
        assert ev.wait_p == tenths(5)

    def test_noshow_consumes_nothing(self):
        inst = mk_instance([("A", 10, 20, 2)])
        tpl = single_block_template(expand_block(inst))
        rows, scale = evaluate_paths(tpl, [p.lam for p in tpl.slots],
                                     [p.mu for p in tpl.slots], 1,
                                     np.array([[False, True]]), tenths(25))
        # the second patient still starts at their own appointment time
        # (10), so the physician finishes at 40, 15 past the day's end; no
        # wait and no idle
        assert scale == 1
        assert rows.tolist() == [[0, 0, 0, 0, 0, tenths(15)]]


class TestTotalCost:
    def test_example2_horizon_recombination(self, ex2):
        tpl = algorithm3(ex2)
        ev = evaluate(tpl, regular_time=ex2.regular_time)
        w = CostWeights.of("0.4", "2", "3", "1.5", "1.8")
        expected = (Fraction("0.4") * 180 + 2 * 5 + Fraction("1.5") * 65)
        assert total_cost(ev, w) == expected

    def test_zero_evaluation(self):
        inst = mk_instance([("A", 10, 0, 1)])
        ev = evaluate(single_block_template(expand_block(inst)))
        assert total_cost(ev, CostWeights.of(3, 5, 7, 9, 11)) == 0

    def test_example1_block_mode_excludes_overtime(self, ex1):
        ev = evaluate(fig2_template(ex1))  # no regular time: block mode
        assert total_cost(ev, CostWeights.of(1, 1, 1, 99, 99)) == 90


class TestSections:
    def test_example1(self, ex1):
        ev = evaluate(fig2_template(ex1))
        assert sections(ev) == [(tenths(20), tenths(105), tenths(25), tenths(150))]

    def test_example2_overflow_block(self, ex2):
        ev = evaluate(algorithm3(ex2), regular_time=ex2.regular_time)
        assert sections(ev)[2] == (tenths(110), 0, 0, tenths(110))

    def test_empty_block_is_all_zero(self):
        ev = evaluate(algorithm3(no_qplus_instance()), regular_time=tenths(30))
        assert sections(ev) == [(0, 0, 0, 0), (0, 0, 0, 0),
                                (tenths(26), 0, 0, tenths(26))]

    def test_single_qplus_patient(self):
        # no overlap is possible beyond the patient's own services: the
        # physician works alone after the assistant finishes
        inst = mk_instance([("A", 10, 10, 1)])
        ev = evaluate(single_block_template(expand_block(inst)))
        assert sections(ev) == [(tenths(10), 0, tenths(10), tenths(20))]


class TestConcatenate:
    def test_example1_two_blocks(self, ex1):
        tpl = concatenate(fig2_template(ex1), 2)
        ev = evaluate(tpl)
        assert ev.completion == tenths(280)
        assert ev.idle_a == tenths(5)   # junction: assistant resumes at 130
        assert ev.idle_p == 0
        assert ev.wait_p == tenths(180)

    def test_k1_identity(self, ex1):
        base = fig2_template(ex1)
        again = concatenate(base, 1)
        assert again.taus == base.taus
        assert [p.name for p in again.slots] == [p.name for p in base.slots]

    def test_example2_with_overflow(self, ex2):
        balance = balance_workload(ex2)
        blocks, overflow = balanced_blocks(ex2, balance)
        base = single_block_template(algorithm1(blocks[0]))
        tpl = concatenate(base, 2, overflow=overflow)
        ev = evaluate(tpl, regular_time=ex2.regular_time)
        assert ev.last_finish_a == tenths(365)
        assert ev.overtime_a == tenths(65)

    def test_block_without_qplus_packs_on_the_assistant(self):
        inst = mk_instance([("Q", 30, 0, 2), ("R", 10, 0, 1)])
        base = single_block_template(algorithm1(expand_block(inst)))
        tpl = concatenate(base, 3)
        # each block starts where the previous block's assistant finished
        assert tpl.taus == tuple(map(tenths, (0, 30, 60, 70, 100, 130,
                                              140, 170, 200)))
        ev = evaluate(tpl)
        assert ev.idle_a == 0 and ev.last_finish_a == tenths(210)
        assert ev.first_start_p is None

    def test_empty_block_takes_no_time(self):
        seq = expand_block(no_qplus_instance())
        tpl = concatenate(AppointmentTemplate((), (), (0, 0)), 3, overflow=seq)
        # the overflow block starts the day, packed on the assistant
        assert tpl.block_bounds == (0, 0, 0, 0, 3)
        assert tpl.taus == tuple(map(tenths, (0, 5, 10)))

    def test_k_below_one_rejected(self, ex1):
        with pytest.raises(ValueError):
            concatenate(fig2_template(ex1), 0)


class TestInvariants:
    def test_monotonicity_under_perturbation(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            inst = random_conformant_instance(rng)
            tpl = single_block_template(algorithm1(expand_block(inst)))
            ev0 = evaluate(tpl)
            j = int(rng.integers(0, len(tpl.slots)))
            lams = [p.lam for p in tpl.slots]
            lams[j] += int(rng.integers(1, 50))
            ev1 = evaluate(tpl, lams)
            assert all(a1 >= a0 for a0, a1 in zip(ev0.e_a, ev1.e_a))
            assert all(p1 >= p0 for p0, p1 in zip(ev0.e_p, ev1.e_p))

    def test_realized_prefix_taus_zero_stage1_wait(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            inst = random_conformant_instance(rng)
            tpl0 = single_block_template(algorithm1(expand_block(inst)))
            lams = tuple(int(x) for x in
                         rng.integers(10, 400, size=len(tpl0.slots)))
            taus = []
            acc = 0
            for lam in lams:
                taus.append(acc)
                acc += lam
            tpl = AppointmentTemplate(tpl0.slots, tuple(taus),
                                      tpl0.block_bounds)
            ev = evaluate(tpl, lams)
            assert ev.wait_a == 0 and ev.idle_a == 0

    def test_sorted_block_is_no_idle_on_conformant_means(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            inst = random_conformant_instance(rng)
            ev = evaluate(single_block_template(algorithm1(expand_block(inst))))
            assert ev.idle_a == 0 and ev.idle_p == 0

    def test_conservation_span_equals_busy_plus_idle(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            inst = random_conformant_instance(rng, blocks=2)
            tpl = algorithm3(inst)
            lams = tuple(int(x) for x in
                         rng.integers(0, 400, size=len(tpl.slots)))
            mus = tuple(int(rng.integers(0, 400)) if p.qplus else 0
                        for p in tpl.slots)
            ev = evaluate(tpl, lams, mus)
            busy_a = sum(lams)
            assert (ev.last_finish_a - ev.first_start_a) == busy_a + ev.idle_a
            if ev.first_start_p is not None:
                busy_p = sum(mus)
                assert (ev.last_finish_p - ev.first_start_p) == busy_p + ev.idle_p

    def test_zero_variance_equals_mean_evaluation(self, table7):
        tpl = algorithm3(table7)
        ev_mean = evaluate(tpl, regular_time=table7.regular_time)
        ev_real = evaluate(tpl, tuple(p.lam for p in tpl.slots),
                           tuple(p.mu for p in tpl.slots),
                           table7.regular_time)
        assert ev_mean == ev_real

    def test_engine_matches_reference_loop(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            inst = random_conformant_instance(rng, blocks=2)
            tpl = algorithm3(inst)
            lams = tuple(int(x) for x in
                         rng.integers(0, 400, size=len(tpl.slots)))
            mus = tuple(int(rng.integers(0, 400)) if p.qplus else 0
                        for p in tpl.slots)
            ev = evaluate(tpl, lams, mus, inst.regular_time)
            ref = oracle_timeline(tpl.slots, taus=tpl.taus, lams=list(lams),
                                  mus=list(mus),
                                  regular_time=inst.regular_time)
            assert (ev.wait_a, ev.wait_p) == (ref["wait_a"], ref["wait_p"])
            assert (ev.idle_a, ev.idle_p) == (ref["idle_a"], ref["idle_p"])
            assert (ev.overtime_a, ev.overtime_p) == (ref["b_a"], ref["b_p"])


def test_junction_clamps_to_assistant_availability_when_stage2_light():
    # stage-1 load exceeds the Q+ stage-2 load, so chaining the physician
    # continuously would start the next block's assistant before the previous
    # block's assistant is free; the junction must clamp and let the
    # physician idle instead
    inst = mk_instance([("Q", 30, 0, 2), ("A", 10, 15, 1)])
    base = single_block_template(algorithm1(expand_block(inst)))
    tpl = concatenate(base, 2)
    ev = evaluate(tpl)
    assert ev.idle_a == 0                  # assistant blocks back to back
    # physician finishes block 1 at 25 and resumes at 80 in block 2
    assert ev.idle_p == tenths(55)
    assert ev.completion == tenths(140)    # assistant, not physician, ends last


class TestEvaluatePaths:
    """The batched kernel, row by row, against the oracle.  `evaluate` runs
    the same kernel, so comparing with it checks only the one-path case
    where everyone shows; masked rows are checked against the oracle."""

    @staticmethod
    def check_rows(tpl, sset, shows=None, regular_time=None):
        table, scale = metric_paths(tpl, sset, regular_time, shows)
        assert table.shape == (sset.K, 6)
        costs = []
        for s, values in enumerate(table.tolist()):
            row = tuple(Fraction(v, scale) for v in values)
            show_row = None if shows is None else tuple(bool(x) for x in shows[s])
            lams, mus = realization_for_template(sset, s, tpl)
            ref = oracle_timeline(tpl.slots, taus=tpl.taus, lams=list(lams),
                                  mus=list(mus), shows=show_row,
                                  regular_time=regular_time)
            assert row == (ref["wait_a"], ref["wait_p"], ref["idle_a"],
                           ref["idle_p"], ref["b_a"], ref["b_p"])
            if shows is None:
                ev = evaluate(tpl, lams, mus, regular_time)
                assert row == (ev.wait_a, ev.wait_p, ev.idle_a, ev.idle_p,
                               ev.overtime_a, ev.overtime_p)
                costs.append(total_cost(ev, CostWeights.of(1, 2, 3, 4, 5)))
        if shows is None:
            assert scenario_average_cost(
                tpl, sset, CostWeights.of(1, 2, 3, 4, 5), regular_time) \
                == sum(costs) / len(costs)

    @staticmethod
    def templates(inst):
        seq = algorithm1(expand_block(inst))
        probs = NoShowProbs.of("0.2", "0.3")
        yield algorithm3(inst)
        yield robust_template(seq, Fraction(1, 3))           # Fraction taus
        yield build_overbook_plan(algorithm2(expand_block(inst)), "lf",
                                  probs).template()          # duplicates

    def test_matches_evaluate_and_oracle_on_random_instances(self):
        rng = np.random.default_rng(31)
        for case in range(12):
            inst = random_conformant_instance(rng, max_r=8, blocks=2)
            width = ("0", "2", "0.4")[case % 3]
            sset = draw_scenarios(inst, DistributionSpec.uniform(width), 12,
                                  seed=case)
            for tpl in self.templates(inst):
                for R in (None, 0, inst.regular_time):
                    self.check_rows(tpl, sset, regular_time=R)

    def test_show_masks(self):
        rng = np.random.default_rng(32)
        for case in range(8):
            inst = random_conformant_instance(rng, max_r=8, blocks=2)
            sset = draw_scenarios(inst, DistributionSpec.uniform("2"), 10,
                                  seed=case)
            for tpl in self.templates(inst):
                shows = rng.random((sset.K, len(tpl.slots))) >= 0.3
                shows[0] = False            # nobody shows
                shows[1, 0] = False         # the first slot is absent
                for R in (None, -10, 0, inst.regular_time):
                    self.check_rows(tpl, sset, shows, R)

    def test_huge_denominators_stay_exact(self, ex1):
        # scaled to their common denominator, the times of every path fit
        # in int64 but their total over slots and paths does not; Fraction
        # inputs run on Python integers, so the average stays exact
        seq = algorithm1(expand_block(ex1))
        tpl = robust_template(seq, 2 - Fraction(1, 10 ** 15))
        sset = draw_scenarios(ex1, DistributionSpec.uniform("0.4"), 200, seed=1)
        rows, scale = evaluate_paths(tpl, [sset.lam[:, p.uid] for p in seq],
                                     [sset.mu[:, p.uid] for p in seq], sset.K,
                                     regular_time=ex1.regular_time)
        assert rows.dtype == object
        assert max(map(max, rows)) < 2 ** 63 < sum(rows.sum(axis=0))
        self.check_rows(tpl, sset, regular_time=ex1.regular_time)


class TestPerSlotOracle:
    """`evaluate`'s per-slot marks against the plain oracle loop, which
    shares no code with the package's kernel."""

    FIELDS = ("e_a", "f_a", "e_p", "f_p", "w_a", "w_p")

    def test_marks_match_oracle_on_random_realizations(self):
        rng = np.random.default_rng(33)
        for case in range(20):
            inst = random_conformant_instance(rng, max_r=8, blocks=2)
            # means, Fraction taus and overbooked duplicates
            for tpl in TestEvaluatePaths.templates(inst):
                n = len(tpl.slots)
                lams = tuple(int(x) for x in rng.integers(0, 400, size=n))
                mus = tuple(int(rng.integers(0, 400)) if p.qplus else 0
                            for p in tpl.slots)
                ev = evaluate(tpl, lams, mus, inst.regular_time)
                ref = oracle_timeline(tpl.slots, taus=tpl.taus,
                                      lams=list(lams), mus=list(mus),
                                      regular_time=inst.regular_time)
                for field in self.FIELDS:
                    assert list(getattr(ev, field)) == ref[field], field
                assert (ev.first_start_a, ev.last_finish_a) \
                    == (ref["first_a"], ref["last_a"])
                assert (ev.first_start_p, ev.last_finish_p) \
                    == (ref["first_p"], ref["last_p"])
                assert ev.completion == ref["completion"]
                assert (ev.wait_a, ev.wait_p, ev.idle_a, ev.idle_p,
                        ev.overtime_a, ev.overtime_p) \
                    == (ref["wait_a"], ref["wait_p"], ref["idle_a"],
                        ref["idle_p"], ref["b_a"], ref["b_p"])


class TestMaskFreeStep:
    """`_slot` without a mask is the step where everyone shows: it must give
    what an all-True mask gives, and both what the oracle gives."""

    @staticmethod
    def instances(rng):
        """A Q-only, a Q+-only and a mixed instance, on the 0.1 grid."""
        for kinds in (("Q",) * 3, ("Q+",) * 3, ("Q", "Q+", "Q+", "Q")):
            yield mk_instance([
                (f"T{i}", int(rng.integers(5, 40)) + int(rng.integers(10)) / 10,
                 0 if kind == "Q" else int(rng.integers(5, 60)),
                 int(rng.integers(1, 4))) for i, kind in enumerate(kinds)],
                regular_time=int(rng.integers(20, 200)))

    @staticmethod
    def templates(inst):
        """int64 and Fraction taus, and duplicates."""
        seq = algorithm1(expand_block(inst))
        yield single_block_template(seq)
        # declaration order: the mixed instance starts with a Q slot
        yield single_block_template(expand_block(inst))
        yield robust_template(seq, Fraction(1, 3))
        for plan in ("lf", "ff"):
            yield build_overbook_plan(algorithm2(expand_block(inst)), plan,
                                      NoShowProbs.of("0.4", "0.4")).template()

    def test_paths_without_a_mask_equal_all_true_and_the_oracle(self):
        rng = np.random.default_rng(34)
        kinds = set()
        for _ in range(4):
            for inst in self.instances(rng):
                K = 9
                for tpl in self.templates(inst):
                    n = len(tpl.slots)
                    lams = [rng.integers(0, 500, K) for _ in range(n)]
                    mus = [rng.integers(0, 500, K) if p.qplus else 0
                           for p in tpl.slots]
                    R = inst.regular_time
                    rows, scale = evaluate_paths(tpl, lams, mus, K, None, R)
                    masked = evaluate_paths(tpl, lams, mus, K,
                                            np.ones((K, n), bool), R)
                    assert scale == masked[1]
                    assert rows.dtype == masked[0].dtype
                    assert rows.tolist() == masked[0].tolist()
                    kinds.add((rows.dtype.name, n > inst.r))
                    for s, values in enumerate(rows.tolist()):
                        ref = oracle_timeline(
                            tpl.slots, taus=tpl.taus,
                            lams=[int(x[s]) for x in lams],
                            mus=[int(x[s]) if p.qplus else 0
                                 for x, p in zip(mus, tpl.slots)],
                            regular_time=R)
                        assert [Fraction(v, scale) for v in values] == [
                            ref[m] for m in ("wait_a", "wait_p", "idle_a",
                                             "idle_p", "b_a", "b_p")]
        # int64 and Python-integer rows, overbooked duplicates
        assert {dtype for dtype, _ in kinds} == {"int64", "object"}
        assert any(dups for _, dups in kinds)

    def test_slot_without_a_mask_equals_an_all_true_mask(self):
        from blocksched.timeline import _slot
        rng = np.random.default_rng(35)
        n = 50
        for case in range(40):
            pa, pp = rng.integers(0, 300, n), rng.integers(0, 300, n)
            started = [rng.random(n) < 0.5 for _ in range(2)]
            if case % 4 == 0:
                started = [True, True]      # as the step leaves them
            tau = int(rng.integers(0, 300))
            qplus = bool(case % 2)
            args = (pa, pp, *started, tau, int(rng.integers(0, 99)),
                    int(rng.integers(0, 99)) if qplus else 0, qplus)
            free = _slot(*args)
            masked = _slot(*args, np.ones(n, bool))
            for a, b in zip((*free[0], *free[1], *free[2]),
                            (*masked[0], *masked[1], *masked[2])):
                assert np.broadcast_to(a, n).tolist() == \
                    np.broadcast_to(b, n).tolist()


@pytest.mark.parametrize("call, message", [
    (lambda s: AppointmentTemplate(s, (0,), (0, 2)),
     "taus length must match slots"),
    (lambda s: AppointmentTemplate(s, (0, 20, 10), (0, 3)),
     "appointment times must be nondecreasing"),
    (lambda s: AppointmentTemplate(s, (10, 20, 30), (0, 3)),
     "first appointment must be at time 0"),
    (lambda s: AppointmentTemplate(s, (0, 10, 20), (0, 2)),
     "block_bounds must span the slot range"),
    (lambda s: evaluate(single_block_template(s), (100, 100), (0, 0, 200)),
     "realization length must match template slots"),
], ids=["taus-length", "decreasing", "first-not-zero", "bounds",
        "realization-length"])
def test_input_checks_name_the_fault(call, message):
    seq = expand_block(mk_instance([("Q", 10, 0, 2), ("P", 10, 20, 1)]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(seq)
