"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here: "exact" means integer/Fraction equality in
decimal-minute arithmetic; directional Monte-Carlo checks use a one-sided
95% paired comparison on common random numbers.  Runtime budgets are
asserted with time.perf_counter.
"""

import math
import time
from fractions import Fraction

import numpy as np

from blocksched import (ClinicInstance, CostWeights, PatientType,
                        algorithm1, algorithm2,
                        algorithm3, algorithm4, balance_workload,
                        closed_form_wait, concatenate, evaluate, expand_block,
                        fcfa, robust_template, sections,
                        single_block_template, solve_block_exact,
                        solve_horizon_exact, total_cost, w_threshold,
                        wait_bound_block, wait_bound_horizon, workloads)
from blocksched.exact import SearchConfig
from blocksched.noshow import (NoShowProbs, build_overbook_plan,
                               enumerate_expected_metrics,
                               expected_cost_per_patient)
from blocksched.stochastic import (DistributionSpec, confidence_halfwidth,
                                   draw_scenarios, incumbent_selection,
                                   metric_paths, saa_procedure, SAAConfig)
from blocksched.units import tenths

from conftest import (mk_instance, random_conformant_instance,
                      realization_for_template)

M = tenths  # minutes -> internal tenths


def report(criterion: int, detail: str):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_example1_algorithm1_golden(ex1):
    start = time.perf_counter()
    seq = algorithm1(expand_block(ex1))
    assert [p.name for p in seq] == ["T3", "T4", "T4", "T4",
                                     "T2", "T2", "T1", "T1", "T1"]
    ev = evaluate(single_block_template(seq))
    assert ev.wait_p == M(90) and ev.wait_a == 0
    assert ev.idle_a == 0 and ev.idle_p == 0
    assert sections(ev) == [(M(20), M(105), M(25), M(150))]
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    report(1, f"sequence, wait 90, no idle, sections (20,105,25) "
              f"[{elapsed * 1000:.1f} ms]")


def test_criterion_2_example1_algorithm2_golden(ex1):
    tpl = algorithm2(expand_block(ex1))
    assert [p.name for p in tpl.slots] == ["T3", "T1", "T4", "T1", "T1",
                                           "T4", "T2", "T4", "T2"]
    ev = evaluate(tpl)
    assert ev.first_start_a == 0 and ev.last_finish_a == M(125)
    assert ev.idle_a == 0                      # assistant continuous 0-125
    assert ev.last_finish_p == M(150)
    assert ev.wait == M(5)
    report(2, "sequence, PA continuous 0-125, P finish 150, wait 5 (exact)")


def _corpus(seed=2024, count=1000):
    rng = np.random.default_rng(seed)
    return [random_conformant_instance(rng, max_r=12) for _ in range(count)]


def test_criterion_3_closed_form_wait_equals_engine():
    start = time.perf_counter()
    corpus = _corpus()
    for inst in corpus:
        seq = algorithm1(expand_block(inst))
        ev = evaluate(single_block_template(seq))
        assert closed_form_wait(seq) == ev.wait_p  # exact, tenths grid
        assert ev.idle_a == 0 and ev.idle_p == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"closed-form wait == engine wait on {len(corpus)} random "
              f"conformant blocks [{elapsed:.2f} s]")


def test_criterion_4_wait_bounds_dominate(ex1):
    seq1 = algorithm1(expand_block(ex1))
    assert wait_bound_block(seq1) == M(120)
    assert wait_bound_horizon(seq1, 2) == M(260)
    for inst in _corpus(seed=77, count=400):
        seq = algorithm1(expand_block(inst))
        block_wait = evaluate(single_block_template(seq)).wait_p
        assert block_wait <= wait_bound_block(seq)
        for k in (2, 3):
            horizon_wait = evaluate(
                concatenate(single_block_template(seq), k)).wait_p
            assert horizon_wait <= wait_bound_horizon(seq, k)
    report(4, "waits <= bounds on 400 random blocks (k in {1,2,3}); "
              "Example 1 bounds 120 / 260 exact")


def test_criterion_5_balance_and_overflow_golden(ex2):
    result = balance_workload(ex2)
    assert sorted(result.overflow_list) == ["T1", "T2", "T2", "T2"]
    assert result.overflow_list == ("T2", "T2", "T1", "T2")
    assert (result.final_L_a, result.final_L_p) == (M(125), M(130))
    tpl = algorithm3(ex2)
    ev = evaluate(tpl, regular_time=ex2.regular_time)
    assert ev.overtime_a == M(65)
    assert ev.idle_a == M(5)
    assert ev.idle_p == 0
    assert ev.overtime_p == 0
    assert ev.wait == M(180)
    assert ev.last_finish_a == M(365)
    report(5, "balance {T1x1,T2x3}, workloads (125,130); full horizon "
              "b_a=65 idle_a=5 idle_p=0 b_p=0 wait=180 finish=365, all exact")


def test_criterion_6_robust_templates(ex1):
    start = time.perf_counter()
    seq = algorithm1(expand_block(ex1))
    assert w_threshold(seq) == Fraction(1, 2)
    for w in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
        tpl = robust_template(seq, w)
        scen = draw_scenarios(ex1, DistributionSpec.uniform(w), 1000,
                              seed=60 + int(w * 10), tag="robust")
        for s in range(scen.K):
            ev = evaluate(tpl, *realization_for_template(scen, s, tpl))
            assert ev.idle_p == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, f"w*=0.5 exact; physician idle 0 on 1000 paths at each "
              f"w in (0.1, 0.3, 0.5) [{elapsed:.2f} s]")


def test_criterion_7_exact_oracle(ex1):
    start = time.perf_counter()
    block = expand_block(ex1)
    alphas = [Fraction(i, 10) for i in range(1, 11)]
    overtimes = [Fraction("1.2"), Fraction("1.5"), Fraction("1.8")]
    one = Fraction(1)

    block_start = time.perf_counter()
    w_block = CostWeights(one, one, one, Fraction(0), Fraction(0))
    enum_sol = solve_block_exact(block, w_block)
    bnb_sol = solve_block_exact(block, w_block,
                                SearchConfig(mode="branch_and_bound"))
    assert enum_sol.optimal and bnb_sol.optimal
    assert enum_sol.objective == bnb_sol.objective
    block_elapsed = time.perf_counter() - block_start
    assert block_elapsed < 1.0

    # block scope: exact at most each single-block heuristic, every alpha
    alg1_ev = evaluate(single_block_template(algorithm1(block)))
    alg2_ev = evaluate(algorithm2(block))
    for alpha in alphas:
        w = CostWeights(alpha, one, one, Fraction(0), Fraction(0))
        sol = solve_block_exact(block, w)
        assert sol.optimal
        for ev in (alg1_ev, alg2_ev):
            assert sol.objective <= total_cost(ev, w)

    # horizon scope: enumerate == branch_and_bound and exact <= heuristics
    # on every (alpha, o) cell
    heuristic_evs = [
        evaluate(algorithm3(ex1), regular_time=ex1.regular_time),
        evaluate(algorithm4(ex1), regular_time=ex1.regular_time),
        evaluate(fcfa(ex1, np.random.default_rng(7)),
                 regular_time=ex1.regular_time),
    ]
    for alpha in alphas:
        for o in overtimes:
            w = CostWeights(alpha, one, one, o, o)
            sol = solve_horizon_exact(ex1, w)
            bnb = solve_horizon_exact(ex1, w,
                                      SearchConfig(mode="branch_and_bound"))
            assert sol.optimal and bnb.optimal
            assert sol.objective == bnb.objective
            for ev in heuristic_evs:
                assert sol.objective <= total_cost(ev, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"enumerate == branch-and-bound (block {block_elapsed:.2f} s, "
              f"horizon 30 cells); exact <= alg1/alg2/alg3/alg4/fcfa on "
              f"every weight cell [{elapsed:.1f} s]")


def test_criterion_8_saa_machinery_and_directional(ex1, table7):
    start = time.perf_counter()
    # zero-variance scenarios stop at nu0 = 5 with h = 0
    from blocksched import solve_saa_replication
    res = saa_procedure(ex1, ex1.costs, SAAConfig(K=3, nu0=5, nu_max=10,
                                                  xi=0.04), seed=81,
                        inner_solver=lambda i, w, s:
                        solve_saa_replication(i, w, s))
    assert res.replications_used == 5 and res.halfwidth == 0.0 and res.stopped

    # hand-computed halfwidth, 4 decimals
    _, _, h = confidence_halfwidth([10, 10, 10, 10, 14])
    assert round(h, 4) == 2.2208

    # incumbent tournament matches the hand trace (see test_stochastic)
    matrix = ((10, 12, 8, 11, 9), (9, 13, 7, 12, 10), (11, 9, 9, 9, 9),
              (8, 8, 12, 10, 8), (12, 7, 7, 7, 12))
    sols = list(range(5))
    best, running = incumbent_selection(sols, list(range(5)),
                                        lambda sol, v: matrix[sol][v])
    assert best == 4 and running == 9

    # Table 7, shared sample paths, N=1000: directional orderings at 95%
    # one-sided confidence via paired common-random-number differences
    N = 1000
    scen = draw_scenarios(table7, DistributionSpec("normal"), N, seed=88,
                          tag="acceptance8")
    R = table7.regular_time

    def path_rows(template):
        table, scale = metric_paths(template, scen, R)
        assert scale == 1   # integer appointment times
        return table.tolist()

    rows = {
        "alg3": path_rows(algorithm3(table7)),
        "alg4": path_rows(algorithm4(table7)),
        "fcfa": path_rows(fcfa(table7, np.random.default_rng(88))),
    }

    def paired_upper_bound(xs, ys):
        # 95% one-sided upper bound on mean(x - y), minutes
        diffs = [(x - y) / 10 for x, y in zip(xs, ys)]
        mean = sum(diffs) / len(diffs)
        var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
        return float(mean) + 1.645 * math.sqrt(var / len(diffs))

    wait = {m: [r[0] + r[1] for r in rows[m]] for m in rows}
    p_idle = {m: [r[3] for r in rows[m]] for m in rows}
    assert paired_upper_bound(wait["alg4"], wait["alg3"]) <= 0
    assert paired_upper_bound(p_idle["alg4"], p_idle["fcfa"]) <= 0
    assert paired_upper_bound(wait["fcfa"], wait["alg4"]) <= 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"SAA stopping/halfwidth/incumbent oracles exact; Table 10 "
              f"orderings hold at 95% on {N} shared paths [{elapsed:.1f} s]")


def test_criterion_9_overbooking_noshow(table7):
    start = time.perf_counter()
    probs = NoShowProbs.of("0.2", "0.3")
    base = algorithm2(expand_block(table7))
    assert " ".join(p.name for p in base.slots) == \
        "HC HC L MC MC MC MC LC L LC L LC LC M M H"
    lf = build_overbook_plan(base, "lf", probs)
    ff = build_overbook_plan(base, "ff", probs)
    assert lf.listing() == "HC(1) HC(1) L(1) MC MC MC MC LC L(1) LC L LC LC M M H"
    assert ff.listing() == "HC(2) HC L(2) MC MC MC MC LC L LC L LC LC M M H"

    R = M(150)
    m_lf = enumerate_expected_metrics(lf, probs, R)
    m_ff = enumerate_expected_metrics(ff, probs, R)
    assert m_lf.path_count == 2**20 == 1_048_576
    assert m_lf.mass == 1 and m_ff.mass == 1

    # show-probability-1 expectation equals the deterministic evaluation
    sure = NoShowProbs.of(0, 0)
    m_sure = enumerate_expected_metrics(build_overbook_plan(base, "none", sure),
                                        sure, R)
    ev = evaluate(base, regular_time=R)
    assert (m_sure.wait, m_sure.idle_a, m_sure.idle_p, m_sure.overtime_a,
            m_sure.overtime_p) == tuple(Fraction(x, 10) for x in (
                ev.wait, ev.idle_a, ev.idle_p, ev.overtime_a, ev.overtime_p))

    # level front load at most fully front load across the alpha grid
    for i in range(1, 11):
        w = CostWeights(Fraction(i, 10), Fraction(1), Fraction(1),
                        Fraction("1.2"), Fraction("1.2"))
        assert expected_cost_per_patient(m_lf, w, 20) <= \
            expected_cost_per_patient(m_ff, w, 20)

    # hard slope identity on the no-overbooking schedule: adjacent o values
    # differ by exactly delta_o * (E[b_a] + E[b_p]) / 16
    m_s = enumerate_expected_metrics(build_overbook_plan(base, "none", probs),
                                     probs, R)
    slope = Fraction(3, 10) * (m_s.overtime_a + m_s.overtime_p) / 16
    for alpha in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        costs = [expected_cost_per_patient(
            m_s, CostWeights(alpha, Fraction(1), Fraction(1), o, o), 16)
            for o in (Fraction("1.2"), Fraction("1.5"), Fraction("1.8"))]
        assert costs[1] - costs[0] == slope
        assert costs[2] - costs[1] == slope
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, f"S_LF/S_FF listings exact; 2^20 enumeration mass 1; "
              f"LF <= FF on the alpha grid; o-slope identity exact "
              f"[{elapsed:.1f} s]")


def _jittered_table7(rng, base: ClinicInstance) -> ClinicInstance:
    """Documented jitter: every mean scaled by an independent U(0.8, 1.2),
    rounded to the 0.1-minute grid, stage-2 means clamped to keep Q+ types
    conformant (mu >= lam)."""
    types = []
    for t in base.types:
        lam = max(1, int(round(t.lam * rng.uniform(0.8, 1.2))))
        mu = 0 if not t.qplus else max(
            lam, int(round(t.mu * rng.uniform(0.8, 1.2))))
        types.append(PatientType(t.name, lam, t.lam_sd, mu, t.mu_sd, t.ratio))
    return ClinicInstance(tuple(types), base.costs, base.regular_time,
                          base.blocks)


def test_criterion_10_deterministic_direction(table7):
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(100):
        inst = _jittered_table7(rng, table7)
        ev3 = evaluate(algorithm3(inst), regular_time=inst.regular_time)
        ev4 = evaluate(algorithm4(inst), regular_time=inst.regular_time)
        assert ev4.wait <= ev3.wait
        assert ev4.idle_a == ev3.idle_a
        assert ev4.idle_p == ev3.idle_p == 0
        assert ev4.overtime_a == ev3.overtime_a
        assert ev4.overtime_p == ev3.overtime_p

    # enumerable companions (ratios shrunk to 1, Q-heavy types dropped so the
    # instance stays balanced and the block model contains the heuristic's
    # schedule): exact horizon optimum at most algorithm4's objective
    shrunk_base = mk_instance(
        [("HC", "17.8", "19.5", 1), ("LC", "8.5", "16.6", 1),
         ("MC", "9.5", "12.7", 1), ("L", 6, 0, 1)],
        costs=("0.2", 1, 1, "1.2", "1.2"), regular_time=80, blocks=2)
    solved = 0
    while solved < 10:
        inst = _jittered_table7(rng, shrunk_base)
        L_a, L_p = workloads(inst)
        if L_a > L_p:
            continue
        solved += 1
        sol = solve_horizon_exact(inst, inst.costs)
        assert sol.optimal
        ev4 = evaluate(algorithm4(inst), regular_time=inst.regular_time)
        assert sol.objective <= total_cost(ev4, inst.costs)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(10, f"100 jittered instances: alg4 wait <= alg3 wait, equal "
               f"idle/overtime, physician idle 0; exact <= alg4 on 10 "
               f"enumerable companions [{elapsed:.1f} s]")
