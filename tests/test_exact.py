import collections
import dataclasses
import itertools
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from blocksched import (ClinicInstance, CostWeights, algorithm3, algorithm4,
                        evaluate, expand_block, fcfa, solve_block_exact,
                        solve_horizon_exact, solve_saa_replication,
                        total_cost)
from blocksched import exact
from blocksched.exact import SearchConfig
from blocksched.stochastic import DistributionSpec, draw_scenarios, \
    scenario_average_cost
from blocksched.instance import PatientType
from blocksched.timeline import AppointmentTemplate, pa_prefix_taus

from conftest import (mk_instance, oracle_cost, oracle_timeline,
                      random_conformant_instance)


def distinct_sequences(block, qplus_first=True):
    """Test-side enumeration: dedup permutations by their type-id tuples."""
    seen = set()
    for perm in itertools.permutations(block):
        key = tuple(p.type_index for p in perm)
        if key in seen:
            continue
        seen.add(key)
        if qplus_first and any(p.qplus for p in block) and not perm[0].qplus:
            continue
        yield perm


def oracle_block_cost(perm, weights):
    m = oracle_timeline(perm)
    return (weights.alpha * m["wait_p"] + weights.beta_a * m["idle_a"]
            + weights.beta_p * m["idle_p"]) / 10


def oracle_saa(inst, weights, scen, tau_rule="earliest"):
    """Test-side brute force: the least scenario-average block cost over
    every distinct sequence and every appointment candidate of the rule,
    with the slots and taus of its first occurrence (sequences in
    lexicographic type order, deciles in increasing order)."""
    draws = list(zip(scen.lam, scen.mu))
    best = None
    for perm in distinct_sequences(expand_block(inst)):
        lams = [[int(lam[p.uid]) for p in perm] for lam, _ in draws]
        mus = [[int(mu[p.uid]) if p.qplus else 0 for p in perm]
               for _, mu in draws]
        if tau_rule == "earliest":
            candidates = [pa_prefix_taus(perm)]
        else:
            matrix = np.array([[sum(row[:j]) for j in range(len(perm))]
                               for row in lams], dtype=float)
            candidates = [
                [int(x) for x in np.quantile(matrix, q / 10, axis=0,
                                             method="lower")]
                for q in range(1, 10)]
        for taus in candidates:
            avg = sum(oracle_cost(oracle_timeline(perm, taus=taus, lams=lam,
                                                  mus=mu), weights)
                      for lam, mu in zip(lams, mus)) / scen.K
            if best is None or avg < best[0]:
                best = avg, tuple(perm), tuple(taus)
    return best


MODES = ("enumerate", "branch_and_bound")


def record_steps(monkeypatch) -> list:
    """Spy on the step of every _layers pass: the list it returns gets, for
    each call, the slot, the parent rows passed, the children asked for and
    the elements one child holds with its link (par and kind)."""
    calls = []
    layers = exact._layers

    def spy(budget, n_slots, root, open_types, step, *rest, **kwargs):
        def counted(rows, par, kind, t):
            width = sum(x[:1].size for x in rows) + 2
            calls.append((t, len(rows[0]), len(par), width))
            return step(rows, par, kind, t)
        return layers(budget, n_slots, root, open_types, counted, *rest,
                      **kwargs)

    monkeypatch.setattr(exact, "_layers", spy)
    return calls


def chunks_fit(calls, cap) -> bool:
    """Whether no chunk's children pass cap elements unless they are one
    parent's."""
    return all(children * width <= cap or parents == 1
               for _, parents, children, width in calls)


class TestBlockExact:
    def test_example1_at_most_90(self, ex1):
        w = CostWeights.of(1, 1, 1)
        sol = solve_block_exact(expand_block(ex1), w)
        assert sol.optimal
        assert sol.objective <= 90
        # engine agreement on the returned template
        assert total_cost(evaluate(sol.template), w) == sol.objective

    def test_example1_matches_bruteforce(self, ex1):
        w = CostWeights.of("0.3", 1, 1)
        sol = solve_block_exact(expand_block(ex1), w)
        best = min(oracle_block_cost(perm, w)
                   for perm in distinct_sequences(expand_block(ex1)))
        assert sol.objective == best

    def test_single_patient(self):
        inst = mk_instance([("A", 10, 15, 1)])
        sol = solve_block_exact(expand_block(inst), CostWeights.of(1, 1, 1))
        assert sol.objective == 0 and sol.optimal
        assert [p.name for p in sol.template.slots] == ["A"]

    def test_two_qplus_orders(self):
        # (10,20) first: second waits 15; (5,5) first: physician idles 5
        inst = mk_instance([("X", 10, 20, 1), ("Y", 5, 5, 1)])
        block = expand_block(inst)
        orders = {tuple(p.name for p in perm): oracle_block_cost(
            perm, CostWeights.of(1, 1, 1)) for perm in
            distinct_sequences(block)}
        assert orders == {("X", "Y"): Fraction(15), ("Y", "X"): Fraction(5)}
        sol = solve_block_exact(block, CostWeights.of(1, 1, 1))
        assert sol.objective == 5
        assert [p.name for p in sol.template.slots] == ["Y", "X"]

    def test_enumerate_equals_bnb(self, ex1):
        for alpha, beta in (("0.1", 1), (1, 1), (1, "0.2")):
            w = CostWeights.of(alpha, beta, beta)
            a = solve_block_exact(expand_block(ex1), w)
            b = solve_block_exact(expand_block(ex1), w,
                                  SearchConfig(mode="branch_and_bound"))
            assert a.optimal and b.optimal
            assert a.objective == b.objective

    def test_qplus_first_whenever_available(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst = random_conformant_instance(rng, max_r=7)
            sol = solve_block_exact(expand_block(inst), CostWeights.of(1, 1, 1))
            assert sol.template.slots[0].qplus

    def test_node_limit_below_slot_count_raises_in_both_modes(self, ex1):
        # a complete ex1 block is 9 slots deep
        for mode in ("enumerate", "branch_and_bound"):
            with pytest.raises(ValueError, match=r"node limit \(5 nodes\)"):
                solve_block_exact(expand_block(ex1), ex1.costs,
                                  SearchConfig(node_limit=5, mode=mode))

    def test_node_limit_returns_best_found(self, ex1):
        sol = solve_block_exact(expand_block(ex1), CostWeights.of(1, 1, 1),
                                SearchConfig(node_limit=50))
        assert not sol.optimal
        assert sol.nodes_explored <= 51


class TestHorizonExact:
    def test_small_instance_matches_pair_bruteforce(self):
        inst = mk_instance([("Q", 10, 0, 1), ("A", 10, 20, 1), ("B", 5, 10, 1)],
                           costs=(1, 1, 1, 1, 1), regular_time=60, blocks=2)
        w = inst.costs
        block = expand_block(inst, 0)
        block2 = expand_block(inst, 1)
        best = None
        for p1 in distinct_sequences(block, qplus_first=True):
            for p2 in distinct_sequences(block2, qplus_first=False):
                slots = tuple(p1) + tuple(p2)
                tpl = AppointmentTemplate(slots, pa_prefix_taus(slots),
                                          (0, 3, 6))
                cost = total_cost(evaluate(tpl, regular_time=inst.regular_time), w)
                best = cost if best is None else min(best, cost)
        for mode in ("enumerate", "branch_and_bound"):
            sol = solve_horizon_exact(inst, w, SearchConfig(mode=mode))
            assert sol.optimal
            assert sol.objective == best

    def test_example1_enumerate_equals_bnb(self, ex1):
        w = CostWeights.of(1, 1, 1, 1, 1)
        a = solve_horizon_exact(ex1, w)
        b = solve_horizon_exact(ex1, w, SearchConfig(mode="branch_and_bound"))
        assert a.optimal and b.optimal and a.objective == b.objective
        ev = evaluate(a.template, regular_time=ex1.regular_time)
        assert total_cost(ev, w) == a.objective

    def test_k1_large_r_reduces_to_block_exact(self, ex1):
        inst = mk_instance([(t.name, Fraction(t.lam, 10), Fraction(t.mu, 10),
                             t.ratio) for t in ex1.types],
                           regular_time=1000, blocks=1)
        w = CostWeights.of(1, 1, 1, 1, 1)
        hor = solve_horizon_exact(inst, w)
        blk = solve_block_exact(expand_block(inst), w)
        assert hor.objective == blk.objective

    def test_exact_at_most_heuristics(self, ex1):
        w = CostWeights.of("0.5", 1, 1, "1.5", "1.5")
        sol = solve_horizon_exact(ex1, w)
        for tpl in (algorithm3(ex1), algorithm4(ex1),
                    fcfa(ex1, np.random.default_rng(9))):
            ev = evaluate(tpl, regular_time=ex1.regular_time)
            assert sol.objective <= total_cost(ev, w)


class TestSaaReplication:
    def test_k1_mean_scenario_equals_deterministic(self, ex1):
        w = CostWeights.of(1, 1, 1)
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 1, seed=2)
        det = solve_block_exact(expand_block(ex1), w)
        for mode in MODES:
            saa = solve_saa_replication(ex1, w, scen, SearchConfig(mode=mode))
            assert saa.objective == det.objective
            # both return the lexicographically first optimum
            assert saa.template == det.template

    def test_symmetric_perturbation_not_below_deterministic(self, ex1):
        w = CostWeights.of(1, 1, 1)
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 2, seed=2)
        delta = 30
        lam = scen.lam.copy()
        lam[0, 5] += delta
        lam[1, 5] -= delta
        perturbed = type(scen)(2, lam, scen.mu, scen.seed, scen.tag,
                               scen.replication)
        saa = solve_saa_replication(ex1, w, perturbed)
        det = solve_block_exact(expand_block(ex1), w)
        assert saa.objective >= det.objective

    @pytest.mark.parametrize("mode, limits", [
        ("enumerate", (9, 953, 4533, 6772)),
        ("branch_and_bound", (9, 500, 800, 842, 1000, 1568))])
    def test_budget_out_completes_the_last_full_layer(self, ex1, mode,
                                                      limits):
        # ex1 at K=3 (nine slots): enumerate charges its layers 2, 9, 33,
        # 111, 343, 953, 2293, 4533 and 6773 nodes in all; branch and
        # bound's incumbent pass charges 2, 9, 33, 111, 305, 486, 650, 778
        # and 842, and its pruned pass 844, 851, 875, 941, 1088, 1304,
        # 1508, 1568 and 1569.  Each limit runs out on some layer (800 on
        # the last of the incumbent pass, 842 on the first of the pruned
        # pass, 1568 on its last), and the rows of the layer before are
        # completed in type order
        w = CostWeights.of(1, 1, 1)
        scen = draw_scenarios(ex1, DistributionSpec.uniform("0.4"), 3, seed=4)
        best = solve_saa_replication(ex1, w, scen, SearchConfig(mode=mode))
        assert best.optimal and best.spent_limit is None
        assert best.nodes_explored == {"enumerate": 6773,
                                       "branch_and_bound": 1569}[mode]
        for limit in limits:
            sol = solve_saa_replication(
                ex1, w, scen, SearchConfig(node_limit=limit, mode=mode))
            assert not sol.optimal and sol.nodes_explored == limit + 1
            assert sol.spent_limit == f"node limit ({limit} nodes)"
            assert len(sol.template.slots) == 9
            assert sol.objective == scenario_average_cost(sol.template, scen, w)
            assert sol.objective >= best.objective

    def test_k5_uniform_matches_bruteforce_oracle(self, ex1):
        w = CostWeights.of("0.4", 1, 1)
        scen = draw_scenarios(ex1, DistributionSpec.uniform("0.2"), 5, seed=11,
                              tag="oracle")
        best, slots, taus = oracle_saa(ex1, w, scen)
        for mode in MODES:
            sol = solve_saa_replication(ex1, w, scen, SearchConfig(mode=mode))
            assert sol.optimal and sol.objective == best
            assert (sol.template.slots, sol.template.taus) == (slots, taus)
            assert scenario_average_cost(sol.template, scen, w) == best

    def test_quantile_rule_matches_oracle_on_small_instance(self):
        inst = mk_instance([("Q", 8, 0, 1), ("A", 10, 20, 1), ("B", 6, 9, 2)])
        w = CostWeights.of(1, 1, 1)
        scen = draw_scenarios(inst, DistributionSpec.uniform("0.4"), 6, seed=5,
                              tag="qg")
        best, slots, taus = oracle_saa(inst, w, scen, "quantile_grid")
        for mode in MODES:
            sol = solve_saa_replication(
                inst, w, scen, SearchConfig(mode=mode), tau_rule="quantile_grid")
            assert sol.optimal and sol.objective == best
            assert (sol.template.slots, sol.template.taus) == (slots, taus)
            assert scenario_average_cost(sol.template, scen, w) == best

    def test_modes_match_bruteforce_on_random_instances(self):
        """Both rules and both modes against the oracle on seeded blocks,
        with K = 1-6 and the three draw families.  Every fourth block adds a
        twin of its last type (same times), so sequences tie on cost; every
        fifth takes an alpha over a denominator near 2**62, so its costs run
        in Python integers."""
        rng = np.random.default_rng(61)
        dists = (DistributionSpec("normal"), DistributionSpec.uniform("0.4"),
                 DistributionSpec.uniform(2))
        for trial in range(30):
            inst = random_conformant_instance(
                rng, max_r=5 if trial % 4 == 1 else 6)
            if trial % 4 == 1:
                twin = dataclasses.replace(inst.types[-1], name="twin",
                                           ratio=1)
                inst = ClinicInstance(inst.types + (twin,), inst.costs,
                                      inst.regular_time, 1)
            alpha, beta_a = (Fraction(int(rng.integers(1, 11)), 10)
                             for _ in range(2))
            if trial % 5 == 4:
                alpha += Fraction(1, HUGE)
            w = CostWeights.of(alpha, beta_a, 1)
            scen = draw_scenarios(inst, dists[trial % 3],
                                  1 + trial // 3 % 6, seed=trial,
                                  tag="modes")
            for rule in ("earliest", "quantile_grid"):
                best, slots, taus = oracle_saa(inst, w, scen, rule)
                for mode in MODES:
                    sol = solve_saa_replication(
                        inst, w, scen, SearchConfig(mode=mode), tau_rule=rule)
                    assert sol.optimal and sol.objective == best
                    assert (sol.template.slots, sol.template.taus) == (slots,
                                                                       taus)

    def test_every_sequence_costs_its_scenario_average(self, monkeypatch):
        """Under enumerate, which neither merges nor prunes, the children
        made at the last slot are every distinct Q+-first sequence, once per
        appointment rank, and each one's cost (waits and idle booked when a
        child is made, a slot early) is the brute-force scenario average of
        its template, in the solver's scaled units.  Blocks of at most 6
        patients, K = 1 and 3, both rules, normal and uniform(2) draws."""
        leaves = []
        layers = exact._layers

        def spy(budget, n_slots, root, open_types, step, *rest, **kwargs):
            def last(rows, par, kind, t):
                child = step(rows, par, kind, t)
                if t == n_slots - 1:
                    leaves.extend(int(c) for c in child[-1])
                return child
            return layers(budget, n_slots, root, open_types, last, *rest,
                          **kwargs)

        monkeypatch.setattr(exact, "_layers", spy)
        rng = np.random.default_rng(83)
        dists = (DistributionSpec("normal"), DistributionSpec.uniform(2))
        for trial in range(12):
            inst = random_conformant_instance(rng, max_r=6)
            w = CostWeights.of(*(Fraction(int(rng.integers(1, 11)), 10)
                                 for _ in range(3)))
            K = (1, 3)[trial % 2]
            scen = draw_scenarios(inst, dists[trial // 2 % 2], K, seed=trial,
                                  tag="leaves")
            block = expand_block(inst)
            denom = lcm(*(x.denominator for x in (w.alpha, w.beta_a, w.beta_p)))
            for rule in ("earliest", "quantile_grid"):
                leaves.clear()
                solve_saa_replication(inst, w, scen, tau_rule=rule)
                if rule == "earliest":   # mean sums off the tenths grid
                    scale = lcm(*(Fraction(p.lam).denominator for p in block))
                else:
                    scale = 1
                scale *= denom * 10 * K
                costs = []
                for perm in distinct_sequences(block):
                    if rule == "earliest":
                        candidates = [pa_prefix_taus(perm)]
                    else:   # the nine "lower" deciles of K=1 or 3 draw
                        # sums are the sums of rank 0, or of ranks 0 and 1
                        draws = scen.lam[:, [p.uid for p in perm]]
                        sums = np.sort(draws.cumsum(axis=1) - draws, axis=0)
                        candidates = sums[:1 if K == 1 else 2].tolist()
                    costs += [scale * scenario_average_cost(AppointmentTemplate(
                        perm, tuple(taus), (0, len(perm))), scen, w)
                        for taus in candidates]
                assert sorted(leaves) == sorted(costs)

    def test_both_modes_match_the_oracle_on_504_seeded_solves(
            self, monkeypatch):
        """126 blocks of at most 5 patients, each under both rules and both
        modes, with K = 1-6 and the three draw families.  Every fourth
        block gives two types the same stage-1 and stage-2 times, so
        sequences tie on cost.  Branch and bound's incumbent pass keeps 1,
        4 or SAA_BEAM nodes a depth in turn, so the pruned pass runs on
        small blocks too."""
        rng = np.random.default_rng(71)
        dists = (DistributionSpec("normal"), DistributionSpec.uniform("0.4"),
                 DistributionSpec.uniform(2))
        beams = (1, 4, exact.SAA_BEAM)
        solves = 0
        for trial in range(126):
            if trial % 4 == 3:
                lam, mu, q = (int(x) for x in rng.integers(3, 15, 3))
                types = [("A", lam, lam + mu, 2), ("B", lam, lam + mu, 1),
                         ("Q", q, 0, 1), ("C", lam, lam + 2 * mu, 1)]
                inst = mk_instance(types[:3 + trial // 4 % 2])
            else:
                inst = random_conformant_instance(rng, max_r=5)
            w = CostWeights.of(Fraction(int(rng.integers(1, 11)), 10),
                               Fraction(int(rng.integers(1, 11)), 10),
                               Fraction(int(rng.integers(1, 11)), 10))
            scen = draw_scenarios(inst, dists[trial // 6 % 3], 1 + trial % 6,
                                  seed=trial, tag="oracle-504")
            monkeypatch.setattr(exact, "SAA_BEAM", beams[trial % 3])
            for rule in ("earliest", "quantile_grid"):
                best, slots, taus = oracle_saa(inst, w, scen, rule)
                for mode in MODES:
                    sol = solve_saa_replication(
                        inst, w, scen, SearchConfig(mode=mode), tau_rule=rule)
                    assert sol.optimal and sol.objective == best
                    assert (sol.template.slots, sol.template.taus) == (slots,
                                                                       taus)
                    solves += 1
        assert solves == 504

    def test_modes_agree_and_bnb_prunes(self, ex1):
        scen = draw_scenarios(ex1, DistributionSpec.uniform("0.4"), 4, seed=3)
        for rule in ("earliest", "quantile_grid"):
            enum, bnb = (solve_saa_replication(
                ex1, ex1.costs, scen, SearchConfig(mode=mode), tau_rule=rule)
                for mode in MODES)
            assert enum.optimal and bnb.optimal
            assert (enum.objective, enum.template) == (bnb.objective,
                                                       bnb.template)
            assert bnb.nodes_explored < enum.nodes_explored

    def test_budget_out_before_any_sequence_raises(self, ex1):
        # a complete ex1 block is 9 slots deep: a limit of 8 runs out on the
        # second layer (2 + 7 nodes); the clock is read on the first layer
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 3, seed=2)
        for mode in MODES:
            for limit in (5, 8):
                with pytest.raises(ValueError,
                                   match=rf"node limit \({limit} nodes\)"):
                    solve_saa_replication(
                        ex1, ex1.costs, scen,
                        SearchConfig(mode=mode, node_limit=limit))
            with pytest.raises(ValueError, match=r"time limit \(1e-09 s\)"):
                solve_saa_replication(ex1, ex1.costs, scen,
                                      SearchConfig(mode=mode, time_limit=1e-9))

    def test_node_limit_returns_best_found(self, ex1):
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 3, seed=2)
        sol = solve_saa_replication(ex1, ex1.costs, scen,
                                    SearchConfig(node_limit=50))
        assert not sol.optimal and sol.nodes_explored == 51
        assert scenario_average_cost(sol.template, scen,
                                     ex1.costs) == sol.objective


# weights with a denominator near 2**62: every scaled weight is at least that
# large, so the search's a-priori cost bound passes int64 and it runs on
# Python-integer (object) arrays
HUGE = 2 ** 62 + 1
SAA_EDGE_CASES = {
    "object_arrays": (
        lambda: mk_instance([("Q", 8, 0, 1), ("A", 10, 14, 2), ("B", 6, 9, 1)],
                            costs=(Fraction(HUGE - 2, HUGE),
                                   Fraction(3, HUGE), 1)),
        DistributionSpec("normal"), 4),
    "one_scenario": (
        lambda: mk_instance([("Q", 7, 0, 2), ("A", 10, 16, 2), ("B", 5, 8, 1)]),
        DistributionSpec("normal"), 1),
    "no_qplus_type": (
        lambda: mk_instance([("Q1", 9, 0, 2), ("Q2", 4, 0, 2)]),
        DistributionSpec.uniform("0.4"), 3),
    "one_patient": (
        lambda: mk_instance([("A", 10, 15, 1)]),
        DistributionSpec("normal"), 5),
    "all_qplus": (
        lambda: mk_instance([("A", 10, 12, 2), ("B", 6, 9, 2), ("C", 4, 4, 1)],
                            costs=("0.3", "1.5", 1)),
        DistributionSpec("normal"), 6),
    "uniform_width_2": (
        lambda: mk_instance([("Q", 8, 0, 1), ("A", 10, 20, 2), ("B", 6, 9, 2)]),
        DistributionSpec.uniform(2), 5),
    "off_grid_means": (
        lambda: mk_instance([("Q", "1.25", 0, 1), ("A", "1.05", "2.25", 2),
                             ("B", "0.65", "0.95", 1)]),
        DistributionSpec.uniform("0.4"), 3),
    # every scenario draws the means, so all nine decile ranks tie and the
    # lowest must win
    "zero_width": (
        lambda: mk_instance([("Q", 8, 0, 1), ("A", 10, 14, 2), ("B", 6, 9, 2)]),
        DistributionSpec.uniform(0), 10),
    # every schedule costs 0: the first sequence and the lowest decile win,
    # and the nine ranks' appointment times differ
    "zero_weights": (
        lambda: mk_instance([("Q", 8, 0, 1), ("A", 10, 14, 2), ("B", 6, 9, 1)],
                            costs=(0, 0, 0)),
        DistributionSpec.uniform("0.4"), 10),
}


class TestSaaFloorTable:
    def test_table_rows_match_a_plain_loop_on_random_blocks(self):
        """Blocks of 0-4 Q+ types with 1-3 patients each, and Q types before
        and between them in type order: with the Q+ types on the low
        places, the codes of all count vectors are distinct, code %
        plus_span gives back the Q+ counts, and each row of the floor
        table holds the least draw of the next patient of each Q+ type
        left (-low with none left)."""
        rng = np.random.default_rng(28)
        low = 10 ** 6
        for _ in range(40):
            qplus = [False]
            for j in range(int(rng.integers(0, 5))):
                qplus.append(True)
                if j == 0 or rng.random() < 0.5:
                    qplus.append(False)
            qplus = np.array(qplus)
            counts = [int(rng.integers(1, 4)) if q else int(rng.integers(1, 3))
                      for q in qplus]
            plus = np.flatnonzero(qplus)
            K = int(rng.integers(1, 4))
            lams = rng.integers(0, 1000, (sum(counts), K))
            ends = np.cumsum(counts)
            radix, full = exact._radix(counts,
                                       [*plus, *np.flatnonzero(~qplus)])
            plus_span = int(np.prod([counts[i] + 1 for i in plus]))
            floors = exact._floor_table(lams, ends, counts, plus, low)
            assert floors.shape == (plus_span, K)
            codes = set()
            for left in itertools.product(*(range(n + 1) for n in counts)):
                code = sum(n * r for n, r in zip(left, radix))
                codes.add(code)
                plus_left = [left[i] for i in plus]
                c = code % plus_span
                assert [c // radix[i] % (counts[i] + 1)
                        for i in plus] == plus_left
                floor = [-low] * K
                if any(plus_left):
                    floor = [min(int(lams[ends[i] - left[i], s])
                                 for i in plus if left[i])
                             for s in range(K)]
                assert floors[c].tolist() == floor
            assert len(codes) == np.prod([n + 1 for n in counts])
            assert full == max(codes)


class TestCountsTable:
    def test_rows_match_a_plain_decode_in_both_radix_orders(self):
        """Blocks of 1-5 types, Q and Q+ in any order, under the DP's type
        order and the saa model's order with the Q+ types on the low
        places: row c of the table holds c // radix % (counts + 1), and the
        open types of c are the types left, only Q+ ones in slot 0 when the
        block has any."""
        rng = np.random.default_rng(30)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            qplus = rng.random(n) < 0.5
            counts = [int(rng.integers(1, 4)) for _ in range(n)]
            plus = np.flatnonzero(qplus)
            for order in (None, [*plus, *np.flatnonzero(~qplus)]):
                radix, full = exact._radix(counts, order)
                left = exact._counts_table(counts, radix,
                                           exact._Budget(SearchConfig()))
                assert left.shape == (full + 1, n)
                open_types = exact._open_types(left, qplus)
                codes = np.arange(full + 1)
                later, first = open_types(codes, 3), open_types(codes, 0)
                for code in range(full + 1):
                    decode = [code // r % (c + 1)
                              for r, c in zip(radix, counts)]
                    assert left[code].tolist() == decode
                    has = [c > 0 for c in decode]
                    assert later[code].tolist() == has
                    assert first[code].tolist() == (
                        [h and q for h, q in zip(has, qplus)]
                        if qplus.any() else has)

    def test_a_table_past_its_bound_stops_before_the_search(self,
                                                            monkeypatch):
        # three single-patient types: 8 codes of 3 counts, 24 elements
        monkeypatch.setattr(exact, "TABLE_ELEMENTS", 24)
        budget = exact._Budget(SearchConfig())
        assert exact._counts_table([1, 1, 1], [1, 2, 4], budget,
                                   24).shape == (8, 3)
        for elements in (0, 25):   # the table itself, or the model's own
            monkeypatch.setattr(exact, "TABLE_ELEMENTS", 24 - (not elements))
            budget = exact._Budget(SearchConfig())
            with pytest.raises(ValueError, match="the table limit .* no "
                                                 "option raises$"):
                exact._counts_table([1, 1, 1], [1, 2, 4], budget, elements)
            assert budget.exhausted and budget.nodes == 0

    def test_dp_overtime_bound_sums_lambda_minus_mu_of_the_counts_left(
            self, monkeypatch):
        """The horizon DP's least total of each state (code, d) after slot
        t adds the overtime of a physician free at pa + d with the mu of
        every patient left still to serve, pa being the lambda of the
        blocks begun less that of the counts left."""
        models = []
        search = exact._search

        def spy(budget, mode, beam, n_slots, ms):
            models.extend(ms)
            return search(budget, mode, beam, n_slots, ms)

        monkeypatch.setattr(exact, "_search", spy)
        rng = np.random.default_rng(31)
        for _ in range(12):
            blocks = int(rng.integers(1, 4))
            inst = random_conformant_instance(rng, max_r=5, blocks=blocks)
            day_lam = blocks * sum(t.ratio * t.lam for t in inst.types)
            inst = dataclasses.replace(
                inst, regular_time=day_lam // 2, costs=CostWeights.of(
                    *(int(w) for w in rng.integers(1, 6, 5))))
            solve_horizon_exact(inst, inst.costs)
            _, _, _, total, _ = models.pop()
            _, (_, _, _, w_oa, w_op) = exact._scale(inst.costs)
            lam, mu, counts = ([getattr(t, f) for t in inst.types]
                               for f in ("lam", "mu", "ratio"))
            size = sum(counts)
            radix, full = exact._radix(counts)
            block_lam, block_mu = (sum(map(np.multiply, counts, x))
                                   for x in (lam, mu))
            R = inst.regular_time
            codes = np.arange(full + 1)
            for t in range(blocks * size):
                d = rng.integers(-day_lam, 2 * day_lam, len(codes))
                got = total([codes, d, np.zeros(len(codes), np.int64)], t)
                begun = (t + 1) // size + 1   # the next slot's block too
                for code in range(full + 1):
                    left = [code // r % (c + 1)
                            for r, c in zip(radix, counts)]
                    pa = begun * block_lam - sum(map(np.multiply, left, lam))
                    rest = ((blocks - begun) * block_mu
                            + sum(map(np.multiply, left, mu)))
                    end = pa + int(d[code]) + rest
                    assert got[code] == (w_oa * max(0, day_lam - R)
                                         + w_op * max(0, end - R))


class TestBeamCut:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_selection_keeps_the_rows_of_a_stable_sort(self, dtype):
        """The beam cut keeps exactly the rows a stable sort's first `beam`
        pick, in row order: on seeded costs with few to many distinct
        values (heavy ties), beam 1, and beam at or past the row count."""
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            spread = int(rng.choice([1, 2, 5, n, 10 ** 6]))
            cost = rng.integers(0, spread, n)
            if dtype is object:   # Python integers past int64
                cost = cost.astype(object) * (2 ** 70) + 3
            for beam in {1, 2, int(rng.integers(1, n + 1)), n - 1, n, n + 5}:
                if beam < 1:
                    continue
                assert exact._least(cost, beam).tolist() == np.sort(
                    np.argsort(cost, kind="stable")[:beam]).tolist()


class TestSaaChunkedSearch:
    @pytest.mark.parametrize("case", sorted(SAA_EDGE_CASES))
    def test_edge_cases_match_bruteforce(self, case):
        make, dist, K = SAA_EDGE_CASES[case]
        inst = make()
        scen = draw_scenarios(inst, dist, K, seed=17, tag="edge")
        for rule in ("earliest", "quantile_grid"):
            best, slots, taus = oracle_saa(inst, inst.costs, scen, rule)
            for mode in MODES:
                sol = solve_saa_replication(
                    inst, inst.costs, scen,
                    SearchConfig(mode=mode), tau_rule=rule)
                assert sol.optimal and sol.objective == best
                assert (sol.template.slots, sol.template.taus) == (slots, taus)

    def test_enumerate_counts_every_prefix_of_the_saa_workload_block(self):
        # the benchmark's generated block: Q+ ratios (2, 2, 1), Q (1, 1, 1)
        inst = mk_instance([("P0", 9, 14, 2), ("P1", 12, 12, 2),
                            ("P2", 6, 15, 1), ("Q0", 8, 0, 1),
                            ("Q1", 11, 0, 1), ("Q2", 5, 0, 1)])
        scen = draw_scenarios(inst, DistributionSpec("normal"), 3, seed=4)
        sol = solve_saa_replication(inst, inst.costs, scen)
        assert sol.optimal and sol.nodes_explored == 17_618

    # the benchmark's generated block, with sds: 17,618 prefixes
    SAA_BLOCK = [("P0", 9, 14, 2, 3, 6), ("P1", 12, 12, 2, 5, 4),
                 ("P2", 6, 15, 1, 2, 7), ("Q0", 8, 0, 1, 3),
                 ("Q1", 11, 0, 1, 4), ("Q2", 5, 0, 1, 2)]

    def test_chunk_cap_merge_floor_and_beam_change_only_speed(
            self, monkeypatch):
        """A tiny, the default and a large NODE_ELEMENTS, a MERGE_FLOOR of
        0, the default and none (so merging never happens), and under
        branch and bound a beam of 1, the default SAA_BEAM and 10**6, give
        the same solutions and enumerate node counts; no chunk's children
        pass the cap unless they are one parent's.  Merging every layer
        does change the work: branch and bound makes fewer nodes than with
        no merging, under either rule."""
        cases = [(mk_instance(self.SAA_BLOCK), DistributionSpec("normal"), 3)]
        rng = np.random.default_rng(97)
        for K, dist in ((1, DistributionSpec.uniform("0.4")),
                        (5, DistributionSpec.uniform(2))):
            cases.append((random_conformant_instance(rng, max_r=7), dist, K))
        caps = (1, exact.NODE_ELEMENTS, 1 << 20)
        floors = (0, exact.MERGE_FLOOR, float("inf"))
        beams = (1, exact.SAA_BEAM, 10 ** 6)
        chunks = record_steps(monkeypatch)
        for trial, (inst, dist, K) in enumerate(cases):
            scen = draw_scenarios(inst, dist, K, seed=trial, tag="budget")
            for rule in ("earliest", "quantile_grid"):
                for mode in MODES:
                    # each setting varied alone from the defaults
                    settings = {(cap, exact.MERGE_FLOOR, exact.SAA_BEAM)
                                for cap in caps}
                    settings |= {(exact.NODE_ELEMENTS, floor, exact.SAA_BEAM)
                                 for floor in floors}
                    if mode == "branch_and_bound":
                        settings |= {(exact.NODE_ELEMENTS, exact.MERGE_FLOOR,
                                      beam) for beam in beams}
                    seen, work = set(), {}
                    for cap, floor, beam in settings:
                        monkeypatch.setattr(exact, "NODE_ELEMENTS", cap)
                        monkeypatch.setattr(exact, "MERGE_FLOOR", floor)
                        monkeypatch.setattr(exact, "SAA_BEAM", beam)
                        chunks.clear()
                        sol = solve_saa_replication(
                            inst, inst.costs, scen,
                            SearchConfig(mode=mode), tau_rule=rule)
                        seen.add((sol.objective, sol.template, sol.optimal)
                                 + ((sol.nodes_explored,)
                                    if mode == "enumerate" else ()))
                        assert chunks_fit(chunks, cap)
                        if trial == 0 and mode == "enumerate":
                            # one search per distinct decile rank: two at K=3
                            assert sol.nodes_explored == 17_618 * (
                                2 if rule == "quantile_grid" else 1)
                        if (cap, beam) == (exact.NODE_ELEMENTS,
                                           exact.SAA_BEAM):
                            work[floor] = sol.nodes_explored
                    assert len(seen) == 1
                    assert sol.optimal
                    if mode == "branch_and_bound":
                        assert work[0] < work[float("inf")]

    def test_table7_block_certifies_at_k1(self, table7):
        # the scenario set `exact --scope saa --K 1 --seed 7` draws, with its
        # optimum and the lexicographically first template that reaches it
        scen = draw_scenarios(table7, DistributionSpec("normal"), 1, 7,
                              tag="exact-saa")
        sol = solve_saa_replication(table7, table7.costs, scen,
                                    SearchConfig(mode="branch_and_bound"))
        assert sol.optimal and sol.objective == Fraction("55.9")
        assert [p.name for p in sol.template.slots] == [
            "HC", "L", "MC", "MC", "MC", "LC", "M", "MC", "M", "LC", "HC",
            "LC", "LC", "L", "L", "H"]
        assert scenario_average_cost(sol.template, scen,
                                     table7.costs) == sol.objective

    def test_table7_block_certifies_under_quantile_grid(self, table7):
        # one search per decile rank, each merged like "earliest": K=1 has
        # one rank and certifies in well under a second
        scen = draw_scenarios(table7, DistributionSpec("normal"), 1, 7,
                              tag="exact-saa")
        start = time.perf_counter()
        sol = solve_saa_replication(table7, table7.costs, scen,
                                    SearchConfig(mode="branch_and_bound"),
                                    tau_rule="quantile_grid")
        assert time.perf_counter() - start < 1
        assert sol.optimal and sol.objective == Fraction("12.36")
        assert [p.name for p in sol.template.slots] == [
            "HC", "MC", "LC", "LC", "HC", "MC", "MC", "MC", "LC", "LC", "L",
            "L", "L", "M", "M", "H"]
        assert sol.template.taus == (0, 254, 345, 444, 567, 897, 992, 1062,
                                     1199, 1274, 1364, 1402, 1486, 1576,
                                     1670, 1694)
        assert scenario_average_cost(sol.template, scen,
                                     table7.costs) == sol.objective

    def test_layer_limit_ends_the_pass_as_a_budget_out(self, ex1,
                                                       monkeypatch):
        # ex1 at K=3 holds 9 elements a row under "earliest"; its unmerged
        # enumerate layers have 2, 7, 24, 78, 232 and then 610 rows, so a
        # limit of 2,100 elements stops on the sixth layer (one chunk, so
        # charged in full: 953 nodes) and completes the fifth; a limit of 1
        # stops on the first, before any schedule
        scen = draw_scenarios(ex1, DistributionSpec.uniform("0.4"), 3, seed=4)
        monkeypatch.setattr(exact, "LAYER_ELEMENTS", 2_100)
        sol = solve_saa_replication(ex1, ex1.costs, scen)
        assert not sol.optimal and sol.nodes_explored == 953
        assert sol.spent_limit == "layer limit (2100 elements)"
        assert len(sol.template.slots) == 9
        assert sol.objective == scenario_average_cost(sol.template, scen,
                                                      ex1.costs)
        monkeypatch.setattr(exact, "LAYER_ELEMENTS", 1)
        with pytest.raises(ValueError, match=r"^the layer limit \(1 elements\) "
                                             r"ran out before any complete"):
            solve_saa_replication(ex1, ex1.costs, scen)

    def test_bnb_node_limit_returns_best_found(self, ex1):
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 3, seed=2)
        sol = solve_saa_replication(
            ex1, ex1.costs, scen,
            SearchConfig(mode="branch_and_bound", node_limit=50))
        assert not sol.optimal and sol.nodes_explored == 51
        assert scenario_average_cost(sol.template, scen,
                                     ex1.costs) == sol.objective


class TestTauChoice:
    def test_delaying_tau_below_start_only_adds_stage1_wait(self, ex1):
        w = CostWeights.of(1, 1, 1, 1, 1)
        sol = solve_horizon_exact(ex1, w)
        tpl = sol.template
        base_cost = total_cost(evaluate(tpl, regular_time=ex1.regular_time), w)
        for j in (3, 7, 12):
            taus = list(tpl.taus)
            taus[j] = max(taus[j - 1], taus[j] - 30)  # stay nondecreasing
            lowered = AppointmentTemplate(tpl.slots, tuple(taus),
                                          tpl.block_bounds)
            cost = total_cost(evaluate(lowered, regular_time=ex1.regular_time), w)
            assert cost >= base_cost


class TestModeAgreement:
    def test_enumerate_equals_bnb_on_random_instances(self):
        rng = np.random.default_rng(52)
        from conftest import random_conformant_instance
        for trial in range(10):
            inst = random_conformant_instance(rng, max_r=7)
            w = CostWeights.of(Fraction(int(rng.integers(1, 11)), 10), 1, 1)
            a = solve_block_exact(expand_block(inst), w)
            b = solve_block_exact(expand_block(inst), w,
                                  SearchConfig(mode="branch_and_bound"))
            assert a.optimal and b.optimal and a.objective == b.objective
            assert a.template == b.template


class TestHorizonRandomizedDifferential:
    def test_dp_bnb_and_pair_bruteforce_agree_on_random_instances(self):
        rng = np.random.default_rng(71)
        trials = 0
        while trials < 8:
            inst = random_conformant_instance(rng, max_r=4, blocks=2)
            if inst.r < 2:
                continue
            trials += 1
            # random exact-decimal weights and a day length that puts some
            # instances into overtime and some not
            w = CostWeights.of(Fraction(int(rng.integers(1, 11)), 10), 1, 1,
                               Fraction(int(rng.integers(10, 22)), 10),
                               Fraction(int(rng.integers(10, 22)), 10))
            inst = ClinicInstance(inst.types, w,
                                  int(rng.integers(4, 12)) * 100, 2)
            best = None
            b0, b1 = expand_block(inst, 0), expand_block(inst, 1)
            for p1 in distinct_sequences(b0, qplus_first=True):
                for p2 in distinct_sequences(b1, qplus_first=False):
                    slots = tuple(p1) + tuple(p2)
                    tpl = AppointmentTemplate(slots, pa_prefix_taus(slots),
                                              (0, inst.r, 2 * inst.r))
                    cost = total_cost(
                        evaluate(tpl, regular_time=inst.regular_time), w)
                    best = cost if best is None else min(best, cost)
            dp = solve_horizon_exact(inst, w)
            bnb = solve_horizon_exact(inst, w,
                                      SearchConfig(mode="branch_and_bound"))
            assert dp.optimal and bnb.optimal
            assert dp.objective == best == bnb.objective
            assert dp.template == bnb.template
            ev = evaluate(dp.template, regular_time=inst.regular_time)
            assert total_cost(ev, w) == dp.objective

    def test_three_block_horizon_matches_triple_bruteforce(self):
        rng = np.random.default_rng(72)
        for _ in range(3):
            inst = random_conformant_instance(rng, max_r=3, blocks=3)
            w = CostWeights.of("0.4", 1, 1, "1.5", "1.5")
            inst = ClinicInstance(inst.types, w, int(rng.integers(3, 9)) * 100, 3)
            blocks = [expand_block(inst, c) for c in range(3)]
            best = None
            for p1 in distinct_sequences(blocks[0], qplus_first=True):
                for p2 in distinct_sequences(blocks[1], qplus_first=False):
                    for p3 in distinct_sequences(blocks[2], qplus_first=False):
                        slots = tuple(p1) + tuple(p2) + tuple(p3)
                        tpl = AppointmentTemplate(
                            slots, pa_prefix_taus(slots),
                            (0, inst.r, 2 * inst.r, 3 * inst.r))
                        cost = total_cost(
                            evaluate(tpl, regular_time=inst.regular_time), w)
                        best = cost if best is None else min(best, cost)
            dp = solve_horizon_exact(inst, w)
            bnb = solve_horizon_exact(inst, w,
                                      SearchConfig(mode="branch_and_bound"))
            assert dp.optimal and dp.objective == best == bnb.objective
            assert dp.template == bnb.template


def oracle_horizon(inst, weights, regular_time):
    """Test-side brute force over every horizon sequence (block 0 starts
    with a Q+ type whenever one exists; later blocks are free): the least
    cost and the lexicographically first type-id sequence that reaches it."""
    per_block = [list(distinct_sequences(expand_block(inst, c),
                                         qplus_first=c == 0))
                 for c in range(inst.blocks)]
    best = None
    for parts in itertools.product(*per_block):
        slots = [p for part in parts for p in part]
        m = oracle_timeline(slots, regular_time=regular_time)
        key = (oracle_cost(m, weights), tuple(p.type_index for p in slots))
        best = key if best is None or key < best else best
    return best


HUGE_DENOMINATOR = 2 ** 62 - 57   # a prime: weights over it keep it


def dominance_instance(rng, kind, blocks, max_r):
    """A random instance of one of six kinds: "mixed" Q and Q+ types,
    "ties" (two identical Q+ types on a coarse grid), "all_qplus" (no Q
    type), "single" (one Q+ type), "off_grid" (mixed, times in thirds and
    sevenths of a tenth) and "huge_weights" (mixed, weights over a
    denominator near 2**62, so scaled costs overflow int64).  Q+ types
    need not be conformant."""
    tenths_of = lambda lo, hi: int(rng.integers(lo, hi + 1))
    weights = CostWeights(*(Fraction(int(rng.integers(0, 21)), 10)
                            for _ in range(5)))
    if kind == "huge_weights":
        weights = CostWeights(*(
            Fraction(int(rng.integers(0, 2 * HUGE_DENOMINATOR)),
                     HUGE_DENOMINATOR) for _ in range(5)))
    while True:
        if kind == "single":
            types = [PatientType("P0", tenths_of(30, 200), 0,
                                 tenths_of(30, 300), 0, tenths_of(1, 4))]
        elif kind == "ties":
            lam, mu = 50 * tenths_of(1, 4), 50 * tenths_of(1, 5)
            types = [PatientType(n, lam, 0, mu, 0, tenths_of(1, 2))
                     for n in ("P0", "P1")]
            if rng.integers(2):
                types.insert(0, PatientType("Q0", 50 * tenths_of(1, 4), 0,
                                            0, 0, 1))
        else:
            n_q = 0 if kind == "all_qplus" else tenths_of(1, 2)
            types = [PatientType(f"Q{i}", tenths_of(30, 250), 0, 0, 0,
                                 tenths_of(1, 2)) for i in range(n_q)]
            types += [PatientType(f"P{i}", tenths_of(30, 250), 0,
                                  tenths_of(30, 300), 0, tenths_of(1, 2))
                      for i in range(tenths_of(1 + (kind == "all_qplus"), 3))]
            if kind == "off_grid":
                types = [dataclasses.replace(
                    t, lam=Fraction(t.lam * 3 + tenths_of(1, 2), 3),
                    mu=t.mu and Fraction(t.mu * 7 + tenths_of(1, 6), 7))
                    for t in types]
            rng.shuffle(types)
        inst = ClinicInstance(tuple(types), weights, 0, blocks)
        if inst.r <= max_r:
            return inst


def solve_both_modes(inst, regular_time):
    """(enumerate, branch and bound) solutions: the block scope with no
    regular time at k=1, the horizon scope with one, and the DP itself for
    several blocks with none (no public scope runs that case)."""
    if regular_time is None and inst.blocks == 1:
        def run(config):
            return solve_block_exact(expand_block(inst), inst.costs, config)
    elif regular_time is not None:
        day = ClinicInstance(inst.types, inst.costs, regular_time, inst.blocks)

        def run(config):
            return solve_horizon_exact(day, inst.costs, config)
    else:
        blocks = [expand_block(inst, c) for c in range(inst.blocks)]

        def run(config):
            return exact._lag_dp(exact._groups(blocks[0]), inst.blocks,
                                 inst.costs, config, None, blocks)
    return run(SearchConfig()), run(SearchConfig(mode="branch_and_bound"))


class TestDominanceBranchAndBound:
    @pytest.mark.parametrize("kind", ["mixed", "ties", "all_qplus", "single",
                                      "off_grid", "huge_weights"])
    def test_bnb_matches_dp_and_bruteforce(self, kind, monkeypatch):
        # these instances never fill the default beam, so narrow beams make
        # the incumbent pass cut layers and the pruned pass run
        rng = np.random.default_rng({"mixed": 81, "ties": 82, "all_qplus": 83,
                                     "single": 84, "off_grid": 85,
                                     "huge_weights": 86}[kind])
        for blocks, max_r, trials in ((1, 6, 6), (2, 4, 4), (3, 3, 3)):
            for _ in range(trials):
                inst = dominance_instance(rng, kind, blocks, max_r)
                day_lam = blocks * sum(t.ratio * t.lam for t in inst.types)
                for R in (None, 0, day_lam // 2):
                    best, types = oracle_horizon(inst, inst.costs, R)
                    for beam in (1, 2, 8, exact.BEAM):
                        monkeypatch.setattr(exact, "BEAM", beam)
                        dp, bnb = solve_both_modes(inst, R)
                        assert dp.optimal and bnb.optimal
                        assert dp.objective == bnb.objective == best
                        assert tuple(p.type_index
                                     for p in bnb.template.slots) == types
                        assert bnb.template == dp.template

    def test_ex2_three_blocks_certifies_the_dp_optimum(self, ex2):
        inst = ClinicInstance(ex2.types, ex2.costs, ex2.regular_time, 3)
        dp = solve_horizon_exact(inst, inst.costs)
        bnb = solve_horizon_exact(inst, inst.costs,
                                  SearchConfig(mode="branch_and_bound"))
        assert dp.optimal and bnb.optimal
        assert (bnb.objective, bnb.template) == (dp.objective, dp.template)

    def test_a_chunk_pruned_to_nothing_is_not_merged(self, ex2, monkeypatch):
        # a chunk of one parent's children: the pruned pass drops every
        # child of some chunks, and the search goes on as with whole layers
        inst = ClinicInstance(ex2.types, ex2.costs, ex2.regular_time, 3)
        config = SearchConfig(mode="branch_and_bound")
        whole = solve_horizon_exact(inst, inst.costs, config)
        monkeypatch.setattr(exact, "NODE_ELEMENTS", 1)
        assert solve_horizon_exact(inst, inst.costs, config) == whole

    def test_dominance_prunes_the_fixture_searches(self, ex1, table7):
        # enumeration takes 491,933, 6,761 and 7,074,446 transitions; ex1 at
        # k=3 never fills the beam, so its incumbent pass is the whole DP
        config = SearchConfig(mode="branch_and_bound")
        block = solve_block_exact(expand_block(table7), table7.costs, config)
        ex1_k3, table7_k3 = (ClinicInstance(i.types, i.costs, i.regular_time, 3)
                             for i in (ex1, table7))
        horizon = solve_horizon_exact(ex1_k3, ex1.costs, config)
        long_day = solve_horizon_exact(table7_k3, table7.costs, config)
        assert block.optimal and horizon.optimal and long_day.optimal
        assert long_day.objective == Fraction("474.86")
        assert (block.nodes_explored, horizon.nodes_explored,
                long_day.nodes_explored) == (42_954, 6_761, 1_041_189)

    @pytest.mark.parametrize("fixture", ["ex1", "ex2", "table7"])
    def test_modes_agree_on_every_fixture(self, request, fixture):
        inst = request.getfixturevalue(fixture)
        runs = [lambda c: solve_block_exact(expand_block(inst), inst.costs, c)]
        runs += [lambda c, k=k: solve_horizon_exact(ClinicInstance(
            inst.types, inst.costs, inst.regular_time, k), inst.costs, c)
            for k in sorted({inst.blocks, 2, 3})]
        for run in runs:
            enum, bnb = (run(SearchConfig(mode=mode)) for mode in MODES)
            assert enum.optimal and bnb.optimal
            assert (bnb.objective, bnb.template) == (enum.objective,
                                                     enum.template)

    def test_pruned_pass_budget_out_ties_go_to_the_first_sequence(
            self, monkeypatch):
        # with a beam of 2 the incumbent pass takes 27 transitions and ends
        # at P0 P1 Q0 P1 | Q0 P0 P1 P1 (type ids 1 2 0 2 0 1 2 2); a limit of
        # 27 stops the pruned pass at its first layer, which fills the root
        # in type order after a Q+ first slot: P0 Q0 P1 P1 | Q0 P0 P1 P1,
        # as cheap as the incumbent and lexicographically first
        monkeypatch.setattr(exact, "BEAM", 2)
        inst = mk_instance([("Q0", 5, 0, 1), ("P0", 20, 20, 1),
                            ("P1", 20, 20, 2)],
                           costs=("0.5", "1.1", "1.5", 1, "1.2"),
                           regular_time=0, blocks=2)
        incumbent = (1, 2, 0, 2, 0, 1, 2, 2)
        root_fill = (1, 0, 2, 2, 0, 1, 2, 2)
        optimum = solve_horizon_exact(inst, inst.costs).objective
        for limit, types in ((26, incumbent), (27, root_fill)):
            sol = solve_horizon_exact(inst, inst.costs, SearchConfig(
                mode="branch_and_bound", node_limit=limit))
            assert not sol.optimal and sol.nodes_explored == limit + 1
            assert tuple(p.type_index for p in sol.template.slots) == types
            m = oracle_timeline(sol.template.slots, taus=sol.template.taus,
                                regular_time=0)
            assert oracle_cost(m, inst.costs) == sol.objective == 325
        assert optimum < 325


class TestHorizonBudget:
    def test_budget_out_in_continuations_returns_incumbent(self, ex2):
        # the dynamic program certifies ex2 in 14079 transitions; the budget
        # runs out after the first complete horizons (26 slots deep)
        sol = solve_horizon_exact(ex2, ex2.costs,
                                  SearchConfig(node_limit=5_000))
        assert not sol.optimal
        assert sol.nodes_explored == 5_001
        m = oracle_timeline(sol.template.slots, taus=sol.template.taus,
                            regular_time=ex2.regular_time)
        assert oracle_cost(m, ex2.costs) == sol.objective

    def test_budget_out_before_any_horizon_raises(self, ex1):
        # a complete ex1 horizon is 18 slots deep
        with pytest.raises(ValueError, match=r"node limit \(10 nodes\)"):
            solve_horizon_exact(ex1, ex1.costs, SearchConfig(node_limit=10))

    def test_time_limit_out_names_the_time_limit(self, ex2):
        # the deadline is read on the first node, before any complete
        # horizon is reached
        with pytest.raises(ValueError, match=r"time limit \(1e-09 s\)"):
            solve_horizon_exact(ex2, ex2.costs, SearchConfig(time_limit=1e-9))


class TestLayeredDP:
    @pytest.mark.parametrize("fixture, blocks, objective, transitions", [
        # the five enumerate jobs of the benchmark's search workload
        ("ex1", None, 0, 604),
        ("ex2", None, 0, 3_485),
        ("ex1", 2, 5, 3_433),
        ("ex1", 3, 190, 6_761),
        ("ex2", 2, 130, 14_079),
        ("table7", None, Fraction("2.82"), 491_933),
        # the horizon certificate: under 0.5 s and 86 MB peak on 2 cores
        ("table7", 2, Fraction("76.36"), 3_693_540),
    ])
    def test_fixture_transition_counts(self, request, fixture, blocks,
                                       objective, transitions):
        inst = request.getfixturevalue(fixture)
        if blocks is None:
            sol = solve_block_exact(expand_block(inst), inst.costs)
        else:
            sol = solve_horizon_exact(ClinicInstance(
                inst.types, inst.costs, inst.regular_time, blocks), inst.costs)
        assert sol.optimal
        assert (sol.objective, sol.nodes_explored) == (objective, transitions)

    @pytest.mark.parametrize("mode, limit", [
        *(pytest.param("enumerate", n, id=str(n))
          for n in (26, 27, 400, 5_000, 14_078)),
        # with a beam of 8 the incumbent pass takes 539 transitions: 26, 27
        # and 400 run out in it, 539 on the first layer of the pruned pass,
        # and the rest later in the pruned pass
        *(pytest.param("branch_and_bound", n, id=f"bnb-{n}")
          for n in (26, 27, 400, 539, 540, 5_000, 11_935)),
    ])
    def test_budget_out_completes_the_last_full_layer(self, ex2, monkeypatch,
                                                      mode, limit):
        # a complete ex2 horizon is 26 slots deep; the DP certifies it in
        # 14,079 transitions, branch and bound with a beam of 8 in 11,936
        monkeypatch.setattr(exact, "BEAM", 8)
        optimum = solve_horizon_exact(ex2, ex2.costs).objective
        sol = solve_horizon_exact(ex2, ex2.costs,
                                  SearchConfig(mode=mode, node_limit=limit))
        assert not sol.optimal and sol.nodes_explored == limit + 1
        assert sol.spent_limit == f"node limit ({limit} nodes)"
        m = oracle_timeline(sol.template.slots, taus=sol.template.taus,
                            regular_time=ex2.regular_time)
        assert oracle_cost(m, ex2.costs) == sol.objective >= optimum

    def test_budget_below_the_slot_count_raises(self, ex2):
        for mode in MODES:
            with pytest.raises(ValueError, match=r"node limit \(25 nodes\)"):
                solve_horizon_exact(ex2, ex2.costs,
                                    SearchConfig(mode=mode, node_limit=25))

    def test_chunk_cap_changes_only_speed(self, ex2, table7, monkeypatch):
        """A NODE_ELEMENTS of 1, 2**12, the default and 2**20 give the same
        solution, node count included, on the table7 block and on ex2 at
        three blocks, in both modes; no chunk's children pass the cap unless
        they are one parent's, and below the default some layer spans
        several chunks (enumerate calls step more often than once a slot).
        The table7 block skips one-parent chunks under enumerate, which
        take about 8 s (one chunk per state, some 100,000 of them)."""
        ex2_k3 = ClinicInstance(ex2.types, ex2.costs, ex2.regular_time, 3)
        default = exact.NODE_ELEMENTS
        runs = [(16, lambda c: solve_block_exact(expand_block(table7),
                                                 table7.costs, c)),
                (39, lambda c: solve_horizon_exact(ex2_k3, ex2.costs, c))]
        steps = record_steps(monkeypatch)
        for n_slots, run in runs:
            for mode in MODES:
                seen = set()
                for cap in (1, 1 << 12, default, 1 << 20):
                    if cap == 1 and n_slots == 16 and mode == "enumerate":
                        continue
                    monkeypatch.setattr(exact, "NODE_ELEMENTS", cap)
                    steps.clear()
                    sol = run(SearchConfig(mode=mode))
                    seen.add(sol)
                    assert len(sol.template.slots) == n_slots
                    assert chunks_fit(steps, cap)
                    if mode == "enumerate" and cap < default:
                        assert len(steps) > n_slots
                assert len(seen) == 1 and sol.optimal

    # at NODE_ELEMENTS = 2**10 a DP chunk is 51 parent rows (1024 // 5
    # children over 4 types), and ex2's layers from slot 5 on span several
    CHUNKED = 1 << 10

    def chunks_of_the_whole_dp(self, ex2, monkeypatch, mode):
        """The slot of each chunk that ex2's DP makes in `mode` at CHUNKED,
        and the nodes charged once it is made."""
        monkeypatch.setattr(exact, "NODE_ELEMENTS", self.CHUNKED)
        steps = record_steps(monkeypatch)
        solve_horizon_exact(ex2, ex2.costs, SearchConfig(mode=mode))
        slots = [t for t, *_ in steps]
        made = list(itertools.accumulate(n for _, _, n, _ in steps))
        return slots, made

    @pytest.mark.parametrize("mode", MODES)
    def test_a_node_limit_runs_out_mid_layer(self, ex2, monkeypatch, mode):
        # the limit runs out halfway through a chunk that follows a chunk of
        # its own layer; the layers before it are completed
        slots, made = self.chunks_of_the_whole_dp(ex2, monkeypatch, mode)
        i = next(i for i in range(1, len(slots))
                 if slots[i] == slots[i - 1] and made[i - 1] > 1000)
        limit = (made[i - 1] + made[i]) // 2
        sol = solve_horizon_exact(ex2, ex2.costs,
                                  SearchConfig(mode=mode, node_limit=limit))
        assert not sol.optimal and sol.nodes_explored == limit + 1
        m = oracle_timeline(sol.template.slots, taus=sol.template.taus,
                            regular_time=ex2.regular_time)
        assert oracle_cost(m, ex2.costs) == sol.objective

    def test_a_layer_limit_counts_only_the_chunks_made(self, ex2,
                                                       monkeypatch):
        # slot 6's chunks take 142, 168 and 73 nodes after the 409 of slots
        # 0-5; 600 elements (200 merged rows) pass on its second chunk, so
        # the pass counts 719 nodes, not the layer's 792, and completes slot
        # 5's rows
        monkeypatch.setattr(exact, "NODE_ELEMENTS", self.CHUNKED)
        monkeypatch.setattr(exact, "LAYER_ELEMENTS", 600)
        for mode in MODES:
            sol = solve_horizon_exact(ex2, ex2.costs, SearchConfig(mode=mode))
            assert not sol.optimal and sol.nodes_explored == 719
            m = oracle_timeline(sol.template.slots, taus=sol.template.taus,
                                regular_time=ex2.regular_time)
            assert oracle_cost(m, ex2.costs) == sol.objective

    def test_the_clock_is_read_once_a_chunk(self, ex2, monkeypatch):
        # a clock that ticks once a read: the budget reads it once at the
        # start and once a chunk, so a time limit of i + 0.5 is out at chunk
        # i, the second of its layer; the pass ends there, and only the
        # node that found the clock out is counted past chunk i - 1
        slots, made = self.chunks_of_the_whole_dp(ex2, monkeypatch,
                                                  "enumerate")
        i = next(i for i in range(1, len(slots)) if slots[i] == slots[i - 1])
        ticks = itertools.count()
        monkeypatch.setattr(exact.time, "monotonic", lambda: next(ticks))
        sol = solve_horizon_exact(ex2, ex2.costs,
                                  SearchConfig(time_limit=i + 0.5))
        assert not sol.optimal and sol.nodes_explored == made[i - 1] + 1
        m = oracle_timeline(sol.template.slots, taus=sol.template.taus,
                            regular_time=ex2.regular_time)
        assert oracle_cost(m, ex2.costs) == sol.objective

    def test_budget_out_fills_each_state_in_type_order(self, ex1):
        # brute force over the ex1 block: a node limit that covers the
        # expansion of layers 0..L-1 but not of layer L returns the least
        # cost, and the first sequence, among the prefixes of L slots each
        # followed by its remaining counts in type order
        block = expand_block(ex1)
        kinds = {p.type_index: p for p in block}
        seqs = [tuple(p.type_index for p in perm)
                for perm in distinct_sequences(block)]
        full = collections.Counter(seqs[0])

        def left(prefix):
            return full - collections.Counter(prefix)

        def lag(prefix):
            m = oracle_timeline([kinds[t] for t in prefix])
            return None if m["last_p"] is None else m["last_p"] - m["last_a"]

        spent = 0   # transitions of layers 0..L-1
        for L in range(len(block)):
            prefixes = sorted({s[:L] for s in seqs})
            if spent >= len(block):
                best = min((oracle_cost(oracle_timeline(
                    [kinds[t] for t in seq]), ex1.costs), seq)
                    for seq in (p + tuple(sorted(left(p).elements()))
                                for p in prefixes))
                sol = solve_block_exact(block, ex1.costs,
                                        SearchConfig(node_limit=spent))
                assert not sol.optimal and sol.nodes_explored == spent + 1
                assert (sol.objective, tuple(
                    p.type_index for p in sol.template.slots)) == best
            states = {(tuple(sorted(left(p).items())), lag(p))
                      for p in prefixes}
            spent += sum(len(counts) if L else
                         sum(kinds[t].qplus for t, _ in counts)
                         for counts, _ in states)

    def test_merge_keeps_the_first_row_of_least_cost(self, monkeypatch):
        # the value sort of the packed int64 key, the hash of the state
        # (int64 spans too wide to pack) and lexsort on Python integers keep
        # the same rows as a plain scan, for one state column and for a
        # tuple of int32 time columns (the saa model's state) alike
        rng = np.random.default_rng(91)
        for trial in range(36):
            n = int(rng.integers(1, 200))
            code, d, cost = (rng.integers(0, hi, n) for hi in (4, 5, 6))
            if trial % 3 == 1:
                cost = cost << 60   # (code + 1) * d_span * c_span * n > 2**63
            if trial % 3 == 2:
                code, d, cost = (x.astype(object) * 2 ** 70
                                 for x in (code, d, cost))
            d = (d,)
            if trial % 4 == 3:
                d = tuple(d[0] * (1 + k) % 3 for k in range(3))
                if trial % 3 != 2:
                    d = tuple(x.astype(np.int32) for x in d)
            assert_merge_is_a_plain_scan(code, d, cost)
        # the DP's one key column, code * (day_lam + day_mu + 1) + (lag +
        # day_lam) with the lag in [-day_lam, day_mu], keeps a plain scan's
        # rows on (code, lag), from one row up
        day_lam, day_mu = 37, 23
        for n in (1, 2, 40, 3000):
            code = rng.integers(0, 50, n)
            lag = rng.integers(-day_lam, day_mu + 1, n)
            cost = rng.integers(0, 4, n)
            rows = exact._first_of_each_state(
                code * (day_lam + day_mu + 1) + (lag + day_lam), (), cost)
            assert rows.tolist() == first_of_least_cost([code, lag], cost)
        # layers of a few thousand rows with heavy cost ties
        for n in (2000, 5000):
            assert_merge_is_a_plain_scan(
                rng.integers(0, 20, n), (rng.integers(-2, 3, n),),
                rng.integers(0, 3, n))
        # packed rooms (code max + 1) * n * cost span just below and at 2**63:
        # the first takes the value sort, the second the hash path
        hashed = []

        def hash_rows(cols, hash_rows=exact._hash_rows):
            hashed.append(1)
            return hash_rows(cols)

        monkeypatch.setattr(exact, "_hash_rows", hash_rows)
        n, span = 8, 2 ** 40
        for top, path in ((2 ** 20 - 1, []), (2 ** 20, [1])):
            code = rng.choice([0, 1, top - 1], n)
            code[0] = top - 1
            cost = rng.choice([0, 5, span - 1], n)
            cost[:2] = 0, span - 1
            assert (top * n * span >= 2 ** 63) == bool(path)
            hashed.clear()
            assert_merge_is_a_plain_scan(code, (), cost)
            assert hashed == path

    def test_a_key_past_int64_runs_on_python_integers(self, monkeypatch):
        # one Q type of two patients: the codes stay below 3 and the lags
        # span 2 * lam + 1, and with only beta_a weighted (the assistant
        # never idles) every cost bound is 0, so the key's bound alone
        # decides whether the DP may run on int64
        dtypes = []

        def spy(code, d, cost, merge=exact._first_of_each_state):
            dtypes.append(code.dtype)
            return merge(code, d, cost)

        monkeypatch.setattr(exact, "_first_of_each_state", spy)
        top = (2 ** 63 // 3 - 1) // 2   # 3 * (2 * lam + 1) < 2**63 up to here
        for lam, dtype in ((top, np.int64), (top + 1, object)):
            inst = ClinicInstance((PatientType("Q", lam, 0, 0, 0, 2),),
                                  CostWeights(0, 1, 0, 0, 0), 0, 1)
            dtypes.clear()
            sol = solve_block_exact(expand_block(inst), inst.costs)
            assert sol.optimal and sol.objective == 0
            assert dtypes and set(dtypes) == {np.dtype(dtype)}

    @pytest.mark.parametrize("mode", MODES)
    def test_every_dp_merge_keeps_a_plain_scans_rows(self, monkeypatch,
                                                     mode):
        # seeded random blocks and horizons, Q-only ones and cost ties
        # among them: each merge the DP makes keeps the rows of a plain
        # first-of-least-cost scan of its arguments
        calls = []

        def spy(code, d, cost, merge=exact._first_of_each_state):
            rows = merge(code, d, cost)
            assert rows.tolist() == first_of_least_cost([code, *d], cost)
            calls.append(len(cost))
            return rows

        monkeypatch.setattr(exact, "_first_of_each_state", spy)
        rng = np.random.default_rng(93)
        config = SearchConfig(mode=mode)
        for kind in ("mixed", "ties", "all_qplus", "off_grid", "q_only"):
            for blocks, max_r in ((1, 10), (2, 6), (3, 4)) * 3:
                if kind == "q_only":
                    types = tuple(PatientType(f"Q{i}", int(rng.integers(
                        30, 250)), 0, 0, 0, int(rng.integers(1, 3)))
                        for i in range(3))
                    inst = ClinicInstance(types, CostWeights(1, 1, 1, 2, 3),
                                          0, blocks)
                else:
                    inst = dominance_instance(rng, kind, blocks, max_r)
                day_lam = blocks * sum(t.ratio * t.lam for t in inst.types)
                if blocks == 1:
                    assert solve_block_exact(expand_block(inst), inst.costs,
                                             config).optimal
                day = ClinicInstance(inst.types, inst.costs, day_lam // 2,
                                     blocks)
                assert solve_horizon_exact(day, inst.costs, config).optimal
        assert len(calls) > 400 and max(calls) > 500


def first_of_least_cost(cols, cost) -> list[int]:
    """The rows, in order, that a plain scan keeps: for each state (a row
    of cols), its first row of least cost."""
    first = {}
    for row, key in enumerate(zip(*(x.tolist() for x in cols))):
        if key not in first or cost[row] < cost[first[key]]:
            first[key] = row
    return sorted(first.values())


def assert_merge_is_a_plain_scan(code, d, cost):
    assert exact._first_of_each_state(code, d, cost).tolist() == \
        first_of_least_cost([code, *d], cost)


class TestRejectedConfigs:
    def test_search_config_holds_what_every_solver_reads(self):
        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "node_limit", "time_limit", "mode"]

    def test_saa_rejects_an_unknown_tau_rule(self, ex1):
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 2, seed=1)
        with pytest.raises(ValueError, match="^unknown tau rule: latest$"):
            solve_saa_replication(ex1, ex1.costs, scen, tau_rule="latest")

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_horizon_rejects_fewer_than_one_block(self, ex1, blocks):
        inst = ClinicInstance(ex1.types, ex1.costs, ex1.regular_time, blocks)
        with pytest.raises(ValueError, match="blocks: must be >= 1"):
            solve_horizon_exact(inst, inst.costs)

    @pytest.mark.parametrize("field, value", [
        ("time_limit", float("nan")), ("time_limit", 0.0),
        ("time_limit", -1.0), ("node_limit", 0), ("node_limit", -5)])
    def test_limits_that_are_not_positive_are_rejected(self, field, value):
        # nan compares false both ways, so only "not limit > 0" catches it
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("mode", ["dfs", "Enumerate", ""])
    def test_unknown_mode_is_rejected(self, mode):
        with pytest.raises(ValueError, match=f"^unknown mode: {mode}$"):
            SearchConfig(mode=mode)

    def test_an_infinite_time_limit_is_allowed(self, ex1):
        sol = solve_block_exact(expand_block(ex1), ex1.costs,
                                SearchConfig(time_limit=float("inf")))
        assert sol.optimal


class TestLongHorizons:
    def test_dp_certifies_a_thousand_slots(self, ex1):
        inst = ClinicInstance(ex1.types, ex1.costs, ex1.regular_time, 120)
        sol = solve_horizon_exact(inst, inst.costs)
        assert sol.optimal and sol.objective == 153395
        assert len(sol.template.slots) == 1080

    def test_saa_certifies_a_block_of_a_thousand_slots(self):
        # one sequence, so one row a layer: the search has no depth limit
        inst = mk_instance([("A", 10, 15, 1000)], costs=(1, 1, 1))
        scen = draw_scenarios(inst, DistributionSpec("normal"), 2, seed=0)
        for mode in MODES:
            sol = solve_saa_replication(inst, inst.costs, scen,
                                        SearchConfig(mode=mode))
            assert sol.optimal and sol.nodes_explored == 1000
            assert sol.objective == scenario_average_cost(
                sol.template, scen, inst.costs)

    def test_bnb_certifies_a_thousand_slots(self, ex1):
        inst = ClinicInstance(ex1.types, ex1.costs, ex1.regular_time, 120)
        enum, bnb = (solve_horizon_exact(inst, inst.costs,
                                         SearchConfig(mode=mode))
                     for mode in MODES)
        assert enum.optimal and bnb.optimal
        assert enum.objective == bnb.objective == 153395
        assert enum.template == bnb.template


def test_horizon_exact_all_q_instance():
    inst = mk_instance([("Q1", 20, 0, 2), ("Q2", 10, 0, 1)],
                       costs=(1, 1, 1, "1.5", "1.5"), regular_time=8,
                       blocks=2)
    sol = solve_horizon_exact(inst, inst.costs)
    assert sol.optimal
    # only assistant overtime contributes: 2 blocks * 50 - 8 = 92 minutes
    assert sol.objective == Fraction(3, 2) * 92
    ev = evaluate(sol.template, regular_time=inst.regular_time)
    assert total_cost(ev, inst.costs) == sol.objective
