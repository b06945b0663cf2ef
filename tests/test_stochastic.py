import dataclasses
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from blocksched import (ClinicInstance, CostWeights, algorithm3, algorithm4,
                        evaluate, expand_horizon, fcfa, solve_saa_replication)
from blocksched import stochastic
from blocksched.exact import SearchConfig
from blocksched.timeline import METRICS, metric_coefficients, weighted_cost
from blocksched.stochastic import (DistributionSpec, SAAConfig,
                                   confidence_halfwidth, draw_scenarios,
                                   evaluate_template_mc, incumbent_selection,
                                   metric_paths, saa_procedure,
                                   fixed_template_inner, t_critical,
                                   scenario_average_cost,
                                   summarize_paths, _column_floats,
                                   _tag_int, _uniform_bounds)
from conftest import mk_instance, random_conformant_instance


class TestDrawScenarios:
    def test_zero_sd_yields_means(self, ex1):
        scen = draw_scenarios(ex1, DistributionSpec("normal"), 4, seed=1)
        means_lam = [p.lam for b in expand_horizon(ex1) for p in b]
        means_mu = [p.mu for b in expand_horizon(ex1) for p in b]
        for s in range(4):
            lam, mu = scen.lam[s], scen.mu[s]
            assert list(lam) == means_lam and list(mu) == means_mu

    def test_uniform_support(self, ex1):
        w = Fraction(3, 10)
        scen = draw_scenarios(ex1, DistributionSpec.uniform(w), 50, seed=2)
        patients = [p for b in expand_horizon(ex1) for p in b]
        for s in range(50):
            lam, mu = scen.lam[s], scen.mu[s]
            for i, p in enumerate(patients):
                assert (1 - w / 2) * p.lam <= lam[i] <= (1 + w / 2) * p.lam
                if p.qplus:
                    assert (1 - w / 2) * p.mu <= mu[i] <= (1 + w / 2) * p.mu

    def test_clamped_normal_mean_oracle(self):
        # analytic mean of max(0, N(m, s)): m*Phi(m/s) + s*phi(m/s)
        inst = mk_instance([("HC", "17.8", 0, 100, "10.7", 0)])
        scen = draw_scenarios(inst, DistributionSpec("normal"), 1000, seed=3)
        draws = scen.lam.reshape(-1) / 10
        m, s = 17.8, 10.7
        z = m / s
        phi = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        Phi = 0.5 * (1 + math.erf(z / math.sqrt(2)))
        expected = m * Phi + s * phi
        n = draws.size
        assert abs(draws.mean() - expected) <= 3 * s / math.sqrt(n)

    def test_scenarios_are_keyed_independently_of_k(self, ex1):
        small = draw_scenarios(ex1, DistributionSpec.uniform("0.4"), 3, seed=9)
        large = draw_scenarios(ex1, DistributionSpec.uniform("0.4"), 7, seed=9)
        assert (small.lam == large.lam[:3]).all()
        assert (small.mu == large.mu[:3]).all()

    def test_key_components_change_draws(self, ex1):
        d = DistributionSpec.uniform("0.4")
        base = draw_scenarios(ex1, d, 2, seed=9, tag="a", replication=0)
        assert not (draw_scenarios(ex1, d, 2, seed=10, tag="a").lam
                    == base.lam).all()
        assert not (draw_scenarios(ex1, d, 2, seed=9, tag="b").lam
                    == base.lam).all()
        assert not (draw_scenarios(ex1, d, 2, seed=9, tag="a",
                                   replication=1).lam == base.lam).all()


def scenario_formula(inst, dist):
    """The per-scenario formula, as a function of a generator: an n x 2
    block of its standard normals (normal family) or uniforms (uniform
    family), made into tenths and clamped patient by patient."""
    patients = [p for b in expand_horizon(inst) for p in b]
    means_lam = np.array([int(p.lam) for p in patients], dtype=np.int64)
    means_mu = np.array([int(p.mu) for p in patients], dtype=np.int64)
    sds_lam = np.array([int(inst.types[p.type_index].lam_sd)
                        for p in patients], dtype=np.int64)
    sds_mu = np.array([int(inst.types[p.type_index].mu_sd)
                       for p in patients], dtype=np.int64)
    w = float(dist.width)
    bounds = [(_uniform_bounds(int(p.lam), dist.width),
               _uniform_bounds(int(p.mu), dist.width)) for p in patients]

    def one_scenario(rng):
        if dist.family == "normal":
            z = rng.standard_normal((len(patients), 2))
            lam = np.rint(means_lam + sds_lam * z[:, 0]).astype(np.int64)
            mu = np.rint(means_mu + sds_mu * z[:, 1]).astype(np.int64)
            lam = np.maximum(lam, 0).tolist()
            mu = np.maximum(mu, 0).tolist()
        else:
            u = rng.random((len(patients), 2))
            lam = np.rint(means_lam * (1 - w / 2 + w * u[:, 0])).astype(np.int64)
            mu = np.rint(means_mu * (1 - w / 2 + w * u[:, 1])).astype(np.int64)
            lam = [min(max(v, lo), hi)
                   for v, ((lo, hi), _) in zip(lam.tolist(), bounds)]
            mu = [min(max(v, lo), hi)
                  for v, (_, (lo, hi)) in zip(mu.tolist(), bounds)]
        return lam, [v if p.qplus else 0 for v, p in zip(mu, patients)]
    return one_scenario


def reference_draws(inst, dist, K, seed, tag, replication=0):
    """The plain oracle: one default_rng(SeedSequence([seed, tag key,
    replication, 0])), then K scenarios drawn from it one after another."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _tag_int(tag), replication, 0]))
    one_scenario = scenario_formula(inst, dist)
    rows = [one_scenario(rng) for _ in range(K)]
    return (np.array([lam for lam, _ in rows]),
            np.array([mu for _, mu in rows]))


FAMILIES = pytest.mark.parametrize(
    "dist", [DistributionSpec("normal"), DistributionSpec.uniform(0),
             DistributionSpec.uniform("0.4"), DistributionSpec.uniform(2)],
    ids=["normal", "w0", "w0.4", "w2"])


class TestDrawContract:
    """draw_scenarios draws a whole set from one keyed generator and
    post-processes the draws in chunks; scenario s must still be exactly
    the s-th scenario of the plain oracle."""

    # K = 255, 256 and 257 sit on the post-processing chunk edge
    SIZES = (1, 255, 256, 257, 2000)

    @pytest.mark.parametrize("fixture", ["ex1", "ex2", "table7"])
    @FAMILIES
    def test_draws_equal_the_per_scenario_loop(self, request, fixture, dist):
        base = request.getfixturevalue(fixture)
        for k in (1, 2, 3):
            inst = ClinicInstance(base.types, base.costs, base.regular_time, k)
            replication = k - 1
            lam, mu = reference_draws(inst, dist, max(self.SIZES), seed=5 + k,
                                      tag="contract", replication=replication)
            for K in self.SIZES:
                sset = draw_scenarios(inst, dist, K, seed=5 + k,
                                      tag="contract", replication=replication)
                assert sset.lam.dtype == sset.mu.dtype == np.int64
                assert np.array_equal(sset.lam, lam[:K]), (k, K)
                assert np.array_equal(sset.mu, mu[:K]), (k, K)

    @pytest.mark.parametrize("fixture", ["ex2", "table7"])
    @FAMILIES
    def test_scenario_zero_is_the_one_path_draw(self, request, fixture, dist):
        # path s once drew from its own default_rng(SeedSequence([seed,
        # tag key, replication, s])); scenario 0 of any set is still that
        # keying's path 0, so one-path sets (K = 1) keep their values
        inst = request.getfixturevalue(fixture)
        path = 0
        for seed, tag, replication in ((0, "scenario", 0), (7, "saa-K1", 3),
                                       (2**40, "compare", 2**33)):
            rng = np.random.default_rng(np.random.SeedSequence(
                [seed, _tag_int(tag), replication, path]))
            lam, mu = scenario_formula(inst, dist)(rng)
            for K in (1, 3):
                sset = draw_scenarios(inst, dist, K, seed, tag, replication)
                assert sset.lam[0].tolist() == lam
                assert sset.mu[0].tolist() == mu

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("replication", [0, 2**33])
    def test_seeding_equals_seed_sequence(self, table7, seed, replication):
        # keys of more than one 32-bit word reach SeedSequence whole
        for tag in ("scenario", "mc", "saa-K15", "compare-shows"):
            sset = draw_scenarios(table7, DistributionSpec("normal"), 3, seed,
                                  tag, replication)
            lam, mu = reference_draws(table7, DistributionSpec("normal"), 3,
                                      seed, tag, replication)
            assert np.array_equal(sset.lam, lam)
            assert np.array_equal(sset.mu, mu)

    @pytest.mark.parametrize("key", [dict(seed=-1), dict(replication=-2)])
    def test_negative_key_rejected(self, ex1, key):
        kwargs = dict(seed=1, replication=0) | key
        with pytest.raises(ValueError, match="non-negative"):
            draw_scenarios(ex1, DistributionSpec("normal"), 3, **kwargs)


class TestUniformDraws:
    @pytest.mark.parametrize("width", ["0", "0.4", "1.7", "2"])
    def test_draws_equal_the_per_patient_clamp(self, table7, width):
        w = Fraction(width)
        sset = draw_scenarios(table7, DistributionSpec.uniform(w), 40, seed=4,
                              tag="ref")
        lam, mu = reference_draws(table7, DistributionSpec.uniform(w), 40,
                                  seed=4, tag="ref")
        assert np.array_equal(sset.lam, lam) and np.array_equal(sset.mu, mu)

    def test_width_above_two_rejected(self):
        DistributionSpec.uniform(2)
        with pytest.raises(ValueError, match="width 3"):
            DistributionSpec.uniform(3)
        with pytest.raises(ValueError, match="width 201/100"):
            DistributionSpec("uniform_width", Fraction("2.01"))


@pytest.mark.parametrize("call, message", [
    (lambda: DistributionSpec("gamma"), "unknown family: gamma"),
    (lambda: DistributionSpec("uniform_width", Fraction(-1, 10)),
     "width must be >= 0"),
    (lambda: t_critical(3, 0.5),
     "supported confidence levels: 0.90, 0.95, 0.99"),
    (lambda: SAAConfig(nu0=1), "nu0 must be >= 2"),
    (lambda: SAAConfig(xi=0), "xi must be in (0, 1)"),
    (lambda: SAAConfig(xi=1), "xi must be in (0, 1)"),
], ids=["family", "width", "confidence", "nu0", "xi-0", "xi-1"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestHalfwidth:
    def test_hand_example(self):
        psi_bar, S2, h = confidence_halfwidth([10, 10, 10, 10, 14])
        assert psi_bar == Fraction(54, 5)
        assert S2 == Fraction(64, 25)     # 2.56, the 1/nu divisor
        assert t_critical(4) == 2.776
        assert round(h, 4) == 2.2208
        # 2.2208 / 10.8 exceeds 0.04 / 1.04: the loop must continue
        assert h / float(psi_bar) > 0.04 / 1.04

    def test_order_invariance(self):
        a = confidence_halfwidth([3, 9, 4, 9, 5])
        b = confidence_halfwidth([9, 5, 3, 9, 4])
        assert a == b

    def test_zero_variance(self):
        psi_bar, S2, h = confidence_halfwidth([7, 7, 7])
        assert (psi_bar, S2, h) == (7, 0, 0.0)


@dataclass(frozen=True)
class FakeSolution:
    idx: int


class TestIncumbentSelection:
    MATRIX = ((10, 12, 8, 11, 9),
              (9, 13, 7, 12, 10),
              (11, 9, 9, 9, 9),
              (8, 8, 12, 10, 8),
              (12, 7, 7, 7, 12))

    def evaluator(self, sol, sset):
        return self.MATRIX[sol.idx][sset]

    def test_identical_solutions_keep_first(self):
        sols = [FakeSolution(0) for _ in range(3)]
        best, running = incumbent_selection(sols, [0, 1, 2], self.evaluator)
        assert best is sols[0]
        assert running == Fraction(10 + 12 + 8, 3)

    def test_two_replications_switch(self):
        sols = [FakeSolution(0), FakeSolution(3)]
        best, running = incumbent_selection(sols, [0, 1], self.evaluator)
        assert best is sols[1]          # (8+8)/2 = 8 < (10+12)/2 = 11
        assert running == 8

    def test_five_replication_hand_trace(self):
        sols = [FakeSolution(i) for i in range(5)]
        best, running = incumbent_selection(sols, [0, 1, 2, 3, 4],
                                            self.evaluator)
        # hand trace: keep A at u=2 (tie), switch to C at u=3, keep at u=4
        # (tie at 9.5), switch to E at u=5 (9 < 9.4)
        assert best is sols[4]
        assert running == 9


class TestSaaProcedure:
    def test_zero_variance_stops_at_nu0(self, ex1):
        cfg = SAAConfig(K=3, nu0=5, nu_max=10, xi=0.04)
        res = saa_procedure(ex1, ex1.costs, cfg, seed=7,
                            inner_solver=lambda i, w, s:
                            solve_saa_replication(i, w, s))
        assert res.replications_used == 5
        assert res.halfwidth == 0.0
        assert res.stopped

    def test_stops_when_relative_halfwidth_small(self, ex1):
        cfg = SAAConfig(K=5, nu0=5, nu_max=10, xi=0.04)
        tpl = algorithm4(ex1)
        inner = fixed_template_inner(tpl, ex1.regular_time)
        res = saa_procedure(ex1, ex1.costs, cfg, seed=11, inner_solver=inner,
                            dist=DistributionSpec.uniform("0.1"))
        psi_bar, S2, h = confidence_halfwidth(res.psi_values)
        assert res.halfwidth == h
        if res.stopped:
            assert h == 0 or h / float(psi_bar) < 0.04 / 1.04

    def test_reproducible(self, ex1):
        cfg = SAAConfig(K=4, nu0=3, nu_max=6, xi=0.04)
        kwargs = dict(config=cfg, seed=13,
                      inner_solver=lambda i, w, s: solve_saa_replication(i, w, s),
                      dist=DistributionSpec.uniform("0.3"))
        a = saa_procedure(ex1, ex1.costs, **kwargs)
        b = saa_procedure(ex1, ex1.costs, **kwargs)
        assert a.psi_values == b.psi_values
        assert a.halfwidth == b.halfwidth
        assert a.incumbent.template == b.incumbent.template
        assert a.incumbent_average == b.incumbent_average

    def test_shrinking_variance_never_adds_replications(self, ex1,
                                                        monkeypatch):
        monkeypatch.setattr(stochastic, "MAX_K_ROUNDS", 1)
        cfg = SAAConfig(K=3, nu0=2, nu_max=8, xi=0.002)
        tpl = algorithm4(ex1)
        inner = fixed_template_inner(tpl, ex1.regular_time)
        noisy = saa_procedure(ex1, ex1.costs, cfg, seed=5, inner_solver=inner,
                              dist=DistributionSpec.uniform("0.5"))
        quiet = saa_procedure(ex1, ex1.costs, cfg, seed=5, inner_solver=inner,
                              dist=DistributionSpec.uniform(0))
        assert quiet.replications_used <= noisy.replications_used


def noisy_instance(rng, max_r=6, blocks=1):
    """random_conformant_instance with sds of 10-60 % of each mean and
    weights in tenths, so normal draws vary and costs have denominators."""
    inst = random_conformant_instance(rng, max_r, blocks)
    pct = lambda x: x * int(rng.integers(10, 61)) // 100
    types = tuple(dataclasses.replace(t, lam_sd=pct(t.lam), mu_sd=pct(t.mu))
                  for t in inst.types)
    tenth = lambda: Fraction(int(rng.integers(1, 21)), 10)
    costs = CostWeights.of(tenth(), tenth(), tenth(), tenth(), tenth())
    return dataclasses.replace(inst, types=types, costs=costs)


DISTS = (DistributionSpec("normal"), DistributionSpec.uniform("0.4"),
         DistributionSpec.uniform(2))


class TestReplicationObjectiveContract:
    """saa_procedure's tournament takes a replication's objective as its
    template's scenario average on its own set."""

    def test_saa_replication_objective_is_its_scenario_average(self):
        rng = np.random.default_rng(83)
        for trial in range(12):
            inst = noisy_instance(rng)
            scen = draw_scenarios(inst, DISTS[trial % 3], 1 + trial % 5,
                                  seed=trial, tag="contract")
            for rule in ("earliest", "quantile_grid"):
                for mode in ("enumerate", "branch_and_bound"):
                    sol = solve_saa_replication(
                        inst, inst.costs, scen,
                        SearchConfig(mode=mode), tau_rule=rule)
                    assert Fraction(sol.objective) == scenario_average_cost(
                        sol.template, scen, inst.costs)

    def test_fixed_template_objective_is_its_scenario_average(self):
        rng = np.random.default_rng(84)
        for trial in range(9):
            inst = noisy_instance(rng, max_r=5, blocks=1 + trial % 3)
            # a regular time inside the day, so overtime counts
            R = int(rng.integers(1, 3)) * inst.blocks * 150
            template = algorithm4(inst)
            inner = fixed_template_inner(template, R)
            scen = draw_scenarios(inst, DISTS[trial % 3], 4, seed=trial,
                                  tag="contract")
            sol = inner(inst, inst.costs, scen)
            assert sol.regular_time == R
            assert Fraction(sol.objective) == scenario_average_cost(
                sol.template, scen, inst.costs, R)


class TestTournamentReuse:
    CONFIG = SAAConfig(K=3, nu0=3, nu_max=4, xi=1e-9, k_step=2)
    ROUNDS = 2   # stochastic.MAX_K_ROUNDS for these runs

    def spied_run(self, monkeypatch, inst, inner):
        """saa_procedure with scenario_average_cost and the inner solver
        spied on: the result, each evaluation's (template, regular time,
        set) and each replication's (template, set)."""
        evaluated, replications = [], []
        average = stochastic.scenario_average_cost

        def spy(template, scenario_set, weights, regular_time=None):
            evaluated.append((template, regular_time, scenario_set))
            return average(template, scenario_set, weights, regular_time)

        def counted(i, w, scenario_set):
            sol = inner(i, w, scenario_set)
            replications.append((sol.template, scenario_set))
            return sol

        monkeypatch.setattr(stochastic, "scenario_average_cost", spy)
        monkeypatch.setattr(stochastic, "MAX_K_ROUNDS", self.ROUNDS)
        result = saa_procedure(inst, inst.costs, self.CONFIG, seed=21,
                               inner_solver=counted,
                               dist=DistributionSpec.uniform("0.5"))
        return result, evaluated, replications

    def raw_run(self, monkeypatch, inst, inner):
        """saa_procedure whose tournament evaluates every pair it asks for."""
        select = stochastic.incumbent_selection

        def raw(sols, sets, evaluator):
            return select(sols, sets, lambda sol, sset: scenario_average_cost(
                sol.template, sset, inst.costs,
                getattr(sol, "regular_time", None)))

        monkeypatch.setattr(stochastic, "incumbent_selection", raw)
        monkeypatch.setattr(stochastic, "MAX_K_ROUNDS", self.ROUNDS)
        result = saa_procedure(inst, inst.costs, self.CONFIG, seed=21,
                               inner_solver=inner,
                               dist=DistributionSpec.uniform("0.5"))
        monkeypatch.undo()
        return result

    def assert_same_result(self, a, b):
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), f.name

    def test_alg4_tournament_evaluates_nothing(self, monkeypatch, ex1):
        inner = fixed_template_inner(algorithm4(ex1), ex1.regular_time)
        raw = self.raw_run(monkeypatch, ex1, inner)
        result, evaluated, replications = self.spied_run(monkeypatch, ex1,
                                                         inner)
        assert len(replications) == 8   # two K rounds at nu_max
        assert len(evaluated) == len(replications)   # the inner's own
        self.assert_same_result(result, raw)

    def test_exact_tournament_evaluates_each_pair_once(self, monkeypatch,
                                                       ex1):
        inner = lambda i, w, s: solve_saa_replication(i, w, s)
        raw = self.raw_run(monkeypatch, ex1, inner)
        result, evaluated, replications = self.spied_run(monkeypatch, ex1,
                                                         inner)
        assert len(replications) == 8
        keys = [(t, rt, id(sset)) for t, rt, sset in evaluated]
        assert len(set(keys)) == len(keys)
        own = {(t, None, id(sset)) for t, sset in replications}
        assert own.isdisjoint(keys)
        # steps u = 1..3 evaluate the incumbent on set u and the new
        # template on sets 0..u-1: at most 2 + 3 + 4 per round
        assert 0 < len(evaluated) <= 2 * 9
        self.assert_same_result(result, raw)


class TestMonteCarlo:
    def test_single_path_zero_sd_equals_deterministic(self, ex1):
        tpl = algorithm3(ex1)
        stats = evaluate_template_mc(tpl, ex1, DistributionSpec("normal"),
                                     N=1, seed=3)
        ev = evaluate(tpl, regular_time=ex1.regular_time)
        assert stats.mean["wait_p"] == Fraction(ev.wait_p, 10)
        assert stats.mean["idle_a"] == Fraction(ev.idle_a, 10)
        assert stats.mean["overtime_a"] == Fraction(ev.overtime_a, 10)

    def test_table7_directional_means(self, table7):
        scen = draw_scenarios(table7, DistributionSpec("normal"), 300, seed=7,
                              tag="dir")
        t3, t4 = algorithm3(table7), algorithm4(table7)
        tf = fcfa(table7, np.random.default_rng(7))
        R = table7.regular_time
        paths3 = metric_paths(t3, scen, R)
        paths4 = metric_paths(t4, scen, R)
        pathsf = metric_paths(tf, scen, R)
        wait = lambda paths: Fraction(int(paths[0][:, :2].sum()), paths[1])
        p_idle = lambda paths: Fraction(int(paths[0][:, 3].sum()), paths[1])
        assert wait(paths4) <= wait(paths3)
        assert p_idle(paths4) <= p_idle(pathsf)


def plain_sum(values):
    """Left to right, as sum() adds floats up to Python 3.11."""
    total = 0
    for v in values:
        total = total + v
    return total


def reference_summary(rows, weights):
    """The row-by-row float loop summarize_paths replaced: (mean, se)."""
    n = len(rows)
    mean, se = {}, {}
    for i, name in enumerate(METRICS):
        values = [row[i] for row in rows]
        mean[name] = Fraction(sum(values), n) / 10
        mu = float(mean[name])
        var = (plain_sum((float(v) / 10 - mu) ** 2 for v in values) / (n - 1)
               if n > 1 else 0.0)
        se[name] = math.sqrt(var / n)
    mean["objective"] = weighted_cost(weights, (mean[m] for m in METRICS))
    coeffs = [float(c) for c in metric_coefficients(weights)]
    objs = [plain_sum(c * float(v) / 10 for c, v in zip(coeffs, row))
            for row in rows]
    mu = plain_sum(objs) / n
    var = plain_sum((o - mu) ** 2 for o in objs) / (n - 1) if n > 1 else 0.0
    se["objective"] = math.sqrt(var / n)
    return mean, se


def path_pair(values, scale=1):
    """metric_paths' (rows, scale) pair for integer rows, and the rows of
    values it stands for: ints, or Fractions when the scale is above 1."""
    table = np.array(values, dtype=np.int64).reshape(-1, 6)
    rows = [tuple(Fraction(v, scale) if scale > 1 else v for v in row)
            for row in table.tolist()]
    return (table, scale), rows


class TestSummary:
    @pytest.mark.parametrize("trial", range(40))
    def test_equals_the_row_by_row_loop(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.choice([1, 2, 3, 257, 2000]))
        high = int(rng.choice([10, 1000, 10**7]))
        values = rng.integers(0, high, (n, 6)) * (rng.random((n, 6)) < 0.8)
        # scaled Fraction rows, as robust templates give
        paths, rows = path_pair(values, 7 if trial % 4 == 0 else 1)
        weights = CostWeights.of(Fraction(int(rng.integers(1, 11)), 10),
                                 Fraction(int(rng.integers(0, 30)), 10),
                                 o_a=Fraction(int(rng.choice([12, 15, 18])),
                                              10))
        stats = summarize_paths(paths, weights)
        mean, se = reference_summary(rows, weights)
        assert stats.mean == mean
        assert stats.se == se
        assert all(type(v) is float for v in stats.se.values())

    def test_squares_round_as_python_pow(self):
        # pow(d, 2) and d * d round apart on a deviation of this column, and
        # the difference reaches the summed squares
        paths, rows = path_pair([(v, 0, 0, v, 0, 0)
                                 for v in (21233, 56435, 21020)])
        weights = CostWeights.of(1)
        assert summarize_paths(paths, weights).se == \
            reference_summary(rows, weights)[1]

    @pytest.mark.parametrize("den", [3, 2 ** 60 + 1])
    def test_path_array_with_a_scale_equals_its_tuples(self, table7, den):
        # Fraction appointment times give metric_paths a scale above 1; the
        # larger one is past a float's exact integers
        from blocksched.timeline import AppointmentTemplate
        base = algorithm4(table7)
        taus = tuple(Fraction(4 * int(t) + (t > 0), den) for t in base.taus)
        tpl = AppointmentTemplate(base.slots, taus, base.block_bounds)
        scen = draw_scenarios(table7, DistributionSpec.uniform("0.4"), 300,
                              seed=2, tag="scale")
        paths = metric_paths(tpl, scen, table7.regular_time)
        table, scale = paths
        assert scale == den and table.shape == (300, 6)
        rows = [tuple(Fraction(v, scale) for v in row)
                for row in table.tolist()]
        weights = CostWeights.of("0.3", "1.1", o_a="1.5")
        stats = summarize_paths(paths, weights)
        assert (stats.mean, stats.se) == reference_summary(rows, weights)

    def test_column_floats_round_as_fractions(self):
        rng = np.random.default_rng(5)
        values = [int(v) for v in rng.integers(0, 2 ** 62, 300)] + [2 ** 70 + 1]
        for scale in (1, 3, 10, 2 ** 53 + 1, 3 ** 40):
            column = np.array(values, dtype=object)
            assert _column_floats(column, scale).tolist() == \
                [float(Fraction(v, scale)) for v in values]
            small = np.array([v >> 10 for v in values[:-1]], dtype=np.int64)
            assert _column_floats(small, scale).tolist() == \
                [float(Fraction(int(v), scale)) for v in small]

    def test_totals_beyond_int64_stay_exact(self):
        paths, _ = path_pair([(2**61, 0, 1, 0, 0, 0)] * 8)
        stats = summarize_paths(paths, CostWeights.of(1))
        assert stats.mean["wait_a"] == Fraction(2**61, 10)
        assert stats.se["wait_a"] == 0.0


class TestNoshowFallback:
    def test_bernoulli_show_fallback_near_exact_enumeration(self):
        from blocksched import algorithm2, expand_block
        from blocksched.noshow import (NoShowProbs, build_overbook_plan,
                                       enumerate_expected_metrics)
        from blocksched.units import tenths
        inst = mk_instance([("Q", 6, 0, 2), ("A", 10, 14, 2)],
                           regular_time=30)
        probs = NoShowProbs.of("0.2", "0.3")
        plan = build_overbook_plan(algorithm2(expand_block(inst)), "ff", probs)
        exact = enumerate_expected_metrics(plan, probs, tenths(30))
        stats = evaluate_template_mc(
            plan.template(), inst, DistributionSpec("normal"), N=4000, seed=6,
            regular_time=tenths(30), noshow_probs=probs)
        total_wait = stats.mean["wait_a"] + stats.mean["wait_p"]
        assert abs(float(total_wait) - float(exact.wait)) <= \
            4 * (stats.se["wait_a"] + stats.se["wait_p"]) + 1e-9
        assert abs(float(stats.mean["overtime_a"]) - float(exact.overtime_a)) \
            <= 4 * stats.se["overtime_a"] + 1e-9


    def test_show_masks_equal_row_by_row_draws(self, table7, monkeypatch):
        from blocksched import stochastic
        from blocksched.noshow import NoShowProbs, build_overbook_plan
        probs = NoShowProbs.of("0.2", "0.3")
        tpl = build_overbook_plan(algorithm4(table7), "lf", probs).template()
        seen = []
        real_metric_paths = stochastic.metric_paths

        def spy(template, scenario_set, regular_time, shows_per_path=None):
            seen.append(shows_per_path)
            return real_metric_paths(template, scenario_set, regular_time,
                                     shows_per_path)

        monkeypatch.setattr(stochastic, "metric_paths", spy)
        evaluate_template_mc(tpl, table7, DistributionSpec("normal"), 300,
                             seed=12, tag="masks", noshow_probs=probs)
        rng = np.random.default_rng(
            np.random.SeedSequence([12, _tag_int("masks-shows")]))
        rows = []
        for _ in range(300):
            u = rng.random(len(tpl.slots))
            rows.append(tuple(bool(u[t] >= float(probs.for_patient(p)))
                              for t, p in enumerate(tpl.slots)))
        assert [tuple(row) for row in seen[0].tolist()] == rows


class TestKGrowth:
    def test_unconverged_run_grows_k_and_flags(self, ex1, monkeypatch):
        monkeypatch.setattr(stochastic, "MAX_K_ROUNDS", 2)
        cfg = SAAConfig(K=3, nu0=2, nu_max=3, xi=0.0005, k_step=5)
        tpl = algorithm4(ex1)
        inner = fixed_template_inner(tpl, ex1.regular_time)
        res = saa_procedure(ex1, ex1.costs, cfg, seed=17, inner_solver=inner,
                            dist=DistributionSpec.uniform("0.5"))
        assert not res.stopped
        assert res.K == 3 + 5  # one growth round applied
        assert res.replications_used == 3


@pytest.mark.parametrize("fields, message", [
    ({"k_step": 0}, "k_step must be >= 1, not 0"),
    ({"k_step": -5}, "k_step must be >= 1, not -5"),
    ({"nu0": 5, "nu_max": 1}, "nu_max 1 is below nu0 5"),
    ({"nu0": 3, "nu_max": 2}, "nu_max 2 is below nu0 3"),
])
def test_saa_config_rejects_rounds_that_cannot_work(fields, message):
    # k_step 0 would draw the same keyed scenarios every round, a negative
    # one would shrink K below one, and nu_max < nu0 would be ignored
    with pytest.raises(ValueError, match=message):
        SAAConfig(**fields)
    SAAConfig(nu0=2, nu_max=2, k_step=1)


def test_saa_config_rejects_confidence_without_t_table():
    for conf in (0.9, 0.95, 0.99):
        SAAConfig(confidence=conf)
    with pytest.raises(ValueError, match="confidence 0.975"):
        SAAConfig(confidence=0.975)
