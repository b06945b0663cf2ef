"""Scenario generation, Monte-Carlo template evaluation, and the SAA loop.

Draws are a pure function of (seed, purpose tag, replication, scenario,
patient, stage): each scenario owns a keyed generator and consumes draws in
canonical patient order, so reordering evaluation or sharing sample paths
across methods cannot change them.  Draws are quantized to the 0.1-minute
grid (uniform draws stay inside their interval), which keeps every
downstream evaluation exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heuristics import MAX_WIDTH
from .instance import ClinicInstance, CostWeights, expand_horizon
from .timeline import (METRICS, AppointmentTemplate, ServiceRealization,
                       evaluate_paths, metric_coefficients, weighted_cost)
from .units import Scalar


@dataclass(frozen=True)
class DistributionSpec:
    """normal: per-type (mean, sd), negatives clamped to 0.
    uniform_width: mean scaled uniformly over [(1-w/2), (1+w/2)]."""
    family: str = "normal"
    width: Fraction = Fraction(0)

    def __post_init__(self):
        if self.family not in ("normal", "uniform_width"):
            raise ValueError(f"unknown family: {self.family}")
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if self.width > MAX_WIDTH:
            raise ValueError(f"uniform width {self.width} is above "
                             f"{MAX_WIDTH}: service times would go negative")

    @classmethod
    def uniform(cls, width) -> "DistributionSpec":
        w = Fraction(str(width)) if isinstance(width, float) else Fraction(width)
        return cls("uniform_width", w)


def _tag_int(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class ScenarioSet:
    """K equally weighted sample paths over the instance's canonical horizon
    patients; lam/mu are (K x n) integer arrays in tenths."""
    K: int
    lam: np.ndarray
    mu: np.ndarray
    seed: int
    tag: str
    replication: int

    def draws(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        return self.lam[s], self.mu[s]

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.K)


def _uniform_bounds(mean: int, width: Fraction) -> tuple[int, int]:
    lo = (1 - width / 2) * mean
    hi = (1 + width / 2) * mean
    lo_i = math.ceil(lo)
    hi_i = math.floor(hi)
    if lo_i > hi_i:  # interval narrower than the grid: pin to the mean
        lo_i = hi_i = int(round(mean))
    return lo_i, hi_i


def _uniform_bound_arrays(means: np.ndarray, width: Fraction):
    """Per-patient (lo, hi) clamp vectors of the uniform family."""
    bounds = [_uniform_bounds(int(m), width) for m in means]
    return np.array(bounds, dtype=np.int64).reshape(-1, 2).T


def draw_scenarios(inst: ClinicInstance, dist: DistributionSpec, K: int,
                   seed: int, tag: str = "scenario",
                   replication: int = 0) -> ScenarioSet:
    """K independent realizations, one (stage-1, stage-2) draw per expanded
    patient, reproducible from (seed, tag, replication, scenario)."""
    if K < 1:
        raise ValueError(f"K = {K} scenarios (sample paths): at least one "
                         "is needed")
    patients = [p for block in expand_horizon(inst) for p in block]
    n = len(patients)
    means_lam = np.array([int(p.lam) for p in patients], dtype=np.int64)
    means_mu = np.array([int(p.mu) for p in patients], dtype=np.int64)
    sds_lam = np.array([int(inst.types[p.type_index].lam_sd) for p in patients],
                       dtype=np.int64)
    sds_mu = np.array([int(inst.types[p.type_index].mu_sd) for p in patients],
                      dtype=np.int64)
    qplus = np.array([p.qplus for p in patients], dtype=bool)

    if dist.family == "uniform_width":
        w = float(dist.width)
        lam_lo, lam_hi = _uniform_bound_arrays(means_lam, dist.width)
        mu_lo, mu_hi = _uniform_bound_arrays(means_mu, dist.width)

    lam_out = np.empty((K, n), dtype=np.int64)
    mu_out = np.empty((K, n), dtype=np.int64)
    key = _tag_int(tag)
    for s in range(K):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, key, replication, s]))
        if dist.family == "normal":
            z = rng.standard_normal((n, 2))
            lam = np.rint(means_lam + sds_lam * z[:, 0]).astype(np.int64)
            mu = np.rint(means_mu + sds_mu * z[:, 1]).astype(np.int64)
            np.clip(lam, 0, None, out=lam)
            np.clip(mu, 0, None, out=mu)
        else:
            u = rng.random((n, 2))
            lam = np.rint(means_lam * (1 - w / 2 + w * u[:, 0])).astype(np.int64)
            mu = np.rint(means_mu * (1 - w / 2 + w * u[:, 1])).astype(np.int64)
            np.clip(lam, lam_lo, lam_hi, out=lam)
            np.clip(mu, mu_lo, mu_hi, out=mu)
        mu[~qplus] = 0
        lam_out[s] = lam
        mu_out[s] = mu
    return ScenarioSet(K, lam_out, mu_out, seed, tag, replication)


def _slot_times(template: AppointmentTemplate, lam: np.ndarray,
                mu: np.ndarray) -> tuple[list, list]:
    """Slot-aligned stage-1 and stage-2 times from per-patient draws whose
    last axis is the canonical patient id: one path's row, or a K x n block
    read one column per slot.  Overbooked duplicates (ids beyond the
    instance horizon) take their mean times; Q- slots take no stage-2 time."""
    n = lam.shape[-1]
    lams = [lam[..., p.uid] if p.uid < n else p.lam for p in template.slots]
    mus = [(mu[..., p.uid] if p.uid < n else p.mu) if p.qplus else 0
           for p in template.slots]
    return lams, mus


def realization_for_template(scenario_set: ScenarioSet, s: int,
                             template: AppointmentTemplate,
                             shows: tuple[bool, ...] | None = None
                             ) -> ServiceRealization:
    """Path s of the scenario set, slot-aligned via canonical patient ids."""
    lams, mus = _slot_times(template, *scenario_set.draws(s))
    plain = lambda xs: tuple(x.item() if isinstance(x, np.ndarray) else x
                             for x in xs)
    return ServiceRealization(plain(lams), plain(mus), shows)


def _slot_paths(template: AppointmentTemplate, scenario_set: ScenarioSet,
                shows=None, regular_time: Scalar | None = None):
    """evaluate_paths over every path of a scenario set."""
    lams, mus = _slot_times(template, scenario_set.lam, scenario_set.mu)
    if shows is not None:
        shows = np.asarray(shows, dtype=bool)
    return evaluate_paths(template, lams, mus, scenario_set.K, shows,
                          regular_time)


def scenario_average_cost(template: AppointmentTemplate,
                          scenario_set: ScenarioSet, weights: CostWeights,
                          regular_time: Scalar | None = None) -> Fraction:
    rows, scale = _slot_paths(template, scenario_set,
                              regular_time=regular_time)
    tenths_cost = weighted_cost(weights, map(int, rows.sum(axis=0)))
    return Fraction(tenths_cost) / (10 * scale * scenario_set.K)


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation of fixed templates


@dataclass(frozen=True)
class MetricStats:
    n_paths: int
    mean: dict  # metric -> Fraction (minutes); includes "objective"
    se: dict    # metric -> float (minutes)
    per_path: tuple[tuple[Scalar, ...], ...]  # rows of METRICS values (tenths)


def metric_paths(template: AppointmentTemplate, scenario_set: ScenarioSet,
                 regular_time: Scalar | None,
                 shows_per_path=None) -> list[tuple[Scalar, ...]]:
    """One row of METRICS (tenths) per path; shows_per_path is a K x slots
    boolean mask, or None when everyone shows."""
    rows, scale = _slot_paths(template, scenario_set, shows_per_path,
                              regular_time)
    if scale == 1:
        return [tuple(row) for row in rows.tolist()]
    return [tuple(Fraction(v, scale) for v in row) for row in rows.tolist()]


def summarize_paths(rows, weights: CostWeights) -> MetricStats:
    n = len(rows)
    mean = {}
    se = {}
    for i, name in enumerate(METRICS):
        values = [row[i] for row in rows]
        total = sum(values)
        mean[name] = Fraction(total, n) / 10
        mu = float(mean[name])
        var = sum((float(v) / 10 - mu) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
        se[name] = math.sqrt(var / n)
    mean["objective"] = weighted_cost(weights, (mean[m] for m in METRICS))
    coeffs = [float(c) for c in metric_coefficients(weights)]
    objs = [sum(c * float(v) / 10 for c, v in zip(coeffs, row)) for row in rows]
    mu = sum(objs) / n
    var = sum((o - mu) ** 2 for o in objs) / (n - 1) if n > 1 else 0.0
    se["objective"] = math.sqrt(var / n)
    return MetricStats(n, mean, se, tuple(tuple(r) for r in rows))


def evaluate_template_mc(template: AppointmentTemplate, inst: ClinicInstance,
                         dist: DistributionSpec, N: int, seed: int,
                         weights: CostWeights | None = None,
                         regular_time: Scalar | None = None,
                         tag: str = "mc",
                         scenario_set: ScenarioSet | None = None,
                         noshow_probs=None) -> MetricStats:
    """Per-metric mean and standard error over N paths.  Pass the same
    scenario_set to several methods for common-random-number comparisons."""
    weights = weights or inst.costs
    if regular_time is None:
        regular_time = inst.regular_time
    if scenario_set is None:
        scenario_set = draw_scenarios(inst, dist, N, seed, tag)
    shows_per_path = None
    if noshow_probs is not None:
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, _tag_int(tag + "-shows")]))
        thresholds = np.array([float(noshow_probs.for_patient(p))
                               for p in template.slots])
        u = rng.random((scenario_set.K, len(template.slots)))
        shows_per_path = u >= thresholds
    rows = metric_paths(template, scenario_set, regular_time, shows_per_path)
    return summarize_paths(rows, weights)


# ---------------------------------------------------------------------------
# SAA solution procedure

# Two-sided Student t critical values, df 1..30.
_T_TABLE = {
    0.90: (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
           1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
           1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
           1.701, 1.699, 1.697),
    0.95: (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
           2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
           2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
           2.048, 2.045, 2.042),
    0.99: (63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
           3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
           2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
           2.763, 2.756, 2.750),
}


def t_critical(df: int, confidence: float = 0.95) -> float:
    if confidence not in _T_TABLE:
        raise ValueError("supported confidence levels: 0.90, 0.95, 0.99")
    table = _T_TABLE[confidence]
    return table[min(df, len(table)) - 1]


def confidence_halfwidth(psis, confidence: float = 0.95):
    """Point estimate, sample variance (1/nu divisor, as the procedure
    writes it), and the t half-width with nu-1 under the root."""
    nu = len(psis)
    psi_bar = Fraction(sum(Fraction(x) for x in psis), nu)
    S2 = Fraction(sum((Fraction(x) - psi_bar) ** 2 for x in psis), nu)
    if nu < 2 or S2 == 0:
        return psi_bar, S2, 0.0
    h = t_critical(nu - 1, confidence) * math.sqrt(float(S2) / (nu - 1))
    return psi_bar, S2, h


@dataclass(frozen=True)
class SAAConfig:
    K: int = 15
    nu0: int = 5
    nu_max: int = 10
    xi: float = 0.04
    confidence: float = 0.95
    k_step: int = 5
    max_k_rounds: int = 3

    def __post_init__(self):
        if self.nu0 < 2:
            raise ValueError("nu0 must be >= 2")
        if not 0 < self.xi < 1:
            raise ValueError("xi must be in (0, 1)")
        if self.confidence not in _T_TABLE:
            raise ValueError(f"confidence {self.confidence} has no t table; "
                             "supported levels: 0.90, 0.95, 0.99")


@dataclass(frozen=True)
class SAAResult:
    psi_bar: Fraction
    halfwidth: float
    replications_used: int
    incumbent: object            # exact.Solution or a fixed template's wrapper
    incumbent_average: Fraction
    psi_values: tuple[Fraction, ...]
    sample_variance: Fraction
    K: int
    stopped: bool                # stopping rule satisfied (vs. limits hit)
    converged: bool
    all_inner_optimal: bool      # every replication of this K certified


def incumbent_selection(solutions, scenario_sets, evaluator):
    """Sequential tournament: at step u, evaluate the current incumbent and the new
    solution on scenario sets 1..u and keep the smaller u-replication
    average.  Returns (incumbent, its running average)."""
    cache: dict[tuple[int, int], Fraction] = {}

    def psi(idx: int, v: int) -> Fraction:
        if (idx, v) not in cache:
            cache[(idx, v)] = Fraction(evaluator(solutions[idx],
                                                 scenario_sets[v]))
        return cache[(idx, v)]

    best = 0
    running = psi(0, 0)
    for u in range(1, len(solutions)):
        avg_inc = Fraction(sum(psi(best, v) for v in range(u + 1)), u + 1)
        avg_new = Fraction(sum(psi(u, v) for v in range(u + 1)), u + 1)
        if avg_new < avg_inc:
            best = u
            running = avg_new
        else:
            running = avg_inc
    return solutions[best], running


@dataclass(frozen=True)
class FixedTemplateSolution:
    """Replication 'solution' when the inner solver is a fixed heuristic
    template: a bound on, not the value of, the replication optimum."""
    template: AppointmentTemplate
    objective: Fraction
    regular_time: Scalar | None


def fixed_template_inner(template: AppointmentTemplate,
                         regular_time: Scalar | None):
    def inner(inst, weights, scenario_set):
        obj = scenario_average_cost(template, scenario_set, weights,
                                    regular_time)
        return FixedTemplateSolution(template, obj, regular_time)
    return inner


def saa_procedure(inst: ClinicInstance, weights: CostWeights,
                  config: SAAConfig, seed: int, inner_solver,
                  dist: DistributionSpec | None = None) -> SAAResult:
    """Replicate the scenario-sample model, growing replications then the
    sample size until the t half-width is below psi_bar * xi/(1+xi).

    inner_solver(inst, weights, scenario_set) must return an object with
    .objective (the replication optimum) and an evaluate(scenario_set)
    counterpart is derived from its .template via scenario_average_cost.
    A replication counts as certified only when its .optimal is true, so
    fixed-template replications never do.
    """
    dist = dist or DistributionSpec("normal")
    K = config.K
    threshold = config.xi / (1 + config.xi)
    last_state = None
    for _ in range(config.max_k_rounds):
        tag = f"saa-K{K}"
        sets = []
        sols = []
        psis = []

        def add_replication(u: int):
            sset = draw_scenarios(inst, dist, K, seed, tag, replication=u)
            sol = inner_solver(inst, weights, sset)
            sets.append(sset)
            sols.append(sol)
            psis.append(Fraction(sol.objective))

        for u in range(config.nu0):
            add_replication(u)
        nu = config.nu0
        while True:
            psi_bar, S2, h = confidence_halfwidth(psis, config.confidence)
            stopped = h == 0 or (psi_bar > 0 and h / float(psi_bar) < threshold)
            if stopped or nu >= config.nu_max:
                break
            add_replication(nu)
            nu += 1
        incumbent, running = incumbent_selection(
            sols, sets,
            lambda sol, sset: scenario_average_cost(
                sol.template, sset, weights,
                regular_time=getattr(sol, "regular_time", None)))
        last_state = SAAResult(
            psi_bar, h, nu, incumbent, running, tuple(psis), S2, K, stopped,
            converged=stopped,
            all_inner_optimal=all(getattr(sol, "optimal", False)
                                  for sol in sols))
        if stopped:
            return last_state
        K += config.k_step
    return last_state
