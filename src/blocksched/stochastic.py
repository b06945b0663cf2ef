"""Scenario generation, Monte-Carlo template evaluation, and the SAA loop.

Draws are a pure function of (seed, purpose tag, replication): each scenario
set draws from one keyed generator, scenario by scenario in canonical
patient order, so reordering evaluation or sharing sample paths across
methods cannot change them, and the first K' scenarios of a K-set are the
K'-set.  Draws are quantized to the 0.1-minute grid (uniform draws stay
inside their interval), which keeps every downstream evaluation exact.

A set draws from default_rng(SeedSequence([seed, tag key, replication, 0])),
the tag key being the first 8 bytes of the tag's SHA-256; scenario s takes
the s-th n x 2 block of that stream.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heuristics import MAX_WIDTH
from .instance import ClinicInstance, CostWeights, expand_horizon
from .timeline import (METRICS, AppointmentTemplate, evaluate_paths,
                       metric_coefficients, weighted_cost)
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


def keyed_rng(seed: int, tag: str, *keys: int) -> np.random.Generator:
    """default_rng(SeedSequence([seed, tag key, *keys])), the tag key being
    the first 8 bytes of the tag's SHA-256; the seed and the keys must be
    non-negative integers."""
    for key in (seed, *keys):
        if key < 0:
            raise ValueError(f"seeds must be non-negative integers, got {key}")
    return np.random.default_rng(
        np.random.SeedSequence([seed, _tag_int(tag), *keys]))


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


def _uniform_bounds(mean: int, width: Fraction) -> tuple[int, int]:
    lo = (1 - width / 2) * mean
    hi = (1 + width / 2) * mean
    lo_i = math.ceil(lo)
    hi_i = math.floor(hi)
    if lo_i > hi_i:  # interval narrower than the grid: pin to the mean
        lo_i = hi_i = int(round(mean))
    return lo_i, hi_i


def _uniform_bound_arrays(means: np.ndarray, width: Fraction):
    """Per-patient (lo, hi) clamp vectors of the uniform family, the rule
    run once per distinct mean."""
    distinct, inverse = np.unique(means, return_inverse=True)
    bounds = np.array([_uniform_bounds(int(m), width) for m in distinct],
                      dtype=np.int64).reshape(-1, 2)
    return bounds[inverse].T


_CHUNK = 256   # scenarios per post-processing pass (the float buffer's rows)


def draw_scenarios(inst: ClinicInstance, dist: DistributionSpec, K: int,
                   seed: int, tag: str = "scenario",
                   replication: int = 0) -> ScenarioSet:
    """K independent realizations, one (stage-1, stage-2) draw per expanded
    patient, reproducible from (seed, tag, replication).

    The set draws from default_rng(SeedSequence([seed, tag key, replication,
    0])), scenario s taking the s-th n x 2 block of its stream: standard
    normals for the normal family, uniforms on [0, 1) for the uniform one.
    The trailing 0 makes scenario 0 the draw of a generator keyed by the
    scenario alone, so one-scenario sets keep the values that keying gave.
    The draws fill a reused float buffer _CHUNK scenarios at a time, each
    chunk post-processed at once."""
    if K < 1:
        raise ValueError(f"K = {K} scenarios (sample paths): at least one "
                         "is needed")
    rng = keyed_rng(seed, tag, replication, 0)
    patients = [p for block in expand_horizon(inst) for p in block]
    n = len(patients)
    means_lam = np.array([int(p.lam) for p in patients], dtype=np.int64)
    means_mu = np.array([int(p.mu) for p in patients], dtype=np.int64)
    qplus = np.array([p.qplus for p in patients], dtype=bool)

    if dist.family == "uniform_width":
        w = float(dist.width)
        lam_lo, lam_hi = _uniform_bound_arrays(means_lam, dist.width)
        mu_lo, mu_hi = _uniform_bound_arrays(means_mu, dist.width)
        stages = ((means_lam, None, lam_lo, lam_hi),
                  (means_mu, None, mu_lo, mu_hi))
    else:
        sds_lam = np.array([int(inst.types[p.type_index].lam_sd)
                            for p in patients], dtype=np.int64)
        sds_mu = np.array([int(inst.types[p.type_index].mu_sd)
                           for p in patients], dtype=np.int64)
        stages = ((means_lam, sds_lam, 0, None), (means_mu, sds_mu, 0, None))

    fill = rng.standard_normal if dist.family == "normal" else rng.random
    lam_out = np.empty((K, n), dtype=np.int64)
    mu_out = np.empty((K, n), dtype=np.int64)
    buffer = np.empty((min(K, _CHUNK), n, 2))
    for start in range(0, K, _CHUNK):
        stop = min(start + _CHUNK, K)
        block = buffer[:stop - start]
        fill(out=block)
        # in place, in the order of the per-scenario formulas:
        # rint(mean + sd * z), rint(mean * (1 - w / 2 + w * u)), then clip
        for j, out in enumerate((lam_out[start:stop], mu_out[start:stop])):
            mean, sd, lo, hi = stages[j]
            x = block[:, :, j]
            if dist.family == "normal":
                x *= sd
                x += mean
            else:
                x *= w
                x += 1 - w / 2
                x *= mean
            np.rint(x, out=x)
            out[...] = x
            np.clip(out, lo, hi, out=out)
    mu_out[:, ~qplus] = 0
    return ScenarioSet(K, lam_out, mu_out, seed, tag, replication)


def _slot_times(template: AppointmentTemplate,
                scenario_set: ScenarioSet) -> tuple[list, list]:
    """Slot-aligned stage-1 and stage-2 times of every path: one column of
    the K x n draws per slot, read by canonical patient id.  Overbooked
    duplicates (ids beyond the instance horizon) take their mean times; Q-
    slots take no stage-2 time."""
    lam, mu = scenario_set.lam, scenario_set.mu
    n = lam.shape[1]
    lams = [lam[:, p.uid] if p.uid < n else p.lam for p in template.slots]
    mus = [(mu[:, p.uid] if p.uid < n else p.mu) if p.qplus else 0
           for p in template.slots]
    return lams, mus


def scenario_average_cost(template: AppointmentTemplate,
                          scenario_set: ScenarioSet, weights: CostWeights,
                          regular_time: Scalar | None = None) -> Fraction:
    lams, mus = _slot_times(template, scenario_set)
    rows, scale = evaluate_paths(template, lams, mus, scenario_set.K,
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


def metric_paths(template: AppointmentTemplate, scenario_set: ScenarioSet,
                 regular_time: Scalar | None,
                 shows_per_path=None) -> tuple[np.ndarray, int]:
    """evaluate_paths over every path of a scenario set: (rows, scale), rows
    a K x 6 integer array of METRICS and rows / scale their values in
    tenths.  shows_per_path is a K x slots boolean mask, or None when
    everyone shows."""
    lams, mus = _slot_times(template, scenario_set)
    if shows_per_path is not None:
        shows_per_path = np.asarray(shows_per_path, dtype=bool)
    return evaluate_paths(template, lams, mus, scenario_set.K, shows_per_path,
                          regular_time)


def _standard_errors(values: np.ndarray, means: np.ndarray) -> list[float]:
    """sqrt(sample variance / n) of each row of values, the squared
    deviations summed in path order and squared by the C library's pow, as
    a Python float loop takes them."""
    n = values.shape[1]
    if n == 1:
        return [0.0] * len(values)
    squares = np.float_power(values - means[:, None], 2)
    return [math.sqrt(total / (n - 1) / n)
            for total in np.cumsum(squares, axis=1)[:, -1].tolist()]


def _column_floats(table: np.ndarray, scale: int) -> np.ndarray:
    """float(Fraction(v, scale)) for every v of an integer array: one
    division when both are exact in a float, Python's correctly rounded
    integer division otherwise."""
    if scale == 1:
        return table.astype(float)
    if scale <= 2 ** 53 and int(np.abs(table).max()) <= 2 ** 53:
        return table.astype(float) / scale
    return np.array([v / scale for v in table.ravel().tolist()],
                    dtype=float).reshape(table.shape)


def summarize_paths(paths: tuple[np.ndarray, int],
                    weights: CostWeights) -> MetricStats:
    """Exact means from integer column sums; float standard errors equal to
    those of a plain Python loop over the rows.  paths is metric_paths'
    (rows, scale) pair: a K x 6 integer array of METRICS whose values are
    rows / scale tenths."""
    table, scale = paths
    n = len(table)
    if table.dtype != object and n * int(np.abs(table).max()) >= 2 ** 63:
        table = table.astype(object)   # column sums would wrap in int64
    mean = {name: Fraction(total, n * scale) / 10
            for name, total in zip(METRICS, table.sum(axis=0).tolist())}
    mean["objective"] = weighted_cost(weights, (mean[m] for m in METRICS))
    # one row per metric: every path's value in tenths
    floats = _column_floats(np.ascontiguousarray(table.T), scale)
    coefficients = np.array([[float(c)] for c in metric_coefficients(weights)])
    # per path: c * v / 10 added up over the metrics in METRICS order
    objs = sum(coefficients * floats / 10)
    values = np.vstack((floats / 10, objs))
    means = np.array([float(mean[m]) for m in METRICS]
                     + [np.cumsum(objs)[-1] / n])
    se = dict(zip((*METRICS, "objective"), _standard_errors(values, means)))
    return MetricStats(n, mean, se)


def evaluate_template_mc(template: AppointmentTemplate, inst: ClinicInstance,
                         dist: DistributionSpec, N: int, seed: int,
                         weights: CostWeights | None = None,
                         regular_time: Scalar | None = None,
                         tag: str = "mc",
                         noshow_probs=None) -> MetricStats:
    """Per-metric mean and standard error over N paths."""
    weights = weights or inst.costs
    if regular_time is None:
        regular_time = inst.regular_time
    scenario_set = draw_scenarios(inst, dist, N, seed, tag)
    shows_per_path = None
    if noshow_probs is not None:
        rng = keyed_rng(seed, tag + "-shows")
        thresholds = np.array([float(noshow_probs.for_patient(p))
                               for p in template.slots])
        u = rng.random((scenario_set.K, len(template.slots)))
        shows_per_path = u >= thresholds
    return summarize_paths(
        metric_paths(template, scenario_set, regular_time, shows_per_path),
        weights)


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


MAX_K_ROUNDS = 3   # sample sizes K, K + k_step, ... saa_procedure tries


@dataclass(frozen=True)
class SAAConfig:
    K: int = 15
    nu0: int = 5
    nu_max: int = 10
    xi: float = 0.04
    confidence: float = 0.95
    k_step: int = 5

    def __post_init__(self):
        if self.nu0 < 2:
            raise ValueError("nu0 must be >= 2")
        if self.nu_max < self.nu0:
            raise ValueError(f"nu_max {self.nu_max} is below nu0 "
                             f"{self.nu0}")
        if self.k_step < 1:
            raise ValueError(f"k_step must be >= 1, not {self.k_step}")
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
    all_inner_optimal: bool      # every replication of this K certified
    # per replication of this K, the limit that ended its search uncertified,
    # or None (certified, or a fixed template's replication)
    spent_limits: tuple[str | None, ...] = ()


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


def _known_averages(sols, sets, weights: CostWeights):
    """The tournament's evaluator: scenario_average_cost of a solution's
    template on a scenario set, once per (template, regular_time, set).
    Replication u's objective is its template's average on sets[u], so
    those entries are known before any evaluation."""
    def key(sol, sset):
        return sol.template, getattr(sol, "regular_time", None), id(sset)

    known = {key(sol, sset): Fraction(sol.objective)
             for sol, sset in zip(sols, sets)}

    def evaluate(sol, sset) -> Fraction:
        k = key(sol, sset)
        if k not in known:
            known[k] = scenario_average_cost(sol.template, sset, weights,
                                             regular_time=k[1])
        return known[k]
    return evaluate


def saa_procedure(inst: ClinicInstance, weights: CostWeights,
                  config: SAAConfig, seed: int, inner_solver,
                  dist: DistributionSpec | None = None) -> SAAResult:
    """Replicate the scenario-sample model, growing replications then the
    sample size until the t half-width is below psi_bar * xi/(1+xi).

    inner_solver(inst, weights, scenario_set) must return an object with
    .template and .objective (the replication optimum).  .objective must
    equal scenario_average_cost(.template, scenario_set, weights, R), R
    being its .regular_time or None when it has none: the tournament takes
    it as that average, and evaluates every other (template, set) pair once.
    A replication counts as certified only when its .optimal is true, so
    fixed-template replications never do; its .spent_limit, if it has one,
    names the limit that ended its search.
    """
    dist = dist or DistributionSpec("normal")
    K = config.K
    threshold = config.xi / (1 + config.xi)
    last_state = None
    for _ in range(MAX_K_ROUNDS):
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
            sols, sets, _known_averages(sols, sets, weights))
        last_state = SAAResult(
            psi_bar, h, nu, incumbent, running, tuple(psis), S2, K, stopped,
            all_inner_optimal=all(getattr(sol, "optimal", False)
                                  for sol in sols),
            spent_limits=tuple(getattr(sol, "spent_limit", None)
                               for sol in sols))
        if stopped:
            return last_state
        K += config.k_step
    return last_state
