"""Reference computations the benchmark checks the program against.

Nothing here imports blocksched.  The two-stage recurrence, the instance
reader, the show-pattern enumeration and the sequence brute force are
written out again in plain Python, so a wrong answer from the program's
timeline, exact or noshow code cannot also be the reference answer.

Times are integer tenths of a minute, as in the instance files scaled by 10.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

METRICS = ("wait_a", "wait_p", "idle_a", "idle_p", "overtime_a", "overtime_p")


@dataclass(frozen=True)
class Kind:
    """One patient type: means and sds in tenths, ratio per block."""
    name: str
    lam: int
    lam_sd: int
    mu: int
    mu_sd: int
    ratio: int

    @property
    def qplus(self) -> bool:
        return self.mu > 0


@dataclass(frozen=True)
class Clinic:
    kinds: tuple[Kind, ...]
    weights: tuple[Fraction, ...]   # alpha, beta_a, beta_p, o_a, o_p
    regular_time: int
    blocks: int

    def kind(self, name: str) -> Kind:
        return next(k for k in self.kinds if k.name == name)

    def block_names(self) -> list[str]:
        return [k.name for k in self.kinds for _ in range(k.ratio)]

    def horizon_kinds(self, blocks: int | None = None) -> list[Kind]:
        """Patients in canonical id order: block-major, types in file
        order, each repeated ratio times."""
        return [k for _ in range(blocks or self.blocks)
                for k in self.kinds for _ in range(k.ratio)]


def tenths(value) -> int:
    scaled = Fraction(value) * 10
    if scaled.denominator != 1:
        raise ValueError(f"{value} is off the 0.1-minute grid")
    return int(scaled)


def read_clinic(path) -> Clinic:
    with open(path) as fh:
        data = json.load(fh, parse_float=Fraction)
    kinds = tuple(Kind(t["name"], tenths(t["lambda_mean"]),
                       tenths(t.get("lambda_sd", 0)), tenths(t["mu_mean"]),
                       tenths(t.get("mu_sd", 0)), t["ratio"])
                  for t in data["types"])
    weights = tuple(Fraction(data["costs"][k])
                    for k in ("alpha", "beta_a", "beta_p", "o_a", "o_p"))
    return Clinic(kinds, weights, tenths(data["regular_time"]), data["blocks"])


def recurrence(lams, mus, qplus, taus, shows=None, regular_time=None):
    """Earliest-start two-stage timeline of one realization.

    Stage 1 starts at the later of the appointment and the assistant being
    free; stage 2 (Q+ only) at the later of the stage-1 finish and the
    physician being free.  A no-show takes no time.  Idle is the span from
    first start to last finish minus busy time.  Returns the METRICS tuple
    in tenths; overtime is 0 when regular_time is None.
    """
    a_free = p_free = 0
    wait_a = wait_p = 0
    busy_a = busy_p = 0
    first_a = first_p = None
    for j in range(len(taus)):
        if shows is not None and not shows[j]:
            continue
        start = taus[j] if taus[j] > a_free else a_free
        wait_a += start - taus[j]
        if first_a is None:
            first_a = start
        a_free = start + lams[j]
        busy_a += lams[j]
        if qplus[j]:
            begin = a_free if a_free > p_free else p_free
            wait_p += begin - a_free
            if first_p is None:
                first_p = begin
            p_free = begin + mus[j]
            busy_p += mus[j]
    idle_a = a_free - first_a - busy_a if first_a is not None else 0
    idle_p = p_free - first_p - busy_p if first_p is not None else 0
    over_a = over_p = 0
    if regular_time is not None:
        if first_a is not None:
            over_a = max(0, a_free - regular_time)
        if first_p is not None:
            over_p = max(0, p_free - regular_time)
    return wait_a, wait_p, idle_a, idle_p, over_a, over_p


def _weighted(values, weights):
    alpha, beta_a, beta_p, o_a, o_p = weights
    wait_a, wait_p, idle_a, idle_p, over_a, over_p = values
    return (alpha * (wait_a + wait_p) + beta_a * idle_a + beta_p * idle_p
            + o_a * over_a + o_p * over_p)


def cost(metrics, weights) -> Fraction:
    """Weighted cost in minutes of a METRICS tuple in tenths."""
    return _weighted(metrics, weights) / 10


def prefix_taus(lams) -> list[int]:
    taus, t = [], 0
    for lam in lams:
        taus.append(t)
        t += lam
    return taus


def sequence_cost(clinic: Clinic, names, regular_time=None) -> Fraction:
    """Cost of a type-name sequence at mean times with appointments at the
    stage-1 prefix sums (the exact solvers' appointment rule)."""
    kinds = [clinic.kind(n) for n in names]
    lams = [k.lam for k in kinds]
    metrics = recurrence(lams, [k.mu for k in kinds], [k.qplus for k in kinds],
                         prefix_taus(lams), regular_time=regular_time)
    return cost(metrics, clinic.weights)


def brute_force_block(clinic: Clinic) -> Fraction:
    """Minimum block cost over every distinct type sequence with a Q+ type
    first, by plain depth-first enumeration without pruning."""
    kinds = list(clinic.kinds)
    left = [k.ratio for k in kinds]
    size = sum(left)
    alpha, _, beta_p = clinic.weights[:3]
    best = [None]

    def walk(depth, a_free, p_free, started, wait, idle):
        if depth == size:
            value = alpha * wait + beta_p * idle
            if best[0] is None or value < best[0]:
                best[0] = value
            return
        for i, k in enumerate(kinds):
            if not left[i] or (depth == 0 and not k.qplus):
                continue
            left[i] -= 1
            a_next = a_free + k.lam
            if k.qplus:
                begin = max(a_next, p_free)
                walk(depth + 1, a_next, begin + k.mu, True,
                     wait + begin - a_next,
                     idle + (begin - p_free if started else 0))
            else:
                walk(depth + 1, a_next, p_free, started, wait, idle)
            left[i] += 1

    walk(0, 0, 0, False, 0, 0)
    return Fraction(best[0]) / 10


def random_feasible(clinic: Clinic, blocks: int, rng) -> list[str]:
    """A uniformly random sequence of `blocks` blocks with a Q+ type in the
    first slot of the day (rejection sampling on the first block)."""
    names = clinic.block_names()
    while True:
        first = names[:]
        rng.shuffle(first)
        if clinic.kind(first[0]).qplus:
            break
    out = first
    for _ in range(blocks - 1):
        block = names[:]
        rng.shuffle(block)
        out += block
    return out


def path_means(slots, taus, lam_rows, mu_rows, regular_time, shows_rows=None):
    """Exact mean METRICS (minutes, as Fractions) over sample paths.

    slots carry .uid/.lam/.mu/.qplus; a slot whose uid lies beyond the drawn
    patients takes its mean times (overbooked duplicates)."""
    totals = [0] * len(METRICS)
    qplus = [p.qplus for p in slots]
    for s, (lam_row, mu_row) in enumerate(zip(lam_rows, mu_rows)):
        n = len(lam_row)
        lams = [lam_row[p.uid] if p.uid < n else p.lam for p in slots]
        mus = [(mu_row[p.uid] if p.uid < n else p.mu) if p.qplus else 0
               for p in slots]
        shows = shows_rows[s] if shows_rows is not None else None
        for i, v in enumerate(recurrence(lams, mus, qplus, taus, shows,
                                         regular_time)):
            totals[i] += v
    k = len(lam_rows)
    return {m: Fraction(t, 10 * k) for m, t in zip(METRICS, totals)}


def means_cost(means, weights) -> Fraction:
    """Weighted cost of a dict of mean METRICS already in minutes."""
    return _weighted([means[m] for m in METRICS], weights)


NOSHOW = ("wait", "idle_a", "idle_p", "overtime_a", "overtime_p")


def _noshow_metrics(metrics):
    wait_a, wait_p, *rest = metrics
    return (wait_a + wait_p, *rest)


def enumerate_shows(lams, mus, qplus, taus, probs, regular_time):
    """Exact expected NOSHOW metrics (minutes) over all 2^n show patterns;
    probs[j] is slot j's no-show probability.  Returns (means, total
    probability)."""
    n = len(taus)
    totals = [Fraction(0)] * len(NOSHOW)
    mass = Fraction(0)
    for mask in range(1 << n):
        shows = [(mask >> j) & 1 == 1 for j in range(n)]
        weight = Fraction(1)
        for j in range(n):
            weight *= (1 - probs[j]) if shows[j] else probs[j]
        mass += weight
        values = _noshow_metrics(recurrence(lams, mus, qplus, taus, shows,
                                            regular_time))
        for i, v in enumerate(values):
            totals[i] += weight * v
    return {m: t / 10 for m, t in zip(NOSHOW, totals)}, mass


def sample_shows(lams, mus, qplus, taus, probs, regular_time, samples, rng):
    """Sampled show patterns: per NOSHOW metric, the sample mean and its
    standard error, in minutes."""
    fprobs = [float(p) for p in probs]
    sums = [0.0] * len(NOSHOW)
    squares = [0.0] * len(NOSHOW)
    for _ in range(samples):
        shows = [rng.random() >= p for p in fprobs]
        values = _noshow_metrics(recurrence(lams, mus, qplus, taus, shows,
                                            regular_time))
        for i, v in enumerate(values):
            sums[i] += v / 10
            squares[i] += (v / 10) ** 2
    out = {}
    for i, m in enumerate(NOSHOW):
        mean = sums[i] / samples
        var = max(0.0, squares[i] / samples - mean * mean) * samples / (samples - 1)
        out[m] = (mean, math.sqrt(var / samples))
    return out


def same_number(printed: str, exact: Fraction) -> bool:
    """True when a printed number is `exact` written out: the exact decimal
    when it has one, else the nearest double's shortest repr."""
    try:
        if Fraction(printed) == exact:
            return True
    except ValueError:
        return False
    den = exact.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    return den != 1 and printed == repr(float(exact))
