"""Overbooking plans and exact expected-cost evaluation under no-shows.

Plans duplicate slots of a base template: the level-front-load strategy
(LF) puts one duplicate on each of the earliest Q+/Q slots of the first
block, the fully-front-load strategy (FF) stacks all duplicates on the
single earliest slot per group.  Duplicates share the host slot's
appointment time and type and are served in listed order.

Expected metrics are exact: show patterns carry rational probabilities and
are merged slot by slot on the resources' free times, since wait, idle and
overtime add up along a pattern.  Every scheduled patient, duplicates
included, is one slot, and a state's show child is the timeline's own slot
step (`timeline._slot`), so paths and merged show states run one
recurrence.  Before the merge, a started resource's free time is raised to
the least time its next patient can reach it, and the rise is booked as
idle or overtime by the chance that someone later shows; so states merge
on what can still matter, and the table7 horizon stays small at k=40.  The
children's (assistant free, physician free, started flags) keys are packed
into one integer and sorted, and ``np.add.reduceat`` sums the weights of
each run of equal keys.  A no-show consumes zero time at both stages with
zero wait while later patients stay gated by their own appointment times.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from .instance import CostWeights, Patient
from .timeline import AppointmentTemplate, _overtime, _slot, weighted_cost
from .units import Scalar, round_half_away

STATE_BUDGET = 50_000  # live merged states after any slot

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NoShowProbs:
    p_plus: Fraction   # Q+ group no-show probability
    p: Fraction        # Q group no-show probability

    def __post_init__(self):
        if not (0 <= self.p_plus <= 1 and 0 <= self.p <= 1):
            raise ValueError("no-show probabilities must be in [0, 1]")

    @classmethod
    def of(cls, p_plus, p) -> "NoShowProbs":
        conv = lambda x: Fraction(str(x)) if isinstance(x, float) else Fraction(x)
        return cls(conv(p_plus), conv(p))

    def for_patient(self, patient: Patient) -> Fraction:
        return self.p_plus if patient.qplus else self.p


@dataclass(frozen=True)
class OverbookPlan:
    base: AppointmentTemplate
    duplicates: tuple[tuple[int, int], ...]   # (base slot index, extra copies)
    strategy: str                             # "none" | "LF" | "FF"
    e_plus: int
    e: int

    @property
    def n_scheduled(self) -> int:
        return len(self.base.slots) + sum(c for _, c in self.duplicates)

    def template(self) -> AppointmentTemplate:
        """Base template with duplicates inserted after their hosts, sharing
        the host appointment time.  Each block bound lands where its base
        slot does, so an empty block stays empty."""
        extra = dict(self.duplicates)
        slots: list[Patient] = []
        taus: list[Scalar] = []
        landed = []                 # where each base slot lands
        next_uid = max((p.uid for p in self.base.slots), default=-1) + 1
        for t, host in enumerate(self.base.slots):
            landed.append(len(slots))
            slots.append(host)
            taus.append(self.base.taus[t])
            for _ in range(extra.get(t, 0)):
                dup = Patient(next_uid, host.block, host.type_index,
                              host.replicate, host.name, host.lam, host.mu)
                next_uid += 1
                slots.append(dup)
                taus.append(self.base.taus[t])
        landed.append(len(slots))
        return AppointmentTemplate(tuple(slots), tuple(taus), tuple(
            landed[b] for b in self.base.block_bounds))

    def listing(self) -> str:
        """Compact first-block listing in the HC(2) duplicate notation."""
        extra = dict(self.duplicates)
        parts = []
        for t in range(self.base.block_bounds[0], self.base.block_bounds[1]):
            name = self.base.slots[t].name
            parts.append(f"{name}({extra[t]})" if extra.get(t) else name)
        return " ".join(parts)


def build_overbook_plan(template: AppointmentTemplate, strategy: str,
                        probs: NoShowProbs) -> OverbookPlan:
    """Overbook the first block with round-half-away(prob * group count)
    same-type duplicates at the earliest slots of each group."""
    strategy = strategy.upper() if strategy.lower() != "none" else "none"
    if strategy not in ("none", "LF", "FF"):
        raise ValueError(f"unknown overbooking strategy: {strategy}")
    first = range(template.block_bounds[0], template.block_bounds[1])
    if strategy != "none" and not first:
        log.warning("the first block is empty, so the %s plan overbooks "
                    "nothing", strategy)
    qplus_slots = [t for t in first if template.slots[t].qplus]
    q_slots = [t for t in first if not template.slots[t].qplus]
    e_plus = round_half_away(probs.p_plus * len(qplus_slots))
    e = round_half_away(probs.p * len(q_slots))
    if strategy == "none":
        e_plus = e = 0
    if e_plus == 0 and e == 0:
        return OverbookPlan(template, (), strategy, e_plus, e)
    pairs: list[tuple[int, int]] = []
    # a probability in [0, 1] never asks for more duplicates than slots
    for count, slots in ((e_plus, qplus_slots), (e, q_slots)):
        if count == 0:
            continue
        if strategy == "LF":
            pairs.extend((t, 1) for t in slots[:count])
        else:
            pairs.append((slots[0], count))
    pairs.sort()
    return OverbookPlan(template, tuple(pairs), strategy, e_plus, e)


@dataclass(frozen=True)
class ExpectedMetrics:
    wait: Fraction        # minutes, stage 1 + stage 2
    idle_a: Fraction
    idle_p: Fraction
    overtime_a: Fraction
    overtime_p: Fraction
    path_count: int
    mass: Fraction        # total probability accounted for; exactly 1
    states: int = 0       # merged states the exact pass visited

    def as_tuple(self):
        return (self.wait, self.idle_a, self.idle_p,
                self.overtime_a, self.overtime_p)


def _weight_shift(total: int, x_bound: int, rows: int) -> int | None:
    """The shift that makes every Σ W·x exact as two int64 dots, or None.

    For at most `rows` int64 weights W >= 0 that sum to at most total, and
    integers |x| <= x_bound, split W = (W >> shift)·2^shift + low.  The high
    dot stays below total·x_bound / 2^shift < 2^63, and the low dot below
    rows·2^shift·x_bound; None when the low dot could pass 2^63.
    """
    shift = max(0, (total * x_bound).bit_length() - 63)
    return shift if not shift or rows * x_bound << shift < 2**63 else None


def _halves(W: np.ndarray, shift: int) -> tuple[np.ndarray, ...]:
    """W's (high, low) halves for `_dot`: W alone when shift is 0."""
    return (W >> shift, W & ((1 << shift) - 1)) if shift else (W,)


def _dot(halves, x, shift: int, rows: slice = slice(None)) -> int:
    """Exact Σ W·x over W's rows `rows`, from W's `_halves`."""
    if len(halves) == 1:
        return int(halves[0][rows].dot(x))
    high, low = halves
    return (int(high[rows].dot(x)) << shift) + int(low[rows].dot(x))


def enumerate_expected_metrics(plan: OverbookPlan, probs: NoShowProbs,
                               regular_time: Scalar) -> ExpectedMetrics:
    """Exact expectation over all show/no-show patterns.

    Walks ``plan.template()`` one slot at a time, each duplicate its own
    slot, over states merged on (assistant free, physician free, assistant
    started, physician started); a merged state carries only its integer
    weight.  Each state has two children: itself, when the slot's patient
    does not show, and `timeline._slot`'s step, when they do.  Wait and
    idle add up along a pattern, so their expectations are summed slot by
    slot from the show children's increments; overtime follows from the
    last layer and from the folds.  STATE_BUDGET bounds the live states
    after any slot.

    Before the merge, slack is folded out of the children, which leaves
    every expectation as it was:

    - A started assistant idles until the least later appointment m at
      least, so a free time pa below m rises to m.  The rise is booked as
      idle, weighted by P(some later patient shows), and ot(pa) - ot(m)
      as overtime, weighted by P(no later patient shows), ot being the
      time past regular_time.  m is a suffix minimum, so it holds for any
      order of the appointment times.
    - A started physician idles until max(pa, least later Q+ appointment)
      + least later Q+ stage-1 time at least, so a free time below that
      floor rises to it, booked the same way over the later Q+ slots.
      After the last Q+ slot its overtime is booked and the physician
      cleared.

    Both probabilities are integer numerators over the later slots'
    denominators, so every sum stays exact.

    The children's keys are packed into one integer and sorted, and the
    weights of each run of equal keys are summed with ``np.add.reduceat``,
    which leaves the layer sorted and unique.  Times are scaled by the
    common denominator D of the template's times and regular_time, so they
    stay exact integers.  Weights are int64 when the times are, the
    weights' denominator fits int64 and `_weight_shift` finds a split of W
    that makes every Σ W·x two exact int64 dots; Python integers otherwise.
    """
    tpl = plan.template()
    no_show = [probs.for_patient(slot) for slot in tpl.slots]
    qplus = [slot.qplus for slot in tpl.slots]
    denominator = prod(q.denominator for q in no_show)
    D = lcm(*(Fraction(x).denominator for x in (
        regular_time, *tpl.taus,
        *(v for slot in tpl.slots for v in (slot.lam, slot.mu)))))
    R = int(regular_time * D)
    taus, lams, mus = ([int(x * D) for x in xs] for xs in (
        tpl.taus, [slot.lam for slot in tpl.slots],
        [slot.mu for slot in tpl.slots]))
    # free times lie in [0, day]; per state, a slot's wait (both stages),
    # each idle, each fold and each overtime stay below 2 * bound, and the
    # weights of a layer, or of its children, sum to at most denominator.
    # So keys < 4(day + 1)^2 and |free time - R| <= day + |R|.
    day = int(D * (max((abs(tau) for tau in tpl.taus), default=0)
                   + sum(slot.lam + slot.mu for slot in tpl.slots)))
    bound = 2 * day + abs(R) + 1
    time_dtype = np.int64 if 4 * (day + 1)**2 + abs(R) < 2**63 else object
    shift = _weight_shift(denominator, 2 * bound, 2 * STATE_BUDGET)
    if time_dtype is object or denominator >= 2**63 or shift is None:
        weight_dtype, shift = object, 0
    else:
        weight_dtype = np.int64

    # per slot t, over the slots after it: the weight they add (rest), the
    # numerators over rest of P(no one shows) and P(no Q+ patient shows),
    # the least appointment and the least Q+ (appointment, stage-1 time)
    later = []
    rest = none = none_plus = 1
    tau_min = q_min = None
    for t in reversed(range(len(taus))):
        later.append((rest, none, none_plus, tau_min, q_min))
        q = no_show[t]
        rest *= q.denominator
        none *= q.numerator
        none_plus *= q.numerator if qplus[t] else q.denominator
        tau_min = taus[t] if tau_min is None else min(tau_min, taus[t])
        if qplus[t]:
            q_min = ((taus[t], lams[t]) if q_min is None else
                     (min(q_min[0], taus[t]), min(q_min[1], lams[t])))
    later.reverse()

    # the state's rows: assistant free, physician free, and whether each
    # has started (0 or 1); a key packs a column into one integer
    state = np.zeros((4, 1), time_dtype)
    packing = np.array([4 * (day + 1), 4, 2, 1], time_dtype)
    W = np.ones(1, weight_dtype)
    # Σ weight·(wait, idle, overtime) over every pattern, as numerators over
    # denominator; the last layer adds the rest of the overtime
    wait = idle_a = idle_p = over_a = over_p = 0
    visited = 0
    pa_hi = 0                          # no assistant free time passes it
    for t, (rest, none, none_plus, tau_next, q_next) in enumerate(later):
        q = no_show[t]
        show_num = q.denominator - q.numerator
        n = len(W)
        (pa, pp, _, sp), (d_wait_a, d_wait_p, d_idle_a, d_idle_p), _ = _slot(
            *state, taus[t], lams[t], mus[t], qplus[t])
        # the no-show children are the states themselves and the show
        # children come after them; a zero weight makes none.  Every show
        # child has served someone at stage 1, and at stage 2 after a Q+ slot
        weights = [w for w in (q.numerator, show_num) if w]
        kids = np.empty((4, len(weights) * n), time_dtype)
        if q.numerator:
            kids[:, :n] = state
        if show_num:
            started_p = 1 if qplus[t] else sp
            for row, x in zip(kids[:, -n:], (pa, pp, 1, started_p)):
                row[:] = x
        W = np.multiply.outer(weights, W).ravel()
        halves = _halves(W, shift)
        pa, p, sa, sp = kids

        if show_num:
            shows = slice(-n, None)
            wait += _dot(halves, d_wait_a + d_wait_p, shift, shows) * rest
            # the last fold raised each started assistant to the least
            # appointment from this slot on: it idles here only when a later
            # appointment is earlier than this one
            if tau_next is not None and taus[t] > tau_next:
                idle_a += _dot(halves, d_idle_a, shift, shows) * rest
            if qplus[t]:               # a Q slot adds no stage-2 time
                idle_p += _dot(halves, d_idle_p, shift, shows) * rest
            pa_hi = max(pa_hi, taus[t]) + lams[t]
        if tau_next is not None:
            rise = np.maximum(tau_next - pa, 0) * sa
            idle_a += _dot(halves, rise, shift) * (rest - none)
            if none and tau_next > R:
                over_a += _dot(halves, np.maximum(pa, R)
                               - np.maximum(pa + rise, R), shift) * none
            pa += rise
            pa_hi = max(pa_hi, tau_next)
        if q_next is not None:
            qtau, qlam = q_next
            rise = np.maximum(np.maximum(pa, qtau) + qlam - p, 0) * sp
            idle_p += _dot(halves, rise, shift) * (rest - none_plus)
            if none_plus and max(pa_hi, qtau) + qlam > R:
                over_p += _dot(halves, np.maximum(p, R)
                               - np.maximum(p + rise, R), shift) * none_plus
            p += rise
        elif qplus[t]:                 # the last Q+ slot
            over_p += _dot(halves, _overtime(*kids, R)[1], shift) * rest
            p[:] = sp[:] = 0

        key = packing.dot(kids)
        order = np.argsort(key)
        key = key[order]
        head = np.empty(len(key), bool)    # where each run of keys starts
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        runs = head.nonzero()[0]
        state = kids[:, order[runs]]
        W = np.add.reduceat(W[order], runs)
        if len(W) > STATE_BUDGET:
            raise ValueError(
                f"{len(W)} merged show states after slot {t + 1} exceed the "
                f"{STATE_BUDGET}-state budget; use the Monte-Carlo fallback "
                "(evaluate_template_mc with noshow_probs)")
        visited += len(W)

    halves = _halves(W, shift)
    overtime = [booked + _dot(halves, x, shift) for booked, x in
                zip((over_a, over_p), _overtime(*state, R))]
    to_minutes = lambda v: Fraction(v, denominator * D) / 10
    return ExpectedMetrics(*map(to_minutes, (wait, idle_a, idle_p, *overtime)),
                           2**plan.n_scheduled,
                           Fraction(int(W.sum()), denominator), visited)


def expected_cost_per_patient(metrics: ExpectedMetrics, weights: CostWeights,
                              n_scheduled: int) -> Fraction:
    if n_scheduled <= 0:
        raise ValueError("n_scheduled must be positive")
    # the combined wait stands in for stage 1; stage 2 adds nothing
    total = weighted_cost(weights, (metrics.wait, 0, metrics.idle_a,
                                    metrics.idle_p, metrics.overtime_a,
                                    metrics.overtime_p))
    return total / n_scheduled
