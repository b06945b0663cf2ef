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
recurrence.  The children's (assistant free, physician free, started
flags) keys are packed into one integer and sorted, and
``np.add.reduceat`` sums the weights of each run of equal keys.  A no-show
consumes zero time at both stages with zero wait while later patients stay
gated by their own appointment times.
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
    last layer.  STATE_BUDGET bounds the live states after any slot.

    The children's keys are packed into one integer and sorted, and the
    weights of each run of equal keys are summed with ``np.add.reduceat``,
    which leaves the layer sorted and unique.  Times are scaled by the
    common denominator D of the template's times and regular_time, so they
    stay exact integers.  Weights are int64 when an a-priori bound on every
    weighted sum fits, Python integers otherwise.
    """
    tpl = plan.template()
    no_show = [probs.for_patient(slot) for slot in tpl.slots]
    denominator = prod(q.denominator for q in no_show)
    D = lcm(*(Fraction(x).denominator for x in (
        regular_time, *tpl.taus,
        *(v for slot in tpl.slots for v in (slot.lam, slot.mu)))))
    R = int(regular_time * D)
    # free times lie in [0, day]; per state, a slot's wait, each idle and
    # each overtime stay below bound, and the weights of a layer sum to at
    # most denominator.  So keys < 4(day + 1)^2, |free time - R| <= day +
    # |R| and every weighted sum < denominator * bound.
    day = int(D * (max((abs(tau) for tau in tpl.taus), default=0)
                   + sum(slot.lam + slot.mu for slot in tpl.slots)))
    bound = 2 * day + abs(R) + 1
    time_dtype = np.int64 if 4 * (day + 1)**2 + abs(R) < 2**63 else object
    weight_dtype = (np.int64 if time_dtype is np.int64
                    and denominator * bound < 2**63 else object)
    state = (*np.zeros((2, 1), time_dtype), *np.zeros((2, 1), bool))
    W = np.ones(1, weight_dtype)
    # Σ weight·(wait, assistant idle, physician idle) over every pattern
    wait = idle_a = idle_p = 0
    rest = denominator   # the weight the slots after this one add
    visited = 0
    for t, slot in enumerate(tpl.slots):
        q = no_show[t]
        show_num = q.denominator - q.numerator
        rest //= q.denominator
        (pa, pp, _, sp), (d_wait_a, d_wait_p, d_idle_a, d_idle_p), _ = _slot(
            *state, *(int(x * D) for x in (tpl.taus[t], slot.lam, slot.mu)),
            slot.qplus)
        # every show child has served someone at stage 1, and at stage 2
        # after a Q+ slot
        started = np.full(len(W), True)
        show_state = (pa, pp, started, started if slot.qplus else sp)
        # the show children's Σ weight·increment, as show_num·Σ W·increment:
        # no weight array is made for them before the merge
        wait += int(W.dot(d_wait_a + d_wait_p)) * show_num * rest
        idle_a += int(W.dot(d_idle_a)) * show_num * rest
        if slot.qplus:                 # a Q slot adds no stage-2 time
            idle_p += int(W.dot(d_idle_p)) * show_num * rest

        # the no-show child is the state itself; a zero weight makes none
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
        if len(W) > STATE_BUDGET:
            raise ValueError(
                f"{len(W)} merged show states after slot {t + 1} exceed the "
                f"{STATE_BUDGET}-state budget; use the Monte-Carlo fallback "
                "(evaluate_template_mc with noshow_probs)")
        visited += len(W)

    overtime = [int(W.dot(x)) for x in _overtime(*state, R)]
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
