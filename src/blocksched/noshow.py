"""Overbooking plans and exact expected-cost evaluation under no-shows.

Plans duplicate slots of a base template: the level-front-load strategy
(LF) puts one duplicate on each of the earliest Q+/Q slots of the first
block, the fully-front-load strategy (FF) stacks all duplicates on the
single earliest slot per group.  Duplicates share the host slot's
appointment time and type and are served in listed order.

Expected metrics are exact: show patterns carry rational probabilities,
are aggregated per slot by how many of its copies show (copies of one slot
are exchangeable) and are merged on the resources' free times, since wait,
idle and overtime add up along a pattern.  A slot is one numpy step: each
merged state makes a child per show count, the children's (assistant free,
physician free, started flags) keys are packed into one integer and
sorted, and ``np.add.reduceat`` sums the weights of each run of equal
keys.  A no-show consumes zero time at both stages with zero wait while
later patients stay gated by their own appointment times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod

import numpy as np

from .instance import CostWeights, Patient
from .timeline import AppointmentTemplate, weighted_cost
from .units import Scalar, round_half_away

STATE_BUDGET = 50_000  # live merged states after any slot


@dataclass(frozen=True)
class NoShowProbs:
    p_plus: Fraction   # Q+ group no-show probability
    p: Fraction        # Q group no-show probability

    @classmethod
    def of(cls, p_plus, p) -> "NoShowProbs":
        conv = lambda x: Fraction(str(x)) if isinstance(x, float) else Fraction(x)
        probs = cls(conv(p_plus), conv(p))
        if not (0 <= probs.p_plus <= 1 and 0 <= probs.p <= 1):
            raise ValueError("no-show probabilities must be in [0, 1]")
        return probs

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

    def copies(self, slot_index: int) -> int:
        return 1 + dict(self.duplicates).get(slot_index, 0)

    def template(self) -> AppointmentTemplate:
        """Base template with duplicates inserted after their hosts, sharing
        the host appointment time."""
        extra = dict(self.duplicates)
        slots: list[Patient] = []
        taus: list[Scalar] = []
        bounds = [0]
        next_uid = max((p.uid for p in self.base.slots), default=-1) + 1
        boundary = 1
        for t, host in enumerate(self.base.slots):
            slots.append(host)
            taus.append(self.base.taus[t])
            for _ in range(extra.get(t, 0)):
                dup = Patient(next_uid, host.block, host.type_index,
                              host.replicate, host.name, host.lam, host.mu)
                next_uid += 1
                slots.append(dup)
                taus.append(self.base.taus[t])
            if t + 1 == self.base.block_bounds[boundary]:
                bounds.append(len(slots))
                boundary += 1
        return AppointmentTemplate(tuple(slots), tuple(taus), tuple(bounds))

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
    qplus_slots = [t for t in first if template.slots[t].qplus]
    q_slots = [t for t in first if not template.slots[t].qplus]
    e_plus = round_half_away(probs.p_plus * len(qplus_slots))
    e = round_half_away(probs.p * len(q_slots))
    if strategy == "none" or (e_plus == 0 and e == 0):
        dups: tuple[tuple[int, int], ...] = ()
        if strategy == "none":
            e_plus = e = 0
        return OverbookPlan(template, dups, "none" if strategy == "none" else strategy,
                            e_plus, e)
    pairs: list[tuple[int, int]] = []
    for count, slots, label in ((e_plus, qplus_slots, "Q+"), (e, q_slots, "Q")):
        if count == 0:
            continue
        if not slots or (strategy == "LF" and count > len(slots)):
            raise ValueError(f"{strategy} capacity exceeded for {label} group")
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
                               regular_time: Scalar,
                               cap: int = STATE_BUDGET) -> ExpectedMetrics:
    """Exact expectation over all show/no-show patterns.

    Patterns are grouped per slot by the number of its copies that show
    (binomial weights) and merged slot by slot on (assistant free,
    physician free, assistant started, physician started); a merged state
    carries only its integer weight.  Wait and each resource's first start
    plus busy time add up along a pattern, so their expectations are summed
    slot by slot over the states entering the slot; idle and overtime then
    follow from the last layer's free times.  ``cap`` bounds the live
    states after any slot.

    A slot is one step over numpy arrays.  Each state makes one child per
    show count that can happen; the children's keys are packed into one
    integer and sorted, and the weights of each run of equal keys are
    summed with ``np.add.reduceat``, which leaves the layer sorted and
    unique.  Times are scaled by the common denominator D of the template's
    times and regular_time, so they stay exact integers.  Weights are int64
    when an a-priori bound on every weighted sum fits, Python integers
    otherwise.
    """
    base = plan.base
    copies = [plan.copies(t) for t in range(len(base.slots))]
    no_show = [probs.for_patient(host) for host in base.slots]
    dens = [q.denominator**c for q, c in zip(no_show, copies)]
    denominator = prod(dens)
    D = lcm(*(Fraction(x).denominator for x in (
        regular_time, *base.taus,
        *(v for host in base.slots for v in (host.lam, host.mu)))))
    R = int(regular_time * D)
    # free times lie in [0, day]; per pattern, a slot's wait, each
    # resource's first start plus busy time, free time and overtime stay
    # below bound, and the weights of a layer sum to at most denominator.
    # So keys < 4(day + 1)^2, a slot's weighted terms (c_*) < max(dens) *
    # bound, and every weighted sum < denominator * bound.
    day = int(D * (max((abs(tau) for tau in base.taus), default=0)
                   + sum(c * (host.lam + host.mu)
                         for c, host in zip(copies, base.slots))))
    bound = (plan.n_scheduled + 2) * (4 * day + abs(R) + 1)
    time_dtype = (np.int64 if max(4 * (day + 1)**2,
                                  max(dens, default=1) * bound) < 2**63
                  else object)
    weight_dtype = (np.int64 if time_dtype is np.int64
                    and denominator * bound < 2**63 else object)
    pa, p = np.zeros((2, 1), time_dtype)
    sa, sp = np.zeros((2, 1), bool)
    W = np.ones(1, weight_dtype)
    # Σ weight·(wait, first stage-1 start + a busy, first stage-2 start +
    # p busy) over every pattern, over denominator
    wait = sum_a = sum_p = 0
    rest = denominator   # the weight the slots after this one add
    visited = 0
    for t, host in enumerate(base.slots):
        tau, lam, mu = (int(x * D) for x in (base.taus[t], host.lam, host.mu))
        n, q = copies[t], no_show[t]
        show_num, ns_num = q.denominator - q.numerator, q.numerator
        rest //= dens[t]
        ea = np.maximum(pa, tau)
        first_a = np.where(sa, 0, ea)
        if host.qplus:
            first_p = np.where(sp, 0, np.maximum(ea + lam, p))
        started = np.ones_like(sa)
        # per show count j: its weight and its children's keys; c_* sum
        # weight·(the slot's wait, first start + busy) over those counts
        kids = []
        c_w = c_a = c_p = 0
        pp, wait_p = p, 0
        for j in range(n + 1):
            if host.qplus and j:   # copy j sees the physician after j - 1
                fac = ea + j * lam
                ep = np.maximum(fac, pp)
                wait_p = wait_p + (ep - fac)
                pp = ep + mu
            w = comb(n, j) * show_num**j * ns_num**(n - j)
            if not w:
                continue   # a show count that cannot happen (p = 0 or 1)
            if not j:
                kids.append((w, pa, p, sa, sp))
                continue
            # j same-type copies served back to back from ea; each waited
            # from the shared appointment time
            c_w = c_w + w * (j * (ea - tau) + lam * (j * (j - 1) // 2)
                             + wait_p)
            c_a = c_a + w * (first_a + j * lam)
            if host.qplus:
                c_p = c_p + w * (first_p + j * mu)
                kids.append((w, ea + j * lam, pp, started, started))
            else:
                kids.append((w, ea + j * lam, p, started, sp))
        wait += int((W * c_w).sum()) * rest
        sum_a += int((W * c_a).sum()) * rest
        sum_p += int((W * c_p).sum()) * rest

        weights, *columns = zip(*kids)
        pa, p, sa, sp = map(np.concatenate, columns)
        key = (pa * (day + 1) + p) * 4 + sa * 2 + sp
        order = np.argsort(key)
        key = key[order]
        runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        first = order[runs]
        pa, p, sa, sp = pa[first], p[first], sa[first], sp[first]
        W = np.add.reduceat(np.concatenate([w * W for w in weights])[order],
                            runs)
        if len(W) > cap:
            raise ValueError(
                f"{len(W)} merged show states after slot {t + 1} exceed the "
                f"{cap}-state budget; use the Monte-Carlo fallback "
                "(evaluate_template_mc with noshow_probs)")
        visited += len(W)

    weighted = lambda x, started: int((W * x)[started].sum())
    to_minutes = lambda v: Fraction(v, denominator * D) / 10
    return ExpectedMetrics(
        to_minutes(wait),
        to_minutes(weighted(pa, sa) - sum_a),
        to_minutes(weighted(p, sp) - sum_p),
        to_minutes(weighted(np.maximum(pa - R, 0), sa)),
        to_minutes(weighted(np.maximum(p - R, 0), sp)),
        2**plan.n_scheduled, Fraction(int(W.sum()), denominator), visited)


def expected_cost_per_patient(metrics: ExpectedMetrics, weights: CostWeights,
                              n_scheduled: int) -> Fraction:
    if n_scheduled <= 0:
        raise ValueError("n_scheduled must be positive")
    # the combined wait stands in for stage 1; stage 2 adds nothing
    total = weighted_cost(weights, (metrics.wait, 0, metrics.idle_a,
                                    metrics.idle_p, metrics.overtime_a,
                                    metrics.overtime_p))
    return total / n_scheduled
