"""Overbooking plans and exact expected-cost evaluation under no-shows.

Plans duplicate slots of a base template: the level-front-load strategy
(LF) puts one duplicate on each of the earliest Q+/Q slots of the first
block, the fully-front-load strategy (FF) stacks all duplicates on the
single earliest slot per group.  Duplicates share the host slot's
appointment time and type and are served in listed order.

Expected metrics are exact: show patterns carry rational probabilities,
are aggregated per slot by how many of its copies show (copies of one slot
are exchangeable) and are merged on the resources' free times, since wait,
idle and overtime add up along a pattern.  A no-show consumes zero time at
both stages with zero wait while later patients stay gated by their own
appointment times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

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
    physician free, assistant started, physician started).  Each merged
    state carries integer-weighted sums of its weight, its wait and each
    resource's first start plus busy time: all that idle and overtime need
    at the end.  ``cap`` bounds the live states after any slot.
    """
    # (a free, p free, a started, p started) -> (W, Σw·wait,
    # Σw·(first stage-1 start + a busy), Σw·(first stage-2 start + p busy))
    states = {(0, 0, False, False): (1, 0, 0, 0)}
    denominator = 1
    visited = 0
    for t, host in enumerate(plan.base.slots):
        tau, lam, mu = plan.base.taus[t], host.lam, host.mu
        copies = plan.copies(t)
        ns = probs.for_patient(host)
        show_num, ns_num = ns.denominator - ns.numerator, ns.numerator
        denominator *= ns.denominator**copies
        weights = [comb(copies, j) * show_num**j * ns_num**(copies - j)
                   for j in range(copies + 1)]
        nxt: dict = {}
        while states:  # popping frees each state as its successors appear
            (pa, p, sa, sp), (W, S_w, S_a, S_p) = states.popitem()
            for j, w in enumerate(weights):
                if not w:
                    continue  # a show count that cannot happen (p = 0 or 1)
                if j == 0:
                    key, d_w, d_a, d_p = (pa, p, sa, sp), 0, 0, 0
                else:
                    ea = tau if tau >= pa else pa
                    # j same-type copies served back to back from ea; each
                    # waited from the shared appointment time
                    d_w = j * (ea - tau) + lam * (j * (j - 1) // 2)
                    d_a = (0 if sa else ea) + j * lam
                    if host.qplus:
                        pp = p
                        for c in range(1, j + 1):
                            fac = ea + c * lam
                            ep = fac if fac >= pp else pp
                            d_w += ep - fac
                            pp = ep + mu
                        first_p = ea + lam if ea + lam >= p else p
                        d_p = (0 if sp else first_p) + j * mu
                        key = (ea + j * lam, pp, True, True)
                    else:
                        key, d_p = (ea + j * lam, p, True, sp), 0
                old = nxt.get(key, (0, 0, 0, 0))
                nxt[key] = (old[0] + w * W, old[1] + w * (S_w + W * d_w),
                            old[2] + w * (S_a + W * d_a),
                            old[3] + w * (S_p + W * d_p))
        if len(nxt) > cap:
            raise ValueError(
                f"{len(nxt)} merged show states after slot {t + 1} exceed the "
                f"{cap}-state budget; use the Monte-Carlo fallback "
                "(evaluate_template_mc with noshow_probs)")
        visited += len(nxt)
        states = nxt

    R = regular_time
    acc = [0, 0, 0, 0, 0, 0]  # mass, wait, idle_a, idle_p, b_a, b_p
    for (pa, p, sa, sp), (W, S_w, S_a, S_p) in states.items():
        acc[0] += W
        acc[1] += S_w
        if sa:
            acc[2] += W * pa - S_a
            acc[4] += W * max(0, pa - R)
        if sp:
            acc[3] += W * p - S_p
            acc[5] += W * max(0, p - R)
    to_minutes = lambda v: Fraction(v, denominator) / 10
    return ExpectedMetrics(*map(to_minutes, acc[1:]), 2**plan.n_scheduled,
                           Fraction(acc[0], denominator), visited)


def expected_cost_per_patient(metrics: ExpectedMetrics, weights: CostWeights,
                              n_scheduled: int) -> Fraction:
    if n_scheduled <= 0:
        raise ValueError("n_scheduled must be positive")
    # the combined wait stands in for stage 1; stage 2 adds nothing
    total = weighted_cost(weights, (metrics.wait, 0, metrics.idle_a,
                                    metrics.idle_p, metrics.overtime_a,
                                    metrics.overtime_p))
    return total / n_scheduled
