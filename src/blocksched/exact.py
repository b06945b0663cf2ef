"""Desk-scale exact optimization over multiset type sequences.

The assignment models are solved as search over distinct type sequences plus
the closed-form timeline recurrence, with appointments pinned to the planned
stage-1 starts (zero stage-1 wait; delaying an appointment below its start
only adds wait).  Distinct sequences are enumerated over type multisets, not
labeled patients; same-type patients take replicates in order of appearance.
Idle time is the span-based definition used everywhere else in the package.

Costs are compared in exact scaled-integer arithmetic; reported objectives
are Fractions in minute units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .instance import ClinicInstance, CostWeights, Patient, PatientList, expand_block
from .timeline import AppointmentTemplate, pa_prefix_taus
from .units import Scalar


@dataclass(frozen=True)
class SearchConfig:
    node_limit: int = 20_000_000
    time_limit: float = 600.0
    mode: str = "enumerate"        # "enumerate" | "branch_and_bound"
    tau_rule: str = "earliest"     # "earliest" | "quantile_grid" (stochastic only)

    def __post_init__(self):
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("limits must be positive")
        if self.mode not in ("enumerate", "branch_and_bound"):
            raise ValueError(f"unknown mode: {self.mode}")
        if self.tau_rule not in ("earliest", "quantile_grid"):
            raise ValueError(f"unknown tau rule: {self.tau_rule}")


@dataclass(frozen=True)
class Solution:
    template: AppointmentTemplate
    objective: Fraction
    optimal: bool
    nodes_explored: int


class _Budget:
    def __init__(self, config: SearchConfig):
        self.node_limit = config.node_limit
        self.deadline = time.monotonic() + config.time_limit
        self.time_limit = config.time_limit
        self.nodes = 0
        self.exhausted = False
        self.spent_limit = None   # the limit that ran out first

    def spend(self, amount: int = 1) -> bool:
        """Count nodes; False once the budget is gone."""
        self.nodes += amount
        if self.exhausted:
            return False
        if self.nodes > self.node_limit:
            self.spent_limit = f"node limit ({self.node_limit} nodes)"
        elif self.nodes % 4096 < amount and time.monotonic() > self.deadline:
            self.spent_limit = f"time limit ({self.time_limit:g} s)"
        self.exhausted = self.spent_limit is not None
        return not self.exhausted


@dataclass(frozen=True)
class _TypeGroup:
    tid: int
    lam: Scalar
    mu: Scalar
    qplus: bool
    patients: tuple[Patient, ...]


def _groups(block: PatientList) -> list[_TypeGroup]:
    by_type: dict[int, list[Patient]] = {}
    for p in block:
        by_type.setdefault(p.type_index, []).append(p)
    out = []
    for tid in sorted(by_type):
        ps = sorted(by_type[tid], key=lambda p: p.replicate)
        out.append(_TypeGroup(tid, ps[0].lam, ps[0].mu, ps[0].qplus, tuple(ps)))
    return out


def _sequences(groups: list[_TypeGroup], qplus_first: bool):
    """Yield every distinct type-id sequence of the multiset, optionally
    restricted to a Q+ type in the first slot."""
    counts = [len(g.patients) for g in groups]
    total = sum(counts)
    seq: list[int] = []

    def rec(depth: int):
        if depth == total:
            yield tuple(seq)
            return
        for i, g in enumerate(groups):
            if counts[i] == 0:
                continue
            if depth == 0 and qplus_first and not g.qplus:
                continue
            counts[i] -= 1
            seq.append(i)
            yield from rec(depth + 1)
            seq.pop()
            counts[i] += 1

    yield from rec(0)


def _patients_for(groups: list[_TypeGroup], seq: tuple[int, ...]) -> PatientList:
    taken = [0] * len(groups)
    out = []
    for gi in seq:
        out.append(groups[gi].patients[taken[gi]])
        taken[gi] += 1
    return tuple(out)


def _scale(weights: CostWeights) -> tuple[int, tuple[int, int, int, int, int]]:
    denom = lcm(*(getattr(weights, f).denominator
                  for f in ("alpha", "beta_a", "beta_p", "o_a", "o_p")))
    scaled = tuple(int(getattr(weights, f) * denom)
                   for f in ("alpha", "beta_a", "beta_p", "o_a", "o_p"))
    return denom, scaled


def _objective_fraction(scaled_cost, denom) -> Fraction:
    # scaled costs carry the weight denominator and the tenths grid
    return Fraction(scaled_cost, denom * 10)


def _score_block(groups, seq, p0: Scalar = 0, p_started: bool = False):
    """Tight recurrence over one block with the assistant continuous from 0
    and the physician available at p0.  Returns (wait, span idle increments,
    physician finish relative to block start, whether the physician has
    worked)."""
    pa: Scalar = 0
    p = p0
    wait: Scalar = 0
    idle: Scalar = 0
    started = p_started
    for gi in seq:
        g = groups[gi]
        pa = pa + g.lam
        if g.qplus:
            ep = pa if pa >= p else p
            wait += ep - pa
            if started:
                idle += ep - p
            started = True
            p = ep + g.mu
    return wait, idle, p, started


def solve_block_exact(block: PatientList, weights: CostWeights,
                      config: SearchConfig | None = None) -> Solution:
    """Minimize alpha*stage-2 wait + idle costs over all distinct block
    sequences with a Q+ patient first (whenever one exists)."""
    config = config or SearchConfig()
    if config.mode == "branch_and_bound":
        return _bnb(_groups(block), blocks=1, weights=weights, config=config,
                    regular_time=None)
    groups = _groups(block)
    qplus_first = any(g.qplus for g in groups)
    denom, (w_alpha, _, w_bp, _, _) = _scale(weights)
    budget = _Budget(config)
    best = None
    best_seq = None
    for seq in _sequences(groups, qplus_first):
        if not budget.spend():
            break
        wait, idle, _, _ = _score_block(groups, seq)
        cost = w_alpha * wait + w_bp * idle
        if best is None or cost < best:
            best, best_seq = cost, seq
    patients = _patients_for(groups, best_seq)
    template = AppointmentTemplate(patients, pa_prefix_taus(patients),
                                   (0, len(patients)))
    return Solution(template, _objective_fraction(best, denom),
                    optimal=not budget.exhausted, nodes_explored=budget.nodes)


def _horizon_template(groups, seqs: list[tuple[int, ...]],
                      blocks_patients: list[PatientList]) -> AppointmentTemplate:
    slots: list[Patient] = []
    bounds = [0]
    for c, seq in enumerate(seqs):
        block_groups = _groups(blocks_patients[c])
        slots.extend(_patients_for(block_groups, seq))
        bounds.append(len(slots))
    return AppointmentTemplate(tuple(slots), pa_prefix_taus(tuple(slots)),
                               tuple(bounds))


def solve_horizon_exact(inst: ClinicInstance, weights: CostWeights,
                        config: SearchConfig | None = None) -> Solution:
    """Minimize the horizon objective (waits, idles, overtime versus the
    regular time) over independent per-block sequences of the instance's raw
    block multiset; the first slot of the day takes a Q+ patient whenever one
    exists."""
    config = config or SearchConfig()
    blocks_patients = [expand_block(inst, c) for c in range(inst.blocks)]
    groups = _groups(blocks_patients[0])
    if config.mode == "branch_and_bound":
        return _bnb(groups, blocks=inst.blocks, weights=weights, config=config,
                    regular_time=inst.regular_time,
                    blocks_patients=blocks_patients)
    return _horizon_enumerate(inst, groups, blocks_patients, weights, config)


def _horizon_enumerate(inst, groups, blocks_patients, weights, config) -> Solution:
    k = inst.blocks
    R = inst.regular_time
    denom, (w_alpha, _, w_bp, w_oa, w_op) = _scale(weights)
    budget = _Budget(config)
    block_lam = sum(len(g.patients) * g.lam for g in groups)
    has_qplus = any(g.qplus for g in groups)
    overtime_a = w_oa * max(0, k * block_lam - R)

    if not has_qplus:
        seq = tuple(gi for gi, g in enumerate(groups) for _ in g.patients)
        template = _horizon_template(groups, [seq] * k, blocks_patients)
        return Solution(template, _objective_fraction(overtime_a, denom),
                        True, 0)

    # first block from scratch; dedupe on (wait, idle, relative physician lag)
    first: dict[tuple, tuple[int, ...]] = {}
    for seq in _sequences(groups, qplus_first=True):
        if not budget.spend():
            break
        wait, idle, p_end, _ = _score_block(groups, seq)
        key = (wait, idle, p_end - block_lam)
        if key not in first:
            first[key] = seq

    # continuation blocks: evaluated lazily per distinct incoming lag d
    # (physician availability minus assistant availability at the junction)
    cont_cache: dict[Scalar, dict[tuple, tuple[int, ...]]] = {}

    def continuations(d: Scalar) -> dict[tuple, tuple[int, ...]]:
        if d not in cont_cache:
            entries: dict[tuple, tuple[int, ...]] = {}
            for seq in _sequences(groups, qplus_first=False):
                if budget.exhausted or not budget.spend():
                    break
                wait, idle, p_end, _ = _score_block(groups, seq, p0=d,
                                                    p_started=True)
                key = (wait, idle, p_end - block_lam)
                if key not in entries:
                    entries[key] = seq
            cont_cache[d] = entries
        return cont_cache[d]

    value_cache: dict[tuple[int, Scalar], tuple] = {}

    def best_completion(c: int, d: Scalar):
        """Min scaled cost of blocks c..k given incoming lag d, plus the
        closing stage-2 overtime; returns (cost, seqs)."""
        if c > k:
            fp_abs = k * block_lam + d
            return w_op * max(0, fp_abs - R), []
        key = (c, d)
        if key not in value_cache:
            best = None
            best_seqs = None
            for (wait, idle, d_out), seq in continuations(d).items():
                tail_cost, tail_seqs = best_completion(c + 1, d_out)
                if tail_cost is None:  # budget ran out below this block
                    continue
                cost = w_alpha * wait + w_bp * idle + tail_cost
                if best is None or cost < best:
                    best, best_seqs = cost, [seq] + tail_seqs
            value_cache[key] = (best, best_seqs)
        return value_cache[key]

    best = None
    best_seqs = None
    for (wait, idle, d_out), seq in first.items():
        tail_cost, tail_seqs = best_completion(2, d_out)
        if tail_cost is None:
            continue
        cost = w_alpha * wait + w_bp * idle + tail_cost
        if best is None or cost < best:
            best, best_seqs = cost, [seq] + tail_seqs
    if best is None:
        raise ValueError(f"the {budget.spent_limit} ran out before any "
                         "complete horizon was found; raise it")
    best += overtime_a
    template = _horizon_template(groups, best_seqs, blocks_patients)
    return Solution(template, _objective_fraction(best, denom),
                    optimal=not budget.exhausted, nodes_explored=budget.nodes)


def _bnb(groups, blocks: int, weights: CostWeights, config: SearchConfig,
         regular_time: Scalar | None, blocks_patients=None) -> Solution:
    """Depth-first branch and bound over the slot assignments, pruning on the
    accumulated-cost lower bound against the incumbent (no epsilon)."""
    denom, (w_alpha, _, w_bp, w_oa, w_op) = _scale(weights)
    budget = _Budget(config)
    R = regular_time
    counts0 = [len(g.patients) for g in groups]
    block_size = sum(counts0)
    block_lam = sum(len(g.patients) * g.lam for g in groups)
    total_mu = blocks * sum(len(g.patients) * g.mu for g in groups)
    has_qplus = any(g.qplus for g in groups)
    n_slots = blocks * block_size
    overtime_a = 0 if R is None else w_oa * max(0, blocks * block_lam - R)

    incumbent: list = [None, None]  # scaled cost, sequence of type ids
    seq: list[int] = []

    def rec(depth, counts, pa, p, started, wait, idle, mu_left):
        if budget.exhausted:
            return
        if depth == n_slots:
            cost = w_alpha * wait + w_bp * idle + overtime_a
            if R is not None and started:
                cost += w_op * max(0, p - R)
            if incumbent[0] is None or cost < incumbent[0]:
                incumbent[0], incumbent[1] = cost, tuple(seq)
            return
        if depth % block_size == 0:
            counts = list(counts0)  # entering a fresh block
        for gi, g in enumerate(groups):
            if counts[gi] == 0:
                continue
            if depth == 0 and has_qplus and not g.qplus:
                continue
            if not budget.spend():
                return
            new_pa = pa + g.lam
            if g.qplus:
                ep = new_pa if new_pa >= p else p
                new_wait = wait + (ep - new_pa)
                new_idle = idle + (ep - p if started else 0)
                new_p, new_started = ep + g.mu, True
                new_mu_left = mu_left - g.mu
            else:
                new_wait, new_idle = wait, idle
                new_p, new_started = p, started
                new_mu_left = mu_left
            bound = w_alpha * new_wait + w_bp * new_idle + overtime_a
            if R is not None and has_qplus:
                base_p = new_p if new_started else 0
                bound += w_op * max(0, base_p + new_mu_left - R)
            if incumbent[0] is not None and bound >= incumbent[0]:
                continue
            counts[gi] -= 1
            seq.append(gi)
            rec(depth + 1, counts, new_pa, new_p, new_started,
                new_wait, new_idle, new_mu_left)
            seq.pop()
            counts[gi] += 1

    rec(0, list(counts0), 0, 0, False, 0, 0, total_mu)

    if incumbent[1] is None:  # budget gone before the first leaf
        filler = tuple(gi for gi, g in enumerate(groups) for _ in g.patients)
        if has_qplus and not groups[filler[0]].qplus:
            qp = next(gi for gi, g in enumerate(groups) if g.qplus)
            pos = filler.index(qp)
            filler = (qp,) + filler[:pos] + filler[pos + 1:]
        incumbent[1] = filler * blocks
        wait = idle = 0
        lag = 0
        started = False
        for _ in range(blocks):
            w, i, p_end, started = _score_block(groups, filler, p0=lag,
                                                p_started=started)
            wait += w
            idle += i
            lag = p_end - block_lam
        cost = w_alpha * wait + w_bp * idle + overtime_a
        if R is not None and started:
            cost += w_op * max(0, blocks * block_lam + lag - R)
        incumbent[0] = cost
    seqs = [tuple(incumbent[1][c * block_size:(c + 1) * block_size])
            for c in range(blocks)]
    if blocks_patients is None:
        blocks_patients = [groups_patients(groups)] * blocks
    template = _horizon_template(groups, seqs, blocks_patients)
    return Solution(template, _objective_fraction(incumbent[0], denom),
                    optimal=not budget.exhausted, nodes_explored=budget.nodes)


def groups_patients(groups) -> PatientList:
    return tuple(p for g in groups for p in g.patients)


def node_lower_bound(prefix: PatientList, weights: CostWeights,
                     remaining: PatientList = (),
                     regular_time: Scalar | None = None) -> Fraction:
    """Admissible lower bound for a partial sequence: cost accumulated by the
    prefix (waits and span idle never shrink as patients are appended) plus
    overtime lower bounds from the service time still owed.  Equals the exact
    objective on a complete sequence."""
    denom, (w_alpha, _, w_bp, w_oa, w_op) = _scale(weights)
    pa: Scalar = 0
    p: Scalar = 0
    started = False
    wait: Scalar = 0
    idle: Scalar = 0
    for pat in prefix:
        pa += pat.lam
        if pat.qplus:
            ep = pa if pa >= p else p
            wait += ep - pa
            if started:
                idle += ep - p
            started = True
            p = ep + pat.mu
    bound = w_alpha * wait + w_bp * idle
    if regular_time is not None:
        lam_left = sum(pat.lam for pat in remaining)
        mu_left = sum(pat.mu for pat in remaining)
        bound += w_oa * max(0, pa + lam_left - regular_time)
        base_p = p if (started or mu_left) else 0
        if started or mu_left:
            bound += w_op * max(0, base_p + mu_left - regular_time)
    return _objective_fraction(bound, denom)


# ---------------------------------------------------------------------------
# Scenario-averaged exact block model


def solve_saa_replication(inst: ClinicInstance, weights: CostWeights,
                          scenario_set, config: SearchConfig | None = None
                          ) -> Solution:
    """Minimize the scenario-average block cost over distinct sequences.

    Appointment times are first-stage (shared across scenarios): the rule
    "earliest" pins them to the mean prefix sums of the candidate sequence;
    "quantile_grid" tries each decile (order statistic) of the scenario
    prefix-sum distribution and keeps the best.  The optimality flag refers
    to the sequence search given the appointment rule.
    """
    config = config or SearchConfig()
    block = expand_block(inst)
    groups = _groups(block)
    qplus_first = any(g.qplus for g in groups)
    denom, (w_alpha, w_ba, w_bp, _, _) = _scale(weights)
    budget = _Budget(config)

    scen_lams = []
    scen_mus = []
    for s in range(scenario_set.K):
        lam_by_uid, mu_by_uid = scenario_set.draws(s)
        scen_lams.append([int(x) for x in lam_by_uid])
        scen_mus.append([int(x) for x in mu_by_uid])

    def avg_cost(patients: PatientList, taus) -> int:
        total = 0
        for lam_by_uid, mu_by_uid in zip(scen_lams, scen_mus):
            pa: Scalar = 0
            p: Scalar = 0
            started_a = started_p = False
            wait_a = wait_p = 0
            idle_a: Scalar = 0
            idle_p: Scalar = 0
            for j, pat in enumerate(patients):
                tau = taus[j]
                ea = tau if tau >= pa else pa
                wait_a += ea - tau
                if started_a:
                    idle_a += ea - pa
                started_a = True
                pa = ea + lam_by_uid[pat.uid]
                if pat.qplus:
                    ep = pa if pa >= p else p
                    wait_p += ep - pa
                    if started_p:
                        idle_p += ep - p
                    started_p = True
                    p = ep + mu_by_uid[pat.uid]
            total += (w_alpha * (wait_a + wait_p)
                      + w_ba * idle_a + w_bp * idle_p)
        return total

    best = None
    best_patients = None
    best_taus = None
    for seq in _sequences(groups, qplus_first):
        if not budget.spend():
            break
        patients = _patients_for(groups, seq)
        candidate_taus = [pa_prefix_taus(patients)]
        if config.tau_rule == "quantile_grid":
            prefix_by_scen = []
            for lam_by_uid in scen_lams:
                acc = 0
                prefixes = []
                for pat in patients:
                    prefixes.append(acc)
                    acc += lam_by_uid[pat.uid]
                prefix_by_scen.append(prefixes)
            matrix = np.array(prefix_by_scen, dtype=float)
            candidate_taus = []
            for q in range(1, 10):
                qs = np.quantile(matrix, q / 10, axis=0, method="lower")
                candidate_taus.append(tuple(int(x) for x in qs))
        for taus in candidate_taus:
            cost = avg_cost(patients, taus)
            if best is None or cost < best:
                best, best_patients, best_taus = cost, patients, taus
    template = AppointmentTemplate(best_patients, tuple(best_taus),
                                   (0, len(best_patients)))
    objective = Fraction(best, denom * 10 * scenario_set.K)
    return Solution(template, objective, optimal=not budget.exhausted,
                    nodes_explored=budget.nodes)
