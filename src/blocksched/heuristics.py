"""Template-building heuristics and closed-form waiting-time results.

algorithm1 front-loads the Q+ patients in nonincreasing stage-1 order and
yields a no-idle block.  algorithm2 improves on it by slotting Q patients
into the assistant's gaps of the no-wait Q+ chain before closing what is
left.  algorithm3/algorithm4 repeat those blocks over the horizon with the
physician kept continuous across junctions; fcfa is the randomized-arrival
baseline.  The closed-form wait, the block/horizon upper bounds and the
uncertainty-width threshold with its slack-adjusted appointment times
implement the companion formulas.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .instance import (ClinicInstance, Patient, PatientList, balance_workload,
                       balanced_blocks, expand_block, require_valid, workloads)
from .timeline import (AppointmentTemplate, concatenate, pa_prefix_taus,
                       single_block_template)
from .units import Scalar

log = logging.getLogger(__name__)


def _front_back(block: PatientList) -> tuple[list[Patient], list[Patient]]:
    front = [p for p in block if p.qplus]
    back = [p for p in block if not p.qplus]
    # nonincreasing stage-1 time; ties to the smaller stage-2 time, then
    # declaration order (stable sort keeps it)
    front.sort(key=lambda p: (-p.lam, p.mu))
    return front, back


def algorithm1(block: PatientList) -> PatientList:
    """No-idle block sequence: sorted Q+ front, then the Q patients, also in
    nonincreasing stage-1 order (any back order works; this one is fixed for
    determinism and matches the worked examples)."""
    front, back = _front_back(block)
    if back and not front:
        log.warning("block has no Q+ patient; returning Q patients only")
    back.sort(key=lambda p: -p.lam)
    return tuple(front + back)


def algorithm2(block: PatientList) -> AppointmentTemplate:
    """Improved no-idle block: no-wait Q+ chain, Q patients first-fit into the
    assistant's gaps (ascending stage-1 time), leftover gaps closed by
    advancing later starts, unplaced Q patients appended at the end."""
    front, back = _front_back(block)
    if not front:
        return single_block_template(tuple(back))

    # no-wait chain: each Q+ stage-1 finish is their own stage-2 start
    pa_starts: list[Scalar] = []
    pa_end: Scalar = 0
    p_end: Scalar = 0
    for j, pat in enumerate(front):
        if j == 0:
            start: Scalar = 0
        else:
            start = max(p_end - pat.lam, pa_end)
        pa_starts.append(start)
        pa_end = start + pat.lam
        p_end = max(p_end, pa_end) + pat.mu

    gaps = []  # [cursor, end] between consecutive chain services
    for j in range(1, len(front)):
        lo = pa_starts[j - 1] + front[j - 1].lam
        hi = pa_starts[j]
        gaps.append([lo, hi])

    placed: list[tuple[Scalar, Patient]] = []
    leftovers: list[Patient] = []
    for pat in sorted(back, key=lambda p: p.lam):
        for gap in gaps:
            if gap[1] - gap[0] >= pat.lam:
                placed.append((gap[0], pat))
                gap[0] += pat.lam
                break
        else:
            leftovers.append(pat)

    timeline = sorted(
        [(s, 0, p) for s, p in zip(pa_starts, front)]
        + [(s, 1, p) for s, p in placed])
    sequence = [p for _, _, p in timeline] + leftovers
    return single_block_template(tuple(sequence))


def _order_block(block: PatientList, order: PatientList) -> PatientList:
    """Apply block-0's slot order to another block's patients."""
    lookup = {(p.type_index, p.replicate): p for p in block}
    return tuple(lookup[(p.type_index, p.replicate)] for p in order)


def _horizon_from_block(inst: ClinicInstance, block_builder) -> AppointmentTemplate:
    require_valid(inst)
    L_a, L_p = workloads(inst)
    if L_a > L_p:
        balance = balance_workload(inst)
        if balance.unbalanceable:
            raise ValueError("instance cannot be balanced: Q+ workload alone "
                             "exceeds the stage-2 workload")
        blocks, overflow = balanced_blocks(inst, balance)
    else:
        blocks = tuple(expand_block(inst, c) for c in range(inst.blocks))
        overflow = ()
    base = block_builder(blocks[0])
    full = concatenate(base, inst.blocks, overflow=overflow)
    # concatenate repeats block 0's patient objects; re-point each block's
    # slots at that block's own patients so sample-path draws line up
    slots: list[Patient] = []
    for b in blocks:
        slots.extend(_order_block(b, base.slots))
    slots.extend(overflow)
    return AppointmentTemplate(tuple(slots), full.taus, full.block_bounds)


def algorithm3(inst: ClinicInstance) -> AppointmentTemplate:
    """algorithm1's block repeated k times, physician-continuous junctions,
    overflow block (if balancing removed patients) appended last."""
    return _horizon_from_block(
        inst, lambda block: single_block_template(algorithm1(block)))


def algorithm4(inst: ClinicInstance) -> AppointmentTemplate:
    """algorithm2's block repeated k times, physician-continuous junctions."""
    return _horizon_from_block(inst, algorithm2)


def fcfa(inst: ClinicInstance, rng) -> AppointmentTemplate:
    """First-come-first-appointment baseline: per block, a uniformly random
    arrival order; appointment times are the stage-1 mean prefix sums with
    blocks packed back-to-back on the assistant timeline."""
    require_valid(inst)
    slots: list[Patient] = []
    bounds = [0]
    for c in range(inst.blocks):
        block = list(expand_block(inst, c))
        idx = rng.permutation(len(block))
        slots.extend(block[i] for i in idx)
        bounds.append(len(slots))
    return AppointmentTemplate(tuple(slots), pa_prefix_taus(tuple(slots)),
                               tuple(bounds))


# ---------------------------------------------------------------------------
# Closed-form wait and bounds


@dataclass(frozen=True)
class BoundReport:
    closed_form_wait: Scalar
    block_bound: Scalar
    horizon_bound: Scalar
    gamma1: Scalar
    gamma2: Scalar
    theta: Scalar
    conformant: bool


def closed_form_wait(sequence: PatientList) -> Scalar:
    """Total stage-2 wait of a sorted no-idle block: sum over front positions
    j of (gamma - j) * (mu_j - lam_{j+1}), gamma the Q+ count.  Exact for
    algorithm1 output when every Q+ type has mu >= lam."""
    front = [p for p in sequence if p.qplus]
    gamma = len(front)
    return sum((gamma - j) * (front[j - 1].mu - front[j].lam)
               for j in range(1, gamma))


def _as_scalar(value: Fraction) -> Scalar:
    return int(value) if value.denominator == 1 else value


def wait_bound_block(sequence: PatientList) -> Scalar:
    """Upper bound gamma(gamma-1)/2 * (gamma1 - gamma2) on the block wait."""
    front = [p for p in sequence if p.qplus]
    gamma = len(front)
    if gamma <= 1:
        return 0
    gamma1 = max(p.mu for p in front[:gamma - 1])
    gamma2 = min(p.lam for p in front[1:])
    return _as_scalar(Fraction(gamma * (gamma - 1), 2) * (gamma1 - gamma2))


def junction_theta(sequence: PatientList) -> Scalar:
    """Per-junction assistant idle when blocks are chained physician-
    continuous: max(0, sum of Q+ stage-2 times - sum of all stage-1 times)."""
    front_mu = sum(p.mu for p in sequence if p.qplus)
    all_lam = sum(p.lam for p in sequence)
    return max(0, front_mu - all_lam)


def wait_bound_horizon(sequence: PatientList, k: int) -> Scalar:
    """k times the block bound plus the junction growth term
    k(k-1)(gamma)/2 * theta."""
    gamma = sum(1 for p in sequence if p.qplus)
    theta = junction_theta(sequence)
    return (k * wait_bound_block(sequence)
            + _as_scalar(Fraction(k * (k - 1) * gamma, 2) * theta))


def bound_report(inst: ClinicInstance) -> BoundReport:
    block = expand_block(inst)
    seq = algorithm1(block)
    front = [p for p in seq if p.qplus]
    gamma = len(front)
    gamma1 = max((p.mu for p in front[:gamma - 1]), default=0)
    gamma2 = min((p.lam for p in front[1:]), default=0)
    return BoundReport(
        closed_form_wait=closed_form_wait(seq),
        block_bound=wait_bound_block(seq),
        horizon_bound=wait_bound_horizon(seq, inst.blocks),
        gamma1=gamma1, gamma2=gamma2, theta=junction_theta(seq),
        conformant=all(t.conformant for t in inst.types))


# ---------------------------------------------------------------------------
# Uniform service-time uncertainty: width threshold and robust appointments


MAX_WIDTH = Fraction(2)  # width 2 is the whole support [0, 2*mean]


def w_threshold(sequence: PatientList) -> Fraction:
    """Largest uniform width w for which the slack-adjusted appointment times
    keep the physician idle-free on every sample path.

    Minimum over front prefixes j of 2*sum(mu_l - lam_{l+1}) /
    sum(mu_l + lam_{l+1}); zero as soon as any prefix sum of slack goes
    negative.  With fewer than two Q+ patients there is no constraint and
    the full width is allowed.
    """
    front = [p for p in sequence if p.qplus]
    w = MAX_WIDTH
    num = den = 0
    for j in range(1, len(front)):
        num += front[j - 1].mu - front[j].lam
        den += front[j - 1].mu + front[j].lam
        w = min(w, Fraction(2 * num, den) if num >= 0 else Fraction(0))
    return w


def robust_template(sequence: PatientList, w) -> AppointmentTemplate:
    """Single-block template with appointment times shrunk to (1 - w/2) times
    the stage-1 mean prefix sums."""
    w = Fraction(str(w)) if isinstance(w, float) else Fraction(w)
    factor = 1 - w / 2
    taus = tuple(_as_scalar(factor * t) for t in pa_prefix_taus(sequence))
    return AppointmentTemplate(tuple(sequence), taus, (0, len(sequence)))
