"""Desk-scale exact optimization over multiset type sequences.

The deterministic models pin appointments to the planned stage-1 starts
(zero stage-1 wait; delaying an appointment below its start only adds wait).
The single-block and horizon models are solved by one forward dynamic
program over (block, type counts left, physician lag), computed one slot
(layer) at a time over numpy arrays (see _lag_dp), in two modes.
``mode="enumerate"`` runs it once over every state.
``mode="branch_and_bound"`` first runs it with each layer cut to its BEAM
cheapest states, for an incumbent, and then, unless no layer was cut, runs
it again without the cut, pruning each child whose cost plus the overtime
it cannot avoid exceeds the incumbent.  ``nodes_explored`` counts the
transitions of every pass.  On table7 at k=3 (474.86) enumeration takes
7,074,446 transitions, about 1 s and 100 MB peak memory, and branch and
bound 1,041,189 transitions, about 0.3 s and 56 MB (2 cores).  When a
budget runs out before the n_slots transitions one schedule needs, no
schedule is reported; otherwise each state of the last full layer is
completed by its remaining type counts in type order and the cheapest
completion is returned, not certified, with ``nodes_explored`` = limit + 1.

The scenario-averaged block model is one depth-first search over type
prefixes that carries all K scenarios at each node.  It works on chunks of
prefix nodes of one depth, held as numpy arrays (int64, or Python integers
when an a-priori cost bound does not fit in int64); a chunk's per-node
arrays hold at most NODE_ELEMENTS elements in all (or one node's children,
when those alone pass it), so memory stays flat in K.
Children with one patient left are completed to their leaves in the same
expansion.  ``mode="enumerate"`` visits every prefix.
``mode="branch_and_bound"`` first makes a beam pass, each depth cut to its
SAA_BEAM cheapest children, for an incumbent, and then a pass that prunes
on the cost accumulated so far against it; ``nodes_explored`` counts the
children examined and the leaves completed, chunk by chunk.  Branch and
bound certifies the table7 block (seed 7) at K=1 (objective 55.9) in
64.65M nodes, 8.7 s and 44 MB peak memory, at K=2 (47.9) in 37.6M nodes
and 9 s, and at K=5 (57.176) in 69.0M nodes, 23 s and 44 MB, on 2 cores.

Every solver returns the lexicographically first optimal sequence.
Sequences are over type multisets, not labeled patients; same-type patients
take replicates in order of appearance.  Idle time is the span-based
definition used everywhere else in the package.

Costs are compared in exact scaled-integer arithmetic; reported objectives
are Fractions in minute units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import add, mul

import numpy as np

from .instance import (ClinicInstance, CostWeights, InvalidInstanceError,
                       Patient, PatientList, expand_block)
from .timeline import AppointmentTemplate, pa_prefix_taus
from .units import Scalar


@dataclass(frozen=True)
class SearchConfig:
    node_limit: int = 20_000_000
    time_limit: float = 600.0
    mode: str = "enumerate"        # "enumerate" | "branch_and_bound"

    def __post_init__(self):
        for name in ("node_limit", "time_limit"):
            limit = getattr(self, name)
            if not limit > 0:   # nan fails this too; inf passes
                raise ValueError(f"{name} must be positive, not {limit}")
        if self.mode not in ("enumerate", "branch_and_bound"):
            raise ValueError(f"unknown mode: {self.mode}")


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

    def spend_many(self, n: int) -> int:
        """Count n nodes at once; how many of them the budget allows.  The
        clock is read on every call.  Once the budget is gone, the node
        that found it gone is counted too."""
        if time.monotonic() > self.deadline:
            self.spent_limit = f"time limit ({self.time_limit:g} s)"
            allowed = 0
        else:
            allowed = min(n, self.node_limit - self.nodes)
            if allowed < n:
                self.spent_limit = f"node limit ({self.node_limit} nodes)"
        self.exhausted = self.spent_limit is not None
        self.nodes += allowed + self.exhausted
        return allowed

    def out_of_budget(self) -> ValueError:
        return ValueError(f"the {self.spent_limit} ran out before any "
                          "complete schedule was found; raise it")


@dataclass(frozen=True)
class _TypeGroup:
    lam: Scalar
    mu: Scalar
    qplus: bool
    patients: tuple[Patient, ...]


def _groups(block: PatientList) -> list[_TypeGroup]:
    by_type: dict[int, list[Patient]] = {}
    for p in sorted(block, key=lambda p: (p.type_index, p.replicate)):
        by_type.setdefault(p.type_index, []).append(p)
    return [_TypeGroup(ps[0].lam, ps[0].mu, ps[0].qplus, tuple(ps))
            for ps in by_type.values()]


def _patients_for(groups: list[_TypeGroup], seq) -> PatientList:
    replicates = [iter(g.patients) for g in groups]
    return tuple(next(replicates[gi]) for gi in seq)


def _scale(weights: CostWeights) -> tuple[int, tuple[int, int, int, int, int]]:
    denom = lcm(*(getattr(weights, f).denominator
                  for f in ("alpha", "beta_a", "beta_p", "o_a", "o_p")))
    scaled = tuple(int(getattr(weights, f) * denom)
                   for f in ("alpha", "beta_a", "beta_p", "o_a", "o_p"))
    return denom, scaled


def _objective_fraction(scaled_cost, denom) -> Fraction:
    # scaled costs carry the weight denominator and the tenths grid
    return Fraction(scaled_cost, denom * 10)


def _radix(counts) -> tuple[list[int], int]:
    """Mixed-radix place values of the type counts and the code of counts
    itself: taking one patient of type i subtracts radix[i] from the code,
    and the code is 0 once the block is placed."""
    radix, place = [], 1
    for n in counts:
        radix.append(place)
        place *= n + 1
    return radix, sum(n * r for n, r in zip(counts, radix))


def _solution(seq, cost, denom, budget, blocks_patients) -> Solution:
    """The solution that gives each block its slice of the type-id sequence,
    with appointments at the stage-1 prefix sums."""
    slots: tuple[Patient, ...] = ()
    bounds = [0]
    for block in blocks_patients:
        part = seq[len(slots):len(slots) + len(block)]
        slots += _patients_for(_groups(block), part)
        bounds.append(len(slots))
    template = AppointmentTemplate(slots, pa_prefix_taus(slots), tuple(bounds))
    return Solution(template, _objective_fraction(cost, denom),
                    optimal=not budget.exhausted, nodes_explored=budget.nodes)


def solve_block_exact(block: PatientList, weights: CostWeights,
                      config: SearchConfig | None = None) -> Solution:
    """Minimize alpha*stage-2 wait + idle costs over all distinct block
    sequences with a Q+ patient first (whenever one exists)."""
    return _lag_dp(_groups(block), 1, weights, config or SearchConfig(),
                   None, [block])


def solve_horizon_exact(inst: ClinicInstance, weights: CostWeights,
                        config: SearchConfig | None = None) -> Solution:
    """Minimize the horizon objective (waits, idles, overtime versus the
    regular time) over independent per-block sequences of the instance's raw
    block multiset; the first slot of the day takes a Q+ patient whenever one
    exists."""
    if inst.blocks < 1:
        raise InvalidInstanceError("blocks: must be >= 1")
    blocks_patients = [expand_block(inst, c) for c in range(inst.blocks)]
    return _lag_dp(_groups(blocks_patients[0]), inst.blocks, weights,
                   config or SearchConfig(), inst.regular_time,
                   blocks_patients)


def _first_of_each_state(code, d, cost) -> np.ndarray:
    """The rows, in order, that keep their state (code, d): the least cost,
    the first row on ties.  The rows are sorted on (code, d, cost, row),
    packed into one int64 key when the spans of the rows fit in it."""
    n = len(cost)
    d_lo, c_lo = d.min(), cost.min()
    d_span, c_span = int(d.max() - d_lo) + 1, int(cost.max() - c_lo) + 1
    if (cost.dtype != object
            and (int(code.max()) + 1) * d_span * c_span * n < 2 ** 63):
        order = np.argsort(((code * d_span + (d - d_lo)) * c_span
                            + (cost - c_lo)) * n + np.arange(n))
    else:
        order = np.lexsort((cost, d, code))
    code, d = code[order], d[order]
    new = np.empty(n, bool)
    new[0] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    new[1:] |= d[1:] != d[:-1]
    keep = np.zeros(n, bool)
    keep[order[new]] = True
    return np.flatnonzero(keep)


BEAM = 512   # states per layer in branch and bound's incumbent pass
SAA_BEAM = 64   # nodes per depth in the saa search's incumbent pass


def _lag_dp(groups, blocks: int, weights: CostWeights, config: SearchConfig,
            regular_time: Scalar | None, blocks_patients) -> Solution:
    """Forward dynamic program over lag states, one slot (layer) at a time.

    A state is (block, remaining type counts, lag d), d = physician free -
    assistant free, or none until the physician starts (Held-Karp-style
    state merging: the assistant never idles).  The block follows from the
    layer, and so does whether the physician has started: slot 0 takes a Q+
    type whenever one exists.  A layer holds its states as numpy arrays:
    the counts as one mixed-radix code (see _radix), the lag, the least
    cost that reaches the state, and the parent row and type of that
    prefix.  Expanding a layer lists the children in (parent, type) order
    and keeps, per state, the cheapest child, the earliest on ties; the
    kept rows stay in that order, so each row holds the lexicographically
    first of its cheapest prefixes and the first row of least total cost
    reads back the lexicographically first optimum.  ``nodes_explored``
    counts the transitions, one per (state, open type), over every pass.

    "enumerate" makes one pass over every state.  "branch_and_bound" first
    makes an incumbent pass that cuts each layer to its BEAM cheapest
    states (the first rows on ties, kept in order); if no layer was cut,
    that pass was the full DP and its result is returned.  Otherwise a
    pruned pass drops each child whose cost plus the overtime it cannot
    avoid exceeds the incumbent.  The bound never falls along a path and
    depends only on the state and its cost, so every state on an optimal
    path keeps the row it has in the full DP, and both modes return the
    same schedule.

    Each layer is charged to the budget before its children are made.  If
    the budget runs out before the n_slots transitions one schedule needs,
    no schedule is reported; otherwise each state of the last complete
    layer of the current pass is completed by its remaining counts in type
    order and the cheapest completion is returned, not certified.  When
    that happens in the pruned pass, the cheaper of its completion and the
    incumbent is returned, and on a tie the lexicographically first."""
    denom, (w_alpha, _, w_bp, w_oa, w_op) = _scale(weights)
    budget = _Budget(config)
    R = regular_time
    counts0 = [len(g.patients) for g in groups]
    radix, full = _radix(counts0)
    block_size = sum(counts0)
    n_slots = blocks * block_size
    has_qplus = any(g.qplus for g in groups)
    # times off the tenths grid are scaled by their common denominator
    D = lcm(*(Fraction(x).denominator
              for x in [R or 0] + [t for g in groups for t in (g.lam, g.mu)]))
    lams = [int(g.lam * D) for g in groups]
    mus = [int(g.mu * D) for g in groups]
    block_lam, block_mu = (sum(map(mul, counts0, x)) for x in (lams, mus))
    day_lam, day_mu = blocks * block_lam, blocks * block_mu
    R = None if R is None else int(R * D)
    # |d| stays within the day's lam and mu sums, so each slot costs at most
    # (w_alpha + w_bp) times that, and overtime at most (w_oa + w_op) times
    # that plus R; codes stay below the radix product
    horizon = day_lam + day_mu + abs(R or 0)
    bound = (n_slots + 2) * horizon * (w_alpha + w_bp + w_oa + w_op)
    sizes = [n + 1 for n in counts0]
    dtype = np.int64 if max(bound, prod(sizes)) < 2 ** 63 else object
    lam, mu, radix, sizes = (np.array(x, dtype)
                             for x in (lams, mus, radix, sizes))
    qplus = np.array([g.qplus for g in groups])
    kind_type = np.min_scalar_type(len(groups))

    def open_types(code, t):
        """The types each row may give slot t: those it has left, and only
        Q+ types in slot 0 when there are any."""
        open_ = code[:, None] // radix % sizes > 0
        if not t and has_qplus:
            open_ &= qplus
        return open_

    def advance(code, d, kind, t):
        """(step cost, code, lag) after each row gives slot t to its type:
        a Q type moves d down by its lambda; a Q+ type with lag = d -
        lambda adds alpha*max(lag, 0) wait and beta_p*max(-lag, 0) idle
        and leaves d = max(lag, 0) + mu.

        This is the slot recurrence of timeline._slot in lag form.  Run on
        _slot instead (assistant free at 0, physician at d), the DP gave the
        same results and node counts but took 483 ms, not 419, for table7
        at k=2 under enumerate and 6.31 ms, not 5.81, for the table7 block
        under branch and bound (2 cores), and saved 3 lines."""
        code = code - radix[kind]
        if (t + 1) % block_size == 0:
            code[:] = full   # the next block starts with every type left
        if not (t and has_qplus):   # the physician has not started
            return 0, code, (mu[kind] if has_qplus else d)
        lag = d - lam[kind]
        wait = np.maximum(lag, 0)
        plus = qplus[kind]
        step = np.where(plus, w_alpha * wait + w_bp * (wait - lag), 0)
        return step, code, np.where(plus, wait, lag) + mu[kind]

    def overtime(code, d, t):
        """The overtime cost each row cannot avoid once slot t is filled,
        which is its overtime cost once the day is placed.  The day's
        lambda sum fixes the assistant's; the physician is free at pa + d
        and still has the mu of every patient left, and pa plus that mu
        follows from the blocks begun and the counts left."""
        if R is None:
            return 0
        extra = w_oa * max(0, day_lam - R)
        if has_qplus:
            left = code[:, None] // radix % sizes
            end = (d + day_mu
                   + ((t + 1) // block_size + 1) * (block_lam - block_mu)
                   - (left * (lam - mu)).sum(axis=1))
            extra = extra + w_op * np.maximum(end - R, 0)
        return extra

    def search(beam=None, incumbent=None):
        """One pass over the layers: the least total cost, the type
        sequence of its first row, and whether a layer was cut to beam."""
        code, d, cost = (np.array([x], dtype) for x in (full, 0, 0))
        links = []   # per layer: the parent row and type of each state
        cut = False
        depth = 0
        while depth < n_slots:
            open_ = open_types(code, depth)
            n = int(np.count_nonzero(open_))
            if budget.spend_many(n) < n:
                break
            par, kind = np.nonzero(open_)   # children in (parent, type) order
            del open_
            step, code, d = advance(code[par], d[par], kind, depth)
            cost = cost[par] + step
            if incumbent is not None:
                alive = cost + overtime(code, d, depth) <= incumbent
                par, kind, code, d, cost = (x[alive]
                                            for x in (par, kind, code, d, cost))
            keep = _first_of_each_state(code, d, cost)
            if beam is not None and len(keep) > beam:
                keep = np.sort(keep[np.argsort(cost[keep],
                                               kind="stable")[:beam]])
                cut = True
            code, d, cost = code[keep], d[keep], cost[keep]
            links.append((par[keep].astype(np.int32),
                          kind[keep].astype(kind_type)))
            depth += 1
        if budget.exhausted and budget.nodes <= n_slots:
            raise budget.out_of_budget()
        # complete each state by its remaining counts in type order (nothing
        # once every layer is done)
        tails = []
        for t in range(depth, n_slots):
            kind = np.argmax(open_types(code, t), axis=1)
            step, code, d = advance(code, d, kind, t)
            cost = cost + step
            tails.append(kind)
        cost = cost + overtime(code, d, n_slots - 1)
        row = int(np.argmin(cost))
        seq = [int(k[row]) for k in reversed(tails)]
        best = int(cost[row])
        for par, kind in reversed(links):
            seq.append(int(kind[row]))
            row = par[row]
        return best, seq[::-1], cut

    if config.mode == "enumerate":
        best, seq, _ = search()
    else:
        best, seq, cut = search(beam=BEAM)
        if cut and not budget.exhausted:
            best, seq = min((best, seq), search(incumbent=best)[:2])
    return _solution(seq, best, denom * D, budget, blocks_patients)


# ---------------------------------------------------------------------------
# Scenario-averaged exact block model

NODE_ELEMENTS = 1 << 16   # elements of one chunk's per-node arrays, all told
SAA_MAX_SLOTS = 500   # the saa search keeps a chunk of nodes per slot


@dataclass
class _Chunk:
    """Prefix nodes of one depth in lexicographic order of their type
    sequences.  Per node: type counts left, the prefix that fixes the next
    appointment candidates, each candidate's K assistant-free and
    physician-free times and summed scaled cost, and the parent row (in the
    chunk one depth up) and type that reached it.  `next` is the first row
    not yet expanded."""
    counts: np.ndarray
    prefix: np.ndarray
    pa: np.ndarray
    p: np.ndarray
    cost: np.ndarray
    parent: np.ndarray
    kind: np.ndarray
    next: int = 0

    def __post_init__(self):
        # children each row can have: running totals pick how many rows
        # one expansion takes
        self.kids = np.cumsum((self.counts > 0).sum(axis=1))

    def nodes(self, rows=slice(None)):
        """The (counts, prefix, pa, p, cost) arrays of the given rows."""
        return (self.counts[rows], self.prefix[rows], self.pa[rows],
                self.p[rows], self.cost[rows])


def solve_saa_replication(inst: ClinicInstance, weights: CostWeights,
                          scenario_set, config: SearchConfig | None = None,
                          tau_rule: str = "earliest") -> Solution:
    """Minimize the scenario-average block cost over distinct sequences.

    Appointment times are first-stage (shared across scenarios): tau_rule
    "earliest" pins them to the mean prefix sums of the sequence;
    "quantile_grid" tries each decile (order statistic) of the scenario
    prefix-sum distribution and keeps the best.  Either way a slot's
    appointment candidates depend only on the prefix, so the search carries,
    per prefix node and candidate, the K scenarios' assistant-free and
    physician-free times and one summed scaled cost.

    The search is depth first over chunks of prefix nodes (see _Chunk):
    it expands up to a chunk's worth of one depth's nodes at once, as numpy
    arrays, and goes down into their children before the next rows.
    Children are ordered by (parent, type), so complete sequences arrive in
    lexicographic order.  Children with one patient left are completed in
    the same expansion, as that chunk would be expanded next anyway.  A
    leaf must be strictly cheaper than the best one so far, so the first
    of the least cost is kept, with the lowest decile on ties.

    "enumerate" visits every prefix.  "branch_and_bound" first makes an
    incumbent pass that cuts each depth's children to the SAA_BEAM of least
    cost, or to as many as one chunk may hold if that is fewer (the first
    rows on ties, kept in order), and expands each depth as one chunk; if
    no depth was cut, that pass was the full search and its result is
    returned.  Otherwise a pruned pass drops each node whose cheapest
    candidate costs more than the incumbent, and once it has a leaf at or
    below the incumbent, each node that costs at least its best leaf (waits
    and span idle never shrink, and there is no overtime).  Both modes
    return the lexicographically first optimum.

    ``nodes_explored`` counts the children examined and the leaves
    completed.  Each expansion is charged to the budget before it is made.
    If the budget runs out before any leaf, the search fails when it has
    spent no more than the n_slots nodes one schedule needs; otherwise each
    node of the deepest chunk is completed by its remaining counts in type
    order and the cheapest completion is returned, not certified.  When it
    runs out in the pruned pass, that pass's best leaf is returned, or the
    incumbent if it has none.  The optimality flag refers to the sequence
    search given the appointment rule.
    """
    if tau_rule not in ("earliest", "quantile_grid"):
        raise ValueError(f"unknown tau rule: {tau_rule}")
    config = config or SearchConfig()
    block = expand_block(inst)
    n_slots = len(block)
    if n_slots > SAA_MAX_SLOTS:
        raise ValueError(f"the saa search keeps a chunk of nodes per slot "
                         f"and takes at most {SAA_MAX_SLOTS} slots, "
                         f"not {n_slots}")
    if not n_slots:
        return Solution(AppointmentTemplate((), (), (0, 0)), Fraction(0),
                        optimal=True, nodes_explored=0)
    groups = _groups(block)
    denom, (w_alpha, w_ba, w_bp, _, _) = _scale(weights)
    budget = _Budget(config)
    quantile = tau_rule == "quantile_grid"
    K = scenario_set.K
    C = 9 if quantile else 1   # appointment candidates per node
    if quantile:   # the deciles np.quantile(..., method="lower") picks
        ranks = [int(np.quantile(np.arange(K), q / 10, method="lower"))
                 for q in range(1, 10)]
    # mean prefix sums may fall off the tenths grid: every time is scaled by
    # the common denominator of the mean stage-1 times (deciles are draw sums)
    D = 1 if quantile else lcm(*(Fraction(g.lam).denominator for g in groups))

    # patients in group order; a node's next patient of group i is
    # ends[i] - (counts left of i)
    uids = [p.uid for g in groups for p in g.patients]
    sizes = np.array([len(g.patients) for g in groups])
    ends = np.cumsum(sizes)
    qplus = np.array([g.qplus for g in groups], dtype=bool)
    lam_draws, mu_draws = scenario_set.lam[:, uids], scenario_set.mu[:, uids]
    # no time exceeds the largest draw sums plus the mean sum, and each slot
    # adds at most (2 w_alpha + w_ba + w_bp) K such times to a cost; the
    # pruned pass compares costs with the incumbent plus one
    horizon = D * (max(map(sum, lam_draws.tolist()))
                   + max(map(sum, mu_draws.tolist())) + sum(p.lam for p in block))
    bound = n_slots * K * horizon * (2 * w_alpha + w_ba + w_bp)
    dtype = np.int64 if bound + 1 < 2 ** 63 else object
    lams, mus = (x.T.astype(dtype) * D for x in (lam_draws, mu_draws))
    lam_bar = np.array([int(g.lam * D) for g in groups], dtype)

    def open_types(counts, depth):
        """The types each node may give slot `depth`: those it has left,
        and only Q+ types in slot 0 when there are any."""
        open_ = counts > 0
        if depth == 0 and qplus.any():
            open_ &= qplus
        return open_

    def expand(nodes, depth, par, kind):
        """The children that give slot `depth` of node par[i] to type
        kind[i], as (counts, prefix, pa, p, cost) arrays like nodes'.

        This is the slot recurrence of timeline._slot over K scenarios and C
        candidates.  _slot takes the stage-1 start per child, where this
        step takes it once per parent, and returns per-scenario increments,
        where this step sums them first.  Run on _slot (children batched,
        Q+ as a mask), the search gave the same results and node counts but
        the saa workload's 36 branch-and-bound solves took 1,216 ms, not
        514, and 4 enumerate solves at K=10 422 ms, not 188 (2 cores)."""
        counts, prefix, pa, p, cost = nodes
        # the stage-1 starts of the slot do not depend on its type: each
        # scenario either waits for the assistant or the assistant idles
        taus = np.sort(prefix, axis=1)[:, ranks] if quantile else prefix[:, None]
        ea = np.maximum(pa, taus[:, :, None])
        ea_sum = ea.sum(axis=2)
        cost = (cost + w_alpha * (ea_sum - K * taus)
                + w_ba * (ea_sum - pa.sum(axis=2)))
        pick = ends[kind] - counts[par, kind]
        lam = lams[pick]
        child_pa = ea[par]
        child_pa += lam[:, None, :]
        child_p, child_cost = p[par], cost[par]
        plus = np.flatnonzero(qplus[kind])
        if len(plus):
            pa_plus, p_plus = child_pa[plus], child_p[plus]
            pa_sum = pa_plus.sum(axis=2)
            ep = np.maximum(pa_plus, p_plus, out=pa_plus)   # stage-2 starts
            ep_sum = ep.sum(axis=2)
            step = w_alpha * (ep_sum - pa_sum)
            if depth:   # a Q+ slot 0 starts the physician
                step += w_bp * (ep_sum - p_plus.sum(axis=2))
            ep += mus[pick[plus]][:, None, :]
            child_cost[plus] += step
            child_p[plus] = ep
        if depth + 1 == n_slots:   # leaves: no next slot to fix
            return None, None, child_pa, child_p, child_cost
        child_prefix = prefix[par] + (lam if quantile else lam_bar[kind])
        child_counts = counts[par]
        child_counts[np.arange(len(par)), kind] -= 1
        return child_counts, child_prefix, child_pa, child_p, child_cost

    def complete(nodes, depth):
        """Each node of the given depth completed by its remaining counts
        in type order: the leaf arrays and the type of each slot added."""
        tails = []
        for t in range(depth, n_slots):
            kind = np.argmax(open_types(nodes[0], t), axis=1)
            nodes = expand(nodes, t, np.arange(len(kind)), kind)
            tails.append(kind)
        return nodes, tails

    def types_to(stack, row):
        """The type sequence of a row of the top chunk of the stack."""
        seq = []
        for up in reversed(stack[1:]):
            seq.append(int(up.kind[row]))
            row = up.parent[row]
        return seq[::-1]

    # elements one node holds in a chunk: pa and p (C x K each), cost (C),
    # counts, prefix, parent and kind
    node_elements = 2 * C * K + C + len(groups) + (K if quantile else 1) + 2
    rows_cap = max(1, NODE_ELEMENTS // node_elements)
    zeros = np.zeros((1, C, K), dtype)
    root = (sizes[None, :], np.zeros((1, K) if quantile else 1, dtype),
            zeros, zeros, np.zeros((1, C), dtype))

    def search(beam=None, incumbent=None):
        """One pass: (scaled cost, types, decile) of its best leaf, or of
        the best completion of the deepest chunk when the budget runs out
        before any leaf; and whether a depth was cut to beam."""
        prune = incumbent is not None
        # a node or leaf lives while its least cost is below the limit
        limit = None if incumbent is None else incumbent + 1
        best, cut = None, False
        stack = [_Chunk(*root, np.zeros(1, np.intp), np.zeros(1, np.intp))]
        while stack:
            chunk = stack[-1]
            if chunk.next == len(chunk.cost):
                stack.pop()
                continue
            depth = len(stack) - 1
            start = chunk.next
            if beam is not None:   # a beam depth is expanded as one chunk
                chunk.next = len(chunk.cost)
            else:   # as many rows as have at most rows_cap children, at least one
                done = chunk.kids[start - 1] if start else 0
                chunk.next = max(start + 1, int(np.searchsorted(
                    chunk.kids, done + rows_cap, side="right")))
            nodes = chunk.nodes(slice(start, chunk.next))
            open_ = open_types(nodes[0], depth)
            if prune:
                open_ &= (nodes[4].min(axis=1) < limit)[:, None]
            par, kind = np.nonzero(open_)   # children in (parent, type) order
            if not len(par):
                continue
            budget.spend_many(len(par))
            if budget.exhausted:
                break
            kids = expand(nodes, depth, par, kind)
            if prune:
                keep = np.flatnonzero(kids[4].min(axis=1) < limit)
                if not len(keep):
                    continue
                if len(keep) < len(par):
                    par, kind = par[keep], kind[keep]
                    kids = tuple(x[keep] for x in kids)
            if depth + 2 < n_slots:
                if beam is not None and len(par) > beam:
                    keep = np.sort(np.argsort(kids[4].min(axis=1),
                                              kind="stable")[:beam])
                    par, kind = par[keep], kind[keep]
                    kids = tuple(x[keep] for x in kids)
                    cut = True
                stack.append(_Chunk(*kids, start + par, kind))
                continue
            # the children have at most one patient left: their leaves
            if depth + 2 == n_slots:
                budget.spend_many(len(par))
                if budget.exhausted:
                    break
            (*_, cost), tails = complete(kids, depth + 1)
            # the first row and lowest decile among the least costs
            leaf, c = divmod(int(cost.argmin()), C)
            if limit is None or cost[leaf, c] < limit:
                limit = cost[leaf, c]
                best = (limit, types_to(stack, start + par[leaf])
                        + [int(kind[leaf])] + [int(k[leaf]) for k in tails], c)
        if best is None and budget.exhausted and not prune:
            if budget.nodes <= n_slots:
                raise budget.out_of_budget()
            (*_, cost), tails = complete(chunk.nodes(), depth)
            row, c = divmod(int(cost.argmin()), C)
            best = (cost[row, c], types_to(stack, row)
                    + [int(k[row]) for k in tails], c)
        return best, cut

    if config.mode == "enumerate":
        (best, seq, c), _ = search()
    else:
        # a beam depth holds no more nodes than a chunk may
        (best, seq, c), cut = search(beam=min(SAA_BEAM, rows_cap))
        if cut and not budget.exhausted:
            found, _ = search(incumbent=best)
            if found is not None:
                best, seq, c = found

    slots = _patients_for(groups, seq)
    if quantile:
        taus, prefix = [], [0] * K
        for s in slots:
            taus.append(sorted(prefix)[ranks[c]])
            prefix = list(map(add, prefix, scenario_set.lam[:, s.uid].tolist()))
    else:
        taus = pa_prefix_taus(slots)
    template = AppointmentTemplate(slots, tuple(taus), (0, n_slots))
    return Solution(template, Fraction(int(best), denom * 10 * K * D),
                    optimal=not budget.exhausted, nodes_explored=budget.nodes)
