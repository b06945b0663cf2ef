"""Desk-scale exact optimization over multiset type sequences.

Every exact model runs on one layered search (_layers, _search), one slot
(layer) at a time over numpy arrays, in two modes: ``mode="enumerate"``
makes one pass, and ``mode="branch_and_bound"`` prunes a second pass
against the incumbent of a first pass that cuts each layer to its cheapest
rows.  A model is a step, a state key and a least total cost on that loop:

- the deterministic pinned-appointment models (single block, horizon)
  merge on (block, type counts left, physician lag) (see _lag_dp).  On
  table7 at k=3 (474.86) the ``exact`` command takes 7,074,446
  transitions, about 0.65 s and 57 MB peak memory under enumeration, and
  1,041,189 transitions, about 0.3 s and 40 MB under branch and bound
  (2 cores; the solver's share is 0.53 and 0.09 s).
- the scenario-averaged block model carries all K scenarios in a row, one
  search per appointment rank (see solve_saa_replication); both modes fold
  slack into the free times as each child is made, and branch and bound
  merges on (type counts left, K assistant-free and K physician-free
  times).  It certifies the table7 block (seed 7) at K=1, 2 and 5: 55.9,
  47.9 and 57.176 under "earliest", 12.36, 34.63 and 50.46 under
  "quantile_grid".

Every solver returns the lexicographically first optimal sequence.
Sequences are over type multisets, not labeled patients; same-type patients
take replicates in order of appearance.  Idle time is the span-based
definition used everywhere else in the package.  Costs are compared in
exact scaled-integer arithmetic; reported objectives are Fractions in
minute units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import lcm, prod
from operator import mul

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
    spent_limit: str | None = None   # the limit that ended an uncertified run


class _Budget:
    def __init__(self, config: SearchConfig):
        self.node_limit = config.node_limit
        self.deadline = time.monotonic() + config.time_limit
        self.time_limit = config.time_limit
        self.nodes = 0
        self.exhausted = False
        self.spent_limit = None   # the limit that ran out first
        self.fixed = False   # whether that is a memory bound of the module

    def spend_many(self, n: int):
        """Count n nodes at once, or as many as the budget allows.  The
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

    def stop(self, limit: str, elements: int):
        """End the search as if its budget had run out, at the memory bound
        `limit` of `elements`, a module constant that no option sets."""
        self.spent_limit = f"{limit} ({elements} elements)"
        self.exhausted = self.fixed = True

    def out_of_budget(self) -> ValueError:
        fix = ("it is a fixed memory bound that no option raises"
               if self.fixed else "raise it")
        return ValueError(f"the {self.spent_limit} ran out before any "
                          f"complete schedule was found; {fix}")


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


def _radix(counts, order=None) -> tuple[list[int], int]:
    """Mixed-radix place values of the type counts and the code of counts
    itself: taking one patient of type i subtracts radix[i] from the code,
    and the code is 0 once the block is placed.  The types take the places
    from the lowest up in `order`, type order by default."""
    radix, place = [0] * len(counts), 1
    for i in range(len(counts)) if order is None else order:
        radix[i] = place
        place *= counts[i] + 1
    return radix, sum(n * r for n, r in zip(counts, radix))


def _counts_table(counts, radix, budget, elements=0) -> np.ndarray:
    """The type counts left of every counts code (see _radix), one row per
    code: row c is c // radix % (counts + 1), in the least unsigned dtype
    that holds the counts.  Built once per solve, it turns each decode of a
    row's code into a gather.  If the table, or the model's own per-solve
    table of `elements`, would pass TABLE_ELEMENTS, the solve stops before
    its first layer at the table limit; so every code of a solve fits in
    int64."""
    n_codes = prod(n + 1 for n in counts)
    if max(n_codes * len(counts), elements) > TABLE_ELEMENTS:
        budget.stop("table limit", TABLE_ELEMENTS)
        raise budget.out_of_budget()
    left = np.arange(n_codes)[:, None] // np.array(radix, np.int64)
    left %= np.array(counts, np.int64) + 1
    return left.astype(np.min_scalar_type(max(counts, default=0)))


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
                    not budget.exhausted, budget.nodes, budget.spent_limit)


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


def _hash_rows(cols) -> np.ndarray:
    """A 64-bit hash of each row of the integer columns."""
    h = np.zeros(len(cols[0]), np.uint64)
    for x in cols:
        h ^= x.astype(np.uint64)
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
    return h


def _first_of_each_state(code, d, cost) -> np.ndarray:
    """The rows, in order, that keep their state (code, *d): the least
    cost, the first row on ties.  d is a tuple of further state columns
    (the saa model's free times; the DP packs its lag into code and passes
    none).  When (state, cost, row) packs into one int64 value, within the
    spans of this call's rows, the packed values themselves are sorted: a
    state starts where value // (cost span * n) changes, and its first
    value holds the row (value % n).  Otherwise int64 rows are sorted on
    (hash of the state, cost) and Python integers by lexsort, and a state
    starts wherever a column changes, so rows of equal hash but unequal
    state stay apart (a hash collision can only keep a row more).  Either
    way the kept rows are marked in one mask and read back in order."""
    n = len(cost)
    cols = [code, *d]
    new = np.empty(n, bool)
    new[0] = True
    keep = np.zeros(n, bool)
    if cost.dtype == object:   # and so is every column but an int64 code
        order = np.lexsort([cost, *cols[::-1]])
    else:
        packed, room = code, (int(code.max()) + 1) * n
        for x in [*cols[1:], cost]:
            lo = x.min()
            span = int(x.max() - lo) + 1
            room *= span
            if room >= 2 ** 63:
                order = np.lexsort((cost, _hash_rows(cols)))
                break
            packed = packed * span + (x - lo)
        else:
            packed *= n
            packed += np.arange(n)
            packed.sort()
            state = packed // (span * n)
            np.not_equal(state[1:], state[:-1], out=new[1:])
            keep[packed[new] % n] = True
            order = None
    if order is not None:
        x = code[order]
        np.not_equal(x[1:], x[:-1], out=new[1:])
        for x in cols[1:]:
            x = x[order]
            new[1:] |= x[1:] != x[:-1]
        keep[order[new]] = True
    return keep.nonzero()[0]


BEAM = 512   # states per layer in the DP's incumbent pass
SAA_BEAM = 64   # rows per layer in the saa model's incumbent pass
NODE_ELEMENTS = 1 << 18   # elements of one chunk's children, all told
LAYER_ELEMENTS = 1 << 23   # elements of one layer's survivors, all told
TABLE_ELEMENTS = 1 << 23   # elements of one per-solve table of codes
MERGE_FLOOR = 1024   # rows up to which a saa chunk or layer is not merged


def _least(cost, beam: int) -> np.ndarray:
    """The rows of the `beam` least costs, the first rows on ties, in row
    order: np.sort(np.argsort(cost, kind="stable")[:beam]), by selection
    in O(n).  Every row below the beam-th least cost is kept, then the
    first rows equal to it, up to `beam` rows in all."""
    if beam >= len(cost):
        return np.arange(len(cost))
    edge = np.partition(cost, beam - 1)[beam - 1]
    keep = cost < edge
    ties = np.flatnonzero(cost == edge)
    keep[ties[:beam - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _take(rows: list, keep) -> list:
    """Cut each column of the list to the rows `keep`, in place, so each
    old column is freed as soon as it is cut."""
    for i, x in enumerate(rows):
        rows[i] = x[keep]
    return rows


def _layers(budget, n_slots, root, open_types, step, total, merge,
            beam=None, incumbent=None):
    """One pass of the layered search that serves every exact model.

    A layer is a list of numpy arrays with one row per state: first the
    type counts left as one mixed-radix code (see _radix), in int64 even
    when the costs are Python integers, last the cost, and the model's own
    columns between.  A model reads what a code holds from its per-solve
    tables (see _counts_table), so no row is decoded by division.  The
    model gives four functions: open_types(code, t), the types each row
    may put in slot t;
    step(rows, par, kind, t), the children that give slot t of row par[i]
    to type kind[i]; total(rows, t), each row's least total cost once slot
    t is filled; and merge(rows), the rows to keep, or None to keep them
    all.

    The children are made in (parent, type) order, a chunk of parents at a
    time.  A chunk is a run of NODE_ELEMENTS // (row width + 2) // (number
    of types) parent rows, one at least, so its children hold at most
    NODE_ELEMENTS elements, or one parent's.  Each chunk is charged to the
    budget before its children are made, so the clock is read once per
    chunk, and a pass that the budget stops counts only the chunks it
    made.  With an incumbent, each child whose least total exceeds it is
    dropped.  Each chunk is merged, then the layer of several chunks; the
    incumbent pass then cuts the layer to its `beam` rows of least cost
    (the first rows on ties), by selection rather than a sort (see
    _least).  Kept rows stay in order, so with an exact
    merge each row holds the lexicographically first of its state's
    cheapest prefixes, and the first row of least total cost reads back the
    lexicographically first optimum.  If a layer's survivors pass
    LAYER_ELEMENTS, the pass ends as if the budget had run out, after the
    chunk that passed it.

    Returns that least total, its type sequence, and whether a layer was
    cut to the beam; None if every child of a layer was dropped.  If the
    budget runs out before the n_slots nodes one schedule needs, no
    schedule is reported; otherwise each row of the last full layer is
    completed by its remaining counts in type order and the cheapest
    completion is returned."""
    width = sum(x[:1].size for x in root)   # elements one row holds
    cap = max(1, NODE_ELEMENTS // (width + 2))   # children a chunk holds
    n_types = open_types(root[0], 0).shape[1]
    run, kind_type = max(1, cap // n_types), np.min_scalar_type(n_types)
    rows, links, cut = root, [], False
    depth = 0
    while depth < n_slots:
        parts, held = [], 0
        for lo in range(0, len(rows[0]), run):
            part = [x[lo:lo + run] for x in rows]
            par, kind = np.nonzero(open_types(part[0], depth))
            budget.spend_many(len(par))
            if budget.exhausted:
                break
            child = step(part, par, kind, depth)
            if incumbent is not None:
                alive = total(child, depth) <= incumbent
                par, kind, child = par[alive], kind[alive], _take(child, alive)
            keep = merge(child) if len(par) else None
            if keep is not None:
                par, kind, child = par[keep], kind[keep], _take(child, keep)
            if lo:
                par += lo
            parts.append((par.astype(np.int32), kind.astype(kind_type), child))
            held += len(par) * width
            if held > LAYER_ELEMENTS:
                budget.stop("layer limit", LAYER_ELEMENTS)
                break
        if budget.exhausted:
            break
        par, kind, child = parts[0]
        if len(parts) > 1:
            par, kind = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
            child = []
            for i in range(len(rows)):   # a column at a time: one copy held
                child.append(np.concatenate([p[2][i] for p in parts]))
                for p in parts:
                    p[2][i] = None
            keep = merge(child)
            if keep is not None:
                par, kind, child = par[keep], kind[keep], _take(child, keep)
        del parts
        if not len(par):   # the incumbent pruned every child
            return None
        if beam is not None and len(par) > beam:
            keep = _least(child[-1], beam)
            par, kind, child = par[keep], kind[keep], _take(child, keep)
            cut = True
        rows = child
        links.append((par, kind))
        depth += 1
    if budget.exhausted and budget.nodes <= n_slots:
        raise budget.out_of_budget()
    # complete each row by its remaining counts in type order (nothing once
    # every layer is done), a chunk of rows at a time
    best = None
    for lo in range(0, len(rows[0]), cap):
        part, tails = [x[lo:lo + cap] for x in rows], []
        for t in range(depth, n_slots):
            kind = np.argmax(open_types(part[0], t), axis=1)
            part = step(part, np.arange(len(kind)), kind, t)
            tails.append(kind)
        cost = total(part, n_slots - 1)
        row = int(np.argmin(cost))
        if best is None or cost[row] < best[0]:
            best = int(cost[row]), lo + row, [int(k[row]) for k in tails]
    cost, row, tail = best
    seq = []
    for par, kind in reversed(links):
        seq.append(int(kind[row]))
        row = par[row]
    return cost, seq[::-1] + tail, cut


def _search(budget, mode, beam, n_slots, models):
    """Both modes on the layer loop for models (root, open_types, step,
    total, merge) that share the budget: the least (total, types, model).

    A pass starts only while the budget lasts.  "enumerate" makes one pass
    per model.  "branch_and_bound" makes one per model that cuts each layer
    to `beam` rows, then one per model with a cut layer that drops each
    child whose least total exceeds the least result so far.  That total
    never falls along a path and depends only on the state and its cost, so
    every state on an optimal path keeps its row of the full search: both
    modes return the lexicographically first optimum, of the first model
    on ties."""
    found, cut = [], []
    for i, model in enumerate(models):
        if not budget.exhausted:
            *result, was_cut = _layers(budget, n_slots, *model, beam=(
                beam if mode == "branch_and_bound" else None))
            found.append((*result, i))
            if was_cut:
                cut.append(i)
    for i in cut:
        if not budget.exhausted:
            result = _layers(budget, n_slots, *models[i],
                             incumbent=min(found)[0])
            if result is not None:
                found.append((*result[:2], i))
    return min(found)


def _open_types(left, qplus):
    """The model's open_types for _layers, read by each row's code from the
    counts table `left` (see _counts_table): the types each row may put in
    slot t are those it has left, and only Q+ types in slot 0 when there
    are any."""
    def open_types(code, t):
        # np.take gathers whole rows about 3x as fast as left[code]
        open_ = np.take(left, code, axis=0) > 0
        if not t and qplus.any():
            open_ &= qplus
        return open_
    return open_types


def _lag_dp(groups, blocks: int, weights: CostWeights, config: SearchConfig,
            regular_time: Scalar | None, blocks_patients) -> Solution:
    """The deterministic models on the layer loop (see _layers and _search).

    A state is (block, remaining type counts, lag d), d = physician free -
    assistant free, or none until the physician starts (Held-Karp-style
    state merging: the assistant never idles).  The block follows from the
    layer, and so does whether the physician has started: slot 0 takes a Q+
    type whenever one exists.  A layer's columns are the counts code (in
    type order, see _radix), the lag and the least cost that reaches the
    state.  The open types and each code's sum of counts left times
    (lambda - mu), which the overtime bound reads, come from one counts
    table per solve (see _counts_table); past its bound the solve stops
    before its first layer.  Every chunk and layer
    is merged on one key column, code * (day_lam + day_mu + 1) + (lag +
    day_lam), which is one-to-one: the lag lies in [-day_lam, day_mu],
    because a Q type lowers it by its lambda and a Q+ type leaves at most
    max(lag, 0) plus its mu.  The layers are int64 only when the key's
    bound (the radix product times that span) and the cost bound fit, so no
    key can wrap; they hold Python integers otherwise, all but the code,
    which the table bound keeps in int64.  A child's least
    total adds the overtime it cannot avoid, and ``nodes_explored`` counts
    the transitions, one per (state, open type), over every pass; the
    incumbent pass keeps BEAM states a layer."""
    denom, (w_alpha, _, w_bp, w_oa, w_op) = _scale(weights)
    budget = _Budget(config)
    R = regular_time
    counts0 = [len(g.patients) for g in groups]
    radix, full = _radix(counts0)
    left = _counts_table(counts0, radix, budget)
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
    # d lies in [-day_lam, day_mu], so each slot costs at most (w_alpha +
    # w_bp) times the day's lam and mu sums, and overtime at most (w_oa +
    # w_op) times that plus R; codes stay below the radix product, and state
    # keys below that product times the lag's span
    horizon = day_lam + day_mu + abs(R or 0)
    bound = (n_slots + 2) * horizon * (w_alpha + w_bp + w_oa + w_op)
    lags = day_lam + day_mu + 1
    dtype = np.int64 if max(bound, (full + 1) * lags) < 2 ** 63 else object
    lam, mu = np.array(lams, dtype), np.array(mus, dtype)
    radix = np.array(radix, np.int64)
    qplus = np.array([g.qplus for g in groups])
    # each code's sum of counts left times (lambda - mu), for the overtime
    spread = (left * (lam - mu)).sum(axis=1)

    def advance(rows, par, kind, t):
        """The children that give slot t of row par[i] to type kind[i]: a
        Q type moves d down by its lambda; a Q+ type with lag = d - lambda
        adds alpha*max(lag, 0) wait and beta_p*max(-lag, 0) idle and leaves
        d = max(lag, 0) + mu.

        This is the slot recurrence of timeline._slot in lag form.  Run on
        _slot instead (assistant free at 0, physician at d), the DP gave the
        same results and node counts but took 483 ms, not 419, for table7
        at k=2 under enumerate and 6.31 ms, not 5.81, for the table7 block
        under branch and bound (2 cores), and saved 3 lines."""
        code, d, cost = rows
        code = code[par] - radix[kind]
        if (t + 1) % block_size == 0:
            code[:] = full   # the next block starts with every type left
        if not (t and has_qplus):   # the physician has not started
            return [code, mu[kind] if has_qplus else d[par], cost[par]]
        lag = d[par] - lam[kind]
        wait = np.maximum(lag, 0)
        plus = qplus[kind]
        step = np.where(plus, w_alpha * wait + w_bp * (wait - lag), 0)
        return [code, np.where(plus, wait, lag) + mu[kind], cost[par] + step]

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
            end = (d + day_mu
                   + ((t + 1) // block_size + 1) * (block_lam - block_mu)
                   - spread[code])
            extra = extra + w_op * np.maximum(end - R, 0)
        return extra

    root = [np.array([full], np.int64), np.zeros(1, dtype), np.zeros(1, dtype)]
    best, seq, _ = _search(budget, config.mode, BEAM, n_slots, [(
        root, _open_types(left, qplus), advance,
        lambda rows, t: rows[2] + overtime(*rows[:2], t),
        lambda rows: _first_of_each_state(
            rows[0].astype(dtype, copy=False) * lags + (rows[1] + day_lam),
            (), rows[2]))])
    return _solution(seq, best, denom * D, budget, blocks_patients)


# ---------------------------------------------------------------------------
# Scenario-averaged exact block model

def _floor_table(lams, ends, counts, plus, low) -> np.ndarray:
    """The physician floor of every Q+ counts code, one row of K per code.

    The Q+ types `plus` take the low places of the counts code in type
    order (see _radix), so a code c below the product of their counts + 1
    codes the Q+ counts left.  Row c holds, per scenario, the least
    stage-1 draw lams[ends[i] - n] of the next patient of each Q+ type i
    with n > 0 left (lams has one row per patient, in group order), and
    row 0, with none left, holds -low.  The table grows one Q+ type at a
    time, as a running minimum of its rows and that type's next draws."""
    top = lams.max(axis=0)   # no less than every draw: no patient left
    floors = top[None]
    for i in plus:
        nexts = np.repeat(top[None, None], counts[i] + 1, axis=0)
        nexts[1:, 0] = lams[ends[i] - np.arange(1, counts[i] + 1)]
        floors = np.minimum(nexts, floors).reshape(-1, len(top))
    floors[0] = -low
    return floors


def solve_saa_replication(inst: ClinicInstance, weights: CostWeights,
                          scenario_set, config: SearchConfig | None = None,
                          tau_rule: str = "earliest") -> Solution:
    """Minimize the scenario-average block cost over distinct sequences.

    Appointment times are first-stage (shared across scenarios): tau_rule
    "earliest" pins them to the mean prefix sums of the sequence;
    "quantile_grid" searches each distinct rank (one for K <= 2, nine for
    K >= 10) of the nine deciles np.quantile(..., method="lower") picks of
    the scenario prefix sums, as one model of _search.  Either way a slot's
    appointment depends only on the type counts placed.

    The model runs on the layer loop (see _layers and _search).  A layer's
    columns are the counts code (int64), the prefix that fixes the next
    appointment (the mean sum, or the K draw sums), the K scenarios'
    assistant-free and physician-free times and the summed scaled cost
    (times in int32 and costs in int64 when a-priori bounds fit, Python
    integers otherwise).  A row's least total is its cost: waits and span
    idle never shrink, and there is no overtime.  The incumbent pass keeps
    SAA_BEAM rows a layer.

    Both modes fold slack into each child as it is made, which is exact
    because every later slot shows and the block has no overtime:
    - each assistant-free time is raised to the next slot's appointment,
      which the counts placed fix; the rise is booked as assistant idle
      and the rest of the gap as stage-1 wait;
    - each physician-free time is raised to the assistant-free time plus
      the least stage-1 draw of the next patient of any Q+ type left, and
      the rise is booked as physician idle; with no Q+ patient left it is
      set to 0.
    That floor depends on the Q+ counts left alone.  The Q+ types take the
    low places of the counts code (the types keep their order, and so do
    rows and ties), so code % plus_span codes those counts, plus_span being
    the product of the Q+ counts + 1.  A table of plus_span rows of K
    floors (see _floor_table) gives each child its floor by that code.
    The counts table (see _counts_table) gives each row its open types and
    the next patient of each type, and a per-code column its Q+ code; all
    three are built once per solve and shared by every rank, so no row is
    decoded by division.  If the counts table or the floor table would pass
    TABLE_ELEMENTS, the solve stops before its first layer at the table
    limit; 19 single-patient types pass it (2^19 codes of 19 counts).
    "enumerate" neither merges nor prunes, so it visits every prefix;
    "branch_and_bound" merges chunks and layers of more than MERGE_FLOOR
    rows on (counts, K assistant-free, K physician-free times).  Both modes
    return the lexicographically first optimal sequence, with the lowest
    decile on ties.  ``nodes_explored`` counts the children made, one per
    (row, open type), over every pass.  The optimality flag refers to the
    sequence search given the appointment rule.
    """
    if tau_rule not in ("earliest", "quantile_grid"):
        raise ValueError(f"unknown tau rule: {tau_rule}")
    config = config or SearchConfig()
    block = expand_block(inst)
    n_slots = len(block)
    if not n_slots:
        return Solution(AppointmentTemplate((), (), (0, 0)), Fraction(0),
                        optimal=True, nodes_explored=0)
    groups = _groups(block)
    denom, (w_alpha, w_ba, w_bp, _, _) = _scale(weights)
    budget = _Budget(config)
    quantile = tau_rule == "quantile_grid"
    K = scenario_set.K
    ranks = sorted({int(np.quantile(np.arange(K), q / 10, method="lower"))
                    for q in range(1, 10)}) if quantile else [None]
    # mean prefix sums may fall off the tenths grid: every time is scaled by
    # the common denominator of the mean stage-1 times (deciles are draw sums)
    D = 1 if quantile else lcm(*(Fraction(g.lam).denominator for g in groups))

    # patients in group order; a row's next patient of group i is
    # ends[i] - (counts left of i).  The Q+ types take the low places of
    # the counts code, so code % plus_span codes the Q+ counts left, which
    # plus_codes holds per code; the floor table has plus_span rows of K
    counts0 = [len(g.patients) for g in groups]
    qplus = np.array([g.qplus for g in groups], dtype=bool)
    plus = np.flatnonzero(qplus)
    radix, full = _radix(counts0, [*plus, *np.flatnonzero(~qplus)])
    plus_span = prod(counts0[i] + 1 for i in plus)
    left = _counts_table(counts0, radix, budget, plus_span * K)
    plus_codes = np.arange(full + 1) % plus_span
    uids = [p.uid for g in groups for p in g.patients]
    ends = np.cumsum(counts0)
    lam_draws, mu_draws = scenario_set.lam[:, uids], scenario_set.mu[:, uids]
    # the horizon: the largest draw sums plus the mean sum; each slot adds at
    # most (2 w_alpha + w_ba + w_bp) K times twice that to a cost
    horizon = D * (max(map(sum, lam_draws.tolist()))
                   + max(map(sum, mu_draws.tolist())) + sum(p.lam for p in block))
    bound = 2 * n_slots * K * horizon * (2 * w_alpha + w_ba + w_bp)
    dtype = np.int64 if bound < 2 ** 63 else object
    # times, which a row holds 2K of, in int32 when they fit: none exceeds
    # three horizons (a decile can be the largest draw sum)
    tdtype = np.int32 if dtype is np.int64 and 4 * horizon < 2 ** 31 else dtype
    lams, mus = (x.T.astype(tdtype) * D for x in (lam_draws, mu_draws))
    lam_bar = np.array([int(g.lam * D) for g in groups], tdtype)
    radix = np.array(radix, np.int64)
    # the physician floor of each Q+ counts code; no time reaches four
    # horizons, so the floor with no Q+ patient left lies below every time
    floors = _floor_table(lams, ends, counts0, plus, int(4 * horizon) + 1)

    def row_sums(x):
        """Each row's exact sum, in the cost dtype (einsum takes about half
        the time of x.sum(axis=1) on rows of 1,000 or more)."""
        return np.einsum("ij->i", x, dtype=dtype)

    def appointments(prefix, rank):
        """Each row's appointment for the slot its prefix ends at, as a
        column: the mean sum, or the rank-th of the K draw sums."""
        return (prefix[:, None] if rank is None else
                np.partition(prefix, rank, axis=1)[:, rank, None])

    def step(rows, par, kind, t, rank):
        """The children that give slot t of row par[i] to type kind[i],
        with appointments by `rank`.  Times are (rows, K), costs (rows,).

        This is the slot recurrence of timeline._slot over K scenarios.
        _slot returns per-scenario increments, where this step sums each
        child's over K first, exactly, in the cost dtype.  The next patient
        of a type and a child's Q+ counts code are gathered from the
        per-code tables; its physician floor is the floor-table row of that
        Q+ code."""
        code, prefix, pa, p, cost = rows
        code = code[par]
        pick = ends[kind] - left[code, kind]
        lam = lams[pick]
        child_pa = pa[par]
        child_pa += lam
        child_p, child_cost = p[par], cost[par]
        q = np.flatnonzero(qplus[kind])
        if len(q):
            pa_plus, p_plus = child_pa[q], child_p[q]
            ep = np.maximum(pa_plus, p_plus)   # stage-2 starts
            inc = w_alpha * row_sums(ep - pa_plus)
            if t:   # a Q+ slot 0 starts the physician
                inc += w_bp * row_sums(ep - p_plus)
            ep += mus[pick[q]]
            child_cost[q] += inc
            child_p[q] = ep
        code = code - radix[kind]
        prefix = prefix[par] + (lam if quantile else lam_bar[kind])
        if t + 1 < n_slots:
            # the next slot's stage-1 start does not depend on its type:
            # each scenario either idles the assistant or waits for it
            taus = appointments(prefix, rank)
            folded = np.maximum(child_pa, taus)
            child_cost += (w_ba * row_sums(folded - child_pa)
                           + w_alpha * row_sums(folded - taus))
            child_pa = folded
        if len(plus):   # the floor depends on the Q+ counts alone
            plus_code = plus_codes[code]
            # with no Q+ patient left (code 0), p stays, and is then dropped
            folded = np.maximum(child_p, child_pa + floors[plus_code])
            child_cost += w_bp * row_sums(folded - child_p)
            child_p = folded
            child_p[plus_code == 0] = 0
        return [code, prefix, child_pa, child_p, child_cost]

    def merge(rows):
        code, _, pa, p, cost = rows
        if config.mode == "branch_and_bound" and len(code) > MERGE_FLOOR:
            return _first_of_each_state(code, (*pa.T, *p.T), cost)
        return None

    zeros = np.zeros((1, K), tdtype)
    root = [np.array([full], np.int64), zeros if quantile else zeros[:, 0],
            zeros, zeros, np.zeros(1, dtype)]
    open_types = _open_types(left, qplus)   # one table for every rank
    models = [(root, open_types, partial(step, rank=r),
               lambda rows, t: rows[-1], merge) for r in ranks]
    best, seq, i = _search(budget, config.mode, SAA_BEAM, n_slots, models)

    slots = _patients_for(groups, seq)
    if quantile:   # the rank-th of the K prefix sums before each slot
        draws = scenario_set.lam[:, [s.uid for s in slots]]
        taus = np.sort(draws.cumsum(axis=1) - draws, axis=0)[ranks[i]].tolist()
    else:
        taus = pa_prefix_taus(slots)
    template = AppointmentTemplate(slots, tuple(taus), (0, n_slots))
    return Solution(template, Fraction(best, denom * 10 * K * D),
                    not budget.exhausted, budget.nodes, budget.spent_limit)
