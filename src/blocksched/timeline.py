"""Timeline evaluation kernel for two-stage block schedules.

Realizes the earliest-start semantics shared by the single-block and
planning-horizon recurrences: every template fixes each slot's appointment
time, a patient starts stage 1 at the later of their appointment time and
the assistant becoming free, and starts stage 2 (Q+ patients only) at the
later of their stage-1 finish and the physician becoming free.  Idle time
is span-based per resource (first start to last finish minus busy time);
overtime is the positive part of the last finish past the regular day
length.

One slot step (`_slot`) holds the recurrence for a batch of resource
states.  Its show mask is optional: the step is written once for everyone
showing, and one block at its end applies a mask when there is one, the
only place in this module where the no-show rule is written.  `_recurrence`
runs it over a batch of paths: `evaluate_paths` takes an optional mask (the
Monte-Carlo no-show fallback), and `evaluate` is its one-path case where
everyone shows, with every slot's marks; it takes a path's realized service
times as two sequences, lams and mus.  The exact no-show pass
(`noshow.enumerate_expected_metrics`) runs the step, without a mask, for
the show children of merged show states, and both take the day's overtime
from `_overtime`.

Everything here is a pure function of its inputs; callers may evaluate many
realizations concurrently.  Times are tenths of a minute (ints, or Fractions
for off-grid appointment times).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .instance import CostWeights, Patient, PatientList
from .units import Scalar, fmt_minutes, fmt_number


@dataclass(frozen=True)
class AppointmentTemplate:
    """A horizon sequence with fixed appointment times.

    taus is the first-stage appointment decision, one time per slot:
    nondecreasing, first slot at 0.  block_bounds[c] is the slot index where
    block c starts, with a final sentinel equal to the slot count.
    """
    slots: PatientList
    taus: tuple[Scalar, ...]
    block_bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.taus) != len(self.slots):
            raise ValueError("taus length must match slots")
        if any(self.taus[i] > self.taus[i + 1] for i in range(len(self.taus) - 1)):
            raise ValueError("appointment times must be nondecreasing")
        if self.taus and self.taus[0] != 0:
            raise ValueError("first appointment must be at time 0")
        if self.block_bounds[0] != 0 or self.block_bounds[-1] != len(self.slots):
            raise ValueError("block_bounds must span the slot range")


def single_block_template(sequence: PatientList) -> AppointmentTemplate:
    """One-block template whose appointment times are the stage-1 mean
    prefix sums (assistant-continuous)."""
    return AppointmentTemplate(tuple(sequence), pa_prefix_taus(sequence),
                               (0, len(sequence)))


def pa_prefix_taus(sequence: PatientList, start: Scalar = 0) -> tuple[Scalar, ...]:
    taus = []
    t = start
    for p in sequence:
        taus.append(t)
        t = t + p.lam
    return tuple(taus)


@dataclass(frozen=True)
class ScheduleEvaluation:
    e_a: tuple[Scalar, ...]
    f_a: tuple[Scalar, ...]
    e_p: tuple[Scalar, ...]
    f_p: tuple[Scalar, ...]
    w_a: tuple[Scalar, ...]
    w_p: tuple[Scalar, ...]
    qplus: tuple[bool, ...]
    wait_a: Scalar
    wait_p: Scalar
    idle_a: Scalar
    idle_p: Scalar
    overtime_a: Scalar
    overtime_p: Scalar
    completion: Scalar
    first_start_a: Scalar | None
    last_finish_a: Scalar | None
    first_start_p: Scalar | None
    last_finish_p: Scalar | None
    block_bounds: tuple[int, ...]

    @property
    def wait(self) -> Scalar:
        return self.wait_a + self.wait_p


METRICS = ("wait_a", "wait_p", "idle_a", "idle_p", "overtime_a", "overtime_p")


def metric_coefficients(weights: CostWeights) -> tuple[Fraction, ...]:
    """Cost per unit of each METRICS entry: alpha for both waits, then the
    idle and overtime weights."""
    return (weights.alpha, weights.alpha, weights.beta_a, weights.beta_p,
            weights.o_a, weights.o_p)


def weighted_cost(weights: CostWeights, values) -> Scalar:
    """Weighted cost of values given in METRICS order, in their units."""
    return sum(c * v for c, v in zip(metric_coefficients(weights), values))


def _slot(pa, pp, started_a, started_p, tau, lam, mu, qplus, shown=None):
    """One slot of the recurrence over a batch of resource states.

    pa and pp are the assistant's and the physician's free times, and
    started_a and started_p say whether each has served anyone yet (boolean
    arrays, or True).  tau is the slot's appointment time, lam and mu its
    service times, and shown a boolean mask, or None when everyone shows.
    Returns the new (pa, pp, started_a, started_p), the slot's (stage-1
    wait, stage-2 wait, assistant idle, physician idle) increments and its
    (stage-1 start, stage-1 finish, stage-2 start) marks.  A Q slot's stage-2 increments are 0 and its
    stage-2 start is its stage-1 finish.  Without a mask the step runs no
    mask arithmetic and the started flags come back as True; a mask is
    applied in one block at the end.
    """
    ea = np.maximum(pa, tau)
    fa = ea + lam
    wait_a = ea - tau
    # idle counts from a resource's first patient on: no mask once started
    # is True everywhere
    idle_a = ea - pa if started_a is True else (ea - pa) * started_a
    if qplus:
        ep = np.maximum(fa, pp)
        wait_p = ep - fa
        idle_p = ep - pp if started_p is True else (ep - pp) * started_p
        pp_next, started_p_next = ep + mu, True
    else:
        ep = fa
        wait_p = idle_p = 0
        pp_next, started_p_next = pp, started_p
    if shown is None:
        return ((fa, pp_next, True, started_p_next),
                (wait_a, wait_p, idle_a, idle_p), (ea, fa, ep))
    # the no-show rule, written only here: a no-show adds nothing and leaves
    # the state as it was; its stage-1 start is where it would have started
    wait_a, idle_a = wait_a * shown, idle_a * shown
    if qplus:
        wait_p, idle_p = wait_p * shown, idle_p * shown
        pp_next = np.where(shown, pp_next, pp)
        started_p_next = started_p | shown
    return ((np.where(shown, fa, pa), pp_next, started_a | shown,
             started_p_next), (wait_a, wait_p, idle_a, idle_p), (ea, fa, ep))


def _overtime(pa, pp, started_a, started_p, regular_time):
    """Each resource's overtime at the end of the day in a `_slot` state: its
    last finish past regular_time, 0 if it served no one."""
    return [np.where(started, np.maximum(free - regular_time, 0), 0)
            for free, started in ((pa, started_a), (pp, started_p))]


def _recurrence(template: AppointmentTemplate, lams, mus, n_paths: int,
                shows: np.ndarray | None, regular_time: Scalar | None,
                marks: list | None = None) -> tuple[np.ndarray, int]:
    """The body of `evaluate_paths`: `_slot` over the template's slots.
    When marks is a list, each slot appends its scaled marks to it."""
    taus = template.taus
    fractions = [x for x in (*taus, regular_time, *lams, *mus)
                 if isinstance(x, Fraction)]
    scale = lcm(*(x.denominator for x in fractions))
    dtype = object if fractions else np.int64
    if fractions:
        up = lambda x: (x.astype(object) * scale if isinstance(x, np.ndarray)
                        else int(x * scale))
        taus, lams, mus = ([up(x) for x in xs] for xs in (taus, lams, mus))
        if regular_time is not None:
            regular_time = up(regular_time)

    zeros = np.zeros(n_paths, dtype)
    pa = pp = wait_a = wait_p = idle_a = idle_p = zeros
    started_a = started_p = np.zeros(n_paths, bool)
    if shows is not None:           # a contiguous mask row for each slot
        shows = np.ascontiguousarray(shows.T)
    for t, slot in enumerate(template.slots):
        # the state goes in as four names: a *state call costs more per slot
        state, (d_wait_a, d_wait_p, d_idle_a, d_idle_p), mark = _slot(
            pa, pp, started_a, started_p, taus[t], lams[t], mus[t],
            slot.qplus, None if shows is None else shows[t])
        pa, pp, started_a, started_p = state
        wait_a, idle_a = wait_a + d_wait_a, idle_a + d_idle_a
        if slot.qplus:                 # a Q slot adds no stage-2 time
            wait_p, idle_p = wait_p + d_wait_p, idle_p + d_idle_p
        if marks is not None:
            marks.append(mark)

    overtime = ([zeros, zeros] if regular_time is None
                else _overtime(pa, pp, started_a, started_p, regular_time))
    rows = np.stack([wait_a, wait_p, idle_a, idle_p, *overtime], axis=1)
    return rows, scale


def evaluate_paths(template: AppointmentTemplate, lams, mus, n_paths: int,
                   shows: np.ndarray | None = None,
                   regular_time: Scalar | None = None
                   ) -> tuple[np.ndarray, int]:
    """The timeline recurrence for n_paths sample paths at once.

    lams[t] and mus[t] are slot t's service times: a length-n_paths integer
    array, or one number shared by every path.  shows is an n_paths x slots
    boolean mask (None: everyone shows); a no-show takes no time and no wait
    and moves neither resource.  Returns (rows, scale): rows is an
    n_paths x 6 integer array of METRICS, and rows / scale are the values in
    tenths.  scale is the common denominator of the Fraction inputs (1 when
    every input is an integer).  All-integer inputs run as int64; Fraction
    inputs are scaled to Python integers (object arrays), so no sum over
    slots or paths can overflow.
    """
    return _recurrence(template, lams, mus, n_paths, shows, regular_time)


def evaluate(template: AppointmentTemplate, lams=None, mus=None,
             regular_time: Scalar | None = None) -> ScheduleEvaluation:
    """The one-path case of `evaluate_paths` where everyone shows, with
    every slot's marks.

    lams[t] and mus[t] are slot t's realized service times (mu 0 for a Q
    slot); either one, when None, takes the slots' means.  A Q slot's
    stage-2 marks are its stage-1 finish.  regular_time=None is
    single-block mode: overtime is zero.  Values are ints wherever they are
    integral.  No-shows are evaluated by `evaluate_paths` with a show mask
    and, exactly, by `noshow.enumerate_expected_metrics`.
    """
    slots = template.slots
    lams = [p.lam for p in slots] if lams is None else lams
    mus = [p.mu for p in slots] if mus is None else mus
    if not (len(lams) == len(mus) == len(slots)):
        raise ValueError("realization length must match template slots")
    marks: list = []
    rows, scale = _recurrence(template, lams, mus, 1, None, regular_time,
                              marks)

    def value(x):                  # a scaled integer, divided by scale
        if scale == 1:
            return int(x)
        x = Fraction(int(x), scale)
        return x.numerator if x.denominator == 1 else x

    per_slot = []                  # (e_a, f_a, e_p, f_p, w_a, w_p), scaled
    for t, (ea, fa, ep) in enumerate(np.array(marks).reshape(-1, 3).tolist()):
        w_a = ea - int(template.taus[t] * scale)
        fp = ep + int(mus[t] * scale) if slots[t].qplus else ep
        per_slot.append((ea, fa, ep, fp, w_a, ep - fa))
    e_a, f_a, e_p, f_p, w_a, w_p = (tuple(map(value, column)) for column
                                    in list(zip(*per_slot)) or [()] * 6)
    # both resources' starts and finishes never decrease along the slots
    qplus = [t for t, slot in enumerate(slots) if slot.qplus]
    return ScheduleEvaluation(
        e_a, f_a, e_p, f_p, w_a, w_p, tuple(s.qplus for s in slots),
        *map(value, rows[0]), max(f_p, default=0),
        e_a[0] if slots else None, f_a[-1] if slots else None,
        e_p[qplus[0]] if qplus else None, f_p[qplus[-1]] if qplus else None,
        template.block_bounds)


def total_cost(ev: ScheduleEvaluation, weights: CostWeights) -> Fraction:
    """Weighted cost in minute units: alpha*(stage-1 + stage-2 wait) plus idle
    and overtime terms.  Overtime terms vanish in single-block mode because
    the evaluation computed them as zero."""
    tenths_cost = weighted_cost(weights, (getattr(ev, m) for m in METRICS))
    return Fraction(tenths_cost) / 10


def sections(ev: ScheduleEvaluation
             ) -> list[tuple[Scalar, Scalar, Scalar, Scalar]]:
    """Per-block (head, body, tail, completion) decomposition.

    Head: span from the block's first stage-1 start until its first stage-2
    start, where only the assistant works.  Tail: span after the block's last
    stage-1 finish where only the physician works.  Body: the remainder.  A
    block's slots are range(block_bounds[c], block_bounds[c + 1]), every one
    of them served.  A block with no Q+ patients is all head.
    """
    bounds = ev.block_bounds
    out = []
    for c in range(len(bounds) - 1):
        block = range(bounds[c], bounds[c + 1])
        qplus_ts = [t for t in block if ev.qplus[t]]
        if not block:
            out.append((0, 0, 0, 0))
            continue
        start = min(ev.e_a[t] for t in block)
        last_a = max(ev.f_a[t] for t in block)
        if not qplus_ts:
            out.append((last_a - start, 0, 0, last_a - start))
            continue
        first_p = min(ev.e_p[t] for t in qplus_ts)
        last_p = max(ev.f_p[t] for t in qplus_ts)
        completion = max(last_a, last_p) - start
        head = first_p - start
        tail = max(0, last_p - last_a)
        body = completion - head - tail
        out.append((head, body, tail, completion))
    return out


def concatenate(block_template: AppointmentTemplate, k: int,
                overflow: PatientList = ()) -> AppointmentTemplate:
    """Repeat a single-block template k times into a horizon template.

    Junctions are physician-continuous: each block's planned first stage-2
    start equals the previous block's planned stage-2 finish, with the
    block's stage-1 head start delayed to the previous block's stage-1
    finish if that would start earlier.  A block with no Q+ patient is
    packed back-to-back on the assistant timeline.  An overflow block
    (removed Q patients) is appended after the k repetitions, packed on the
    assistant timeline.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = evaluate(block_template)
    head = (base.first_start_p - base.first_start_a
            if base.first_start_p is not None else None)

    slots: list[Patient] = []
    taus: list[Scalar] = []
    bounds = [0]
    prev_pa_end: Scalar = 0
    prev_p_end: Scalar | None = None
    for c in range(k):
        if c == 0:
            offset: Scalar = 0
        elif head is None:
            offset = prev_pa_end
        else:
            offset = max(prev_p_end - head, prev_pa_end)
        slots.extend(block_template.slots)
        taus.extend(offset + tau for tau in block_template.taus)
        bounds.append(len(slots))
        prev_pa_end = offset + (base.last_finish_a or 0)   # empty: no time
        if base.last_finish_p is not None:
            prev_p_end = offset + base.last_finish_p
    if overflow:
        slots.extend(overflow)
        taus.extend(pa_prefix_taus(overflow, start=prev_pa_end))
        bounds.append(len(slots))
    return AppointmentTemplate(tuple(slots), tuple(taus), tuple(bounds))


def evaluation_rows(template: AppointmentTemplate, ev: ScheduleEvaluation,
                    weights: CostWeights) -> list[dict]:
    """Flatten an evaluation to one dict per slot plus a TOTAL summary row
    with the weighted cost (minutes as decimal strings), ready for CSV
    emission."""
    rows = []
    block = 0
    for t, slot in enumerate(template.slots):
        while t >= template.block_bounds[block + 1]:
            block += 1
        rows.append({
            "block": block + 1,
            "slot": t + 1,
            "type": slot.name,
            "tau": fmt_minutes(template.taus[t]),
            "e_a": fmt_minutes(ev.e_a[t]),
            "f_a": fmt_minutes(ev.f_a[t]),
            "e_p": fmt_minutes(ev.e_p[t]) if slot.qplus else "",
            "f_p": fmt_minutes(ev.f_p[t]) if slot.qplus else "",
            "w_a": fmt_minutes(ev.w_a[t]),
            "w_p": fmt_minutes(ev.w_p[t]),
        })
    summary = {
        "block": "TOTAL", "slot": "", "type": "",
        "tau": "", "e_a": "", "f_a": "", "e_p": "", "f_p": "",
        "w_a": fmt_minutes(ev.wait_a), "w_p": fmt_minutes(ev.wait_p),
        "idle_a": fmt_minutes(ev.idle_a), "idle_p": fmt_minutes(ev.idle_p),
        "b_a": fmt_minutes(ev.overtime_a), "b_p": fmt_minutes(ev.overtime_p),
        "cost": fmt_number(total_cost(ev, weights)),
    }
    rows.append(summary)
    return rows
