"""Shared fixtures and independent test oracles.

The oracle timeline below is a deliberately plain re-implementation of the
two-stage recurrence, kept separate from the package engine so property and
solver tests cross-check two code paths.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

from blocksched import ClinicInstance, CostWeights, PatientType, load_instance

FIXDIR = resources.files("blocksched") / "fixtures"


@pytest.fixture(scope="session")
def ex1() -> ClinicInstance:
    return load_instance(str(FIXDIR / "ex1.json"))


@pytest.fixture(scope="session")
def ex2() -> ClinicInstance:
    return load_instance(str(FIXDIR / "ex2.json"))


@pytest.fixture(scope="session")
def table7() -> ClinicInstance:
    return load_instance(str(FIXDIR / "table7.json"))


def mk_instance(types, costs=(1, 1, 1, 1, 1), regular_time=300, blocks=1):
    """types: (name, lam, mu, ratio[, lam_sd, mu_sd]) in minutes."""
    specs = []
    for spec in types:
        name, lam, mu, ratio = spec[:4]
        lam_sd = spec[4] if len(spec) > 4 else 0
        mu_sd = spec[5] if len(spec) > 5 else 0
        specs.append(PatientType.from_minutes(name, lam, mu, ratio,
                                              lam_sd, mu_sd))
    from blocksched.units import tenths
    return ClinicInstance(tuple(specs), CostWeights.of(*costs),
                          tenths(regular_time), blocks)


def random_conformant_instance(rng: np.random.Generator, max_r=12,
                               blocks=1) -> ClinicInstance:
    """Random instance with at least one Q+ type, mu >= lam on every Q+
    type, and per-block size at most max_r.  Times land on the 0.1 grid."""
    while True:
        n_q = int(rng.integers(0, 3))
        n_qp = int(rng.integers(1, 4))
        types = []
        for i in range(n_q):
            lam = int(rng.integers(30, 250))
            types.append(PatientType(f"Q{i}", lam, 0, 0, 0,
                                     int(rng.integers(1, 4))))
        for i in range(n_qp):
            lam = int(rng.integers(30, 250))
            mu = lam + int(rng.integers(0, 200))
            types.append(PatientType(f"P{i}", lam, 0, mu, 0,
                                     int(rng.integers(1, 4))))
        inst = ClinicInstance(tuple(types), CostWeights.of(1, 1, 1, 1, 1),
                              3000, blocks)
        if inst.r <= max_r:
            return inst


def realization_for_template(scenario_set, s, template):
    """Path s of a scenario set as (lams, mus), slot-aligned via canonical
    patient ids.  Overbooked duplicates (ids beyond the drawn patients) take
    their mean times; Q slots take no stage-2 time."""
    lam, mu = scenario_set.lam[s].tolist(), scenario_set.mu[s].tolist()
    drawn = lambda xs, p, mean: xs[p.uid] if p.uid < len(xs) else mean
    return (tuple(drawn(lam, p, p.lam) for p in template.slots),
            tuple(drawn(mu, p, p.mu) if p.qplus else 0 for p in template.slots))


def oracle_timeline(slots, taus=None, lams=None, mus=None, shows=None,
                    regular_time=None):
    """Plain-loop reference evaluation; returns a metrics dict.

    slots: sequence of objects with .lam/.mu/.qplus.  taus=None means
    appointments track the stage-1 starts.  The dict also holds the
    per-slot marks "e_a", "f_a", "e_p", "f_p", "w_a" and "w_p": a Q slot's
    stage-2 marks are its stage-1 finish, and a no-show's four marks are
    the time it would have started stage 1 (its appointment or the
    assistant's free time, whichever is later).
    """
    n = len(slots)
    lams = lams or [s.lam for s in slots]
    mus = mus or [s.mu for s in slots]
    shows = shows or [True] * n
    pa_free = 0
    p_free = 0
    wait_a = wait_p = 0
    a_marks = []
    p_marks = []
    slot_marks = {key: [] for key in ("e_a", "f_a", "e_p", "f_p", "w_a", "w_p")}
    for j in range(n):
        arrive = pa_free if taus is None else max(taus[j], pa_free)
        if not shows[j]:
            marks = (arrive, arrive, arrive, arrive, 0, 0)
        else:
            w_a = 0 if taus is None else arrive - taus[j]
            wait_a += w_a
            done_a = arrive + lams[j]
            a_marks.append((arrive, done_a))
            pa_free = done_a
            if slots[j].qplus:
                start_p = max(done_a, p_free)
                wait_p += start_p - done_a
                p_free = start_p + mus[j]
                p_marks.append((start_p, p_free))
                marks = (arrive, done_a, start_p, p_free, w_a, start_p - done_a)
            else:
                marks = (arrive, done_a, done_a, done_a, w_a, 0)
        for key, mark in zip(slot_marks, marks):
            slot_marks[key].append(mark)
    def span_idle(marks):
        if not marks:
            return 0
        return (marks[-1][1] - marks[0][0]) - sum(b - a for a, b in marks)
    out = {
        "wait_a": wait_a, "wait_p": wait_p,
        "idle_a": span_idle(a_marks), "idle_p": span_idle(p_marks),
        "first_a": a_marks[0][0] if a_marks else None,
        "last_a": a_marks[-1][1] if a_marks else None,
        "last_p": p_marks[-1][1] if p_marks else None,
        "first_p": p_marks[0][0] if p_marks else None,
        **slot_marks,
    }
    finishes = [x for x in (out["last_a"], out["last_p"]) if x is not None]
    out["completion"] = max(finishes) if finishes else 0
    R = regular_time
    out["b_a"] = max(0, out["last_a"] - R) if R is not None and a_marks else 0
    out["b_p"] = max(0, out["last_p"] - R) if R is not None and p_marks else 0
    return out


def oracle_cost(metrics, weights: CostWeights):
    from fractions import Fraction
    return Fraction(
        weights.alpha * (metrics["wait_a"] + metrics["wait_p"])
        + weights.beta_a * metrics["idle_a"] + weights.beta_p * metrics["idle_p"]
        + weights.o_a * metrics["b_a"] + weights.o_p * metrics["b_p"]) / 10
