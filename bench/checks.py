"""Per-job checks: each returns the list of problems it found (empty = pass).

A check reads the job's report files and the library calls the probe
recorded while the job ran, and compares them with the oracle or with
properties the method must have.  Nothing is compared with a stored copy of
an earlier run's output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

import oracle

# compare's report columns, by metric
COLUMNS = {"overtime_a": "pa_overtime", "overtime_p": "p_overtime",
           "idle_a": "pa_idle", "idle_p": "p_idle",
           "wait_a": "wait_stage1", "wait_p": "wait_stage2"}
SAMPLED_SHOWS = 10_000      # show patterns the oracle samples per plan
SE_LIMIT = 5                # standard errors allowed between sample and exact
BRUTE_FORCE_SHOWS = 14      # plans up to this many patients are enumerated
BRUTE_FORCE_BLOCK = 13      # blocks up to this size are brute-forced
RANDOM_SEQUENCES = 64       # random feasible sequences per certified optimum
GRID_ROWS = 30              # compare's default grid: 10 alphas x 3 overtimes


def clinic_of(path, blocks=None) -> oracle.Clinic:
    clinic = oracle.read_clinic(path)
    if blocks is not None:
        clinic = oracle.Clinic(clinic.kinds, clinic.weights,
                               clinic.regular_time, blocks)
    return clinic


def calls_of(calls, name):
    return [(args, kwargs, result) for fn, args, kwargs, result in calls
            if fn == name]


def q6(value: Fraction) -> Fraction:
    """The CLI's report quantization: nearest multiple of 1e-6."""
    return Fraction(round(value * 10**6), 10**6)


def check_draws(clinic: oracle.Clinic, package, call) -> list[str]:
    """Draw properties: integer tenths, never negative, zero stage 2 for Q
    types, uniform draws inside their interval, and the first K' paths
    unchanged when K changes."""
    args, kwargs, sset = call
    inst, dist = args[0], args[1]
    kinds = clinic.horizon_kinds(inst.blocks)
    problems = []
    lam, mu = sset.lam, sset.mu
    if not (np.issubdtype(lam.dtype, np.integer)
            and np.issubdtype(mu.dtype, np.integer)):
        problems.append("draws are not integer tenths")
    if lam.shape != (sset.K, len(kinds)) or mu.shape != lam.shape:
        problems.append(f"draw shape {lam.shape}, want {(sset.K, len(kinds))}")
        return problems
    if lam.min() < 0 or mu.min() < 0:
        problems.append("negative service time drawn")
    q_cols = [i for i, k in enumerate(kinds) if not k.qplus]
    if q_cols and mu[:, q_cols].any():
        problems.append("Q-group patient drew a stage-2 time")
    if dist.family == "uniform_width":
        w = Fraction(dist.width)
        for i, k in enumerate(kinds):
            for draws, mean in ((lam[:, i], k.lam), (mu[:, i], k.mu)):
                if mean == 0:
                    continue
                lo = math.ceil((1 - w / 2) * mean)
                hi = math.floor((1 + w / 2) * mean)
                if draws.min() < lo or draws.max() > hi:
                    problems.append(f"uniform draw of patient {i} outside "
                                    f"[{lo}, {hi}]")
                    break
    fewer = min(sset.K - 1, 16)
    if fewer > 0:
        again = package.stochastic.draw_scenarios(
            inst, dist, fewer, sset.seed, tag=sset.tag,
            replication=sset.replication)
        if not (np.array_equal(again.lam, lam[:fewer])
                and np.array_equal(again.mu, mu[:fewer])):
            problems.append(f"first {fewer} paths change when K changes")
    return problems


def template_means(clinic, template, sset, shows=None, regular=True):
    return oracle.path_means(template.slots, template.taus, sset.lam.tolist(),
                             sset.mu.tolist(),
                             clinic.regular_time if regular else None, shows)


# ---------------------------------------------------------------------------
# mc


def compare(clinic, methods):
    def check(texts, calls, package):
        rows = list(csv.DictReader(io.StringIO(texts[0])))
        problems = []
        draws = calls_of(calls, "draw_scenarios")
        evals = calls_of(calls, "metric_paths")
        if len(draws) != 1 or len(evals) != len(methods):
            return [f"expected 1 draw and {len(methods)} evaluations, saw "
                    f"{len(draws)} and {len(evals)}"]
        problems += check_draws(clinic, package, draws[0])
        sset = draws[0][2]
        for method, (args, _, _) in zip(methods, evals):
            want = template_means(clinic, args[0], sset)
            mine = [r for r in rows if r["method"] == method]
            if len(mine) != GRID_ROWS:
                problems.append(f"{method}: {len(mine)} rows, want {GRID_ROWS}")
            for row in mine:
                for metric, column in COLUMNS.items():
                    if Fraction(row[column]) != q6(want[metric]):
                        problems.append(f"{method} {column}={row[column]}, "
                                        f"oracle {q6(want[metric])}")
                        break
        for row in rows:
            f = {k: Fraction(v) for k, v in row.items() if k != "method"}
            total = (f["alpha"] * (f["wait_stage1"] + f["wait_stage2"])
                     + f["beta_a"] * f["pa_idle"] + f["beta_p"] * f["p_idle"]
                     + f["o_a"] * f["pa_overtime"] + f["o_p"] * f["p_overtime"])
            if total != f["objective"]:
                problems.append(f"{row['method']} objective does not "
                                "recombine from its columns")
                break
        return problems
    return check


def simulate(clinic, k):
    clinic = oracle.Clinic(clinic.kinds, clinic.weights, clinic.regular_time, k)

    def check(texts, calls, package):
        out = json.loads(texts[0])
        draws = calls_of(calls, "draw_scenarios")
        evals = calls_of(calls, "metric_paths")
        if len(draws) != 1 or len(evals) != 1:
            return ["expected one draw and one evaluation"]
        problems = check_draws(clinic, package, draws[0])
        want = template_means(clinic, evals[0][0][0], draws[0][2])
        want["objective"] = oracle.means_cost(want, clinic.weights)
        if out["paths"] != draws[0][2].K:
            problems.append("path count differs from the draw")
        for metric, value in want.items():
            if not oracle.same_number(out["mean"][metric], value):
                problems.append(f"mean {metric}={out['mean'][metric]}, "
                                f"oracle {value}")
        return problems
    return check


# ---------------------------------------------------------------------------
# search


def search(path, clinic, scope, rng, agree, key):
    """Oracle cost of the printed template, feasibility, optimality against
    heuristic and random sequences, brute force on the small blocks, and
    agreement between the two modes."""
    blocks = 1 if scope == "block" else clinic.blocks
    regular = None if scope == "block" else clinic.regular_time
    block_names = sorted(clinic.block_names())

    def check(texts, calls, package):
        out = json.loads(texts[0])
        slots = out["template"]["slots"]
        names = [s["type"] for s in slots]
        bounds = out["template"]["block_bounds"]
        objective = Fraction(out["objective"])
        if len(bounds) != blocks + 1 or any(
                sorted(names[bounds[c]:bounds[c + 1]]) != block_names
                for c in range(blocks)):
            return ["template is not the instance's blocks"]
        problems = []
        if any(k.qplus for k in clinic.kinds) and not clinic.kind(names[0]).qplus:
            problems.append("first slot is not a Q+ patient")
        taus = [oracle.tenths(s["tau"]) for s in slots]
        if taus != oracle.prefix_taus([clinic.kind(n).lam for n in names]):
            problems.append("appointments are not the stage-1 prefix sums")
        got = oracle.sequence_cost(clinic, names, regular)
        if got != objective:
            problems.append(f"objective {objective}, oracle cost {got}")
        if not out["optimal"]:
            return problems
        # alg3/alg4 repeat these blocks on a balanced instance
        block = package.expand_block(package.load_instance(path))
        for label, seq in (("alg1", package.heuristics.algorithm1(block)),
                           ("alg2", package.heuristics.algorithm2(block).slots)):
            rival = oracle.sequence_cost(clinic, [p.name for p in seq] * blocks,
                                         regular)
            if objective > rival:
                problems.append(f"certified {objective} > {label} {rival}")
        for _ in range(RANDOM_SEQUENCES):
            rival = oracle.sequence_cost(
                clinic, oracle.random_feasible(clinic, blocks, rng), regular)
            if objective > rival:
                problems.append(f"certified {objective} > random {rival}")
                break
        if scope == "block" and len(block_names) <= BRUTE_FORCE_BLOCK:
            best = oracle.brute_force_block(clinic)
            if objective != best:
                problems.append(f"certified {objective}, brute force {best}")
        if agree.setdefault(key, objective) != objective:
            problems.append(f"modes disagree: {agree[key]} vs {objective}")
        return problems
    return check


# ---------------------------------------------------------------------------
# saa


def saa(path, clinic, inner, K, nu):
    """Every replication certified and equal to the oracle's scenario
    average; every scenario average the loop took matches the oracle;
    printed psi values and psi_bar are those averages."""
    rounds = 3     # stochastic.SAAConfig.max_k_rounds; the CLI cannot set it
    regular = inner == "alg4"   # the fixed horizon template is costed with R

    def check(texts, calls, package):
        out = json.loads(texts[0])
        psi_rows = [row["psi"] for row in csv.DictReader(io.StringIO(texts[1]))]
        draws = calls_of(calls, "draw_scenarios")
        problems = []
        if len(draws) != rounds * nu:
            return [f"{len(draws)} replications, want {rounds * nu}"]
        if (out["replications_used"], out["K"], out["stopped"]) != (
                nu, rounds * K, False):
            problems.append("run did not take every K round at nu_max")
        for draw in draws:
            problems += check_draws(clinic, package, draw)
        for (a, k, result) in calls_of(calls, "scenario_average_cost"):
            want = oracle.means_cost(
                template_means(clinic, a[0], a[1], regular=regular),
                clinic.weights)
            if result != want:
                problems.append(f"scenario average {result}, oracle {want}")
                break
        last = [d[2] for d in draws[-nu:]]
        if inner == "exact":
            solves = calls_of(calls, "solve_saa_replication")
            psis = []
            for a, k, sol in solves:
                want = oracle.means_cost(
                    template_means(clinic, sol.template, a[2], regular=False),
                    clinic.weights)
                if not sol.optimal:
                    problems.append("a replication did not certify")
                if sol.objective != want:
                    problems.append(f"psi {sol.objective}, oracle {want}")
                psis.append(want)
            psis = psis[-nu:]
        else:
            template = package.heuristics.algorithm4(package.load_instance(path))
            psis = [oracle.means_cost(template_means(clinic, template, sset),
                                      clinic.weights) for sset in last]
        if len(psi_rows) != nu or not all(
                oracle.same_number(p, w) for p, w in zip(psi_rows, psis)):
            problems.append(f"printed psi {psi_rows}, oracle {psis}")
        if not oracle.same_number(out["psi_bar"], sum(psis) / len(psis)):
            problems.append(f"psi_bar {out['psi_bar']} is not the mean psi")
        if not any(oracle.same_number(out["incumbent_objective"], p)
                   for p in psis):
            problems.append("incumbent is not one of the last round's")
        return problems
    return check


def exact_saa(clinic):
    def check(texts, calls, package):
        out = json.loads(texts[0])
        solves = calls_of(calls, "solve_saa_replication")
        draws = calls_of(calls, "draw_scenarios")
        if len(solves) != 1 or len(draws) != 1:
            return ["expected one draw and one solve"]
        problems = check_draws(clinic, package, draws[0])
        args, _, sol = solves[0]
        want = oracle.means_cost(
            template_means(clinic, sol.template, args[2], regular=False),
            clinic.weights)
        if not out["optimal"]:
            problems.append("did not certify")
        if not oracle.same_number(out["objective"], want):
            problems.append(f"objective {out['objective']}, oracle {want}")
        return problems
    return check


# ---------------------------------------------------------------------------
# noshow


def noshow(template, probs, regular_time, seed):
    """mass 1; on a small plan the exact result equals the oracle's
    enumeration of all 2^n show patterns, on a larger one it lies within
    SE_LIMIT standard errors of the oracle's sampled patterns."""
    slots = template.slots
    lams = [p.lam for p in slots]
    mus = [p.mu for p in slots]
    qplus = [p.qplus for p in slots]
    p_no = [probs.p_plus if q else probs.p for q in qplus]
    args = (lams, mus, qplus, list(template.taus), p_no, regular_time)

    def check(texts, calls, package):
        out = json.loads(texts[0])
        got = {m: Fraction(v) for m, v in out["expected"].items()}
        problems = []
        if out["mass"] != "1":
            problems.append(f"mass {out['mass']}")
        if out["n_scheduled"] != len(slots):
            problems.append(f"{out['n_scheduled']} scheduled, plan has "
                            f"{len(slots)}")
        if len(slots) <= BRUTE_FORCE_SHOWS:
            want, mass = oracle.enumerate_shows(*args)
            if mass != 1 or want != got:
                problems.append(f"expected {got}, enumeration {want}")
            return problems
        sample = oracle.sample_shows(*args, SAMPLED_SHOWS, random.Random(seed))
        for metric, (mean, se) in sample.items():
            if abs(float(got[metric]) - mean) > SE_LIMIT * se:
                problems.append(f"{metric}={float(got[metric]):.4f}, sampled "
                                f"{mean:.4f} +- {se:.4f}")
        return problems
    return check


def noshow_fallback(clinic, template, probs):
    """Exact means of the fallback's paths, and no-show frequencies within
    SE_LIMIT standard errors of their probabilities."""
    def check(texts, calls, package):
        out = json.loads(texts[0])
        draws = calls_of(calls, "draw_scenarios")
        evals = calls_of(calls, "metric_paths")
        if len(draws) != 1 or len(evals) != 1:
            return ["expected one draw and one evaluation"]
        problems = check_draws(clinic, package, draws[0])
        args, kwargs, _ = evals[0]
        shows = args[3] if len(args) > 3 else kwargs["shows_per_path"]
        want = template_means(clinic, template, draws[0][2], shows)
        want["objective"] = oracle.means_cost(want, clinic.weights)
        for metric, value in want.items():
            if Fraction(out["mean"][metric]) != value:
                problems.append(f"mean {metric}={out['mean'][metric]}, "
                                f"oracle {value}")
        for group, p in ((True, probs.p_plus), (False, probs.p)):
            cols = [t for t, s in enumerate(template.slots) if s.qplus == group]
            trials = len(cols) * len(shows)
            missed = sum(not row[t] for row in shows for t in cols)
            se = math.sqrt(float(p * (1 - p)) / trials)
            if abs(missed / trials - float(p)) > SE_LIMIT * se:
                problems.append(f"no-show rate {missed / trials:.4f}, want {p}")
        return problems
    return check
