"""The four workloads: their job lists, warm-up lists and generated inputs.

Every job but one is a command line a user would type, run in-process
through ``blocksched.cli.run``.  The exception is the Monte-Carlo fallback in
``noshow``: the enumerator's cap error sends users to
``stochastic.evaluate_template_mc(..., noshow_probs=...)``, which has no
command, so that job calls the library.

The seed reaches the program only as generated inputs: the ``--seed`` of
the stochastic commands, the instance of the ``saa`` workload and the seed
of the fallback's sample paths.  The checks also draw their random samples
from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

# SAA runs: xi so small that the stopping rule never fires, so every run
# takes all three K rounds at nu_max replications -- a fixed amount of work
# and a replication count that repeats exactly.
SAA_XI = "1e-9"


@dataclass
class Job:
    name: str
    argv: list[str] | None = None        # a command, run by blocksched.cli.run
    call: Callable[[], str] | None = None   # a library call; returns its output
    outputs: tuple[Path, ...] = ()       # report files the command writes
    check: Callable | None = None        # check(texts, calls, package) ->
                                         # list of problems
    known_fault: str | None = None       # the program fault that makes every
                                         # run of this job fail


@dataclass
class Context:
    package: object          # the imported blocksched package
    root: Path               # checkout root
    out: Path                # this run's report directory
    seed: int

    def fixture(self, name: str) -> str:
        return str(self.root / "src" / "blocksched" / "fixtures" / f"{name}.json")

    def report(self, name: str) -> Path:
        return self.out / name


def cli_job(ctx: Context, name: str, argv: list[str], check, suffix=".json",
            extra: tuple[str, ...] = (), known_fault=None) -> Job:
    """A command whose report goes to <out>/<name><suffix>; extra names
    further files the command writes (their flags are already in argv)."""
    output = ctx.report(name + suffix)
    paths = (output,) + tuple(ctx.report(e) for e in extra)
    return Job(name, argv + ["--output", str(output)], outputs=paths,
               check=check, known_fault=known_fault)


# ---------------------------------------------------------------------------
# mc: Monte-Carlo evaluation of fixed templates


def mc_jobs(ctx: Context, scale: int = 1) -> list[Job]:
    t7 = ctx.fixture("table7")
    s = str(ctx.seed)
    paths = lambda n: str(max(n // scale, 10))
    clinic = checks.clinic_of(t7)
    return [
        cli_job(ctx, "compare", ["compare", "--instance", t7, "--methods",
                                 "alg3,alg4,fcfa", "--paths", paths(2000),
                                 "--seed", s],
                checks.compare(clinic, ("alg3", "alg4", "fcfa")), ".csv"),
        cli_job(ctx, "simulate-alg4-k6", ["simulate", "--instance", t7,
                                          "--method", "alg4", "--k", "6",
                                          "--paths", paths(1000), "--seed", s],
                checks.simulate(clinic, k=6)),
        cli_job(ctx, "simulate-alg4-uniform", ["simulate", "--instance", t7,
                                               "--method", "alg4", "--k", "2",
                                               "--paths", paths(400),
                                               "--seed", s, "--dist",
                                               "uniform", "--w", "0.2"],
                checks.simulate(clinic, k=2)),
    ]


# ---------------------------------------------------------------------------
# search: deterministic exact search, bounded by node limits alone

# (fixture, scope, k, mode, node limit); None keeps the CLI default.  The
# one job given a node limit fails every time (its known_fault below).
SEARCH = (
    ("table7", "block", None, "branch_and_bound", None),
    ("ex1", "block", None, "enumerate", None),
    ("ex1", "block", None, "branch_and_bound", None),
    ("ex2", "block", None, "enumerate", None),
    ("ex2", "block", None, "branch_and_bound", None),
    ("ex1", "horizon", None, "enumerate", None),
    ("ex1", "horizon", None, "branch_and_bound", None),
    ("ex1", "horizon", 3, "enumerate", None),
    ("ex1", "horizon", 3, "branch_and_bound", None),
    ("ex2", "horizon", None, "enumerate", 100_000),
)
SEARCH_WARMUP = SEARCH[1:3] + SEARCH[6:7]


def search_jobs(ctx: Context, specs=SEARCH) -> list[Job]:
    agree: dict = {}
    jobs = []
    for index, (fixture, scope, k, mode, limit) in enumerate(specs):
        path = ctx.fixture(fixture)
        argv = ["exact", "--instance", path, "--scope", scope, "--mode", mode,
                "--time-limit", "1e9"]
        name = f"{scope}-{fixture}"
        if k is not None:
            argv += ["--k", str(k)]
            name += f"-k{k}"
        if limit is not None:
            argv += ["--node-limit", str(limit)]
        name += "-" + ("bnb" if mode == "branch_and_bound" else "enum")
        clinic = checks.clinic_of(path, k)
        rng = random.Random(ctx.seed * 1000 + index)
        fault = ("TypeError: _horizon_enumerate adds None when the budget "
                 "runs out" if limit is not None else None)
        jobs.append(cli_job(ctx, name, argv, checks.search(
            path, clinic, scope, rng, agree, (fixture, scope, k)),
            known_fault=fault))
    return jobs


# ---------------------------------------------------------------------------
# saa: scenario-averaged exact search and the SAA loop

# per-block composition of the generated instance: 5 Q+ and 3 Q patients,
# 6300 distinct sequences with a Q+ type first
SAA_RATIOS = ((2, 2, 1), (1, 1, 1))


def saa_instance(seed: int) -> dict:
    """A table7-like one-block instance whose times come from the seed.

    The ratios are fixed, so the number of sequences the exact search
    visits does not depend on the seed; the means and sds do."""
    rng = random.Random(seed)
    tenth = lambda lo, hi: rng.randint(lo * 10, hi * 10) / 10
    types = []
    for i, ratio in enumerate(SAA_RATIOS[0]):
        lam = tenth(5, 18)
        mu = round(lam + tenth(0, 12), 1)
        types.append({"name": f"P{i}", "lambda_mean": lam,
                      "lambda_sd": round(lam * rng.uniform(0.3, 0.6), 1),
                      "mu_mean": mu,
                      "mu_sd": round(mu * rng.uniform(0.3, 0.6), 1),
                      "ratio": ratio})
    for i, ratio in enumerate(SAA_RATIOS[1]):
        lam = tenth(5, 18)
        types.append({"name": f"Q{i}", "lambda_mean": lam,
                      "lambda_sd": round(lam * rng.uniform(0.3, 0.6), 1),
                      "mu_mean": 0, "mu_sd": 0, "ratio": ratio})
    return {"types": types,
            "costs": {"alpha": 0.2, "beta_a": 1, "beta_p": 1,
                      "o_a": 1.2, "o_p": 1.2},
            "regular_time": 300, "blocks": 1}


def write_saa_instance(ctx: Context) -> str:
    path = ctx.report("saa-instance.json")
    path.write_text(json.dumps(saa_instance(ctx.seed), indent=1) + "\n")
    return str(path)


def saa_argv(instance: str, inner: str, K: int, nu: int, seed: int) -> list[str]:
    return ["saa", "--instance", instance, "--inner", inner, "--K", str(K),
            "--k-step", str(K), "--nu0", str(nu), "--nu-max", str(nu),
            "--xi", SAA_XI, "--seed", str(seed), "--time-limit", "1e9"]


def saa_jobs(ctx: Context, small: bool = False) -> list[Job]:
    gen = write_saa_instance(ctx)
    t7 = ctx.fixture("table7")
    gen_clinic, t7_clinic = checks.clinic_of(gen), checks.clinic_of(t7)
    s = ctx.seed
    jobs = []
    for name, instance, clinic, inner, K, nu in (
            ("saa-exact", gen, gen_clinic, "exact", 4, 3),
            ("saa-alg4", t7, t7_clinic, "alg4", 20, 4)):
        if small:
            K, nu = 2, 2
        csv = ctx.report(name + ".csv")
        jobs.append(cli_job(ctx, name, saa_argv(instance, inner, K, nu, s)
                            + ["--csv", str(csv)],
                            checks.saa(instance, clinic, inner, K, nu),
                            extra=(csv.name,)))
    K = 2 if small else 10
    jobs.append(cli_job(ctx, "exact-saa", ["exact", "--instance", gen,
                                           "--scope", "saa", "--mode",
                                           "enumerate", "--K", str(K),
                                           "--seed", str(s),
                                           "--time-limit", "1e9"],
                        checks.exact_saa(gen_clinic)))
    return jobs


# ---------------------------------------------------------------------------
# noshow: exact expectation over show patterns, and the MC fallback

P_PLUS, P_Q = "0.2", "0.3"
NOSHOW_R = "150"


def noshow_jobs(ctx: Context, small: bool = False) -> list[Job]:
    bs = ctx.package
    probs = bs.noshow.NoShowProbs.of(Fraction(P_PLUS), Fraction(P_Q))
    jobs = []
    plans = [("ex1", "lf", "100")] if small else [
        ("table7", "none", NOSHOW_R), ("table7", "lf", NOSHOW_R),
        ("table7", "ff", NOSHOW_R), ("ex1", "lf", "100")]
    for fixture, plan_name, R in plans:
        path = ctx.fixture(fixture)
        inst = bs.load_instance(path)
        base = bs.heuristics.algorithm2(bs.expand_block(inst))
        plan = bs.noshow.build_overbook_plan(base, plan_name, probs)
        jobs.append(cli_job(ctx, f"noshow-{fixture}-{plan_name}",
                            ["noshow", "--instance", path, "--plan", plan_name,
                             "--p-plus", P_PLUS, "--p", P_Q, "--R", R],
                            checks.noshow(plan.template(), probs,
                                          int(Fraction(R) * 10), ctx.seed)))

    # the fallback on the k=2 LF plan of table7 (35 scheduled patients)
    inst = bs.load_instance(ctx.fixture("table7"))
    plan = bs.noshow.build_overbook_plan(bs.heuristics.algorithm4(inst), "lf",
                                         probs)
    template = plan.template()
    dist = bs.DistributionSpec("normal")
    paths = 20 if small else 2000

    def fallback() -> str:
        stats = bs.stochastic.evaluate_template_mc(
            template, inst, dist, paths, ctx.seed, weights=inst.costs,
            regular_time=inst.regular_time, tag="noshow-mc",
            noshow_probs=probs)
        return json.dumps({"paths": stats.n_paths,
                           "mean": {k: str(v) for k, v in stats.mean.items()},
                           "se": stats.se}, sort_keys=True)

    jobs.append(Job("noshow-mc-fallback-k2-lf", call=fallback,
                    check=checks.noshow_fallback(
                        checks.clinic_of(ctx.fixture("table7")), template,
                        probs)))
    return jobs


def jobs_for(workload: str, ctx: Context) -> list[Job]:
    return {"mc": mc_jobs, "search": search_jobs, "saa": saa_jobs,
            "noshow": noshow_jobs}[workload](ctx)


def warmup_for(workload: str, ctx: Context) -> list[Job]:
    """Small versions of the same jobs: they load every code path the
    timed jobs take without their cost."""
    if workload == "mc":
        return mc_jobs(ctx, scale=100)
    if workload == "search":
        return search_jobs(ctx, SEARCH_WARMUP)
    if workload == "saa":
        return saa_jobs(ctx, small=True)
    return noshow_jobs(ctx, small=True)
