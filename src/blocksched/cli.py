"""Command-line front end: instance ingestion, experiment orchestration,
CSV/JSON report emission.

Subcommands: validate, balance, template, bounds, exact, saa, simulate,
noshow, compare.  Exit codes: 0 success, 1 domain error, 2 usage error.
Method comparisons share sample paths (common random numbers); rows are
sorted deterministically so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from . import exact as exact_mod
from . import heuristics, noshow as noshow_mod, stochastic
from .instance import (MAX_TIME, ClinicInstance, CostWeights,
                       InstanceFormatError, InvalidInstanceError,
                       balance_workload, expand_block, load_instance,
                       require_valid, validate_instance)
from .timeline import METRICS, evaluate, evaluation_rows
from .units import fmt_minutes, fmt_number, tenths

RESULT_COLUMNS = ("method", "alpha", "beta_a", "beta_p", "o_a", "o_p",
                  "pa_overtime", "p_overtime", "pa_idle", "p_idle",
                  "wait_stage1", "wait_stage2", "objective", "seed", "paths")
TIMELINE_COLUMNS = ("block", "slot", "type", "tau", "e_a", "f_a", "e_p", "f_p",
                    "w_a", "w_p", "idle_a", "idle_p", "b_a", "b_p", "cost")


def _fraction(text: str, flag: str) -> Fraction:
    """The value of a Fraction flag; a malformed value or a zero
    denominator is an error that names the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} {text}: must be a number or a fraction "
                         "with a nonzero denominator") from None


def _weight(text: str, flag: str) -> Fraction:
    """The value of a cost-weight flag: a Fraction flag that must not be
    negative, as the instance loader requires of its weights."""
    value = _fraction(text, flag)
    if value < 0:
        raise ValueError(f"{flag} {text}: a cost weight must not be negative")
    return value


def _probability(text: str, flag: str) -> Fraction:
    """The value of a no-show probability flag: a Fraction flag in [0, 1]."""
    value = _fraction(text, flag)
    if not 0 <= value <= 1:
        raise ValueError(f"{flag} {text}: a no-show probability must be in "
                         "[0, 1]")
    return value


def _q6(value) -> Fraction:
    """Quantize to 6 decimals so emitted rows recombine exactly."""
    return Fraction(round(Fraction(value) * 10**6), 10**6)


# compare's metric columns and the METRICS mean each one reports
RESULT_METRICS = (("pa_overtime", "overtime_a"), ("p_overtime", "overtime_p"),
                  ("pa_idle", "idle_a"), ("p_idle", "idle_p"),
                  ("wait_stage1", "wait_a"), ("wait_stage2", "wait_p"))


def _write_json(payload, path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv_rows(rows, path, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _template_payload(method, template):
    return {
        "method": method,
        "block_bounds": list(template.block_bounds),
        "slots": [{"slot": t + 1, "type": p.name,
                   "tau": fmt_minutes(template.taus[t])}
                  for t, p in enumerate(template.slots)],
    }


def _build_template(inst, method, seed=0):
    if method == "alg1":
        return heuristics.single_block_template(
            heuristics.algorithm1(expand_block(inst)))
    if method == "alg2":
        return heuristics.algorithm2(expand_block(inst))
    if method == "alg3":
        return heuristics.algorithm3(inst)
    if method == "alg4":
        return heuristics.algorithm4(inst)
    if method == "fcfa":
        return heuristics.fcfa(inst, stochastic.keyed_rng(seed, "fcfa"))
    raise ValueError(f"unknown method: {method}")


def _check_k(args):
    if args.k is not None and args.method in ("alg1", "alg2"):
        raise ValueError(f"--k applies to alg3, alg4 and fcfa only; "
                         f"{args.method} builds one block")


UNIFORM_WIDTH = "0.2"   # --w when --dist uniform is given without it


def _dist_from_args(args) -> stochastic.DistributionSpec:
    if args.dist == "uniform":
        width = UNIFORM_WIDTH if args.w is None else args.w
        return stochastic.DistributionSpec.uniform(_fraction(width, "--w"))
    if args.w is not None:
        raise ValueError("--w applies to --dist uniform only; the normal "
                         "family has no width")
    return stochastic.DistributionSpec("normal")


def _check_paths(paths):
    if paths < 1:
        raise ValueError(f"--paths {paths}: at least one sample path is "
                         "needed")


def _check_nonempty(flag, values):
    if not values:
        raise ValueError(f"{flag} is empty: give at least one value")


def _out_dir(args, name):
    base = getattr(args, "output", None)
    if base:
        return base
    default_dir = os.environ.get("BLOCKSCHED_OUT", ".")
    return os.path.join(default_dir, name)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args):
    inst = load_instance(args.instance)
    report = validate_instance(inst)
    _write_json({"ok": report.ok, "errors": report.errors,
                 "warnings": report.warnings}, args.output)
    return 0 if report.ok else 1


def _cmd_balance(args):
    inst = _load_valid(args.instance)
    result = balance_workload(inst)
    _write_json({
        "reduced_ratios": result.reduced_ratios,
        "overflow_list": list(result.overflow_list),
        "final_L_a": fmt_minutes(result.final_L_a),
        "final_L_p": fmt_minutes(result.final_L_p),
        "unbalanceable": result.unbalanceable,
    }, args.output)
    return 0


def _load_valid(path, k=None) -> ClinicInstance:
    """The instance in the file at path, with k blocks when k is given; an
    instance with a validation error is rejected here, naming the field,
    before any command works on it."""
    inst = load_instance(path)
    if k is not None:
        inst = ClinicInstance(inst.types, inst.costs, inst.regular_time, k)
    require_valid(inst)
    return inst


def _cmd_template(args):
    _check_k(args)
    if args.seed is not None and args.method != "fcfa":
        raise ValueError(f"--seed applies to --method fcfa only; "
                         f"{args.method} draws nothing")
    inst = _load_valid(args.instance, args.k)
    template = _build_template(inst, args.method, args.seed or 0)
    _write_json(_template_payload(args.method, template), args.output)
    if args.csv:
        ev = evaluate(template, regular_time=inst.regular_time)
        _write_csv_rows(evaluation_rows(template, ev, inst.costs), args.csv,
                        TIMELINE_COLUMNS)
    return 0


def _cmd_bounds(args):
    inst = _load_valid(args.instance)
    report = heuristics.bound_report(inst)
    seq = heuristics.algorithm1(expand_block(inst))
    record = {
        "closed_form_wait": fmt_minutes(report.closed_form_wait),
        "block_bound": fmt_minutes(report.block_bound),
        "horizon_bound": fmt_minutes(report.horizon_bound),
        "gamma1": fmt_minutes(report.gamma1),
        "gamma2": fmt_minutes(report.gamma2),
        "theta": fmt_minutes(report.theta),
        "w_star": fmt_number(heuristics.w_threshold(seq)),
        "conformant": report.conformant,
    }
    if args.format == "csv":
        _write_csv_rows([record], _out_dir(args, "bounds.csv"), list(record))
    else:
        _write_json(record, args.output)
    return 0


# the options of `exact` that only the saa scope reads, with their defaults
EXACT_SAA_DEFAULTS = {"K": 15, "seed": 0, "dist": "normal", "w": None}


def _cmd_exact(args):
    given = [f for f in EXACT_SAA_DEFAULTS if getattr(args, f) is not None]
    if args.scope != "saa" and given:
        raise ValueError(f"--{given[0]} applies to --scope saa only")
    if args.scope != "saa" and args.tau_rule != "earliest":
        raise ValueError(f"--tau-rule {args.tau_rule} applies to --scope saa "
                         "only; the deterministic models pin appointments "
                         "to the earliest starts")
    if args.scope != "horizon" and args.k is not None:
        raise ValueError(f"--k applies to --scope horizon only; the "
                         f"{args.scope} scope solves one block")
    for flag, default in EXACT_SAA_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    inst = _load_valid(args.instance, args.k)
    config = exact_mod.SearchConfig(node_limit=args.node_limit,
                                    time_limit=args.time_limit,
                                    mode=args.mode)
    weights = inst.costs
    if args.scope == "block":
        solution = exact_mod.solve_block_exact(expand_block(inst), weights, config)
        regular = None
    elif args.scope == "horizon":
        solution = exact_mod.solve_horizon_exact(inst, weights, config)
        regular = inst.regular_time
    else:
        scenario_set = stochastic.draw_scenarios(
            inst, _dist_from_args(args), args.K, args.seed, tag="exact-saa")
        solution = exact_mod.solve_saa_replication(
            inst, weights, scenario_set, config, tau_rule=args.tau_rule)
        regular = None
    payload = {
        "scope": args.scope, "mode": args.mode,
        "objective": fmt_number(solution.objective),
        "optimal": solution.optimal,
        "nodes_explored": solution.nodes_explored,
        "template": _template_payload(f"exact-{args.scope}", solution.template),
    }
    _write_json(payload, args.output)
    if not solution.optimal:
        print(f"warning: the {solution.spent_limit} ran out; the schedule "
              "is not certified optimal", file=sys.stderr)
    if args.csv:
        ev = evaluate(solution.template, regular_time=regular)
        _write_csv_rows(evaluation_rows(solution.template, ev, weights),
                        args.csv, TIMELINE_COLUMNS)
    return 0


def _cmd_saa(args):
    inst = _load_valid(args.instance)
    config = stochastic.SAAConfig(K=args.K, nu0=args.nu0, nu_max=args.nu_max,
                                  xi=args.xi, confidence=args.conf,
                                  k_step=args.k_step)
    weights = inst.costs
    if args.inner == "exact":
        search = exact_mod.SearchConfig(node_limit=args.node_limit,
                                        time_limit=args.time_limit,
                                        mode="branch_and_bound")
        inner = lambda i, w, s: exact_mod.solve_saa_replication(i, w, s, search)
    else:
        template = heuristics.algorithm4(inst)
        inner = stochastic.fixed_template_inner(template, inst.regular_time)
    result = stochastic.saa_procedure(inst, weights, config, args.seed, inner,
                                      _dist_from_args(args))
    _write_json({
        "psi_bar": fmt_number(result.psi_bar),
        "halfwidth": result.halfwidth,
        "replications_used": result.replications_used,
        "sample_variance": fmt_number(result.sample_variance),
        "K": result.K,
        "stopped": result.stopped,
        "converged": result.stopped,
        "all_inner_optimal": result.all_inner_optimal,
        "incumbent_average": fmt_number(result.incumbent_average),
        "incumbent_objective": fmt_number(result.incumbent.objective),
    }, args.output)
    for u, limit in enumerate(result.spent_limits, 1):
        if limit is not None:
            print(f"warning: K={result.K} replication {u}: the {limit} ran "
                  "out; psi_bar is not a valid bound", file=sys.stderr)
    if args.csv:
        rows = [{"replication": u + 1, "psi": fmt_number(psi)}
                for u, psi in enumerate(result.psi_values)]
        _write_csv_rows(rows, args.csv, ("replication", "psi"))
    return 0


def _cmd_simulate(args):
    _check_k(args)
    _check_paths(args.paths)
    inst = _load_valid(args.instance, args.k)
    template = _build_template(inst, args.method, args.seed)
    stats = stochastic.evaluate_template_mc(
        template, inst, _dist_from_args(args), args.paths, args.seed,
        weights=inst.costs, regular_time=inst.regular_time)
    payload = {"method": args.method, "paths": stats.n_paths,
               "mean": {k: fmt_number(v) for k, v in stats.mean.items()},
               "se": {k: v for k, v in stats.se.items()}}
    _write_json(payload, args.output)
    return 0


def _cmd_noshow(args):
    try:
        R = tenths(args.R)
    except (ValueError, ZeroDivisionError):
        R = None
    if not isinstance(R, int) or R < 0:
        raise ValueError(f"--R {args.R}: must be a non-negative number of "
                         "minutes on the 0.1-minute grid")
    if R > MAX_TIME:
        raise ValueError(f"--R {args.R}: must be at most {MAX_TIME // 10} "
                         "minutes")
    probs = noshow_mod.NoShowProbs.of(_probability(args.p_plus, "--p-plus"),
                                      _probability(args.p, "--p"))
    alphas = [_weight(a, "--alpha-grid")
              for a in args.alpha_grid.split(",") if a]
    _check_nonempty("--alpha-grid", alphas)
    beta, o = _weight(args.beta, "--beta"), _weight(args.o, "--o")
    inst = _load_valid(args.instance, args.k)
    if args.k is None:
        base = heuristics.algorithm2(expand_block(inst))
    else:
        base = heuristics.algorithm4(inst)
    plan = noshow_mod.build_overbook_plan(base, args.plan, probs)
    metrics = noshow_mod.enumerate_expected_metrics(plan, probs, R)
    payload = {
        "plan": plan.strategy, "listing": plan.listing(),
        "e_plus": plan.e_plus, "e": plan.e,
        "n_scheduled": plan.n_scheduled,
        "path_count": metrics.path_count,
        "mass": fmt_number(metrics.mass),
        "expected": {
            "wait": fmt_number(metrics.wait),
            "idle_a": fmt_number(metrics.idle_a),
            "idle_p": fmt_number(metrics.idle_p),
            "overtime_a": fmt_number(metrics.overtime_a),
            "overtime_p": fmt_number(metrics.overtime_p),
        },
    }
    _write_json(payload, args.output)
    if args.csv:
        rows = []
        for alpha in alphas:
            weights = CostWeights(alpha, beta, beta, o, o)
            cost = noshow_mod.expected_cost_per_patient(metrics, weights,
                                                        plan.n_scheduled)
            rows.append({"alpha": fmt_number(alpha),
                         "cost_per_patient": fmt_number(cost)})
        _write_csv_rows(rows, args.csv, ("alpha", "cost_per_patient"))
    return 0


def _cmd_compare(args):
    methods = [m for m in args.methods.split(",") if m]
    alphas = [_weight(a, "--alphas") for a in args.alphas.split(",") if a]
    overtimes = [_weight(o, "--overtimes")
                 for o in args.overtimes.split(",") if o]
    for flag, values in (("--methods", methods), ("--alphas", alphas),
                         ("--overtimes", overtimes)):
        _check_nonempty(flag, values)
    _check_paths(args.paths)
    beta = _weight(args.beta, "--beta")
    inst = _load_valid(args.instance)
    dist = _dist_from_args(args)
    # an unknown method fails here, before any path is drawn
    templates = [_build_template(inst, method, args.seed) for method in methods]
    scenario_set = stochastic.draw_scenarios(inst, dist, args.paths, args.seed,
                                             tag="compare")
    # rows sort on the printed alpha and overtime values, as the CSV shows
    printed = {v: Fraction(fmt_number(v)) for v in alphas + overtimes}
    beta_cell = fmt_number(beta)
    grid = [(alpha, o, {"alpha": fmt_number(alpha), "beta_a": beta_cell,
                        "beta_p": beta_cell, "o_a": fmt_number(o),
                        "o_p": fmt_number(o)})
            for alpha in alphas for o in overtimes]
    base_weights = CostWeights(Fraction(1), beta, beta, Fraction(1),
                               Fraction(1))
    keyed = []
    for method, template in zip(methods, templates):
        paths = stochastic.metric_paths(template, scenario_set,
                                        inst.regular_time)
        stats = stochastic.summarize_paths(paths, base_weights)
        means = {m: _q6(stats.mean[m]) for m in METRICS}
        cells = {name: fmt_number(means[m]) for name, m in RESULT_METRICS}
        # the objective is alpha * wait + beta * idle + o * overtime, with
        # each sum taken once per method
        wait = means["wait_a"] + means["wait_p"]
        idle = beta * (means["idle_a"] + means["idle_p"])
        overtime = means["overtime_a"] + means["overtime_p"]
        for alpha, o, weight_cells in grid:
            keyed.append(((method, printed[alpha], printed[o]), {
                "method": method, **weight_cells,
                "seed": str(args.seed), "paths": str(args.paths), **cells,
                "objective": fmt_number(alpha * wait + idle + o * overtime)}))
    keyed.sort(key=lambda pair: pair[0])
    _write_csv_rows([row for _, row in keyed], _out_dir(args, "compare.csv"),
                    RESULT_COLUMNS)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="blocksched",
        description="Design and stress-test two-stage clinic block schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--instance", required=True)
        p.add_argument("--output", default=None)
        return p

    p = add("validate", _cmd_validate, help="check an instance file")

    p = add("balance", _cmd_balance, help="run the workload-balance procedure")

    p = add("template", _cmd_template, help="build an appointment template")
    p.add_argument("--method", required=True,
                   choices=["alg1", "alg2", "alg3", "alg4", "fcfa"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)   # None: not given
    p.add_argument("--csv", default=None)

    p = add("bounds", _cmd_bounds, help="closed-form wait, bounds, width threshold")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("exact", _cmd_exact, help="desk-scale exact search")
    p.add_argument("--scope", choices=["block", "horizon", "saa"], default="block")
    p.add_argument("--mode", choices=["enumerate", "branch_and_bound"],
                   default="enumerate")
    p.add_argument("--node-limit", type=int, default=20_000_000)
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--tau-rule", choices=["earliest", "quantile_grid"],
                   default="earliest")
    p.add_argument("--k", type=int, default=None)
    # None: not given (see EXACT_SAA_DEFAULTS)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dist", choices=["normal", "uniform"], default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--csv", default=None)

    p = add("saa", _cmd_saa, help="sample-average-approximation procedure")
    p.add_argument("--K", type=int, default=15)
    p.add_argument("--nu0", type=int, default=5)
    p.add_argument("--nu-max", type=int, default=10)
    p.add_argument("--xi", type=float, default=0.04)
    p.add_argument("--conf", type=float, default=0.95)
    p.add_argument("--k-step", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inner", choices=["exact", "alg4"], default="exact")
    p.add_argument("--node-limit", type=int, default=20_000_000)
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--dist", choices=["normal", "uniform"], default="normal")
    p.add_argument("--w", default=None)
    p.add_argument("--csv", default=None)

    p = add("simulate", _cmd_simulate, help="Monte-Carlo evaluate one method")
    p.add_argument("--method", required=True,
                   choices=["alg1", "alg2", "alg3", "alg4", "fcfa"])
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--dist", choices=["normal", "uniform"], default="normal")
    p.add_argument("--w", default=None)

    p = add("noshow", _cmd_noshow, help="overbooking expected-cost analysis")
    p.add_argument("--plan", choices=["none", "lf", "ff"], default="none")
    p.add_argument("--p-plus", default="0.2")
    p.add_argument("--p", default="0.3")
    p.add_argument("--alpha-grid",
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p.add_argument("--R", default="150")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--o", default="1.2")
    p.add_argument("--beta", default="1")
    p.add_argument("--csv", default=None)

    p = add("compare", _cmd_compare, help="compare methods on shared paths")
    p.add_argument("--methods", default="alg3,alg4,fcfa")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p.add_argument("--overtimes", default="1.2,1.5,1.8")
    p.add_argument("--beta", default="1")
    p.add_argument("--dist", choices=["normal", "uniform"], default="normal")
    p.add_argument("--w", default=None)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (InstanceFormatError, InvalidInstanceError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
