"""Spans and call records taken around the program's public functions.

The probe replaces module attributes of blocksched with thin wrappers, so
both the CLI (which calls ``stochastic.draw_scenarios`` and the like through
the module) and the library's own module-level calls go through them.
Nothing under src/ is changed.

With timing off a wrapper only keeps (function, args, result) while
``recording`` is set; the checks read those records.  With timing on it also
keeps one span per call: name, layer, job, start, end and parent span.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, function) -> layer bucket the span's self time is charged to
WRAPPED = (
    ("heuristics", "algorithm1", "heuristics"),
    ("heuristics", "algorithm2", "heuristics"),
    ("heuristics", "algorithm3", "heuristics"),
    ("heuristics", "algorithm4", "heuristics"),
    ("heuristics", "fcfa", "heuristics"),
    ("stochastic", "draw_scenarios", "stochastic.draw"),
    ("stochastic", "metric_paths", "timeline"),
    ("stochastic", "scenario_average_cost", "timeline"),
    ("stochastic", "summarize_paths", "stochastic.summary"),
    ("stochastic", "evaluate_template_mc", "stochastic.mc"),
    ("stochastic", "saa_procedure", "stochastic.saa"),
    ("stochastic", "incumbent_selection", "stochastic.tournament"),
    ("exact", "solve_block_exact", "exact.block"),
    ("exact", "solve_horizon_exact", "exact.horizon"),
    ("exact", "solve_saa_replication", "exact.saa"),
    ("noshow", "build_overbook_plan", "noshow"),
    ("noshow", "enumerate_expected_metrics", "noshow"),
)

SOLVES = ("exact.block", "exact.horizon", "exact.saa")


@dataclass
class Span:
    fn: str
    layer: str
    job: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _counts(fn: str, args, kwargs, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if fn in ("metric_paths", "scenario_average_cost"):
        return {"paths": _arg(args, kwargs, 1, "scenario_set").K}
    if fn == "draw_scenarios":
        return {"paths": _arg(args, kwargs, 2, "K"),
                "family": _arg(args, kwargs, 1, "dist").family}
    if fn.startswith("solve_"):
        return {"nodes": result.nodes_explored, "certified": int(result.optimal)}
    if fn == "enumerate_expected_metrics":
        # 2^(scheduled patients), not the program's own path_count
        return {"patterns": 2 ** _arg(args, kwargs, 0, "plan").n_scheduled}
    return {}


class Probe:
    """Wraps every function in WRAPPED on the modules of `package`."""

    def __init__(self, package):
        self.timing = False
        self.recording = False
        self.job = -1
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self.spans: list[Span] = []
        self._stack: list[int] = []
        for module_name, fn_name, layer in WRAPPED:
            module = getattr(package, module_name)
            setattr(module, fn_name,
                    self._wrap(getattr(module, fn_name), fn_name, layer))

    def _wrap(self, fn, name, layer):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.timing:
                result = fn(*args, **kwargs)
                if probe.recording:
                    probe.calls.append((name, args, kwargs, result))
                return result
            stack = probe._stack
            span = Span(name, layer, probe.job, stack[-1] if stack else None)
            stack.append(len(probe.spans))
            probe.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.counts = _counts(name, args, kwargs, result)
            if probe.recording:
                probe.calls.append((name, args, kwargs, result))
            return result

        return wrapper


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def round_layers(spans: list[Span], job_seconds: list[float],
                 factors: list[float]) -> tuple[dict, dict]:
    """One traced round's times in s and work counts.

    A span's self time is its duration minus its direct children's; it is
    charged to "self:<layer>".  The self times of all spans plus
    cli.overhead_s (job time outside any root span) add up to trace.wall_s,
    the round's job time.  Every time of job i is multiplied by factors[i],
    which scales it to the reference machine speed.
    """
    child = [0.0] * len(spans)
    outside = list(job_seconds)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
        else:
            outside[span.job] -= span.seconds
    times: dict[str, float] = {}
    counts: dict[str, int] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    def under_saa(i: int) -> bool:
        while spans[i].parent is not None:
            i = spans[i].parent
            if spans[i].layer == "stochastic.saa":
                return True
        return False

    for i, span in enumerate(spans):
        self_s = (span.seconds - child[i]) * factors[span.job]
        add(times, "self:" + span.layer, self_s)
        if span.layer in SOLVES:
            add(counts, "exact.solves", 1)
        if span.error is not None:
            continue
        c = span.counts
        if span.layer == "timeline":
            add(counts, "timeline.paths", c["paths"])
        elif span.layer == "stochastic.draw":
            family = "uniform" if c["family"] == "uniform_width" else "normal"
            add(counts, "stochastic.draw.paths", c["paths"])
            add(counts, f"draw_{family}.paths", c["paths"])
            add(times, f"draw_{family}.s", self_s)
            if under_saa(i):
                add(counts, "stochastic.saa.replications", 1)
        elif span.layer == "stochastic.tournament":
            add(times, "tournament.s", span.seconds * factors[span.job])
        elif span.layer in SOLVES:
            add(counts, f"{span.layer}.nodes", c["nodes"])
            add(counts, "exact.certified", c["certified"])
            add(times, f"{span.layer}.solved_s", self_s)
        elif "patterns" in c:
            add(counts, "noshow.patterns", c["patterns"])
            add(times, "enumerate.s", self_s)
    times["trace.wall_s"] = sum(t * f for t, f in zip(job_seconds, factors))
    times["cli.overhead_s"] = sum(t * f for t, f in zip(outside, factors))
    return times, counts


def layer_metrics(times: dict, counts: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from mean round times and one round's counts.  A
    layer the workload does not use reads 0."""
    t = lambda key: times.get(key, 0.0)
    n = lambda key: counts.get(key, 0)
    layers = lambda prefix: sum(v for k, v in times.items()
                                if k.startswith("self:" + prefix))
    out = {key: n(key) for key in (
        "timeline.paths", "stochastic.draw.paths",
        "stochastic.saa.replications", "exact.solves", "exact.certified",
        "noshow.patterns")}
    out.update({
        "timeline.busy_s": t("self:timeline"),
        "timeline.us_per_path": _ratio(t("self:timeline"),
                                       n("timeline.paths"), 1e6),
        "stochastic.draw.busy_s": t("self:stochastic.draw"),
        "stochastic.draw_normal.us_per_path": _ratio(
            t("draw_normal.s"), n("draw_normal.paths"), 1e6),
        "stochastic.draw_uniform.us_per_path": _ratio(
            t("draw_uniform.s"), n("draw_uniform.paths"), 1e6),
        "stochastic.summary.busy_s": t("self:stochastic.summary"),
        "stochastic.saa.tournament_busy_s": t("tournament.s"),
        "stochastic.busy_s": layers("stochastic."),
        "heuristics.busy_s": t("self:heuristics"),
        "exact.busy_s": layers("exact."),
        "noshow.busy_s": t("self:noshow"),
        "noshow.patterns_per_s": _ratio(n("noshow.patterns"), t("enumerate.s")),
        "cli.overhead_s": t("cli.overhead_s"),
        "trace.wall_s": t("trace.wall_s"),
        "trace.overhead_pct": _ratio(t("trace.wall_s") - untraced_wall,
                                     untraced_wall, 100.0),
    })
    for layer in SOLVES:
        out[f"{layer}.nodes"] = n(f"{layer}.nodes")
        out[f"{layer}.busy_s"] = t("self:" + layer)
        out[f"{layer}.nodes_per_s"] = _ratio(n(f"{layer}.nodes"),
                                             t(f"{layer}.solved_s"))
    return out
