"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload mc --seed 1 --seconds 25 --trace 0

The run imports blocksched from src/, sets up (SETUPS times, see setup_s),
then runs the workload's job list in whole rounds for about --seconds.
Round 1's outputs are checked against the oracle after the timed rounds;
every later round's outputs must be byte-identical to round 1's.  The last
line on stdout is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  Metric names and units come from BENCHMARK.json.

Times are scaled to the reference machine speed (speed.py).  With --trace 1
the first half of the time runs untraced and the second half traced;
per-layer times are means over the traced rounds, and the raw spans are
written to bench/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUPS = 3


@dataclass
class Outcome:
    """One job in one round."""
    seconds: float
    cpu: float
    texts: list[str] | None     # report files, or the library call's output
    error: str | None


@dataclass
class Round:
    outcomes: list[Outcome] = field(default_factory=list)
    spans: list = field(default_factory=list)
    calibrations: list[tuple[float, float]] = field(default_factory=list)

    def factor(self, index: int, which: int = 0) -> float:
        """What scales job `index`'s wall (which=0) or CPU (1) time to the
        reference speed: REFERENCE_S over the mean of the calibrations
        taken just before and just after it."""
        before, after = self.calibrations[index], self.calibrations[index + 1]
        return speed.REFERENCE_S * 2 / (before[which] + after[which])

    def scaled(self, index: int, which: int) -> float:
        outcome = self.outcomes[index]
        took = outcome.cpu if which else outcome.seconds
        return took * self.factor(index, which)


def startup_seconds() -> float:
    """Interpreter start and the program's imports, in a fresh process.

    Not scaled: on the reference machine it does not follow the
    calibration (loading files, not running Python, sets its pace)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, blocksched.cli"],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   check=True)
    return time.perf_counter() - t0


def run_job(package, probe, job, index) -> Outcome:
    for path in job.outputs:
        path.unlink(missing_ok=True)
    gc.collect()
    probe.job = index
    error = text = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if job.argv is not None:
            code = package.cli.run(job.argv)
            error = f"exit {code}" if code != 0 else None
        else:
            text = job.call()
    except Exception as exc:
        error = type(exc).__name__
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    texts = None
    if error is None:
        texts = [p.read_text() for p in job.outputs] if job.argv else [text]
    return Outcome(seconds, cpu, texts, error)


def run_rounds(package, probe, jobs, until, timing, first_calls=None):
    """Whole rounds of the job list, at least one, while a round ending at
    `until` (perf_counter) is closer than one ending half a round later.
    The machine's speed is calibrated before every job and after the
    round.  With first_calls, round 1 records each job's library calls."""
    rounds: list[Round] = []
    lengths = []
    probe.timing = timing
    while not rounds or (time.perf_counter()
                         + statistics.median(lengths) / 2 < until):
        started = time.perf_counter()
        probe.spans = []
        current = Round(spans=probe.spans)
        for index, job in enumerate(jobs):
            current.calibrations.append(speed.calibrate())
            probe.recording = first_calls is not None and not rounds
            probe.calls = []
            current.outcomes.append(run_job(package, probe, job, index))
            if probe.recording:
                first_calls.append(probe.calls)
        probe.recording = False
        current.calibrations.append(speed.calibrate())
        rounds.append(current)
        lengths.append(time.perf_counter() - started)
    probe.timing = False
    return rounds


def account(package, jobs, rounds, calls) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over all rounds; prints each problem."""
    correct, failed = True, 0
    for index, job in enumerate(jobs):
        first = rounds[0].outcomes[index]
        problems = []
        if first.error is None and job.check is not None:
            try:
                problems = job.check(first.texts, calls[index], package)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        for n, outcome in enumerate(r.outcomes[index] for r in rounds):
            if outcome.error is not None:
                failed += 1
                if job.known_fault is None:
                    correct = False
                    problems.append(f"round {n + 1}: {outcome.error}")
            elif problems or outcome.texts != first.texts:
                failed += 1
                correct = False
                if outcome.texts != first.texts:
                    problems.append(f"round {n + 1} output differs from round 1")
        median = statistics.median(r.outcomes[index].seconds for r in rounds)
        status = (first.error if first.error and job.known_fault
                  else "FAIL" if problems else "ok")
        print(f"{job.name:28s} {median * 1e3:10.2f} ms  {status}",
              file=sys.stderr)
        for problem in problems:
            print(f"    {problem}", file=sys.stderr)
    return correct, len(jobs) * len(rounds), failed


def end_to_end(rounds: list[Round], setup_s, rss_mb) -> dict:
    """Each job's median over the rounds of its scaled time, then summed
    over the job list (wall_s, cpu_s) or its median taken (job_p50_ms)."""
    def per_job(which):
        return [statistics.median(r.scaled(i, which) for r in rounds)
                for i in range(len(rounds[0].outcomes))]
    wall = per_job(0)
    return {
        "setup_s": setup_s,
        "wall_s": sum(wall),
        "cpu_s": sum(per_job(1)),
        "job_p50_ms": 1e3 * statistics.median(wall),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracing, traced, untraced) -> tuple[dict, bool]:
    """Per-layer metrics; False when counts differ between traced rounds."""
    figures = [tracing.round_layers(
                   r.spans, [o.seconds for o in r.outcomes],
                   [r.factor(i) for i in range(len(r.outcomes))])
               for r in traced]
    counts = figures[0][1]
    steady = all(c == counts for _, c in figures)
    keys = {key for t, _ in figures for key in t}
    times = {key: statistics.fmean(t.get(key, 0.0) for t, _ in figures)
             for key in keys}
    untraced_wall = statistics.fmean(
        sum(r.scaled(i, 0) for i in range(len(r.outcomes))) for r in untraced)
    layers = sum(v for k, v in times.items() if k.startswith("self:"))
    print(f"layer self times {layers:.6f} s + cli overhead "
          f"{times['cli.overhead_s']:.6f} s = {layers + times['cli.overhead_s']:.6f}"
          f" s; traced job time {times['trace.wall_s']:.6f} s", file=sys.stderr)
    values = tracing.layer_metrics(times, counts, untraced_wall)
    values["speed.calibration_ms"] = 1e3 * statistics.median(
        c[0] for r in untraced + traced for c in r.calibrations)
    return values, steady


def write_trace(path, jobs, traced):
    rounds = [{"job_seconds": [o.seconds for o in r.outcomes],
               "spans": [{"fn": s.fn, "layer": s.layer, "job": jobs[s.job].name,
                          "parent": s.parent, "start": s.start, "end": s.end,
                          "counts": s.counts, "error": s.error} for s in r.spans]}
              for r in traced]
    path.write_text(json.dumps({"jobs": [j.name for j in jobs],
                                "rounds": rounds}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc", "search", "saa", "noshow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(ROOT / "src"))
        import blocksched
        import blocksched.cli  # noqa: F401  (the jobs' entry point)
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: cannot set up the benchmark in {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    out = OUT / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(blocksched, ROOT, out, args.seed)
    probe = tracing.Probe(blocksched)
    startups, prepared, calibrations = [], [], [speed.calibrate()]
    for _ in range(SETUPS):
        startups.append(startup_seconds())
        t0 = time.perf_counter()
        jobs = workloads.jobs_for(args.workload, ctx)
        for job in workloads.warmup_for(args.workload, ctx):
            outcome = run_job(blocksched, probe, job, 0)
            if outcome.error is not None:
                print(f"warm-up {job.name}: {outcome.error}", file=sys.stderr)
        took = time.perf_counter() - t0
        calibrations.append(speed.calibrate())
        prepared.append(took * speed.REFERENCE_S * 2
                        / (calibrations[-2][0] + calibrations[-1][0]))
    setup_s = statistics.median(startups) + statistics.median(prepared)

    calls: list = []
    start = time.perf_counter()
    half = args.seconds / 2 if args.trace else args.seconds
    untraced = run_rounds(blocksched, probe, jobs, start + half, False, calls)
    traced = []
    if args.trace:
        traced = run_rounds(blocksched, probe, jobs, start + args.seconds, True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct, attempted, failed = account(blocksched, jobs, untraced + traced,
                                         calls)
    (out / "times.json").write_text(json.dumps({
        "jobs": [job.name for job in jobs], "startup_s": startups, "prepare_s": prepared,
        "setup_calibrations": calibrations,
        **{name: [{"jobs": [[o.seconds, o.cpu] for o in r.outcomes],
                   "calibrations": r.calibrations} for r in rounds]
           for name, rounds in (("untraced", untraced), ("traced", traced))},
    }) + "\n")
    if args.trace:
        values, steady = per_layer(tracing, traced, untraced)
        if not steady:
            print("counts differ between traced rounds", file=sys.stderr)
            correct = False
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    jobs, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, setup_s, rss_mb)
        wanted = spec["end_to_end"]
    print(f"{len(untraced)} untraced and {len(traced)} traced rounds",
          file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
