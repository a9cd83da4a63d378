#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload kv_write_chaos --seed 7 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each workload has a fixed number of input sets ("parts") per seed.
Within ``--seconds`` the parts are set up and run in turn, each at least
once: host timings are medians over all those repetitions, latencies
pool the parts, and every exact figure (work counters, virtual delays)
must repeat between repetitions of one part.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then sets up
and runs part 0 once more with every layer wrapped, checks that its exact
figures equal the untraced ones, prints the per-layer metrics, and writes
the spans to ``.perfbench_out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A run that fails the correctness gate prints ``"correct": false`` and
exits with status 1; missing program sources exit with status 2 and
print no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: repetitions measured even when they outlast ``--seconds``
MIN_REPS = 3
#: set-up times the ``setup_s`` median is taken over
MIN_SETUPS = 15


class Rep:
    """One set-up and run of one part."""

    __slots__ = ("part", "setup_s", "run_s", "cpu_s", "outcome")

    def __init__(self, part, setup_s, run_s, cpu_s, outcome) -> None:
        self.part = part
        self.setup_s = setup_s
        self.run_s = run_s
        self.cpu_s = cpu_s
        self.outcome = outcome

    @property
    def rate(self) -> float:
        return self.outcome.completed / self.run_s


def once(workload, seed: int, part: int, **setup_args) -> Rep:
    gc.collect()
    tick = time.perf_counter()
    prepared = workload.setup(seed, part, **setup_args)
    ready = time.perf_counter()
    cpu = time.process_time()
    workload.run(prepared)
    done = time.perf_counter()
    cpu = time.process_time() - cpu
    return Rep(part, ready - tick, done - ready, cpu, workload.finish(prepared))


def measure(workload, seed: int, seconds: float):
    """Cycles of repetitions, every part once per cycle, until another
    cycle would overrun *seconds*; every part gets the same count.
    Returns the repetitions and at least :data:`MIN_SETUPS` set-up times
    (set-ups without a run make up any shortfall)."""
    reps = []
    parts = workload.parts
    started = time.perf_counter()
    while True:
        reps.append(once(workload, seed, len(reps) % parts))
        if len(reps) % parts or len(reps) < MIN_REPS:
            continue
        spent = time.perf_counter() - started
        if spent + parts * spent / len(reps) > seconds:
            break
    setups = [rep.setup_s for rep in reps]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        tick = time.perf_counter()
        workload.setup(seed, len(setups) % parts)
        setups.append(time.perf_counter() - tick)
    return reps, setups


def first_of_each_part(reps):
    firsts = {}
    for rep in reps:
        firsts.setdefault(rep.part, rep.outcome)
    return [firsts[part] for part in sorted(firsts)]


def differences(expected, got):
    return sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))


def gate(reps, references) -> list:
    """Gate failures of every repetition, plus any exact figure that did
    not repeat, plus (parallel kernel) any part whose hashes differ from
    its inline single-worker reference run."""
    errors = []
    firsts = first_of_each_part(reps)
    for rep in reps + list(references.values()):
        errors.extend(e for e in rep.outcome.errors if e not in errors)
    for rep in reps:
        diff = differences(firsts[rep.part].exact, rep.outcome.exact)
        if diff:
            errors.append(f"part {rep.part} did not repeat its exact figures: {diff}")
    for part, reference in references.items():
        for name in ("combined_hash", "kv_digests"):
            if firsts[part].exact[name] != reference.outcome.exact[name]:
                errors.append(f"part {part}: {name} differs from the inline "
                              "single-worker run's")
    return errors


def end_to_end(reps, setups):
    firsts = first_of_each_part(reps)
    from workloads import percentile

    latencies = [lat for outcome in firsts for lat in outcome.latencies]
    attempted = sum(outcome.attempted for outcome in firsts)
    completed = sum(outcome.completed for outcome in firsts)
    return attempted, completed, {
        "requests_per_s": (statistics.median(rep.rate for rep in reps), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rep.outcome.peak_rss_mb for rep in reps), "MiB"),
        "latency_p50_delays": (percentile(latencies, 50), "delays"),
        "latency_p99_delays": (percentile(latencies, 99), "delays"),
        "completed_frac": (completed / attempted, "fraction"),
        "unavailable_delays": (
            statistics.fmean(o.exact["unavailable_delays"] for o in firsts), "delays"
        ),
    }


def traced(workload, seed: int, reps, references):
    """Run part 0 once with every layer wrapped; returns
    ``(errors, per-layer values, tracer)``.  The tracing overhead is
    measured against the untraced runs of part 0 in the same mode: the
    inline reference run for the parallel kernel, which is traced inline."""
    from layers import PER_LAYER, Tracer, per_layer

    part0 = [rep for rep in reps if rep.part == 0]
    baseline = [references[0]] if references else part0
    untraced = {
        "requests_per_s": statistics.median(rep.rate for rep in baseline),
        "sim_events_per_s": statistics.median(
            (rep.outcome.exact["messages"] + rep.outcome.exact["op_legs"]) / rep.run_s
            for rep in part0
        ),
    }
    # the parallel kernel's coordinator and worker figures come from the
    # untraced fork-mode runs; the traced run itself is inline (see README)
    if "wall_s" in part0[0].outcome.host:
        untraced.update(
            coordinator_s=statistics.median(rep.cpu_s for rep in part0),
            busy_s=statistics.median(rep.outcome.host["busy_s"] for rep in part0),
            idle_frac=statistics.median(rep.outcome.host["idle_frac"] for rep in part0),
        )
    setup_args = getattr(workload, "traced_setup", {})
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        prepared = workload.setup(seed, 0, **setup_args)
        keygen_s = tracer.metric("shard.workload", "keygen_s")[1]
        tracer.reset()
        tick = time.perf_counter()
        workload.run(prepared)
        run_s = time.perf_counter() - tick
        outcome = workload.finish(prepared)
        values = per_layer(
            tracer, keygen_s, outcome.exact, outcome.completed, run_s,
            outcome.decisions, untraced,
        )
    finally:
        tracer.uninstall()
    errors = list(outcome.errors)
    diff = differences(part0[0].outcome.exact, outcome.exact)
    if diff:
        errors.append(f"the traced run's exact figures differ from the untraced: {diff}")
    if [name for name, _unit, _better in PER_LAYER] != list(values):
        raise RuntimeError("per-layer values do not follow the PER_LAYER table")
    return errors, values, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    reps, setups = measure(workload, args.seed, args.seconds)
    references = {}
    if hasattr(workload, "reference_setup"):
        references = {
            part: once(workload, args.seed, part, **workload.reference_setup)
            for part in range(workload.parts)
        }
    errors = gate(reps, references)
    attempted, completed, metrics = end_to_end(reps, setups)

    print(f"# {workload.name} seed={args.seed}: {len(reps)} repetitions of "
          f"{workload.parts} part(s)")
    for rep in reps:
        print(f"#   part {rep.part}: setup {rep.setup_s:.4f} s, run {rep.run_s:.4f} s, "
              f"{rep.rate:.1f} requests/s")
    for part, outcome in enumerate(first_of_each_part(reps)):
        for name in sorted(outcome.exact):
            print(f"#   part {part} exact {name} = {outcome.exact[name]}")
    if args.trace:
        from layers import PER_LAYER

        trace_errors, values, tracer = traced(workload, args.seed, reps, references)
        errors.extend(trace_errors)
        units = {name: unit for name, unit, _better in PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        spans = OUT / f"{workload.name}-seed{args.seed}-spans.tsv.gz"
        tracer.write_spans(spans)
        print(f"# layer self time (s), traced part 0; spans in {spans.relative_to(ROOT)}")
        for layer, own in sorted(tracer.layer_self().items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:28s} {own:9.4f}")
        for name, (value, unit) in metrics.items():
            print(f"#   {name} = {value} {unit}")
    for error in errors:
        print(f"# GATE FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
