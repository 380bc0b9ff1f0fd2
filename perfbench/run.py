"""The repository benchmark: end-to-end phase timings, a report-digest gate,
and a traced run for per-layer numbers.

    python3 perfbench/run.py --workload search_toy6 [--seed 0] [--seconds 55] [--trace 0|1]

One process runs one workload, single-threaded apart from BLAS, whose threads
are capped at ``nproc``. It repeats seed-runs (seed-run *i* uses seed
``--seed`` + *i*) until another would overrun ``--seconds``, after at least
``MIN_SEED_RUNS``. Every seed-run's reports are hashed and compared with
``reference.json``; a seed-run that raises or whose digest differs fails.

``--trace 0`` prints the end-to-end metrics: set-up time as the median of
``SETUP_PROBES`` fresh set-ups, and every phase as its seconds per seed-run,
the phase's total time over the run divided by its calls. On a shared box
whose speed flips between two levels for tens of seconds at a time, that
mean moves with the share of slow time; a median jumps between the levels.

``--trace 1`` runs each seed twice, untraced then traced, requires equal
digests, and prints the per-layer metrics: counts from seed-run 0, times as
medians over the traced seed-runs, step latencies pooled over them (it runs
until there are ``STEP_LATENCY_SAMPLES``), and the tracing overhead.

Every metric is printed as ``name value unit n=samples``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run output, results and spans go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import env
import tracer as tr
from workloads import WORKLOADS, seed_run

MIN_SEED_RUNS = 3
STEP_LATENCY_SAMPLES = 100  # the least for which p90 has ten samples beyond it
SETUP_PROBES = 5
REFERENCE = Path(__file__).with_name("reference.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="seed of seed-run 0 (default 0)")
    p.add_argument("--seconds", type=float, default=55.0, help="measuring time (default 55)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Gate:
    """Compares seed-run digests with the recorded reference, when the
    reference was recorded on a machine that computes the same bits."""

    def __init__(self, workload, fingerprint):
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.applies = doc.get("fingerprint") == fingerprint
        self.digests = doc.get("digests", {}).get(workload, {}) if self.applies else {}
        self.unreferenced = 0

    def check(self, seed, digest):
        want = self.digests.get(str(seed))
        if want is None:
            self.unreferenced += 1
            return True
        return want == digest


@dataclass
class Outcome:
    ok: bool
    digest: str | None
    timings: dict


def attempt(nfa, workload, seed, tracer, seed_run_id, work):
    """One seed-run under ``tracer``; a seed-run that raises or breaks an
    invariant is reported on stderr and comes back not ok."""
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=work))
    try:
        tracer.install(seed_run_id)
        digest, timings, problems = seed_run(nfa, workload, seed, out)
    except Exception:
        traceback.print_exc()
        return Outcome(False, None, {})
    finally:
        tracer.restore()
        shutil.rmtree(out, ignore_errors=True)
    for problem in problems:
        print(f"seed {seed}: {problem}", file=sys.stderr)
    return Outcome(not problems, digest, timings)


def setup_probe(workload, seed):
    """Set up the workload in a fresh interpreter; returns its seconds."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run([sys.executable, str(probe), workload.name, str(seed)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _keep_going(started, durations, seconds, need_more):
    """Another seed-run is due while more are needed, or if it would not overrun."""
    if need_more:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def run_plain(nfa, workload, base, seconds, gate, work):
    tracer = tr.Tracer(nfa)
    samples = defaultdict(list)
    attempted = failed = 0
    durations = []
    started = time.perf_counter()
    while _keep_going(started, durations, seconds, attempted < MIN_SEED_RUNS):
        # set-up probes interleave with seed-runs so a slow spell hits both alike
        if len(samples["setup_s"]) < SETUP_PROBES:
            samples["setup_s"].append(setup_probe(workload, base + len(samples["setup_s"])))
        seed = base + attempted
        t0 = time.perf_counter()
        outcome = attempt(nfa, workload, seed, tracer, attempted, work)
        durations.append(time.perf_counter() - t0)
        if outcome.digest is not None:
            for name, value in outcome.timings.items():
                samples[name].append(value)
            for name, phase in (("pretrain_s", "cascade.pretrain_upstream"),
                                ("stage1_s", "search.run_stage1"),
                                ("stage2_s", "search.run_stage2")):
                samples[name] += tracer.durations(phase, attempted)
        if not (outcome.ok and gate.check(seed, outcome.digest)):
            failed += 1
            print(f"seed {seed}: FAILED digest={outcome.digest}", file=sys.stderr)
        attempted += 1
    while len(samples["setup_s"]) < SETUP_PROBES:
        samples["setup_s"].append(setup_probe(workload, base + len(samples["setup_s"])))

    metrics = {"setup_s": (statistics.median(samples["setup_s"]), "s", SETUP_PROBES)}
    for name in ("pretrain_s", "stage1_s", "stage2_s", "run_s", "oracle_s"):
        if samples[name]:  # empty only when every seed-run raised
            metrics[name] = (statistics.fmean(samples[name]), "s", len(samples[name]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    return metrics, attempted, failed, dict(samples)


def _percentile(values, q):
    """The q-th percentile, linearly interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(layer, stats):
    """Per-layer metrics from ``stats``, the ``LayerStats`` of each traced
    seed-run in order: counts from the first, which repeat exactly for a
    given seed; times as medians over all of them.

    The end-to-end metric each layer should move, and on which workload:
      autodiff   stage1_s, pretrain_s, oracle_s on search_toy6 and oracle_toy3;
                 nearly flat on search_wide, where op.matmul.self_s dominates
      cell       stage1_s on search_toy6 and search_wide; oracle_s not at all
      cascade    oracle_s on oracle_toy3 (frozen-forward reuse); pretrain_s everywhere
      objective  stage1_s
      search     stage1_s and stage2_s
      data       setup_s, and every phase slightly
      harness    oracle_s on oracle_toy3; report_s is the tail of run_s
      config     setup_s
    """
    first_id = next(iter(stats))
    first, stats = stats[first_id], list(stats.values())
    out = {}

    def count(name, value):
        out[name] = (value, "count", 1)

    def seconds(name, per_run):
        values = [per_run(s) for s in stats]
        out[name] = (statistics.median(values), "s", len(values))

    count("autodiff.tensors", layer.tensors[first_id])
    nodes = layer.graph_nodes[first_id]
    count("autodiff.backward.calls", len(nodes))
    count("autodiff.backward.nodes", sum(nodes) / len(nodes))
    seconds("autodiff.backward.self_s", lambda s: s.self_s["autodiff.backward"])
    for op in ("matmul", "add", "mul", "tanh", "sigmoid", "softmax_lastdim", "log", "sum",
               "mean", "scale", "index_lastdim"):
        count(f"autodiff.op.{op}.calls", first.calls[f"autodiff.op.{op}"])
    for op in ("matmul", "add", "mul", "tanh"):
        seconds(f"autodiff.op.{op}.self_s", lambda s, op=op: s.self_s[f"autodiff.op.{op}"])
    for name in ("autodiff.Adam.step", "autodiff.ParameterSet.zero_grads",
                 "cell.NfaCell.forward"):
        count(f"{name}.calls", first.calls[name])
        seconds(f"{name}.self_s", lambda s, name=name: s.self_s[name])
    for name in ("cell.cascade_forward", "cell.gumbel_softmax", "cell.build_cells",
                 "cascade.NetModule.forward", "cascade.adapter.forward",
                 "objective.task_loss", "objective.penalty", "search.arch_step",
                 "search.net_step", "search.evaluate", "data.Dataset.subset",
                 "harness.train_fixed_scheme", "harness.save_checkpoint"):
        count(f"{name}.calls", first.calls[name])
        seconds(f"{name}.s", lambda s, name=name: s.total[name])
    count("cell.path_evals_per_forward",
          first.path_evals / first.calls["cell.NfaCell.forward"])
    for name in ("search.arch_step", "search.net_step"):
        pooled = [v * 1e3 for s in stats for v in s.latencies[name]]
        out[f"{name}.p50_ms"] = (statistics.median(pooled), "ms", len(pooled))
        out[f"{name}.p90_ms"] = (_percentile(pooled, 90), "ms", len(pooled))
    for name in ("cascade.pretrain_upstream", "search.run_stage2", "data.generate_synthetic",
                 "harness.build_experiment", "harness.export_architecture",
                 "harness.write_metrics", "config.config_from_dict"):
        seconds(f"{name}.s", lambda s, name=name: s.total[name])
    count("harness.save_checkpoint.bytes", layer.checkpoint_bytes[first_id])
    seconds("harness.report_s", lambda s: s.report_s)
    return out


def run_traced(nfa, workload, base, seconds, gate, work):
    plain, layer = tr.Tracer(nfa), tr.Tracer(nfa, layers=True)
    timings = {"untraced": defaultdict(list), "traced": defaultdict(list)}
    attempted = failed = 0
    stats, durations = {}, []
    steps = 0
    started = time.perf_counter()
    while _keep_going(started, durations, seconds,
                      steps < STEP_LATENCY_SAMPLES and not failed):
        i, seed = len(durations), base + len(durations)
        t0 = time.perf_counter()
        untraced = attempt(nfa, workload, seed, plain, i, work)
        traced = attempt(nfa, workload, seed, layer, i, work)
        durations.append(time.perf_counter() - t0)
        attempted += 2
        for outcome in (untraced, traced):
            for name, value in outcome.timings.items():
                timings["traced" if outcome is traced else "untraced"][name].append(value)
        bad_untraced = not (untraced.ok and gate.check(seed, untraced.digest))
        bad_traced = not (traced.ok and gate.check(seed, traced.digest))
        if traced.digest != untraced.digest:
            print(f"seed {seed}: tracing changed the reports", file=sys.stderr)
            bad_traced = True
        if bad_untraced or bad_traced:
            failed += bad_untraced + bad_traced
            print(f"seed {seed}: FAILED digests {untraced.digest} {traced.digest}",
                  file=sys.stderr)
        else:
            stats[i] = tr.LayerStats(layer, i)
            steps += len(stats[i].latencies["search.arch_step"])
        if list(stats) != [i]:  # keep only the first traced seed-run's spans for the span file
            del layer.runs[i]
    if not stats:
        return {}, attempted, failed, timings
    metrics = layer_metrics(layer, stats)
    for name in ("run_s", "oracle_s"):
        ratio = (statistics.median(timings["traced"][name])
                 / statistics.median(timings["untraced"][name]))
        metrics[f"trace.{name}.overhead_pct"] = (100.0 * (ratio - 1.0), "%", len(stats))
    layer.write(env.WORK / "trace" / f"{workload.name}-seed{base}.csv")
    return metrics, attempted, failed, timings


def main(argv=None):
    args = parse_args(argv)
    env.isolate()
    try:
        nfa = env.load_nfa()
    except ImportError as e:
        print(f"cannot load the program: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    fingerprint = env.fingerprint()
    gate = Gate(workload.name, fingerprint)
    environment = env.environment()
    for key, value in environment.items():
        print(f"env {key} {value}")
    if not gate.applies:
        print("digest gate off: reference.json was recorded where numpy/BLAS/CPU differ",
              file=sys.stderr)

    work = env.WORK / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    run = run_traced if args.trace else run_plain
    metrics, attempted, failed, samples = run(nfa, workload, args.seed, args.seconds,
                                              gate, work)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value!r} {unit} n={n}")
    print(f"failed_frac {failed / attempted!r} 1 n={attempted}")
    print(f"unreferenced_seed_runs {gate.unreferenced} count n={attempted}")

    result = {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment, fingerprint=fingerprint,
                  samples=samples, unreferenced=gate.unreferenced)
    out = env.WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
