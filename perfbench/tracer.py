"""Spans around the public functions of each ``nfa`` module, recorded from
the benchmark's side: nothing under ``src/`` knows it is being traced.

A target is wrapped at every place it is looked up: the attribute of the
defining module or class, plus every ``nfa`` module that imported the same
object by name (``harness.pretrain_upstream`` is ``cascade.pretrain_upstream``).
``restore`` puts every original back and checks it by identity.

Spans are kept per seed-run: ``Tracer.runs[seed_run]`` lists
``(name, start_ns, end_ns, parent)`` where ``parent`` is the index of the
enclosing span in that list, or -1.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# The end-to-end phases. Wrapping three names costs a few calls per seed-run,
# so the untraced run uses these and nothing else.
PHASE_TARGETS = (
    ("harness", "pretrain_upstream", "cascade.pretrain_upstream"),
    ("search", "AdaptiveSearch.run_stage1", "search.run_stage1"),
    ("search", "AdaptiveSearch.run_stage2", "search.run_stage2"),
)

_OPS = ("matmul", "add", "mul", "tanh", "sigmoid", "softmax_lastdim", "log", "scale",
        "index_lastdim")

LAYER_TARGETS = PHASE_TARGETS + tuple(
    ("autodiff", op, f"autodiff.op.{op}") for op in _OPS
) + (
    ("autodiff", "tensor_sum", "autodiff.op.sum"),
    ("autodiff", "tensor_mean", "autodiff.op.mean"),
    ("autodiff", "Adam.step", "autodiff.Adam.step"),
    ("autodiff", "ParameterSet.zero_grads", "autodiff.ParameterSet.zero_grads"),
    ("cell", "cascade_forward", "cell.cascade_forward"),
    ("cell", "NfaCell.forward", "cell.NfaCell.forward"),
    ("cell", "gumbel_softmax", "cell.gumbel_softmax"),
    ("cell", "build_cells", "cell.build_cells"),
    ("cascade", "NetModule.forward", "cascade.NetModule.forward"),
    ("cascade", "BottleneckAdapter.forward", "cascade.adapter.forward"),
    ("cascade", "GatedAdapter.forward", "cascade.adapter.forward"),
    ("objective", "task_loss", "objective.task_loss"),
    ("objective", "penalty", "objective.penalty"),
    ("search", "AdaptiveSearch.arch_step", "search.arch_step"),
    ("search", "AdaptiveSearch.net_step", "search.net_step"),
    ("search", "AdaptiveSearch.evaluate", "search.evaluate"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "Dataset.subset", "data.Dataset.subset"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "enumerate_oracle", "harness.enumerate_oracle"),
    ("harness", "build_experiment", "harness.build_experiment"),
    ("harness", "train_fixed_scheme", "harness.train_fixed_scheme"),
    ("harness", "save_checkpoint", "harness.save_checkpoint"),
    ("harness", "export_architecture", "harness.export_architecture"),
    ("harness", "write_metrics", "harness.write_metrics"),
    ("config", "config_from_dict", "config.config_from_dict"),
)

PATH_EVALS = ("cascade.NetModule.forward", "cascade.adapter.forward")

WALK = "trace.graph_walk"  # the node count's own walk, kept out of its parent's self time


def _resolve(nfa, module, path):
    owner = getattr(nfa, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _count_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().inputs:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Wraps ``PHASE_TARGETS``, or with ``layers`` every layer target and also
    counts Tensor constructions and the nodes of every backward graph."""

    def __init__(self, nfa, layers=False):
        self.nfa = nfa
        self.layers = layers
        self.targets = LAYER_TARGETS if layers else PHASE_TARGETS
        self.runs = {}  # seed_run -> its spans
        self.seed_run = -1
        self.tensors = defaultdict(int)  # seed_run -> Tensor constructions
        self.graph_nodes = defaultdict(list)  # seed_run -> nodes per backward call
        self.checkpoint_bytes = defaultdict(int)  # seed_run -> bytes written
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.runs[self.seed_run], self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _backward(self, fn):
        traced = self._span("autodiff.backward", fn)
        walk = self._span(WALK, _count_nodes)

        @functools.wraps(fn)
        def wrapper(loss):
            self.graph_nodes[self.seed_run].append(walk(loss))
            return traced(loss)

        return wrapper

    def _tensor_init(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tensors[self.seed_run] += 1
            fn(*args, **kwargs)

        return wrapper

    def _checkpoint_size(self, paths):
        self.checkpoint_bytes[self.seed_run] += sum(p.stat().st_size for p in paths)

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, seed_run):
        """Wrap every target; spans recorded from now on go to ``runs[seed_run]``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.seed_run = seed_run
        self.runs[seed_run] = []
        modules = [m for name, m in sys.modules.items()
                   if name == "nfa" or name.startswith("nfa.")]
        if self.layers:
            ad = self.nfa.autodiff
            self._patch(ad, "backward", self._backward(ad.backward))
            self._patch(ad.Tensor, "__init__", self._tensor_init(ad.Tensor.__init__))
        for module, path, name in self.targets:
            owner, attr = _resolve(self.nfa, module, path)
            original = owner.__dict__[attr]
            after = self._checkpoint_size if name == "harness.save_checkpoint" else None
            wrapped = self._span(name, original, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:  # the defining module and every from-import alias
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapped)

    def restore(self):
        """Put back every original and check each by identity."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
                 if o.__dict__[a] is not orig]
        if wrong:
            raise RuntimeError(f"tracer left wrapped attributes behind: {wrong}")

    # -- reading ---------------------------------------------------------

    def durations(self, name, seed_run):
        """Durations in seconds of every ``name`` span of one seed-run."""
        return [(end - start) / 1e9 for n, start, end, _ in self.runs[seed_run] if n == name]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("seed_run,name,start_ns,end_ns,parent\n")
            for seed_run, spans in self.runs.items():
                for name, start, end, parent in spans:
                    fh.write(f"{seed_run},{name},{start},{end},{parent}\n")


class LayerStats:
    """Per-name calls, inclusive and self seconds of one seed-run's spans."""

    def __init__(self, tracer, seed_run):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        spans = tracer.runs[seed_run]
        forwards = set()
        self.path_evals = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = (end - start) / 1e9
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur
            if parent >= 0:
                self.self_s[spans[parent][0]] -= dur
            if name == "cell.NfaCell.forward":
                forwards.add(idx)
            elif parent in forwards and name in PATH_EVALS:
                self.path_evals += 1
        self.latencies = {name: tracer.durations(name, seed_run)
                          for name in ("search.arch_step", "search.net_step")}
        # from the end of stage 2 to the return of run_experiment
        runs = [s for s in spans if s[0] == "harness.run_experiment"]
        self.report_s = sum(
            run[2] - max((s[2] for s in spans
                          if s[0] == "search.run_stage2" and run[1] <= s[1] <= run[2]),
                         default=run[2])
            for run in runs
        ) / 1e9
