"""Toy cascaded multi-task model and adapter blocks.

The cascade mirrors a denoise -> recognize -> label pipeline: three stages of
dense modules connected in series, with the middle stage's softmax output fed
directly to the final stage so gradients flow end to end. Stages 1-2 are
pretrained on source-domain data; the final stage starts from random
initialization and only ever adapts on target data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {self.in_dim}->{self.out_dim}")
        if self.activation not in ad.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class ModuleSpec:
    name: str
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError(f"module {self.name!r} has no layers")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"module {self.name!r}: layer dims {a.out_dim} -> {b.in_dim} disagree")

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class StageSpec:
    name: str
    modules: tuple[ModuleSpec, ...]
    output_softmax: bool = False

    def __post_init__(self):
        for a, b in zip(self.modules, self.modules[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"stage {self.name!r}: module dims {a.out_dim} -> {b.in_dim} disagree")


@dataclass(frozen=True)
class CascadeSpec:
    stages: tuple[StageSpec, ...]
    n_labels: int

    def __post_init__(self):
        if not self.stages:
            raise ValueError("cascade needs at least one stage")
        for a, b in zip(self.stages, self.stages[1:]):
            if a.modules[-1].out_dim != b.modules[0].in_dim:
                raise ValueError(
                    f"stage interface mismatch: {a.name!r} emits {a.modules[-1].out_dim}, "
                    f"{b.name!r} expects {b.modules[0].in_dim}"
                )
        final = self.stages[-1].modules[-1].out_dim
        if final != self.n_labels:
            raise ValueError(f"final stage emits width {final}, expected {self.n_labels} labels")

    @property
    def in_dim(self):
        return self.stages[0].modules[0].in_dim

    def module_specs(self):
        """Flattened (stage_index, ModuleSpec) pairs in cascade order."""
        return [(si, m) for si, stage in enumerate(self.stages) for m in stage.modules]


def _dense_module(name, dims, final_activation="tanh"):
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        act = final_activation if i == len(dims) - 2 else "tanh"
        layers.append(LayerSpec(a, b, act))
    return ModuleSpec(name, tuple(layers))


def default_spec(dim=16, n_labels=8, modules_per_stage=2):
    """The toy cascade: 3 stages, dense 2-layer modules, dims dim->dim->dim->n_labels."""
    stages = []
    for si, name in enumerate(("denoise", "recognize", "label")):
        mods = []
        for mi in range(modules_per_stage):
            mod_name = f"{name}.{mi}"
            last_in_stage = mi == modules_per_stage - 1
            if si == 2 and last_in_stage:
                mods.append(_dense_module(mod_name, (dim, dim, n_labels), final_activation="linear"))
            else:
                mods.append(_dense_module(mod_name, (dim, dim, dim)))
        stages.append(StageSpec(name, tuple(mods), output_softmax=(si == 1)))
    return CascadeSpec(tuple(stages), n_labels)


def small_spec(dim=16, n_labels=8):
    """3-cell cascade (one module per stage), used for oracle enumeration."""
    return default_spec(dim=dim, n_labels=n_labels, modules_per_stage=1)


class NetModule:
    """One searchable unit: a small stack of dense layers with a frozen
    pretrained snapshot once :meth:`freeze` has been called."""

    def __init__(self, spec: ModuleSpec, rng: np.random.Generator):
        self.spec = spec
        self.name = spec.name
        self.params = ParameterSet()
        for i, layer in enumerate(spec.layers):
            w = rng.normal(0.0, 1.0 / math.sqrt(layer.in_dim), size=(layer.in_dim, layer.out_dim))
            b = np.zeros(layer.out_dim)
            self.params.add(f"L{i}.W", Tensor(w, requires_grad=True))
            self.params.add(f"L{i}.b", Tensor(b, requires_grad=True))
        self._frozen = False

    @property
    def in_dim(self):
        return self.spec.in_dim

    @property
    def out_dim(self):
        return self.spec.out_dim

    @property
    def param_count(self):
        return self.params.count

    @property
    def pretrained_params(self):
        if not self._frozen:
            raise RuntimeError(f"module {self.name!r} has not been frozen yet")
        return self.params

    def freeze(self):
        """Snapshot the current weights as the immutable pretrained state: the
        arrays become read-only, so a write into a shared snapshot raises."""
        self.params.set_requires_grad(False)
        for _, t in self.params.items():
            t.value.flags.writeable = False
        self._frozen = True

    def forward(self, x, params=None):
        p = params if params is not None else self.params
        h = x
        for i, layer in enumerate(self.spec.layers):
            h = ad.dense(h, p[f"L{i}.W"], p[f"L{i}.b"], layer.activation)
        return h


class CascadedModel:
    """Modules of all stages in series, with the configured inter-stage softmax."""

    def __init__(self, spec: CascadeSpec, modules, stage_of_module):
        self.spec = spec
        self.modules = list(modules)
        self.stage_of_module = list(stage_of_module)

    def __len__(self):
        return len(self.modules)

    def stage_modules(self, stage_index):
        return [m for m, s in zip(self.modules, self.stage_of_module) if s == stage_index]

    def is_stage_end(self, module_index):
        s = self.stage_of_module[module_index]
        return module_index + 1 == len(self.modules) or self.stage_of_module[module_index + 1] != s

    def stage_output_transform(self, module_index, h):
        """Apply the stage boundary transform (softmax after the middle stage)."""
        s = self.stage_of_module[module_index]
        if self.is_stage_end(module_index) and self.spec.stages[s].output_softmax:
            return ad.softmax_lastdim(h)
        return h

    def forward(self, x):
        h = x
        for i, module in enumerate(self.modules):
            h = module.forward(h)
            h = self.stage_output_transform(i, h)
        return h

    def forward_stage(self, stage_index, x):
        h = x
        for i, module in enumerate(self.modules):
            if self.stage_of_module[i] != stage_index:
                continue
            h = module.forward(h)
            h = self.stage_output_transform(i, h)
        return h

    def freeze(self):
        for m in self.modules:
            m.freeze()

    def pretrained_count(self):
        return sum(m.param_count for m in self.modules)


def build_cascade(spec: CascadeSpec, seed: int) -> CascadedModel:
    """Construct all modules with seeded random initialization."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    modules, stage_of = [], []
    for si, mspec in spec.module_specs():
        modules.append(NetModule(mspec, rng))
        stage_of.append(si)
    return CascadedModel(spec, modules, stage_of)


def pretrain_upstream(model: CascadedModel, source_data, epochs, lr, batch_size=32, seed=0):
    """Pretrain stage 1 (denoising regression) and stage 2 (intermediate
    classification) on source-domain data; the final stage stays at its random
    init. Freezes all modules afterward, fixing the pretrained snapshots."""
    if len(source_data) == 0:
        raise ValueError("pretraining requires a nonempty source dataset")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E7A]))

    def run_stage(loss_fn, stage_index, data):
        params = ParameterSet()
        for m in model.stage_modules(stage_index):
            params.merge(m.params, prefix=m.name + ".")
        opt = ad.Adam(params, lr=lr)
        for _ in range(epochs):
            for batch in data.batches(batch_size, rng):
                opt.minimize(loss_fn(batch))

    def denoise_loss(batch):
        return ad.mse(model.forward_stage(0, ad.constant(batch.x)), ad.constant(batch.clean))

    def recognize_loss(batch):
        # stage-2 softmax output doubles as class posterior; train via log-loss
        return ad.nll(model.forward_stage(1, ad.constant(batch.x)), batch.inter_labels)

    if epochs > 0:
        run_stage(denoise_loss, 0, source_data)
        # stage 0 is trained and outside the next stage's optimizer: its output
        # over every source row, computed once, is stage 1's constant input
        h = model.forward_stage(0, ad.constant(source_data.x)).value
        run_stage(recognize_loss, 1, replace(source_data, x=h))
    model.freeze()


def denoise_eval(model: CascadedModel, data):
    """Held-out stage-1 denoising loss (pretraining progress metric)."""
    x = ad.constant(data.x)
    return ad.mse(model.forward_stage(0, x), ad.constant(data.clean)).item()


class BottleneckAdapter:
    """Down-projection, tanh, up-projection, skip connection. The up projection
    is zero-initialized so the adapter starts as an exact identity."""

    kind = "BA"

    def __init__(self, in_dim, rng: np.random.Generator):
        if in_dim <= 0:
            raise ValueError("adapter in_dim must be positive")
        self.in_dim = in_dim
        self.hidden = max(1, math.ceil(in_dim / 4))
        self.params = ParameterSet()
        w_down = rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(in_dim, self.hidden))
        self.params.add("down.W", Tensor(w_down, requires_grad=True))
        self.params.add("down.b", Tensor(np.zeros(self.hidden), requires_grad=True))
        self.params.add("up.W", Tensor(np.zeros((self.hidden, in_dim)), requires_grad=True))
        self.params.add("up.b", Tensor(np.zeros(in_dim), requires_grad=True))

    @property
    def param_count(self):
        return self.params.count

    def forward(self, x):
        if x.shape[-1] != self.in_dim:
            raise ad.ShapeError(f"BA: input width {x.shape[-1]} != {self.in_dim}")
        h = ad.tanh(ad.affine(x, self.params["down.W"], self.params["down.b"]))
        return ad.add(x, ad.affine(h, self.params["up.W"], self.params["up.b"]))


class GatedAdapter:
    """Elementwise gated mix of the input and an expanded linear transform:
    g(x) * x + (1 - g(x)) * expand(x). Gate bias starts positive so the block
    opens near the identity."""

    kind = "GA"

    def __init__(self, in_dim, rng: np.random.Generator):
        if in_dim <= 0:
            raise ValueError("adapter in_dim must be positive")
        self.in_dim = in_dim
        self.params = ParameterSet()
        self.params.add("gate.W", Tensor(np.zeros((in_dim, in_dim)), requires_grad=True))
        self.params.add("gate.b", Tensor(np.full(in_dim, 3.0), requires_grad=True))
        w_exp = rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(in_dim, in_dim))
        self.params.add("expand.W", Tensor(w_exp, requires_grad=True))
        self.params.add("expand.b", Tensor(np.zeros(in_dim), requires_grad=True))

    @property
    def param_count(self):
        return self.params.count

    def forward(self, x):
        if x.shape[-1] != self.in_dim:
            raise ad.ShapeError(f"GA: input width {x.shape[-1]} != {self.in_dim}")
        g = ad.sigmoid(ad.affine(x, self.params["gate.W"], self.params["gate.b"]))
        expanded = ad.affine(x, self.params["expand.W"], self.params["expand.b"])
        one_minus_g = ad.add(ad.constant(np.ones(self.in_dim)), ad.scale(g, -1.0))
        return ad.add(ad.mul(g, x), ad.mul(one_minus_g, expanded))


ADAPTER_KINDS = {"BA": BottleneckAdapter, "GA": GatedAdapter}


def make_adapter(kind, in_dim, rng):
    if kind not in ADAPTER_KINDS:
        raise ValueError(f"unknown adapter kind {kind!r}; choose from {sorted(ADAPTER_KINDS)}")
    return ADAPTER_KINDS[kind](in_dim, rng)
