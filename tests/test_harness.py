"""Experiment harness: data generation, accounting, reports, oracle, CLI."""

import itertools
import json
import math
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import SEARCH_FUZZ_PROFILE, make_config
from nfa import autodiff as ad
from nfa import cascade, cell, cli, harness
from nfa.config import ConfigError, config_from_dict, config_hash, load_config
from nfa.data import SynthDataConfig, generate_synthetic, target_label_permutation
from nfa.search import AdaptiveSearch, EpochRecord


# (section, field) for every scalar field, with "" for the top level
SCALAR_FIELDS = [("", "mode"), ("", "output_dir"),
                 ("cascade", "preset"), ("cascade", "dim"), ("cascade", "n_labels")] + [
    (section, name)
    for section, names in (
        ("penalty", ("pfr_policy", "pfr_constant", "coefficient", "enabled")),
        ("search", ("split_ratio", "lr_network", "lr_arch", "stage1_epochs", "stage2_epochs",
                    "tau_start", "tau_end", "batch_size", "seed")),
        ("pretrain", ("epochs", "lr", "batch_size")),
        ("data", ("n_source", "n_target", "noise_std_source", "noise_std_target", "shift_delta")),
    )
    for name in names
]
SECTIONS = ["cascade", "penalty", "search", "pretrain", "data"]


def with_field(raw, section, name, value):
    raw = json.loads(json.dumps(raw))
    (raw.setdefault(section, {}) if section else raw)[name] = value
    return raw


def fast_config(seed=0, **kw):
    kw.setdefault("preset", "toy3")
    kw.setdefault("stage1_epochs", 2)
    kw.setdefault("stage2_epochs", 2)
    kw.setdefault("pretrain_epochs", 5)
    kw.setdefault("n_source", 256)
    kw.setdefault("n_target", 128)
    return make_config(seed=seed, **kw)


class TestSyntheticData:
    def test_deterministic(self):
        cfg = SynthDataConfig(n_samples=64, domain="target")
        a = generate_synthetic(cfg, 3)
        b = generate_synthetic(cfg, 3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)
        c = generate_synthetic(cfg, 4)
        assert not np.array_equal(a.x, c.x)

    def test_domain_shift_is_exact_mean_offset(self):
        src = generate_synthetic(SynthDataConfig(n_samples=64, domain="source"), 3)
        tgt = generate_synthetic(SynthDataConfig(n_samples=64, domain="target"), 3)
        np.testing.assert_allclose(tgt.x - src.x, 1.0, atol=1e-12)

    def test_target_labels_permuted(self):
        src = generate_synthetic(SynthDataConfig(n_samples=256, domain="source"), 3)
        tgt = generate_synthetic(SynthDataConfig(n_samples=256, domain="target"), 3)
        perm = target_label_permutation(8)
        assert np.array_equal(tgt.labels, perm[src.labels])
        assert np.all(perm != np.arange(8))  # fixed-point free

    def test_label_coverage(self):
        data = generate_synthetic(SynthDataConfig(n_samples=512, domain="target"), 3)
        assert set(data.labels) == set(range(8))

    def test_id_spaces_disjoint(self):
        src = generate_synthetic(SynthDataConfig(n_samples=64, domain="source"), 3)
        tgt = generate_synthetic(SynthDataConfig(n_samples=64, domain="target"), 3)
        assert not set(src.ids) & set(tgt.ids)

    @given(n=st.integers(1, 60), batch_size=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batches_are_one_shuffled_pass(self, n, batch_size, seed):
        data = generate_synthetic(SynthDataConfig(n_samples=n, domain="target"), 0)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        batches = data.batches(batch_size, rng)
        ids = np.concatenate([b.ids for b in batches])
        assert sorted(ids.tolist()) == data.ids.tolist()
        assert all(len(b) == batch_size for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch_size
        twin.permutation(n)
        assert rng.random() == twin.random()  # exactly one permutation was drawn

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        data = generate_synthetic(SynthDataConfig(n_samples=8, domain="source"), 0)
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
            data.batches(batch_size, rng)
        assert rng.random() == twin.random()  # nothing was drawn

    def test_intermediate_multiple_enforced(self):
        with pytest.raises(ValueError, match="multiple"):
            SynthDataConfig(n_samples=8, n_intermediate=10, n_labels=8)


class TestAccounting:
    def test_toy3_fixture(self):
        cfg = fast_config()
        model, cells, _, _ = harness.build_experiment(cfg, 0)
        choices = ["frozen", "finetune", "adapter:BA"]
        totals = harness.account_params(model, cells, choices)
        pretrained = 544 + 544 + 408
        # per-cell network groups: finetune copy + BA adapter; the last
        # module's output is 8-wide, so its adapter costs 42 not 148
        network = (544 + 148) * 2 + (408 + 42)
        assert totals["total_params"] == pretrained + network + 9
        assert totals["train_params"] == network + 9
        assert totals["selected_params"] == 0 + 544 + 42

    def test_choice_count_mismatch(self):
        cfg = fast_config()
        model, cells, _, _ = harness.build_experiment(cfg, 0)
        with pytest.raises(ValueError, match="choices"):
            harness.account_params(model, cells, ["frozen"])

    def test_selected_never_exceeds_train(self):
        cfg = fast_config()
        model, cells, _, _ = harness.build_experiment(cfg, 0)
        for scheme in harness.scheme_space(cells)[:5]:
            t = harness.account_params(model, cells, list(scheme))
            assert t["selected_params"] <= t["train_params"]


# the names of the optimizers' parameters and of the checkpoint manifests:
# toy3 with adapters BA and GA in NFA mode, and with GA alone in NA mode
NFA_NETWORK = [
    "cell0.finetune.L0.W", "cell0.finetune.L0.b", "cell0.finetune.L1.W", "cell0.finetune.L1.b",
    "cell0.adapter.BA.down.W", "cell0.adapter.BA.down.b", "cell0.adapter.BA.up.W",
    "cell0.adapter.BA.up.b", "cell0.adapter.GA.gate.W", "cell0.adapter.GA.gate.b",
    "cell0.adapter.GA.expand.W", "cell0.adapter.GA.expand.b", "cell1.finetune.L0.W",
    "cell1.finetune.L0.b", "cell1.finetune.L1.W", "cell1.finetune.L1.b", "cell1.adapter.BA.down.W",
    "cell1.adapter.BA.down.b", "cell1.adapter.BA.up.W", "cell1.adapter.BA.up.b",
    "cell1.adapter.GA.gate.W", "cell1.adapter.GA.gate.b", "cell1.adapter.GA.expand.W",
    "cell1.adapter.GA.expand.b", "cell2.finetune.L0.W", "cell2.finetune.L0.b",
    "cell2.finetune.L1.W", "cell2.finetune.L1.b", "cell2.adapter.BA.down.W",
    "cell2.adapter.BA.down.b", "cell2.adapter.BA.up.W", "cell2.adapter.BA.up.b",
    "cell2.adapter.GA.gate.W", "cell2.adapter.GA.gate.b", "cell2.adapter.GA.expand.W",
    "cell2.adapter.GA.expand.b"]
NA_NETWORK = [
    "cell0.adapter.GA.gate.W", "cell0.adapter.GA.gate.b", "cell0.adapter.GA.expand.W",
    "cell0.adapter.GA.expand.b", "cell1.adapter.GA.gate.W", "cell1.adapter.GA.gate.b",
    "cell1.adapter.GA.expand.W", "cell1.adapter.GA.expand.b", "cell2.adapter.GA.gate.W",
    "cell2.adapter.GA.gate.b", "cell2.adapter.GA.expand.W", "cell2.adapter.GA.expand.b"]
ALPHAS = ["cell0.alpha", "cell1.alpha", "cell2.alpha"]


class TestParameterNames:
    """A change of a name or of the order changes every checkpoint a run writes."""

    def test_nfa_ba_ga(self):
        _, cells, _, _ = harness.build_experiment(fast_config(adapters=("BA", "GA")), 0)
        assert list(cell.network_group(cells)) == NFA_NETWORK
        assert list(cell.scheme_params(cells, ("finetune", "adapter:GA", "frozen"))) == [
            "cell0.finetune.L0.W", "cell0.finetune.L0.b", "cell0.finetune.L1.W",
            "cell0.finetune.L1.b", "cell1.adapter.GA.gate.W", "cell1.adapter.GA.gate.b",
            "cell1.adapter.GA.expand.W", "cell1.adapter.GA.expand.b"]
        assert list(harness.snapshot_tensors(cells)) == NFA_NETWORK + ALPHAS

    def test_na_ga(self):
        _, cells, _, _ = harness.build_experiment(fast_config(mode="NA", adapters=("GA",)), 0)
        assert list(cell.network_group(cells)) == NA_NETWORK
        assert list(cell.scheme_params(cells, ("adapter:GA", "frozen", "adapter:GA"))) == [
            "cell0.adapter.GA.gate.W", "cell0.adapter.GA.gate.b", "cell0.adapter.GA.expand.W",
            "cell0.adapter.GA.expand.b", "cell2.adapter.GA.gate.W", "cell2.adapter.GA.gate.b",
            "cell2.adapter.GA.expand.W", "cell2.adapter.GA.expand.b"]
        assert list(harness.snapshot_tensors(cells)) == NA_NETWORK + ALPHAS


class TestReports:
    def test_architecture_round_trip(self, tmp_path):
        cfg = fast_config()
        model, cells, _, _ = harness.build_experiment(cfg, 0)
        decision = harness.make_decision(model, cells, ["frozen", "finetune", "adapter:BA"],
                                         config_hash(cfg), 0)
        path = harness.export_architecture(decision, tmp_path / "architecture.json")
        assert harness.import_architecture(path) == decision

    def test_export_is_canonical_json(self, tmp_path):
        cfg = fast_config()
        model, cells, _, _ = harness.build_experiment(cfg, 0)
        decision = harness.make_decision(model, cells, ["frozen"] * 3, config_hash(cfg), 0)
        a = harness.export_architecture(decision, tmp_path / "a.json").read_bytes()
        b = harness.export_architecture(decision, tmp_path / "b.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert set(doc) == {"cells", "totals", "config_hash", "seed"}

    def test_diff_decisions(self, tmp_path):
        cfg = fast_config()
        model, cells, _, _ = harness.build_experiment(cfg, 0)
        h = config_hash(cfg)
        a = harness.make_decision(model, cells, ["frozen", "frozen", "frozen"], h, 0)
        b = harness.make_decision(model, cells, ["frozen", "finetune", "adapter:BA"], h, 1)
        rows = harness.diff_decisions(a, b)
        assert [r["same"] for r in rows] == [True, False, False]

    def test_checkpoint_bit_exact(self, tmp_path, rng):
        named = {
            "w": rng.normal(size=(4, 3)),
            "b": rng.normal(size=3),
            "one": np.array([1.5]),
        }
        harness.save_checkpoint(named, tmp_path / "ck")
        loaded = harness.load_checkpoint(tmp_path / "ck")
        assert set(loaded) == set(named)
        for k in named:
            assert loaded[k].shape == named[k].shape
            assert loaded[k].tobytes() == named[k].tobytes()

    @pytest.mark.parametrize("text", [
        json.dumps({"cells": [], "totals": {}}),
        json.dumps([1, 2]),
        json.dumps({"cells": [{"index": 0, "choice": "frozen", "alpha": [0.0], "P": {}}],
                    "totals": {}, "config_hash": "h", "seed": 0}),
        json.dumps({"cells": [1], "totals": {}, "config_hash": "h", "seed": 0}),
        json.dumps({"cells": [{"index": 0, "module": None, "choice": "frozen", "alpha": [0.0],
                               "P": {}}], "totals": {}, "config_hash": "h", "seed": 0}),
        '{"cells": [',
    ], ids=["no-config_hash", "not-an-object", "cell-without-module", "cell-not-an-object",
            "null-module", "truncated"])
    def test_malformed_architecture_rejected(self, tmp_path, text):
        path = tmp_path / "architecture.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path} is not an architecture report"):
            harness.import_architecture(path)

    @pytest.mark.parametrize("report", ["architecture", "metrics", "checkpoint"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, report):
        def write(version):
            if report == "architecture":
                cells = (harness.CellDecision(0, "m", "frozen", (0.0,), {"frozen": 0}),)
                harness.export_architecture(
                    harness.ArchitectureDecision(cells, {}, "h", version), tmp_path / "a.json")
            elif report == "metrics":
                rec = EpochRecord(version, 1, 1.0, 1.0, 0.5, [], [], 3)
                harness.write_metrics([rec], tmp_path / "metrics.csv")
            else:
                harness.save_checkpoint({"w": np.arange(3.0 + version)}, tmp_path / "ck")

        def files():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        write(0)
        before = files()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write(1)
        assert files() == before

    @pytest.mark.parametrize("damage", ["truncated", "short-by-3-bytes", "trailing-bytes",
                                        "offset", "dtype"])
    def test_damaged_checkpoint_rejected(self, tmp_path, damage):
        harness.save_checkpoint({"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)},
                                tmp_path / "ck")
        bin_path, manifest_path = tmp_path / "ck.bin", tmp_path / "ck.json"
        raw, manifest = bin_path.read_bytes(), json.loads(manifest_path.read_text())
        named = bin_path
        if damage == "truncated":
            bin_path.write_bytes(raw[:-8])
        elif damage == "short-by-3-bytes":
            bin_path.write_bytes(raw[:-3])
        elif damage == "trailing-bytes":
            bin_path.write_bytes(raw + bytes(8))
        else:
            if damage == "offset":
                manifest["tensors"][1]["offset"] = 40  # overlaps "w", which ends at 48
            else:
                manifest["dtype"] = "float32"
            manifest_path.write_text(json.dumps(manifest))
            named = manifest_path
        with pytest.raises(ValueError, match=re.escape(str(named))):
            harness.load_checkpoint(tmp_path / "ck")


    @pytest.mark.parametrize("manifest", [
        "{",
        "[]",
        json.dumps({"dtype": "float64"}),
        json.dumps({"dtype": "float64", "tensors": [{"name": "w", "offset": 0}]}),
        json.dumps({"dtype": "float64", "tensors": [{"name": "w", "shape": 2, "offset": 0}]}),
    ], ids=["not-json", "not-an-object", "no-tensors", "entry-without-shape", "scalar-shape"])
    def test_malformed_manifest_rejected(self, tmp_path, manifest):
        harness.save_checkpoint({"w": np.ones(2)}, tmp_path / "ck")
        manifest_path = tmp_path / "ck.json"
        manifest_path.write_text(manifest)
        with pytest.raises(ValueError, match=re.escape(str(manifest_path))):
            harness.load_checkpoint(tmp_path / "ck")


class TestPretrainedMemo:
    @staticmethod
    def counting_pretrain(monkeypatch):
        """Replace ``harness.pretrain_upstream`` with a counting wrapper;
        returns the list of models it pretrained."""
        calls = []
        real = harness.pretrain_upstream

        def counting(model, *args, **kwargs):
            calls.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(harness, "pretrain_upstream", counting)
        return calls

    def test_run_then_oracle_pretrains_once(self, tmp_path, monkeypatch):
        cfg = fast_config(stage2_epochs=1)
        calls = self.counting_pretrain(monkeypatch)
        result = harness.run_experiment(cfg, seed=2, out_dir=tmp_path)
        entries = harness.enumerate_oracle(cfg, seed=2)
        assert len(calls) == 1 and len(entries) == 27
        assert result.search.model is calls[0]

    def test_hit_matches_fresh_pretraining(self):
        cfg = fast_config()
        model = harness.pretrained_cascade(cfg, 4)
        again = harness.pretrained_cascade(cfg, 4)
        assert again is model
        fresh = cascade.build_cascade(cfg.cascade, 4)
        cascade.pretrain_upstream(fresh, generate_synthetic(harness.source_data_config(cfg), 4),
                                  epochs=cfg.pretrain.epochs, lr=cfg.pretrain.lr,
                                  batch_size=cfg.pretrain.batch_size, seed=4)
        assert ([m.params.checksum() for m in again.modules]
                == [m.params.checksum() for m in fresh.modules])

    @pytest.mark.parametrize("section, name, value, hits", [
        ("pretrain", "epochs", 4, False),
        ("pretrain", "lr", 0.02, False),
        ("pretrain", "batch_size", 16, False),
        ("data", "n_source", 128, False),
        ("data", "noise_std_source", 0.5, False),
        ("cascade", "preset", "toy6", False),
        ("search", "stage1_epochs", 3, True),
        ("search", "lr_network", 0.02, True),
        ("penalty", "coefficient", 2.0, True),
        ("", "output_dir", "elsewhere", True),
    ])
    def test_key_is_the_pretraining_input(self, monkeypatch, section, name, value, hits):
        cfg = fast_config()
        changed = config_from_dict(with_field(cfg.raw, section, name, value))
        calls = self.counting_pretrain(monkeypatch)
        harness.pretrained_cascade(cfg, 0)
        harness.pretrained_cascade(changed, 0)
        assert len(calls) == (1 if hits else 2)

    def test_hit_generates_no_source_data(self, monkeypatch):
        cfg = fast_config()
        harness.pretrained_cascade(cfg, 0)
        domains = []
        real = harness.generate_synthetic

        def counting(data_cfg, seed):
            domains.append(data_cfg.domain)
            return real(data_cfg, seed)

        monkeypatch.setattr(harness, "generate_synthetic", counting)
        harness.pretrained_cascade(cfg, 0)
        harness.build_experiment(cfg, 0)
        assert domains == ["target"]

    def test_seed_and_replaced_pretraining_miss(self, monkeypatch):
        cfg = fast_config()
        calls = self.counting_pretrain(monkeypatch)
        harness.pretrained_cascade(cfg, 0)
        harness.pretrained_cascade(cfg, 1)
        assert len(calls) == 2
        replaced = self.counting_pretrain(monkeypatch)
        harness.pretrained_cascade(cfg, 1)
        assert len(replaced) == 1


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"cascade": {"preset": "toy3"}, "frobnicate": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"cascade": {"preset": "toy3"}, "search": {"lr_networkk": 0.1}})

    def test_hash_stable_and_sensitive(self):
        a = fast_config(seed=0)
        b = fast_config(seed=0)
        c = fast_config(seed=1)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 16

    @pytest.mark.parametrize("adapters", ["BA", ["BA", "BA"], ["XX"], [["BA"]], {"BA": 1}])
    def test_bad_adapters_rejected(self, adapters):
        raw = dict(fast_config().raw, adapters=adapters)
        with pytest.raises(ConfigError, match="adapters must be a list of distinct kinds"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section,name,value", [
        ("search", "batch_size", 2.5), ("pretrain", "batch_size", 2.5),
        ("search", "stage1_epochs", 1.5), ("search", "seed", 1.5), ("pretrain", "epochs", True),
        ("penalty", "enabled", "no"), ("data", "n_source", -5), ("penalty", "coefficient", "1"),
        ("search", "lr_network", "0.1"), ("search", "lr_network", True),
        ("search", "tau_end", math.inf), ("", "search", None), ("", "penalty", [1]),
        ("cascade", "dim", 0), ("cascade", "n_labels", 0), ("cascade", "dim", -3),
        ("search", "split_ratio", 2), ("data", "n_source", 0),
    ])
    def test_bad_field_rejected(self, section, name, value):
        with pytest.raises(ConfigError):
            config_from_dict(with_field(fast_config().raw, section, name, value))

    @pytest.mark.parametrize("stages", [
        "x", [{"modules": []}], [{"name": "s", "modules": "m"}], [{"name": "s", "modules": [1]}],
        [{"name": "s", "modules": [{"name": "m", "layers": [[16, 2.5]]}]}],
        [{"name": "s", "modules": [{"name": "m", "layers": ["16x8"]}]}],
    ])
    def test_bad_explicit_stages_rejected(self, stages):
        # the preset is the only way to describe the cascade
        with pytest.raises(ConfigError, match=re.escape("unknown key(s) in cascade: ['stages']")):
            config_from_dict({"cascade": {"stages": stages, "n_labels": 8}})

    @pytest.mark.parametrize("section, name, value", [
        ("cascade", "stages", []), ("data", "dim", 16), ("data", "n_labels", 8),
        ("data", "n_intermediate", 16),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, name, value):
        # even the value the cascade implies is rejected: the key itself is gone
        raw = with_field(fast_config(output_dir=str(tmp_path / "runs")).raw, section, name, value)
        message = f"unknown key(s) in {section}: ['{name}']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(raw)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_every_accepted_preset_shape_runs(self, tmp_path):
        accepted = []
        for preset, dim, n_labels in itertools.product(("toy3", "toy6"), range(1, 11), range(1, 11)):
            name = f"{preset}-{dim}-{n_labels}"
            raw = fast_config(stage1_epochs=1, stage2_epochs=1, pretrain_epochs=1, n_source=64,
                              n_target=32, output_dir=str(tmp_path / name)).raw
            raw["cascade"].update(preset=preset, dim=dim, n_labels=n_labels)
            try:
                cfg = config_from_dict(raw)
            except ConfigError:
                continue
            accepted.append(name)
            data, spec = cfg.data, cfg.cascade
            assert (data.dim, data.n_labels, data.n_intermediate) == (
                spec.dim, spec.n_labels, spec.dim) == (dim, n_labels, dim)
            assert harness.run_experiment(cfg, seed=0).architecture_path.exists()
        # n_labels must divide dim, the width of the intermediate labels
        assert len(accepted) == 2 * sum(dim % n == 0 for dim in range(1, 11) for n in range(1, 11))

    @pytest.mark.parametrize("adapters", [["BA", "GA"], ["GA", "BA"]])
    def test_na_mode_needs_exactly_one_adapter(self, adapters):
        raw = dict(fast_config().raw, mode="NA", adapters=adapters)
        with pytest.raises(ConfigError, match="adapters must name exactly one kind"):
            config_from_dict(raw)
        assert config_from_dict(dict(raw, adapters=adapters[:1])).adapters == tuple(adapters[:1])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            config_from_dict(with_field(fast_config().raw, "search", "seed", -1))

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            config_from_dict([])

    def test_float_field_takes_int(self):
        cfg = config_from_dict(with_field(fast_config().raw, "penalty", "coefficient", 2))
        assert cfg.penalty.coefficient == 2

    @pytest.mark.parametrize("n_target,ratio", [(1, 0.5), (2, 0.9)])
    def test_empty_split_part_rejected(self, n_target, ratio):
        raw = with_field(fast_config().raw, "data", "n_target", n_target)
        with pytest.raises(ConfigError, match="both parts must be nonempty"):
            config_from_dict(with_field(raw, "search", "split_ratio", ratio))

    def test_smallest_split_accepted(self):
        raw = with_field(fast_config().raw, "data", "n_target", 2)
        cfg = config_from_dict(with_field(raw, "search", "split_ratio", 0.5))
        assert (cfg.data.n_samples, cfg.search.split_ratio) == (2, 0.5)

    @given(field=st.sampled_from(SCALAR_FIELDS + [("", s) for s in SECTIONS]),
           value=st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.sampled_from([10**400, -10**400]), st.text(max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_any_scalar_yields_config_or_config_error(self, field, value):
        raw = with_field(fast_config().raw, *field, value)
        try:
            config_from_dict(raw)
        except ConfigError:
            pass

    def test_load_config_round_trip(self, tmp_path):
        raw = fast_config().raw
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert config_hash(load_config(p)) == config_hash(fast_config())


class TestRunExperiment:
    def test_outputs_exist(self, tmp_path):
        cfg = fast_config(output_dir=str(tmp_path / "runs"))
        result = harness.run_experiment(cfg, seed=0)
        assert result.architecture_path.exists()
        assert result.metrics_path.exists()
        assert len(result.checkpoint_paths) == 4  # two stages x (bin, manifest)
        assert math.isfinite(result.final_val_loss)
        lines = result.metrics_path.read_text().splitlines()
        assert lines[0] == "epoch,stage,train_loss,val_loss,penalty,selected_params"
        assert len(lines) == 1 + 2 + 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = fast_config(output_dir="runs")
        result = harness.run_experiment(cfg, seed=3)
        assert result.out_dir == tmp_path / "runs" / "seed3"

    def test_zero_epoch_run_selects_all_frozen(self, tmp_path):
        cfg = fast_config(stage1_epochs=0, stage2_epochs=0,
                          output_dir=str(tmp_path / "runs"))
        result = harness.run_experiment(cfg, seed=0)
        assert all(c.choice == "frozen" for c in result.decision.cells)
        assert result.decision.totals["selected_params"] == 0

    def test_failure_leaves_flag_file(self, tmp_path, monkeypatch):
        cfg = fast_config(output_dir=str(tmp_path / "runs"))
        monkeypatch.setattr(harness, "build_experiment",
                            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(RuntimeError, match="aborted during setup"):
            harness.run_experiment(cfg, seed=0)
        flag = tmp_path / "runs" / "seed0" / "FAILED"
        assert "boom" in flag.read_text()

    def test_success_clears_stale_flag_file(self, tmp_path, monkeypatch):
        cfg = fast_config(stage1_epochs=1, stage2_epochs=1, output_dir=str(tmp_path / "runs"))
        monkeypatch.setattr(harness.AdaptiveSearch, "run_stage2",
                            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(RuntimeError, match="aborted during stage2"):
            harness.run_experiment(cfg, seed=0)
        flag = tmp_path / "runs" / "seed0" / "FAILED"
        assert flag.exists()
        monkeypatch.undo()
        harness.run_experiment(cfg, seed=0)
        assert not flag.exists()

    @staticmethod
    def run_files(out):
        return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())

    def test_rerun_without_stage2_removes_the_earlier_stage2(self, tmp_path):
        out = tmp_path / "run"
        harness.run_experiment(fast_config(), seed=0, out_dir=out)
        assert (out / "checkpoints" / "stage2.bin").exists()
        result = harness.run_experiment(fast_config(stage2_epochs=0), seed=0, out_dir=out)
        assert self.run_files(out) == ["architecture.json", "checkpoints/stage1.bin",
                                       "checkpoints/stage1.json", "metrics.csv"]
        assert sorted(result.checkpoint_paths) == [out / "checkpoints" / "stage1.bin",
                                                   out / "checkpoints" / "stage1.json"]

    def test_rerun_failing_in_stage2_leaves_only_its_own_files(self, tmp_path):
        def fail_in_stage2(kind, search):
            if search.state.stage == 2:
                raise ValueError("boom")

        out, alone = tmp_path / "run", tmp_path / "alone"
        harness.run_experiment(fast_config(), seed=0, out_dir=out)
        rerun = fast_config(stage1_epochs=1)
        with pytest.raises(RuntimeError, match="aborted during stage2: boom"):
            harness.run_experiment(rerun, seed=0, out_dir=out, step_callback=fail_in_stage2)
        assert self.run_files(out) == ["FAILED", "checkpoints/stage1.bin", "checkpoints/stage1.json"]
        # the stage-1 checkpoint is the re-run's, not the earlier run's
        harness.run_experiment(rerun, seed=0, out_dir=alone)
        for name in ("stage1.bin", "stage1.json"):
            assert (out / "checkpoints" / name).read_bytes() == (alone / "checkpoints" / name).read_bytes()

    @pytest.mark.parametrize("stage2_epochs", [0, 2])
    def test_final_val_loss_evaluated_once(self, tmp_path, monkeypatch, stage2_epochs):
        # stage 2's last epoch evaluates the final scheme; the run reuses that loss
        calls = []
        evaluate = AdaptiveSearch.evaluate

        def counting(search, data):
            calls.append(data)
            return evaluate(search, data)

        monkeypatch.setattr(AdaptiveSearch, "evaluate", counting)
        result = harness.run_experiment(fast_config(stage2_epochs=stage2_epochs), seed=0,
                                        out_dir=tmp_path)
        assert len(calls) == max(stage2_epochs, 1)
        assert all(data is result.search.val_data for data in calls)
        fresh, _ = evaluate(result.search, result.search.val_data)
        assert repr(result.final_val_loss) == repr(fresh)

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = fast_config()
        a = harness.run_experiment(cfg, seed=5, out_dir=tmp_path / "a")
        b = harness.run_experiment(cfg, seed=5, out_dir=tmp_path / "b")
        assert a.architecture_path.read_bytes() == b.architecture_path.read_bytes()
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()


class TestOracle:
    def test_full_enumeration(self, tmp_path):
        cfg = fast_config(stage2_epochs=1)
        entries = harness.enumerate_oracle(cfg, seed=0)
        assert len(entries) == 27
        losses = [e.val_loss for e in entries]
        assert losses == sorted(losses)
        schemes = {e.scheme for e in entries}
        assert len(schemes) == 27

    def test_all_frozen_loss_near_log_labels(self):
        # untrained final stage on 8 labels scores close to ln 8
        cfg = fast_config(stage2_epochs=1)
        entries = harness.enumerate_oracle(cfg, seed=0)
        frozen = next(e for e in entries if e.scheme == ("frozen",) * 3)
        assert abs(frozen.val_loss - math.log(8)) < 0.4

    def test_training_beats_all_frozen(self):
        cfg = fast_config(stage2_epochs=1)
        entries = harness.enumerate_oracle(cfg, seed=0)
        frozen = next(e for e in entries if e.scheme == ("frozen",) * 3)
        tuned = next(e for e in entries if e.scheme == ("finetune",) * 3)
        assert tuned.val_loss < frozen.val_loss

    def test_deterministic(self):
        cfg = fast_config(stage2_epochs=1)
        a = harness.enumerate_oracle(cfg, seed=0)
        b = harness.enumerate_oracle(cfg, seed=0)
        assert a == b

    def test_cap_enforced(self):
        cfg = fast_config()
        with pytest.raises(ValueError, match="cap"):
            harness.enumerate_oracle(cfg, seed=0, cap=10)

    def test_over_cap_refused_before_pretraining(self, monkeypatch):
        calls = TestPretrainedMemo.counting_pretrain(monkeypatch)
        with pytest.raises(ValueError, match=r"scheme space has 729 entries \(> cap 243\)"):
            harness.enumerate_oracle(fast_config(preset="toy6"), seed=0)
        assert calls == []

    @pytest.mark.parametrize("cap", [0, -5])
    def test_nonpositive_cap_is_error(self, monkeypatch, cap):
        calls = TestPretrainedMemo.counting_pretrain(monkeypatch)
        with pytest.raises(ValueError, match=f"oracle cap must be positive, got {cap}"):
            harness.enumerate_oracle(fast_config(), seed=0, cap=cap)
        assert calls == []

    def test_non_finite_training_raises_instead_of_ranking(self):
        cfg = fast_config(lr_network=1e300)
        with pytest.raises(ad.NonFiniteError, match="non-finite values in tensor produced by op"):
            harness.enumerate_oracle(cfg, seed=0)

    def test_rank(self):
        entries = [harness.OracleEntry(("a",), 0.1), harness.OracleEntry(("b",), 0.2)]
        assert harness.oracle_rank(entries, ("b",)) == 2
        with pytest.raises(ValueError, match="not present"):
            harness.oracle_rank(entries, ("c",))


class TestCli:
    def write_cfg(self, tmp_path, **kw):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fast_config(output_dir=str(tmp_path / "runs"), **kw).raw))
        return p

    def test_run(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "run complete" in out and "selected=" in out
        assert (tmp_path / "runs" / "seed0" / "architecture.json").exists()

    def test_oracle(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, stage2_epochs=1)
        assert cli.main(["oracle", "--config", str(cfg), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 28  # header + 27 schemes

    def test_compare(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        cli.main(["run", "--config", str(cfg), "--seed", "0"])
        cli.main(["run", "--config", str(cfg), "--seed", "1"])
        a = tmp_path / "runs" / "seed0" / "architecture.json"
        b = tmp_path / "runs" / "seed1" / "architecture.json"
        assert cli.main(["compare", "--runs", str(a), str(b)]) == 0
        assert "cells differ" in capsys.readouterr().out

    def test_compare_malformed_architecture_is_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cells": [], "totals": {}}))
        assert cli.main(["compare", "--runs", str(bad), str(bad)]) == 1
        assert "is not an architecture report" in capsys.readouterr().err

    def test_pretrain(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["pretrain", "--config", str(cfg), "--seed", "0"]) == 0
        assert (tmp_path / "runs" / "seed0" / "pretrained.bin").exists()
        ck = harness.load_checkpoint(tmp_path / "runs" / "seed0" / "pretrained")
        assert sum(v.size for v in ck.values()) == 544 + 544 + 408

    def test_missing_config_is_error_exit(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "nfa: error:" in capsys.readouterr().err

    def test_bad_adapters_is_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(dict(raw, adapters="BA")))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert "adapters must be a list" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bad_scalar_type_is_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(with_field(raw, "penalty", "coefficient", "1")))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert "penalty.coefficient must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bad_config_is_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"cascade": {"preset": "toy3"}, "bogus": 1}))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert "nfa: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_na_mode_with_two_adapters_is_error_exit(self, tmp_path, capsys, command):
        p = tmp_path / "bad.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(dict(raw, mode="NA", adapters=["BA", "GA"])))
        assert cli.main([command, "--config", str(p)]) == 1
        assert "adapters must name exactly one kind" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_negative_config_seed_is_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(with_field(raw, "search", "seed", -1)))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("cap", ["0", "-5", "2.5"])
    def test_nonpositive_cap_option_is_usage_error(self, tmp_path, capsys, cap):
        cfg = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["oracle", "--config", str(cfg), "--cap", cap])
        assert exit_info.value.code == 2
        assert f"argument --cap: expected a positive integer, got '{cap}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle", "pretrain"])
    def test_negative_seed_option_is_error_exit(self, tmp_path, capsys, command):
        cfg = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(cfg), "--seed", "-3"])
        assert exit_info.value.code != 0
        assert "argument --seed: expected a nonnegative integer, got '-3'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, section, name", [("pretrain", "pretrain", "lr"),
                                                        ("oracle", "search", "lr_network")])
    def test_non_finite_training_is_error_exit(self, tmp_path, capsys, command, section, name):
        p = tmp_path / "bad.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(with_field(raw, section, name, 1.7e308)))
        with np.errstate(all="ignore"):
            assert cli.main([command, "--config", str(p), "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "nfa: error: non-finite values in tensor produced by op 'dense'\n"

    @pytest.mark.parametrize("coefficient", [1e200, 1e308])
    def test_overflowing_optimizer_moments_fail_the_run(self, tmp_path, capsys, coefficient):
        # the penalty's gradient squared overflows the architecture optimizer's
        # second moment in the first stage-1 epoch: alpha would stall at 0
        # and all-frozen be picked, and at 1e308 the epoch's mean total
        # overflows too; the epoch's moment check stops the run before any
        # report is written
        p = tmp_path / "big.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(with_field(raw, "penalty", "coefficient", coefficient)))
        with np.errstate(all="ignore"):
            assert cli.main(["run", "--config", str(p), "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err == ("nfa: error: experiment aborted during stage1: "
                       "non-finite values in tensor produced by op 'adam'\n")
        run = tmp_path / "runs" / "seed0"
        assert (run / "FAILED").read_text().startswith("stage=stage1\n")
        assert sorted(f.name for f in run.iterdir()) == ["FAILED"]

    @pytest.mark.parametrize("command, section, name, value, message", [
        ("run", "penalty", "coefficient", 1e200,
         "experiment aborted during stage1: non-finite values in tensor produced by op 'adam'"),
        ("pretrain", "pretrain", "lr", 1.7e308, "non-finite values in tensor produced by op 'dense'")],
        ids=["run", "pretrain"])
    def test_non_finite_run_prints_only_the_error_line(self, tmp_path, capsys, command, section,
                                                       name, value, message):
        # numpy's overflow warnings would reach stderr before the error line;
        # the checks report every non-finite value, so the CLI silences them
        p = tmp_path / "big.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(with_field(raw, section, name, value)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", str(p), "--seed", "0"]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"nfa: error: {message}\n"

    def test_empty_split_is_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        raw = fast_config(output_dir=str(tmp_path / "runs")).raw
        p.write_text(json.dumps(with_field(raw, "data", "n_target", 1)))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert "both parts must be nonempty" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


# -- end-to-end config fuzz ----------------------------------------------------

# a miniature toy3 config: every field is set, so a draw replaces a value
FUZZ_CONFIG = {
    "cascade": {"preset": "toy3", "dim": 4, "n_labels": 2},
    "adapters": ["BA"],
    "mode": "NFA",
    "penalty": {"pfr_policy": "half_finetune", "pfr_constant": 0, "coefficient": 1.0, "enabled": True},
    "search": {"split_ratio": 0.5, "lr_network": 0.01, "lr_arch": 0.05, "stage1_epochs": 1,
               "stage2_epochs": 1, "tau_start": 5.0, "tau_end": 0.5, "batch_size": 8, "seed": 0},
    "pretrain": {"epochs": 1, "lr": 0.01, "batch_size": 8},
    "data": {"n_source": 16, "n_target": 16, "noise_std_source": 0.25, "noise_std_target": 0.25,
             "shift_delta": 1.0},
}
FUZZ_FLOATS = [(section, name) for section, name in SCALAR_FIELDS
               if isinstance(FUZZ_CONFIG.get(section, {}).get(name), float)]
# each int field at its edges: one below its least valid value, that value,
# and for a field that costs neither memory nor time when large, the int64
# limit; a size or an epoch count is not drawn large
FUZZ_INTS = {("cascade", "dim"): [0, 1], ("cascade", "n_labels"): [0, 1],
             ("penalty", "pfr_constant"): [-1, 0, 2**63 - 1],
             ("search", "stage1_epochs"): [-1, 0], ("search", "stage2_epochs"): [-1, 0],
             ("search", "batch_size"): [0, 1, 2**63 - 1], ("search", "seed"): [-1, 0, 2**63 - 1],
             ("pretrain", "epochs"): [-1, 0], ("pretrain", "batch_size"): [0, 1, 2**63 - 1],
             ("data", "n_source"): [0, 1], ("data", "n_target"): [1, 2]}
CONFIG_FUZZ_EXAMPLES = (settings.get_profile(SEARCH_FUZZ_PROFILE).max_examples
                        if settings.get_current_profile_name() == SEARCH_FUZZ_PROFILE else 25)


def test_config_fuzz_covers_every_numeric_field():
    numeric = [(section, name) for section, name in SCALAR_FIELDS
               if type(FUZZ_CONFIG.get(section, {}).get(name)) in (int, float)]
    assert sorted(FUZZ_FLOATS + list(FUZZ_INTS)) == sorted(numeric)


@st.composite
def fuzzed_configs(draw):
    """The miniature config with each float field drawn log-uniformly over
    [1e-300, 1e308] and each int field at one of its edges, each field with
    probability 1/4 (most draws of every field would fail parsing)."""
    raw = json.loads(json.dumps(FUZZ_CONFIG))
    drawn = st.sampled_from([False, False, False, True])
    for section, name in FUZZ_FLOATS:
        if draw(drawn):
            raw[section][name] = 10.0 ** draw(st.floats(-300.0, 308.0))
    for (section, name), edges in FUZZ_INTS.items():
        if draw(drawn):
            raw[section][name] = draw(st.sampled_from(edges))
    return raw


def numbers(doc):
    """Every number in a parsed JSON document."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in numbers(v)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def checkpoints_are_finite(run):
    for name in ("stage1", "stage2"):
        if (run / "checkpoints" / f"{name}.bin").exists():
            saved = harness.load_checkpoint(run / "checkpoints" / name)
            assert all(np.isfinite(v).all() for v in saved.values())


def run_reports_are_finite(run):
    """Every number in a finished run's metrics, architecture and checkpoints is finite."""
    rows = (run / "metrics.csv").read_text().splitlines()[1:]  # none without epochs
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    assert all(math.isfinite(v) for v in numbers(json.loads((run / "architecture.json").read_text())))
    checkpoints_are_finite(run)


@pytest.mark.parametrize("command", ["run", "oracle"])
@settings(max_examples=CONFIG_FUZZ_EXAMPLES, deadline=None)
@given(raw=fuzzed_configs())
def test_config_fuzz_ends_in_one_of_three_ways(command, raw):
    """A drawn config through ``cli.main`` ends in exactly one way: the
    ``ConfigError`` of parsing it reported (nothing written); exit 1 with one
    ``nfa: error:`` line (``nfa run`` leaving its ``FAILED`` flag, no report,
    and only finite checkpoints of the stages it finished); or exit 0 with
    every number it reports finite."""
    try:
        config_from_dict(raw)
        parse_error = None
    except ConfigError as e:
        parse_error = e
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(dict(raw, output_dir=str(tmp / "runs"))))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, "--config", str(tmp / "cfg.json")])
        out, err = out.getvalue(), err.getvalue()
        run = tmp / "runs" / f"seed{raw['search']['seed']}"
        event("config error" if parse_error is not None else f"exit {code}")  # --hypothesis-show-statistics
        if parse_error is not None:
            assert (code, err) == (1, f"nfa: error: {parse_error}\n")
            assert not (tmp / "runs").exists()
        elif code == 1:
            assert err.startswith("nfa: error: ") and err.count("\n") == 1, err
            if command == "run":
                assert (run / "FAILED").is_file()
                assert not (run / "architecture.json").exists() and not (run / "metrics.csv").exists()
                checkpoints_are_finite(run)
        else:
            assert (code, err) == (0, "")
            if command == "run":
                run_reports_are_finite(run)
            else:
                losses = [float(line.split()[1]) for line in out.splitlines()[1:]]
                assert len(losses) == 27 and all(math.isfinite(v) for v in losses)
