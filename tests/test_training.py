"""View sampling, contrastive loss, training loop, checkpoint resume."""

import ctypes
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.stats

import slidessl
from slidessl.bank import EmbeddingBank, save_bank
from slidessl.errors import (
    DegenerateBatch,
    DegenerateProjection,
    DimensionMismatch,
    FormatError,
    InsufficientTiles,
    NonFiniteGradient,
    ValidationError,
)
from slidessl import training
from slidessl.numcore import (
    adam_step,
    finite_diff_grad,
    max_rel_err,
    mlp_projector_backward,
    mlp_projector_forward,
)
from slidessl.sparseconv import (PoolingNetworkConfig, build_rulebook, merge_rulebooks,
                                 view_pairs)
from slidessl.sparsemap import (
    SlideAugParams,
    augment_sparse_map,
    build_sparse_map,
    draw_slide_aug,
)
from slidessl.training import (
    SlideModel,
    TrainConfig,
    build_model,
    draw_batch,
    draw_views,
    interleaved_pairing,
    load_model,
    load_train_config,
    nt_xent,
    parse_config_text,
    pretrain,
    sample_batch,
    sample_view,
    save_model,
    train_config_from_values,
    train_step,
)


def make_bank(slide_id="s", K=4, n=8, F=4, seed=0, feature_value=None):
    """Bank with well-separated tile coordinates (no lattice collisions)."""
    rng = np.random.default_rng(seed)
    xs = np.arange(n) * 224 * 3
    ys = (np.arange(n) % 4) * 224 * 5
    coords = np.stack([np.stack([xs, ys], axis=1)] * K).astype(np.int32)
    if feature_value is None:
        feats = rng.normal(size=(K, n, F)).astype(np.float32)
    else:
        feats = np.full((K, n, F), feature_value, dtype=np.float32)
    return EmbeddingBank(slide_id, coords, feats)


def correlated_bank(slide_id, K=4, n=8, F=4, seed=0):
    """Slices are mild perturbations of one base tile set (realistic shape)."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, F))
    feats = (base[None, :, :] + 0.05 * rng.normal(size=(K, n, F)))
    xs = np.arange(n) * 224 * 3
    ys = (np.arange(n) % 4) * 224 * 5
    coords = np.stack([np.stack([xs, ys], axis=1)] * K).astype(np.int32)
    return EmbeddingBank(slide_id, coords, feats.astype(np.float32))


def slice_tagged_bank(K=5, n=6, F=3):
    """Features of slice k are all equal to k, so views reveal their slice."""
    coords = np.stack([np.stack([np.arange(n) * 448,
                                 np.zeros(n, dtype=int)], axis=1)] * K)
    feats = np.zeros((K, n, F), dtype=np.float32)
    for k in range(K):
        feats[k] = k
    return EmbeddingBank("tagged", coords.astype(np.int32), feats)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.tiles == 5
        assert cfg.batch_size == 16
        assert cfg.temperature == 0.5
        assert cfg.epochs == 1000
        assert cfg.shared_aug and cfg.slide_aug

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(tiles=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(temperature=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_temperature_rejected(self, tau):
        with pytest.raises(ValidationError, match="temperature must be finite"):
            TrainConfig(temperature=tau)


class TestConfigFile:
    def test_parse_and_overlay(self, tmp_path):
        text = """
        # training setup
        tiles = 3
        temperature = 0.25
        shared_aug = false
        adam.lr = 0.01   # higher for the demo
        seed = 7
        """
        p = tmp_path / "train.cfg"
        p.write_text(text)
        cfg = load_train_config(p)
        assert cfg.tiles == 3
        assert cfg.temperature == 0.25
        assert cfg.shared_aug is False
        assert cfg.adam.lr == 0.01
        assert cfg.seed == 7
        assert cfg.batch_size == 16  # untouched default

    def test_unknown_key(self):
        with pytest.raises(FormatError, match="unknown key"):
            parse_config_text("bogus = 1")

    def test_bad_value(self):
        with pytest.raises(FormatError, match="bad value"):
            parse_config_text("tiles = many")

    def test_missing_equals(self):
        with pytest.raises(FormatError, match="key=value"):
            parse_config_text("tiles 5")

    def test_bad_bool(self):
        with pytest.raises(FormatError):
            parse_config_text("shared_aug = maybe")

    def test_empty_text_keeps_defaults(self):
        cfg = train_config_from_values(parse_config_text(""))
        assert cfg == TrainConfig()

    def test_overlay_preserves_unrelated_adam_fields(self):
        cfg = train_config_from_values(parse_config_text("adam.lr = 0.5"))
        assert cfg.adam.lr == 0.5
        assert cfg.adam.beta1 == 0.9


class TestSampleView:
    """``sample_view`` returns its map and ``draw_batch``'s draws of one
    view: slice indices ``(1, 1)`` shared or ``(1, T)``, tile set ``(1, T)``,
    and five slide augmentation values or None."""

    def cfg(self, **kw):
        base = dict(tiles=3, batch_size=2, slide_aug=False)
        base.update(kw)
        return TrainConfig(**base)

    def test_exact_tile_budget_uses_all_tiles(self):
        bank = make_bank(n=3)
        smap, (_, tiles, _) = sample_view(bank, self.cfg(tiles=3),
                                          np.random.default_rng(0))
        assert tiles.tolist() == [[0, 1, 2]]
        assert smap.n_sites == 3

    def test_deterministic(self):
        bank = make_bank()
        a_map, a_draws = sample_view(bank, self.cfg(slide_aug=True),
                                     np.random.default_rng(42))
        b_map, b_draws = sample_view(bank, self.cfg(slide_aug=True),
                                     np.random.default_rng(42))
        for a, b in zip(a_draws[:2] + a_draws[2], b_draws[:2] + b_draws[2]):
            assert np.array_equal(a, b)
        assert np.array_equal(a_map.sites, b_map.sites)
        assert np.array_equal(a_map.features, b_map.features)

    def test_shared_view_stays_within_one_slice(self):
        bank = slice_tagged_bank()
        for seed in range(20):
            smap, (slices, _, _) = sample_view(bank, self.cfg(),
                                               np.random.default_rng(seed))
            values = np.unique(smap.features)
            assert len(values) == 1  # one slice tag across all tiles
            assert slices.shape == (1, 1)
            assert values[0] == slices[0, 0]

    def test_identity_slice_never_drawn(self):
        bank = slice_tagged_bank()
        rng = np.random.default_rng(1)
        for cfg in (self.cfg(), self.cfg(shared_aug=False)):
            for _ in range(200):
                _, (slices, _, _) = sample_view(bank, cfg, rng)
                assert (slices >= 1).all()

    def test_not_shared_mixes_slices(self):
        bank = slice_tagged_bank()
        rng = np.random.default_rng(2)
        mixed = 0
        for _ in range(50):
            _, (slices, _, _) = sample_view(bank, self.cfg(shared_aug=False), rng)
            assert slices.shape == (1, 3)
            if len(set(slices[0].tolist())) > 1:
                mixed += 1
        assert mixed > 25

    def test_not_shared_aug_marginal_uniform(self):
        bank = make_bank(K=6, n=8)
        cfg = self.cfg(shared_aug=False, tiles=5)
        rng = np.random.default_rng(3)
        counts = np.zeros(6)
        draws = 10_000
        for _ in range(draws):
            _, (slices, _, _) = sample_view(bank, cfg, rng)
            for k in slices[0]:
                counts[k] += 1
        freqs = counts[1:] / counts.sum()
        assert counts[0] == 0
        np.testing.assert_allclose(freqs, 1 / 5, atol=0.02)

    def test_tile_draws_without_replacement(self):
        bank = make_bank(n=5)
        rng = np.random.default_rng(4)
        for _ in range(50):
            _, (_, tiles, _) = sample_view(bank, self.cfg(tiles=5), rng)
            assert len(set(tiles[0].tolist())) == 5

    def test_insufficient_tiles(self):
        bank = make_bank(n=2)
        with pytest.raises(InsufficientTiles):
            sample_view(bank, self.cfg(tiles=3), np.random.default_rng(0))

    def test_identity_only_bank_rejected(self):
        bank = make_bank(K=1)
        with pytest.raises(InsufficientTiles):
            sample_view(bank, self.cfg(), np.random.default_rng(0))

    def test_slide_aug_recorded(self):
        bank = make_bank()
        rng = np.random.default_rng(5)
        augs = [sample_view(bank, self.cfg(slide_aug=True), rng)[1][2]
                for _ in range(20)]
        assert all(a is not None and [len(v) for v in a] == [1] * 5 for a in augs)
        assert any(not SlideAugParams(*(v[0].item() for v in a)).is_identity
                   for a in augs)
        off = sample_view(bank, self.cfg(), np.random.default_rng(0))[1]
        assert off[2] is None


class TestNTXent:
    def test_single_pair_zero_loss_zero_grad(self):
        z = np.array([[1.0, 0.0], [0.5, 0.5]])
        loss, dz = nt_xent(z, temperature=0.5)
        assert loss == 0.0
        np.testing.assert_allclose(dz, 0.0, atol=1e-15)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_four_identical_projections(self, tau):
        z = np.tile(np.array([0.3, -0.7, 0.2]), (4, 1))
        loss, _ = nt_xent(z, temperature=tau)
        assert loss == pytest.approx(np.log(3.0), abs=1e-9)

    def test_orthogonal_pairs_tau_one(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        loss, _ = nt_xent(z, temperature=1.0)
        assert loss == pytest.approx(np.log((np.e + 2.0) / np.e), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(6, 5))
        loss, dz = nt_xent(z, temperature=0.5)
        num = finite_diff_grad(lambda x: nt_xent(x, temperature=0.5)[0], z)
        assert max_rel_err(dz, num) < 1e-5

    def test_zero_norm_rejected(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])
        with pytest.raises(DegenerateProjection, match="1"):
            nt_xent(z)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(8, 6))
        base, _ = nt_xent(z, temperature=0.5)
        scaled, _ = nt_xent(3.7 * z, temperature=0.5)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(8, 5))
        base, _ = nt_xent(z, temperature=0.5)
        # move pair (z0, z1) to the end
        perm = [2, 3, 4, 5, 6, 7, 0, 1]
        permuted, _ = nt_xent(z[perm], temperature=0.5)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_odd_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            nt_xent(np.ones((3, 2)))

    def test_interleaved_pairing(self):
        assert interleaved_pairing(6).tolist() == [1, 0, 3, 2, 5, 4]

    @given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_loss_nonnegative_grads_finite(self, b, d, seed):
        z = np.random.default_rng(seed).normal(size=(2 * b, d))
        loss, dz = nt_xent(z, temperature=0.5)
        assert loss >= 0.0
        assert np.isfinite(dz).all()


def tiny_model(F=4, seed=0, dtype=np.float32):
    cfg = PoolingNetworkConfig(in_channels=F, block_channels=(6, 6),
                               kernel_size=3, out_dim=6)
    return build_model(cfg, proj_dim=8, seed=seed, dtype=dtype)


class TestModelCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = tiny_model()
        model.store.t = 17
        path = tmp_path / "m.ckpt"
        save_model(model, path, epoch=12)
        loaded, epoch = load_model(path)
        assert epoch == 12
        assert loaded.store.t == 17
        assert loaded.net_config == model.net_config
        assert loaded.proj_dim == model.proj_dim
        for name in model.store.params:
            np.testing.assert_array_equal(loaded.store[name], model.store[name])
        for name, buf in model.net.buffers.items():
            np.testing.assert_array_equal(loaded.net.buffers[name], buf)
        assert loaded.store.buffer.dtype == np.float32

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path, epoch=2)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded, epoch = load_model(path)
        assert epoch == 2
        assert loaded.store.buffer.tobytes() == model.store.buffer.tobytes()
        for name, buf in model.net.buffers.items():
            assert loaded.net.buffers[name].tobytes() == buf.tobytes()

    @staticmethod
    def per_parameter_init(cfg, proj_dim, seed, dtype):
        """The init that each module once drew for itself: the network its
        blocks and head, then the projector, from one generator."""
        rng = np.random.default_rng([seed, 0])
        params, buffers = {}, {}

        def conv_init(c_in, c_out, ksz):
            std = np.sqrt(2.0 / (ksz * ksz * c_in))
            return rng.normal(0.0, std, size=(ksz, ksz, c_in, c_out)).astype(dtype)

        k = cfg.kernel_size
        c_prev = cfg.in_channels
        for b, c in enumerate(cfg.block_channels):
            p = f"net.block{b}."
            zeros, ones = np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype)
            params.update({p + "conv1.w": conv_init(c_prev, c, k),
                           p + "bn1.gamma": ones, p + "bn1.beta": zeros,
                           p + "conv2.w": conv_init(c, c, k),
                           p + "bn2.gamma": ones, p + "bn2.beta": zeros})
            if c_prev != c:
                params[p + "proj.w"] = conv_init(c_prev, c, 1)
            for bn in ("bn1", "bn2"):
                buffers[p + bn + ".run_mean"] = np.zeros(c, dtype=dtype)
                buffers[p + bn + ".run_var"] = np.ones(c, dtype=dtype)
            c_prev = c
        params["net.head.w"] = rng.normal(
            0.0, np.sqrt(1.0 / c_prev), size=(c_prev, cfg.out_dim)).astype(dtype)
        params["net.head.b"] = np.zeros(cfg.out_dim, dtype=dtype)
        c = cfg.out_dim
        w1 = rng.normal(0.0, np.sqrt(2.0 / c), size=(c, c))
        w2 = rng.normal(0.0, np.sqrt(2.0 / c), size=(c, proj_dim))
        params.update({"proj.w1": w1.astype(dtype), "proj.b1": np.zeros(c, dtype=dtype),
                       "proj.w2": w2.astype(dtype),
                       "proj.b2": np.zeros(proj_dim, dtype=dtype)})
        return params, buffers

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,c_in,blocks", [   # the last has no proj.w
        (1, 4, (5, 5)), (3, 3, (4, 6)), (5, 3, (3, 3, 7)), (3, 3, (3, 3))])
    def test_init_equals_per_parameter_reference(self, dtype, k, c_in, blocks):
        cfg = PoolingNetworkConfig(in_channels=c_in, block_channels=blocks,
                                   kernel_size=k, out_dim=6)
        model = build_model(cfg, proj_dim=7, seed=5, dtype=dtype)
        params, buffers = self.per_parameter_init(cfg, 7, 5, dtype)
        assert list(model.store.params) == list(params)
        assert model.store.buffer.dtype == dtype
        assert model.store.buffer[0].tobytes() == b"".join(
            p.tobytes() for p in params.values())
        assert list(model.net.buffers) == list(buffers)
        for name, buf in buffers.items():
            assert model.net.buffers[name].dtype == dtype
            assert model.net.buffers[name].tobytes() == buf.tobytes(), name

    @pytest.mark.parametrize("damage", ["cut_config", "state_len", "missing_key"])
    def test_malformed_metadata(self, tmp_path, damage):
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        arrays = load_checkpoint(path)
        if damage == "cut_config":
            arrays["meta.config_json"] = arrays["meta.config_json"][:-5]
        elif damage == "state_len":
            arrays["meta.state"] = np.array([1.0, 2.0, 3.0])
        else:
            raw = arrays["meta.config_json"].astype(np.uint8).tobytes()
            doc = json.loads(raw)
            del doc["kernel_size"]
            arrays["meta.config_json"] = np.frombuffer(
                json.dumps(doc).encode(), dtype=np.uint8).astype(np.float32)
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="metadata"):
            load_model(path)

    @pytest.mark.parametrize("state", [[-3.0, 2.5], [1.0, 2.5], [-1.0, 0.0],
                                       [0.5, 4.0]])
    def test_state_must_hold_non_negative_integers(self, tmp_path, state):
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        arrays = load_checkpoint(path)
        arrays["meta.state"] = np.array(state, dtype=np.float32)
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="'meta.state'"):
            load_model(path)

    @pytest.mark.parametrize("epoch,t", [(2 ** 24, 0), (0, 2 ** 24)])
    def test_counters_beyond_float32_rejected_before_writing(self, tmp_path,
                                                            epoch, t):
        model = tiny_model()
        model.store.t = t
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="2\\*\\*24"):
            save_model(model, path, epoch=epoch)
        assert list(tmp_path.iterdir()) == []
        model.store.t = min(t, 2 ** 24 - 1)
        save_model(model, path, epoch=min(epoch, 2 ** 24 - 1))
        assert load_model(path)[1] == min(epoch, 2 ** 24 - 1)

    @pytest.mark.parametrize("name", ["net.block0.conv1.w.m",
                                      "net.block0.bn1.run_mean"])
    @pytest.mark.parametrize("value", [np.zeros(5, dtype=np.float32),
                                       np.full(1, 9.0, dtype=np.float32)],
                             ids=["wrong_shape", "one_element"])
    def test_moment_and_buffer_shapes_checked(self, tmp_path, name, value):
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        arrays = load_checkpoint(path)
        assert name in arrays and arrays[name].size > 1
        arrays[name] = value
        save_checkpoint(path, arrays)
        with pytest.raises(DimensionMismatch, match=name.replace(".", "\\.")):
            load_model(path)

    @pytest.mark.parametrize("name", ["net.head.w", "net.block0.conv1.w.m",
                                      "proj.w1.v", "net.block0.bn1.run_var"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected_naming_it(self, tmp_path, name, value):
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        arrays = load_checkpoint(path)
        arrays[name].flat[-1] = value
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match=f"'{name}' holds NaN or infinity"):
            load_model(path)

    def test_first_non_finite_array_is_named(self, tmp_path):
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        arrays = load_checkpoint(path)
        names = [n for n in arrays if not n.startswith("meta.")]
        for name in (names[-1], names[2]):
            arrays[name].flat[0] = np.nan
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match=f"'{names[2]}'"):
            load_model(path)

    def test_array_the_model_does_not_hold_rejected(self, tmp_path):
        """A checkpoint of the layout that held conv biases: the model's
        arrays plus ``net.block0.conv1.b`` and its moments, in file order."""
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        old = {}
        for name, arr in load_checkpoint(path).items():
            old[name] = arr
            if name.startswith("net.block0.conv1.w"):
                old[name.replace(".w", ".b")] = np.zeros(6, np.float32)
        save_checkpoint(path, old)
        with pytest.raises(FormatError,
                           match="'net.block0.conv1.b' is not an array"):
            load_model(path)

    def test_negative_running_variance_rejected(self, tmp_path):
        from slidessl.numcore import load_checkpoint, save_checkpoint
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(), path, epoch=1)
        arrays = load_checkpoint(path)
        # a negative running mean and a zero variance are valid states
        arrays["net.block0.bn1.run_mean"][0] = -3.0
        arrays["net.block0.bn1.run_var"][0] = 0.0
        save_checkpoint(path, arrays)
        load_model(path)
        arrays["net.block1.bn2.run_var"][1] = -1e-3
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="'net.block1.bn2.run_var'"):
            load_model(path)

    def test_missing_metadata(self, tmp_path):
        from slidessl.numcore import save_checkpoint
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        with pytest.raises(FormatError):
            load_model(path)


class TestTrainStep:
    def cfg(self, **kw):
        base = dict(tiles=3, batch_size=4, temperature=0.5, epochs=1,
                    seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic(self):
        def run():
            banks = [make_bank(slide_id=f"s{i}", seed=i) for i in range(4)]
            model = tiny_model(seed=3)
            return [train_step(banks, model, self.cfg(),
                               np.random.default_rng(11)) for _ in range(3)]

        assert run() == run()

    def test_initial_loss_near_uniform_level(self):
        banks = [make_bank(slide_id=f"s{i}", seed=i) for i in range(4)]
        model = tiny_model(seed=5)
        loss = train_step(banks, model, self.cfg(), np.random.default_rng(0))
        expected = np.log(2 * len(banks) - 1)
        assert abs(loss - expected) / expected < 0.2

    def test_single_slide_rejected(self):
        with pytest.raises(DegenerateBatch):
            train_step([make_bank()], tiny_model(), self.cfg(),
                       np.random.default_rng(0))

    def test_parameters_move(self):
        banks = [make_bank(slide_id=f"s{i}", seed=i) for i in range(4)]
        model = tiny_model(seed=6)
        before = {n: model.store[n].copy() for n in model.store.params}
        train_step(banks, model, self.cfg(), np.random.default_rng(1))
        moved = sum(not np.array_equal(before[n], model.store[n])
                    for n in before)
        assert moved > len(before) / 2
        assert model.store.t == 1

    def test_step_after_caught_failure_equals_fresh_copy(self, monkeypatch,
                                                          tmp_path):
        # a non-finite loss gradient fails the step in adam_step after
        # every gradient has been accumulated; the next step must not see it
        banks = [make_bank(slide_id=f"s{i}", seed=i) for i in range(4)]
        model = tiny_model(seed=7)
        train_step(banks, model, self.cfg(), np.random.default_rng(2))
        with monkeypatch.context() as m:
            m.setattr(training, "nt_xent",
                      lambda z, temperature: (0.0, np.full_like(z, np.nan)))
            with pytest.raises(NonFiniteGradient):
                train_step(banks, model, self.cfg(), np.random.default_rng(3))
        save_model(model, tmp_path / "m.ckpt", epoch=0)
        fresh, _ = load_model(tmp_path / "m.ckpt")
        losses = [train_step(banks, mdl, self.cfg(), np.random.default_rng(4))
                  for mdl in (model, fresh)]
        assert losses[0] == losses[1]
        assert model.store.buffer.tobytes() == fresh.store.buffer.tobytes()
        for name, buf in model.net.buffers.items():
            assert buf.tobytes() == fresh.net.buffers[name].tobytes(), name

    def test_failed_step_leaves_running_stats(self, monkeypatch):
        # the training-mode forward advances every running statistic in
        # place; a step that then fails must put them back
        banks = [make_bank(slide_id=f"s{i}", seed=i) for i in range(4)]
        model = tiny_model(seed=7)
        train_step(banks, model, self.cfg(), np.random.default_rng(2))
        before = {n: buf.tobytes() for n, buf in model.net.buffers.items()}
        with monkeypatch.context() as m:
            m.setattr(training, "nt_xent",
                      lambda z, temperature: (0.0, np.full_like(z, np.nan)))
            with pytest.raises(NonFiniteGradient):
                train_step(banks, model, self.cfg(), np.random.default_rng(3))
        assert len(before) == 8
        for name, buf in model.net.buffers.items():
            assert buf.tobytes() == before[name], name


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


#: dense training steps in a fresh interpreter; prints each step's minor
#: page faults after three warm-up steps
FAULTS_CHILD = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import slidessl
rng = np.random.default_rng(0)
banks = [slidessl.EmbeddingBank(f"s{i}", rng.integers(0, 8192, (3, 600, 2)),
                                rng.normal(size=(3, 600, 16)).astype(np.float32))
         for i in range(10)]
net = slidessl.PoolingNetworkConfig(in_channels=16, block_channels=(16, 16),
                                    out_dim=16)
model = slidessl.build_model(net, seed=0, train_tiles=256)
cfg = slidessl.TrainConfig(tiles=256, batch_size=10)
faults = []
for step in range(11):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    slidessl.train_step(banks, model, cfg, rng)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults[3:])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _has_mallopt(),
                    reason="needs glibc's mallopt and Linux fault counts")
def test_dense_steps_keep_their_heap_pages():
    # importing slidessl fixes glibc's thresholds, so a dense step reuses
    # the heap the previous one freed instead of faulting ~1,000 pages in
    src = str(Path(training.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_",
                        "MALLOC_TRIM_THRESHOLD_")}
    out = subprocess.run([sys.executable, "-c", FAULTS_CHILD, src],
                         env=dict(env, OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    faults = [int(f) for f in out.stdout.split()]
    assert len(faults) == 8 and np.median(faults) < 50, faults


@pytest.mark.parametrize("name, value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.arena_max=2:glibc.malloc.trim_threshold=0"),
])
def test_glibc_thresholds_set_by_the_user_are_kept(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert slidessl._keep_freed_heap() is False


# ---------------------------------------------------------------------------
# The training batch against the per-view path

def tie_bank(slide_id, n, cells, same_pixel, seed, K=3, F=4, dtype=np.float32):
    """Tiles packed into a cells x cells lattice region, so several share a
    site; the last ``same_pixel`` tiles of each slice repeat the first ones'
    pixel positions, and every third tile has a -0.0 feature. The bank
    holds float32; a float64 bank gets its feature array replaced."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, cells * 224, size=(K, n, 2))
    if same_pixel:
        coords[:, -same_pixel:] = coords[:, :same_pixel]
    feats = rng.normal(size=(K, n, F))
    feats[:, ::3, 0] = -0.0
    bank = EmbeddingBank(slide_id, coords, feats)
    bank.features = bank.features.astype(dtype)
    return bank


def oracle_batch(banks, draws, kernel_size):
    """One map per view of ``draw_batch``'s draws: ``build_sparse_map`` of
    the drawn tiles, ``augment_sparse_map`` by the drawn parameters. The
    maps' rows get one ``view_pairs`` adjacency, which must list per offset
    the pairs of the maps' own rulebooks, merged."""
    slices, tiles, aug = draws
    maps = []
    for v, (s, t) in enumerate(zip(slices, tiles)):
        bank = banks[v // 2]
        smap = build_sparse_map((bank.coords[s, t], bank.features[s, t]))
        if aug is not None:
            smap = augment_sparse_map(
                smap, SlideAugParams(*(a[v].item() for a in aug)))
        maps.append(smap)
    starts = np.cumsum([0] + [m.n_sites for m in maps])[:-1].tolist()
    segs = [(s, s + m.n_sites) for s, m in zip(starts, maps)]
    books = [build_rulebook(m, kernel_size) for m in maps]
    merged = merge_rulebooks(books, starts)
    pairs = view_pairs(np.repeat(np.arange(len(maps)), [m.n_sites for m in maps]),
                       np.concatenate([m.sites for m in maps]), kernel_size)
    assert len(pairs) == len(merged)
    for got, want in zip(pairs, merged):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return np.concatenate([m.features for m in maps]), pairs, segs


def oracle_step(banks, model, cfg, draws):
    """``train_step`` on the rows and pairs of ``oracle_batch``."""
    x, pairs, segs = oracle_batch(banks, draws, model.net_config.kernel_size)
    model.store.zero_grads()
    pooled, cache = model.net.forward_rows(x, pairs, segs)
    proj, pcache = mlp_projector_forward(pooled, model.store.params)
    loss, dproj = nt_xent(proj, temperature=cfg.temperature)
    dpooled, grads = mlp_projector_backward(dproj, pcache)
    for name, g in grads.items():
        model.store.accumulate(name, g.astype(model.store[name].dtype, copy=False))
    model.net.backward(dpooled.astype(pooled.dtype, copy=False), cache)
    adam_step(model.store, cfg.adam)
    return loss


def record_draws(monkeypatch, identity=False):
    """The draws of every later ``draw_batch`` call, as the batch built
    them; with ``identity`` every other view's slide augmentation
    parameters are set to the identity before the batch sees them."""
    real, drawn = training.draw_batch, []

    def record(*args, **kwargs):
        draws = real(*args, **kwargs)
        if identity:
            for a, value in zip(draws[2], astuple(SlideAugParams())):
                a[::2] = value
        drawn.append(draws)
        return draws

    monkeypatch.setattr(training, "draw_batch", record)
    return drawn


@pytest.mark.parametrize(
    "shared,slide_aug,identity,n,cells,same_pixel,tiles,kernel,dtype", [
        (True, True, False, 20, 3, 6, 8, 3, np.float32),     # crowded sites
        (False, True, False, 20, 3, 6, 8, 3, np.float32),    # not shared
        (True, False, False, 20, 3, 6, 8, 3, np.float32),    # no slide aug
        (False, False, False, 16, 2, 8, 16, 5, np.float64),  # T = bank size
        (True, True, True, 20, 4, 5, 6, 3, np.float32),      # identity params
        (False, True, True, 12, 2, 4, 12, 1, np.float64),    # k = 1, T = n
        (True, True, False, 10, 6, 0, 1, 3, np.float32),     # T = 1
        (False, True, False, 30, 8, 10, 7, 5, np.float64),   # k = 5, sparse
    ])
def test_batch_equals_per_view_oracle(monkeypatch, shared, slide_aug, identity,
                                      n, cells, same_pixel, tiles, kernel,
                                      dtype):
    banks = [tie_bank(f"s{i}", n, cells, same_pixel, seed=10 * n + i, dtype=dtype)
             for i in range(4)]
    cfg = TrainConfig(tiles=tiles, batch_size=4, shared_aug=shared,
                      slide_aug=slide_aug)
    drawn = record_draws(monkeypatch, identity)
    for seed in range(5):
        x, pairs, segs = sample_batch(banks, cfg, np.random.default_rng(seed),
                                      kernel)
        want_x, want_pairs, want_segs = oracle_batch(banks, drawn[-1], kernel)
        assert segs == want_segs
        assert x.dtype == want_x.dtype and x.shape == want_x.shape
        assert x.tobytes() == want_x.tobytes()
        assert len(pairs) == len(want_pairs) == kernel * kernel
        for a, b in zip(pairs, want_pairs):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    assert len(drawn) == 5


@pytest.mark.parametrize("shared,slide_aug,dtype", [
    (True, True, np.float32), (False, True, np.float64),
    (True, False, np.float32)])
def test_train_steps_equal_per_view_oracle_steps(monkeypatch, shared, slide_aug,
                                                 dtype):
    banks = [tie_bank(f"s{i}", 14, 3, 4, seed=i) for i in range(3)]
    cfg = TrainConfig(tiles=6, batch_size=3, shared_aug=shared,
                      slide_aug=slide_aug)
    got, want = (tiny_model(seed=2, dtype=dtype) for _ in range(2))
    drawn = record_draws(monkeypatch)
    rng = np.random.default_rng(21)
    for _ in range(4):
        loss = train_step(banks, got, cfg, rng)
        assert loss == oracle_step(banks, want, cfg, drawn[-1])
    assert got.store.t == want.store.t
    got_arrays = training._checkpoint_arrays(got)
    for name, arr in training._checkpoint_arrays(want).items():
        assert got_arrays[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("shared,slide_aug", [
    (True, True), (False, True), (True, False)])
def test_draw_batch_makes_its_documented_calls(shared, slide_aug):
    """Slice indices, then tile sets, then five augmentation arrays."""
    banks = [make_bank("a", K=3, n=8), make_bank("b", K=5, n=20)]
    cfg = TrainConfig(tiles=4, batch_size=2, shared_aug=shared,
                      slide_aug=slide_aug)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    slices, tiles, aug = draw_batch(banks, cfg, rng)
    want = ref.integers(1, np.array([[3], [3], [5], [5]]),
                        size=(4, 1 if shared else 4))
    assert slices.tobytes() == want.tobytes()
    want = np.sort(draw_views(ref, [8, 8, 20, 20], 4), axis=1)
    assert tiles.tobytes() == want.tobytes()
    if slide_aug:
        for a, b in zip(aug, draw_slide_aug(ref, 4)):
            assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
    else:
        assert aug is None
    assert rng.random() == ref.random()


def tile_bank(n):
    coords = np.zeros((2, n, 2), dtype=np.int32)
    coords[:, :, 0] = np.arange(n) * 224
    return EmbeddingBank(f"n{n}", coords, np.zeros((2, n, 1)))


@pytest.mark.parametrize("sizes,tiles", [
    ((48,), 5), ((48,), 16), ((600,), 5), ((600,), 64),
    ((40, 300), 7),       # one call, 40-tile rows padded to 300 columns
    ((48, 600), 7)],      # one rng.choice per view
    ids=lambda v: "+".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_training_tile_draw_is_uniform_without_replacement(sizes, tiles):
    """Per tile count n, each view's tiles are distinct tiles of range(n),
    each drawn as often as a uniform subset draws it: the inclusion counts'
    chi-square, scaled for draws without replacement, against n - 1
    degrees of freedom."""
    banks = [tile_bank(n) for n in sizes] * 1000
    cfg = TrainConfig(tiles=tiles, batch_size=2, slide_aug=False)
    _, idx, _ = draw_batch(banks, cfg, np.random.default_rng([tiles, *sizes]))
    assert idx.shape == (2 * len(banks), tiles) and idx.dtype == np.int64
    assert (np.diff(idx, axis=1) > 0).all()           # sorted, no repeats
    views = np.repeat([b.n_tiles for b in banks], 2)
    for n in sizes:
        rows = idx[views == n]
        assert rows.min() >= 0 and rows.max() < n     # no padded column
        p = tiles / n
        counts = np.bincount(rows.ravel(), minlength=n)
        stat = ((counts - len(rows) * p) ** 2).sum() / (len(rows) * p * (1 - p))
        stat *= (n - 1) / n
        assert scipy.stats.chi2.sf(stat, n - 1) > 1e-3, (n, stat)


def test_batch_still_rejects_short_banks():
    banks = [make_bank(slide_id="a", n=8), make_bank(slide_id="b", n=2)]
    with pytest.raises(InsufficientTiles):
        train_step(banks, tiny_model(), TrainConfig(tiles=3, batch_size=2),
                   np.random.default_rng(0))
    with pytest.raises(InsufficientTiles):
        train_step([make_bank(slide_id="a"), make_bank(slide_id="b", K=1)],
                   tiny_model(), TrainConfig(tiles=3, batch_size=2),
                   np.random.default_rng(0))


def test_train_step_rejects_feature_width_mismatch():
    banks = [make_bank(slide_id="a", F=4), make_bank(slide_id="b", F=5)]
    with pytest.raises(DimensionMismatch):
        train_step(banks, tiny_model(F=4), TrainConfig(tiles=3, batch_size=2),
                   np.random.default_rng(0))


class TestPretrain:
    def corpus(self, tmp_path, n_slides=4):
        d = tmp_path / "banks"
        d.mkdir(exist_ok=True)
        for i in range(n_slides):
            save_bank(make_bank(slide_id=f"s{i:02d}", seed=i),
                      d / f"s{i:02d}.gsb")
        return d

    def cfg(self, **kw):
        base = dict(tiles=3, batch_size=2, epochs=2, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def small_net(self, F=4):
        return PoolingNetworkConfig(in_channels=F, block_channels=(6, 6),
                                    out_dim=6)

    def test_smoke(self, tmp_path):
        banks = self.corpus(tmp_path)
        out = tmp_path / "model.ckpt"
        report = pretrain(self.cfg(), banks, out, net_config=self.small_net(),
                          proj_dim=8, report_path=tmp_path / "report.json")
        model, epoch = load_model(out)
        assert epoch == 2
        lines = (tmp_path / "model.log.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3
        assert report["shared_aug"] is True
        assert report["banks"] == 4
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["shared_aug"] is True

    def test_shared_flag_false_recorded(self, tmp_path):
        banks = self.corpus(tmp_path)
        report = pretrain(self.cfg(shared_aug=False), banks,
                          tmp_path / "m.ckpt", net_config=self.small_net(),
                          proj_dim=8)
        assert report["shared_aug"] is False

    def test_loss_decreases_with_training(self, tmp_path):
        from slidessl.numcore import AdamConfig

        d = tmp_path / "cbanks"
        d.mkdir()
        for i in range(6):
            save_bank(correlated_bank(f"s{i:02d}", seed=i), d / f"s{i:02d}.gsb")
        out = tmp_path / "m.ckpt"
        pretrain(self.cfg(epochs=40, batch_size=3, adam=AdamConfig(lr=3e-3)),
                 d, out, net_config=self.small_net(), proj_dim=8)
        rows = (out.with_suffix(".log.csv")).read_text().strip().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        # tiny corpus, so epoch losses are noisy: require a clear drop from
        # the starting level rather than last-vs-first
        assert min(losses[5:]) < 0.8 * losses[0]

    def test_resume_matches_uninterrupted(self, tmp_path):
        banks = self.corpus(tmp_path)
        full = tmp_path / "full.ckpt"
        split = tmp_path / "split.ckpt"
        pretrain(self.cfg(epochs=4), banks, full, net_config=self.small_net(),
                 proj_dim=8)
        pretrain(self.cfg(epochs=2), banks, split, net_config=self.small_net(),
                 proj_dim=8)
        pretrain(self.cfg(epochs=4), banks, split, resume=True)
        assert full.read_bytes() == split.read_bytes()
        full_log = (tmp_path / "full.log.csv").read_text()
        split_log = (tmp_path / "split.log.csv").read_text()
        assert full_log == split_log

    def test_resume_past_the_asked_epochs_is_refused(self, tmp_path):
        banks = self.corpus(tmp_path)
        out = tmp_path / "m.ckpt"
        log = tmp_path / "m.log.csv"
        pretrain(self.cfg(epochs=3), banks, out, net_config=self.small_net(),
                 proj_dim=8)
        before = out.read_bytes(), log.read_bytes()
        with pytest.raises(ValidationError, match="3 epochs, past the 1"):
            pretrain(self.cfg(epochs=1), banks, out, resume=True)
        assert (out.read_bytes(), log.read_bytes()) == before
        pretrain(self.cfg(epochs=3), banks, out, resume=True)   # complete
        assert (out.read_bytes(), log.read_bytes()) == before

    def test_rerun_is_byte_identical(self, tmp_path):
        banks = self.corpus(tmp_path)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        pretrain(self.cfg(), banks, a, net_config=self.small_net(), proj_dim=8,
                 report_path=tmp_path / "ra.json")
        pretrain(self.cfg(), banks, b, net_config=self.small_net(), proj_dim=8,
                 report_path=tmp_path / "rb.json")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "ra.json").read_text().replace("a.ckpt", "") == \
            (tmp_path / "rb.json").read_text().replace("b.ckpt", "")

    @pytest.mark.parametrize("old", [None, b"old report\n"])
    def test_failed_report_write_leaves_no_partial_file(self, tmp_path,
                                                       monkeypatch, old):
        banks = self.corpus(tmp_path)
        report = tmp_path / "report.json"
        if old is not None:
            report.write_bytes(old)
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == report.name:
                raise OSError("injected replace failure")
            replace(src, dst)
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            pretrain(self.cfg(), banks, tmp_path / "m.ckpt",
                     net_config=self.small_net(), proj_dim=8,
                     report_path=report)
        assert (report.read_bytes() if report.exists() else None) == old
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_needs_two_banks(self, tmp_path):
        d = tmp_path / "banks"
        d.mkdir()
        save_bank(make_bank(), d / "only.gsb")
        with pytest.raises(DegenerateBatch):
            pretrain(self.cfg(), d, tmp_path / "m.ckpt")

    def test_feat_dim_mismatch(self, tmp_path):
        d = tmp_path / "banks"
        d.mkdir()
        save_bank(make_bank(slide_id="a", F=4), d / "a.gsb")
        save_bank(make_bank(slide_id="b", F=5), d / "b.gsb")
        with pytest.raises(DimensionMismatch):
            pretrain(self.cfg(), d, tmp_path / "m.ckpt")
