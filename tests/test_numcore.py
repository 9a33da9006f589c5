"""Parameter store, Adam, finite differences, projector, checkpoint format."""

import numpy as np
import pytest

from slidessl.errors import (DimensionMismatch, FormatError, NonFiniteGradient,
                             ValidationError)
from slidessl.numcore import (
    ADAM_BLOCK,
    AdamConfig,
    ParamStore,
    adam_step,
    finite_diff_grad,
    init_params,
    load_checkpoint,
    max_rel_err,
    mlp_projector_backward,
    mlp_projector_forward,
    projector_shapes,
    save_checkpoint,
)


def make_store(**arrays):
    return ParamStore({name: np.asarray(value, dtype=np.float64)
                       for name, value in arrays.items()})


def reference_adam_step(params, grads, m, v, t, cfg):
    """Adam on separate per-parameter arrays, one parameter at a time."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if cfg.weight_decay != 0.0:
            g = g + cfg.weight_decay * p
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * np.square(g)
        p -= cfg.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.eps)


class TestAdam:
    def test_zero_grads_identity(self):
        store = make_store(w=[[1.0, -2.0], [0.5, 3.0]])
        before = store["w"].copy()
        adam_step(store, AdamConfig())
        np.testing.assert_array_equal(store["w"], before)
        assert store.t == 1

    def test_first_step_closed_form(self):
        # m-hat = v-hat = 1 after one step on grad 1, so the update is
        # exactly -lr / (1 + eps)
        store = make_store(w=[0.0])
        store.accumulate("w", np.array([1.0]))
        cfg = AdamConfig(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        adam_step(store, cfg)
        expected = -cfg.lr / (1.0 + cfg.eps)
        assert store["w"][0] == pytest.approx(expected, rel=1e-12)
        assert store["w"][0] == pytest.approx(-9.99999995e-4, abs=1e-11)

    def test_nan_grad_aborts_without_update(self):
        store = make_store(a=[1.0], b=[2.0])
        store.accumulate("a", np.array([0.5]))
        store.accumulate("b", np.array([np.nan]))
        with pytest.raises(NonFiniteGradient, match="b"):
            adam_step(store, AdamConfig())
        assert store["a"][0] == 1.0
        assert store["b"][0] == 2.0
        assert store.t == 0

    def test_inf_grad_rejected(self):
        store = make_store(a=[1.0])
        store.accumulate("a", np.array([np.inf]))
        with pytest.raises(NonFiniteGradient):
            adam_step(store, AdamConfig())

    def test_grads_zeroed_and_t_incremented(self):
        store = make_store(w=[1.0, 2.0])
        store.accumulate("w", np.array([0.3, -0.1]))
        adam_step(store, AdamConfig())
        np.testing.assert_array_equal(store.grads["w"], [0.0, 0.0])
        assert store.t == 1

    def test_matches_reference_implementation(self):
        # independent per-element textbook update carried for several steps
        rng = np.random.default_rng(5)
        theta = rng.normal(size=7)
        store = make_store(w=theta.copy())
        cfg = AdamConfig(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                         weight_decay=0.02)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t in range(1, 6):
            g = rng.normal(size=7)
            store.accumulate("w", g)
            adam_step(store, cfg)
            g = g + cfg.weight_decay * theta
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            mhat = m / (1 - cfg.beta1 ** t)
            vhat = v / (1 - cfg.beta2 ** t)
            theta = theta - cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
        np.testing.assert_allclose(store["w"], theta, rtol=1e-12, atol=1e-14)

    def test_deterministic(self):
        def run():
            store = make_store(w=np.linspace(-1, 1, 9))
            for _ in range(3):
                store.accumulate("w", np.sin(np.arange(9.0)))
                adam_step(store, AdamConfig(lr=0.05))
            return store["w"]

        np.testing.assert_array_equal(run(), run())

    def test_weight_decay_pulls_toward_zero(self):
        store = make_store(w=[4.0])
        adam_step(store, AdamConfig(weight_decay=0.1))
        assert abs(store["w"][0]) < 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(lr=0.0)
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(weight_decay=-0.1)
        with pytest.raises(ValidationError, match="eps"):
            AdamConfig(eps=0.0)

    @pytest.mark.parametrize("setting", [
        {"lr": np.inf}, {"lr": np.nan}, {"eps": np.nan}, {"eps": np.inf},
        {"weight_decay": np.nan}, {"weight_decay": np.inf}])
    def test_non_finite_setting_rejected(self, setting):
        (name,) = setting
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            AdamConfig(**setting)


class TestParamStore:
    def test_second_dtype_rejected(self):
        with pytest.raises(ValueError, match="one dtype"):
            ParamStore({"a": np.zeros(1), "b": np.zeros(1, dtype=np.float32)})

    def test_views_share_one_buffer(self):
        store = ParamStore({"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0]),
                            "c": np.full((2, 2), 9.0), "s": np.array(3.0)})
        assert store.buffer.shape == (4, 12)
        assert not store.buffer[1:].any()
        np.testing.assert_array_equal(store.buffer[0],
                                      [0, 1, 2, 3, 4, 5, 7, 9, 9, 9, 9, 3])
        for views in (store.params, store.grads, store.m, store.v):
            assert list(views) == ["a", "b", "c", "s"]
            for arr in views.values():
                assert np.shares_memory(arr, store.buffer)
        assert store["s"].shape == ()
        store.accumulate("b", np.array([2.5]))
        assert store.buffer[1, 6] == 2.5
        store.zero_grads()
        assert not store.buffer[1].any()

    def test_accumulate_shape_mismatch(self):
        store = make_store(w=[1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            store.accumulate("w", np.zeros(3))

    def test_accumulate_adds(self):
        store = make_store(w=[0.0])
        store.accumulate("w", np.array([1.0]))
        store.accumulate("w", np.array([2.0]))
        assert store.grads["w"][0] == 3.0

    def test_flat_adam_equals_per_parameter_update(self):
        rng = np.random.default_rng(8)
        shapes = {"a": (3, 4), "b": (4,), "c": (2, 2, 3), "d": (1,)}
        init = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
        store = ParamStore(init)
        params = {n: a.copy() for n, a in init.items()}
        m = {n: np.zeros_like(a) for n, a in init.items()}
        v = {n: np.zeros_like(a) for n, a in init.items()}
        cfg = AdamConfig(lr=0.01, weight_decay=0.05)
        for t in range(1, 7):
            grads = {n: rng.normal(size=s).astype(np.float32)
                     for n, s in shapes.items()}
            for n, g in grads.items():
                store.accumulate(n, g)
            adam_step(store, cfg)
            reference_adam_step(params, grads, m, v, t, cfg)
        assert store.t == 6
        for n in shapes:
            assert store.params[n].dtype == np.float32
            assert store.params[n].tobytes() == params[n].tobytes(), n
            assert store.m[n].tobytes() == m[n].tobytes(), n
            assert store.v[n].tobytes() == v[n].tobytes(), n

    def test_nan_in_last_parameter_is_named_and_nothing_moves(self):
        store = make_store(a=[1.0, 2.0], b=[[3.0]], c=[4.0, 5.0, 6.0])
        store.accumulate("a", np.array([0.1, 0.2]))
        adam_step(store, AdamConfig())
        store.accumulate("a", np.array([0.3, -0.1]))
        store.accumulate("c", np.array([0.0, 0.0, np.nan]))
        before = store.buffer.copy()
        with pytest.raises(NonFiniteGradient, match="'c'"):
            adam_step(store, AdamConfig())
        assert store.buffer.tobytes() == before.tobytes()
        assert store.t == 1

    @staticmethod
    def split_store(n, dtype, rng):
        """A store of ``n`` elements, in two parameters where ``n`` > 1."""
        sizes = {"a": n // 3, "b": n - n // 3} if n > 1 else {"b": 1}
        init = {name: rng.normal(size=size).astype(dtype)
                for name, size in sizes.items()}
        return ParamStore(init), {name: a.copy() for name, a in init.items()}

    @pytest.mark.parametrize("n", [1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1,
                                   5 * ADAM_BLOCK // 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_blocks_equal_whole_row_update(self, n, dtype, weight_decay):
        rng = np.random.default_rng(n)
        store, params = self.split_store(n, dtype, rng)
        m = {name: np.zeros_like(a) for name, a in params.items()}
        v = {name: np.zeros_like(a) for name, a in params.items()}
        cfg = AdamConfig(lr=0.01, weight_decay=weight_decay)
        for t in range(1, 7):
            grads = {name: rng.normal(size=a.shape).astype(dtype)
                     for name, a in params.items()}
            for name, g in grads.items():
                store.accumulate(name, g)
            adam_step(store, cfg)
            reference_adam_step(params, grads, m, v, t, cfg)
        assert store.t == 6 and not store.buffer[1].any()
        for name in params:
            assert store.params[name].tobytes() == params[name].tobytes(), name
            assert store.m[name].tobytes() == m[name].tobytes(), name
            assert store.v[name].tobytes() == v[name].tobytes(), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_last_block_moves_nothing(self, bad):
        store, _ = self.split_store(5 * ADAM_BLOCK // 2, np.float32,
                                    np.random.default_rng(2))
        store.accumulate("b", np.ones_like(store["b"]))
        adam_step(store, AdamConfig())
        store.accumulate("a", np.ones_like(store["a"]))
        store.grads["b"][-1] = bad
        before = store.buffer.copy()
        with pytest.raises(NonFiniteGradient, match="'b'"):
            adam_step(store, AdamConfig())
        assert store.buffer.tobytes() == before.tobytes()
        assert store.t == 1

    # The store's state is saved and loaded by the checkpoint table of
    # ``training``; these cases run through ``save_model``/``load_model``.

    @staticmethod
    def saved_model(tmp_path):
        """A model one Adam step in (moments are non-zero), saved to disk;
        returns the model, the path and the arrays of the file."""
        from slidessl.sparseconv import PoolingNetworkConfig
        from slidessl.training import build_model, save_model
        model = build_model(PoolingNetworkConfig(in_channels=3, block_channels=(4,),
                                                 out_dim=4), proj_dim=5)
        rng = np.random.default_rng(1)
        for name in model.store.params:
            model.store.accumulate(name, rng.normal(
                size=model.store[name].shape).astype(np.float32))
        adam_step(model.store, AdamConfig())
        path = tmp_path / "m.ckpt"
        save_model(model, path, epoch=3)
        return model, path, load_checkpoint(path)

    def test_state_roundtrip_with_moments(self, tmp_path):
        from slidessl.training import _checkpoint_arrays, load_model
        model, path, _ = self.saved_model(tmp_path)
        loaded, epoch = load_model(path)
        assert (epoch, loaded.store.t) == (3, 1)
        want = _checkpoint_arrays(model)
        got = _checkpoint_arrays(loaded)
        assert list(got) == list(want)
        assert any(name.endswith(".v") and arr.any() for name, arr in want.items())
        for name, arr in want.items():
            assert got[name].tobytes() == arr.tobytes(), name

    def test_load_missing_param(self, tmp_path):
        from slidessl.training import load_model
        _, path, arrays = self.saved_model(tmp_path)
        del arrays["proj.b1"]
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="missing 'proj.b1'"):
            load_model(path)

    def test_load_wrong_shape(self, tmp_path):
        from slidessl.training import load_model
        _, path, arrays = self.saved_model(tmp_path)
        arrays["net.head.w"] = np.zeros((2, 2), dtype=np.float32)
        save_checkpoint(path, arrays)
        with pytest.raises(DimensionMismatch, match="'net.head.w'"):
            load_model(path)

    @pytest.mark.parametrize("suffix", [".m", ".v"])
    @pytest.mark.parametrize("moment", [np.zeros(3), np.full(1, 5.0)],
                             ids=["wrong_shape", "one_element"])
    def test_load_moment_shape_must_match(self, tmp_path, suffix, moment):
        from slidessl.training import load_model
        _, path, arrays = self.saved_model(tmp_path)
        arrays["proj.b2" + suffix] = moment
        save_checkpoint(path, arrays)
        with pytest.raises(DimensionMismatch, match=f"'proj.b2\\{suffix}'"):
            load_model(path)

    def test_missing_moments_load_as_zero(self, tmp_path):
        from slidessl.training import load_model
        model, path, arrays = self.saved_model(tmp_path)
        for name in [n for n in arrays if n.endswith((".m", ".v"))]:
            del arrays[name]
        save_checkpoint(path, arrays)
        loaded, _ = load_model(path)
        assert loaded.store.buffer[0].tobytes() == model.store.buffer[0].tobytes()
        assert not loaded.store.buffer[2:].any()

    def test_load_missing_bn_buffer(self, tmp_path):
        from slidessl.training import load_model
        _, path, arrays = self.saved_model(tmp_path)
        del arrays["net.block0.bn2.run_mean"]
        save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="missing 'net.block0.bn2.run_mean'"):
            load_model(path)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(np.sum(x ** 2)),
                             np.array([1.0, 2.0]), h=1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 7.5, np.array([1.0, -3.0, 2.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0, 0.0])

    def test_product(self):
        g = finite_diff_grad(lambda x: float(x[0] * x[1]),
                             np.array([3.0, 5.0]), h=1e-5)
        np.testing.assert_allclose(g, [5.0, 3.0], atol=1e-8)

    def test_preserves_input(self):
        x = np.array([1.0, 2.0])
        finite_diff_grad(lambda v: float(np.sum(v)), x)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_matrix_argument(self):
        x = np.arange(6.0).reshape(2, 3)
        g = finite_diff_grad(lambda m: float(np.sum(m * m)), x)
        np.testing.assert_allclose(g, 2 * x, atol=1e-7)


class TestMaxRelErr:
    def test_exact_match_is_zero(self):
        assert max_rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_floor_prevents_blowup_near_zero(self):
        # absolute difference 1e-12 against the 1e-8 floor
        assert max_rel_err(np.array([0.0]), np.array([1e-12])) == pytest.approx(1e-4)

    def test_relative_scaling(self):
        assert max_rel_err(np.array([100.0]), np.array([101.0])) == \
            pytest.approx(1.0 / 101.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_rel_err(np.zeros(2), np.zeros(3))


class TestProjector:
    def make_params(self, c, d, seed=0):
        return ParamStore(init_params(projector_shapes(c, d),
                                      np.random.default_rng(seed), np.float64))

    def test_zero_params_zero_output(self):
        store = ParamStore({"proj.w1": np.zeros((4, 4)), "proj.b1": np.zeros(4),
                            "proj.w2": np.zeros((4, 3)), "proj.b2": np.zeros(3)})
        z, _ = mlp_projector_forward(np.array([[1.0, -2.0, 3.0, 0.5]]),
                                     store.params)
        np.testing.assert_array_equal(z, np.zeros((1, 3)))

    def test_identity_layers_pass_nonnegative_input(self):
        store = ParamStore({"proj.w1": np.eye(3), "proj.b1": np.zeros(3),
                            "proj.w2": np.eye(3), "proj.b2": np.zeros(3)})
        x = np.array([[0.0, 1.5, 2.0]])
        z, _ = mlp_projector_forward(x, store.params)
        np.testing.assert_array_equal(z, x)

    def test_batch_and_single_agree(self):
        store = self.make_params(5, 3)
        xb = np.random.default_rng(1).normal(size=(4, 5))
        zb, _ = mlp_projector_forward(xb, store.params)
        for r in range(4):
            zr, _ = mlp_projector_forward(xb[r:r + 1], store.params)
            np.testing.assert_allclose(zr, zb[r:r + 1], rtol=1e-12)

    def test_dimension_mismatch(self):
        store = self.make_params(5, 3)
        with pytest.raises(DimensionMismatch):
            mlp_projector_forward(np.zeros((2, 4)), store.params)

    def test_one_vector_rejected(self):
        store = self.make_params(5, 3)
        with pytest.raises(DimensionMismatch):
            mlp_projector_forward(np.zeros(5), store.params)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        store = self.make_params(6, 4, seed=3)
        x = rng.normal(size=(3, 6))
        r = rng.normal(size=(3, 4))  # fixed projection of the output

        def loss_with(params):
            z, _ = mlp_projector_forward(x, params)
            return float(np.sum(z * r))

        z, cache = mlp_projector_forward(x, store.params)
        dx, grads = mlp_projector_backward(r, cache)

        num_dx = finite_diff_grad(
            lambda xx: float(np.sum(mlp_projector_forward(xx, store.params)[0] * r)),
            x)
        assert max_rel_err(dx, num_dx) < 1e-5

        for name in ("proj.w1", "proj.b1", "proj.w2", "proj.b2"):
            def f(p, name=name):
                trial = dict(store.params)
                trial[name] = p
                return loss_with(trial)

            num = finite_diff_grad(f, store.params[name])
            assert max_rel_err(grads[name], num) < 1e-5, name

    def test_backward_grad_shape_check(self):
        store = self.make_params(5, 3)
        _, cache = mlp_projector_forward(np.zeros((2, 5)), store.params)
        with pytest.raises(DimensionMismatch):
            mlp_projector_backward(np.zeros((2, 4)), cache)


class TestCheckpoint:
    def test_roundtrip_preserves_order_shapes_values(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "net.block0.w": rng.normal(size=(3, 3, 4, 8)).astype(np.float32),
            "net.block0.b": rng.normal(size=8).astype(np.float32),
            "proj.w1": rng.normal(size=(8, 8)).astype(np.float32),
            "meta.state": np.array([12.0, 7.0], dtype=np.float32),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            assert loaded[name].shape == arrays[name].shape
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_float64_input_saved_as_float32(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.array([1.0, 1.0 / 3.0])})
        loaded = load_checkpoint(path)
        assert loaded["w"].dtype == np.float32
        np.testing.assert_array_equal(
            loaded["w"], np.array([1.0, 1.0 / 3.0], dtype=np.float32))

    def test_save_is_byte_deterministic(self, tmp_path):
        arrays = {"a": np.arange(5, dtype=np.float32),
                  "b": np.ones((2, 2), dtype=np.float32)}
        p1, p2 = tmp_path / "x1.ckpt", tmp_path / "x2.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == b"GSCK"
        # version 1, one array, name length 1, "w", rank 1, dim 2
        assert blob[4:8] == (1).to_bytes(4, "little")
        assert blob[8:12] == (1).to_bytes(4, "little")
        assert blob[12:16] == (1).to_bytes(4, "little")
        assert blob[16:17] == b"w"
        assert blob[17:21] == (1).to_bytes(4, "little")
        assert blob[21:25] == (2).to_bytes(4, "little")
        assert len(blob) == 25 + 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(100, dtype=np.float32)})
        blob = path.read_bytes()
        (tmp_path / "t.ckpt").write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(tmp_path / "t.ckpt")

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        (tmp_path / "g.ckpt").write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(tmp_path / "g.ckpt")

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[16:17] = b"\xff"  # the one-byte name "w"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(path)

    def test_rank_above_numpy_limit(self, tmp_path):
        from slidessl.container import string, u32
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"GSCK" + u32(1, 1) + string("a") + u32(65)
                         + u32(*[0] * 65))
        with pytest.raises(FormatError, match="'a' has rank 65"):
            load_checkpoint(path)

    def test_repeated_array_name(self, tmp_path):
        from slidessl.container import string, u32
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"GSCK" + u32(1, 2)
                         + string("a") + u32(1, 1) + np.float32(1.0).tobytes()
                         + string("a") + u32(1, 1) + np.float32(2.0).tobytes())
        with pytest.raises(FormatError, match="array 'a' is repeated"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)
