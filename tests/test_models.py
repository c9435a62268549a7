from dataclasses import replace

import numpy as np
import pytest

from graphcaps import nn
from graphcaps.autodiff import Tensor, grad_check, routing
from graphcaps.data import one_hot
from graphcaps.models import (
    CapsNet,
    CapsNetConfig,
    CnnConfig,
    ConfigError,
    PatchyCnn,
    TrainConfig,
    build_capsnet,
    build_cnn,
    evaluate_accuracy,
    train_model,
)

TINY = CapsNetConfig(
    conv_filters=6, conv_kernel=3, primary_kernel=1, primary_stride=1,
    primary_channels=2, primary_dim=4, caps_dim=6, decoder_hidden=(8, 12),
    loss_mode="margin",
)


def onehot_batch(rng, n, w, k, channels):
    x = np.zeros((n, w, k, channels))
    idx = rng.integers(0, channels, size=(n, w, k))
    for b in range(n):
        for i in range(w):
            for j in range(k):
                x[b, i, j, idx[b, i, j]] = 1.0
    return x


def toy_fixture(n=20, w=6, k=4, d=3, seed=3):
    """Separable two-class one-hot tensors (label distributions differ)."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, w, k, d + 1))
    y = np.arange(n) % 2
    for b in range(n):
        probs = [0.7, 0.15, 0.15, 0.0] if y[b] == 0 else [0.15, 0.15, 0.7, 0.0]
        labels = rng.choice(d + 1, p=probs, size=(w, k))
        for i in range(w):
            for j in range(k):
                x[b, i, j, labels[i, j]] = 1.0
    return x, y


TOY_CFG = CapsNetConfig(
    conv_filters=16, primary_channels=4, primary_dim=4, primary_kernel=2,
    primary_stride=1, caps_dim=8, decoder_hidden=(32, 64),
)


class TestBuildCapsnet:
    def test_default_geometry_builds(self):
        model = build_capsnet(18, 10, 8, 2, seed=0)
        x = onehot_batch(np.random.default_rng(0), 3, 18, 10, 8)
        assert model.predict(x).shape == (3,)

    def test_parameter_count_closed_form(self):
        # independent shape arithmetic for the default architecture at
        # w=18, k=10, channels=8, C=2
        conv1 = 3 * 3 * 8 * 256 + 256
        conv2 = 3 * 3 * 256 * (32 * 8) + 32 * 8
        h2, w2 = (16 - 3) // 2 + 1, (8 - 3) // 2 + 1  # 7 x 3
        n_primary = h2 * w2 * 32
        caps = n_primary * 2 * 8 * 16
        dec = (2 * 16) * 512 + 512 + 512 * 1024 + 1024 + 1024 * (18 * 10 * 8) + 18 * 10 * 8
        model = build_capsnet(18, 10, 8, 2, seed=0)
        assert model.parameter_count() == conv1 + conv2 + caps + dec

    def test_decoder_output_matches_input_shape(self):
        model = build_capsnet(18, 10, 8, 2, seed=0)
        x = onehot_batch(np.random.default_rng(1), 2, 18, 10, 8)
        _, _, recon = model.forward(x)
        assert recon.data.shape == (2, 18, 10, 8)

    def test_inconsistent_geometry_reports_reshape(self):
        with pytest.raises(ConfigError, match="primary capsule conv"):
            build_capsnet(4, 3, 4, 2, CapsNetConfig())  # 2x1 feature map, 3x3 kernel

    def test_seeded_build_is_bitwise_identical(self):
        a = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9)
        b = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        c = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=10)
        assert any(
            not np.array_equal(a.params[name].data, c.params[name].data) for name in a.params
        )


class TestForward:
    def test_zero_input_norms_finite_below_one(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=0)
        _, norms, _ = model.forward(np.zeros((2, 8, 5, 4)))
        assert np.all(np.isfinite(norms.data))
        assert np.all(norms.data < 1.0)

    def test_batch_of_one_matches_batch_of_eight(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=1)
        x = onehot_batch(np.random.default_rng(2), 8, 8, 5, 4)
        _, norms_batch, recon_batch = model.forward(x)
        _, norms_one, recon_one = model.forward(x[:1])
        assert np.allclose(norms_batch.data[0], norms_one.data[0], atol=1e-12)
        assert np.allclose(recon_batch.data[0], recon_one.data[0], atol=1e-12)

    def test_identical_inputs_identical_outputs(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=2)
        x = onehot_batch(np.random.default_rng(3), 1, 8, 5, 4)
        pair = np.concatenate([x, x])
        _, norms, _ = model.forward(pair)
        assert np.array_equal(norms.data[0], norms.data[1])

    def test_norms_below_one_random_inputs(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=3)
        x = onehot_batch(np.random.default_rng(4), 16, 8, 5, 4)
        _, norms, _ = model.forward(x)
        assert np.all(norms.data < 1.0)

    def test_untrained_reconstruction_loss_bounded(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=4)
        x = onehot_batch(np.random.default_rng(5), 4, 8, 5, 4)
        _, parts = model.loss_batch(x, np.array([0, 1, 0, 1]), train=True)
        assert np.isfinite(parts["mse"])
        assert parts["mse"] <= 1.0


# Every entry point of both models, called on a batch x with labels y.
ENTRY_POINTS = {
    "capsnet-forward": (lambda: build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9),
                        lambda m, x, y: m.forward(x)),
    "capsnet-loss_batch": (lambda: build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9),
                           lambda m, x, y: m.loss_batch(x, y)),
    "capsnet-predict": (lambda: build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9),
                        lambda m, x, y: m.predict(x)),
    "capsnet-inner_features": (lambda: build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9),
                               lambda m, x, y: m.inner_features(x)),
    "cnn-logits": (lambda: build_cnn(8, 5, 4, 2, seed=9), lambda m, x, y: m.logits(x)),
    "cnn-loss_batch": (lambda: build_cnn(8, 5, 4, 2, seed=9),
                       lambda m, x, y: m.loss_batch(x, y, rng=np.random.default_rng(1))),
    "cnn-predict": (lambda: build_cnn(8, 5, 4, 2, seed=9), lambda m, x, y: m.predict(x)),
    "cnn-inner_features": (lambda: build_cnn(8, 5, 4, 2, seed=9),
                           lambda m, x, y: m.inner_features(x)),
}


def _values(out) -> list:
    """An entry point's output (one value or a tuple) as plain values."""
    return [t.data if isinstance(t, Tensor) else t
            for t in (out if isinstance(out, tuple) else (out,))]


class TestInputContract:
    """Both models take a (B, w, k, channels) batch, or one (w, k, channels)
    sample as a batch of one, at every entry point, and reject other shapes."""

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_transposed_batch_rejected(self, name):
        build, call = ENTRY_POINTS[name]
        x = one_hot(np.random.default_rng(10).integers(0, 4, (3, 8, 5)), 3)
        with pytest.raises(ValueError, match=r"input shape \(5, 8, 4\) != \(8, 5, 4\)"):
            call(build(), x.transpose(0, 2, 1, 3), np.array([0, 1, 0]))

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_single_sample_is_a_batch_of_one(self, name):
        build, call = ENTRY_POINTS[name]
        x = one_hot(np.random.default_rng(11).integers(0, 4, (1, 8, 5)), 3)
        one, batch = call(build(), x[0], np.array([1])), call(build(), x, np.array([1]))
        for a, b in zip(_values(one), _values(batch)):
            assert a == b if isinstance(a, dict) else np.array_equal(a, b)

    def test_capsnet_predict_skips_the_decoder(self, monkeypatch):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=12)
        x = one_hot(np.random.default_rng(13).integers(0, 4, (300, 8, 5)), 3)
        _, norms, _ = model.forward(x)

        def no_decoder(v, mask):
            raise AssertionError("predict ran the decoder")

        monkeypatch.setattr(model, "_decode", no_decoder)
        pred = model.predict(x)
        assert np.array_equal(pred, norms.data.argmax(axis=1))
        assert len(set(pred.tolist())) == 2


class TestTraining:
    def test_toy_fixture_reaches_full_accuracy(self):
        x, y = toy_fixture()
        model = build_capsnet(6, 4, 4, 2, TOY_CFG, seed=5)
        train_model(model, x, y, TrainConfig(epochs=200, batch_size=10, base_lr=1e-3, seed=5))
        assert evaluate_accuracy(model, x, y) == 1.0

    def test_loss_trace_decreases(self):
        x, y = toy_fixture()
        model = build_capsnet(6, 4, 4, 2, TOY_CFG, seed=6)
        result = train_model(model, x, y, TrainConfig(epochs=40, batch_size=10, seed=6))
        assert result.loss_trace[-1]["total"] < result.loss_trace[0]["total"]
        assert result.seconds > 0.0

    def test_same_seed_identical_parameters(self):
        x, y = toy_fixture()
        finals = []
        for _ in range(2):
            model = build_capsnet(6, 4, 4, 2, TOY_CFG, seed=7)
            train_model(model, x, y, TrainConfig(epochs=5, batch_size=10, seed=7))
            finals.append({n: p.data.copy() for n, p in model.params.items()})
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name])

    def test_missing_class_rejected(self):
        x, _ = toy_fixture()
        model = build_capsnet(6, 4, 4, 2, TOY_CFG, seed=8)
        with pytest.raises(ValueError, match="no sample of class"):
            train_model(model, x, np.zeros(len(x), dtype=int),
                        TrainConfig(epochs=1, batch_size=10))


class TestEndToEndGradient:
    def test_capsnet_loss_gradient_tiny_geometry(self):
        # w=4, k=3, d=3 (4 channels), C=2; all parameters checked at once
        model = CapsNet(4, 3, 4, 2, TINY, seed=11)
        rng = np.random.default_rng(12)
        x = onehot_batch(rng, 4, 4, 3, 4)
        y = np.array([0, 1, 1, 0])
        names = sorted(model.params)

        def loss_fn(*tensors):
            for name, t in zip(names, tensors):
                model.params[name] = t
            loss, _ = model.loss_batch(x, y, train=True)
            return loss

        point = [model.params[n].data.copy() for n in names]
        err = grad_check(loss_fn, point, h=1e-5)
        assert err < 1e-4


class TestCnnBaseline:
    def test_builds_and_predicts(self):
        model = build_cnn(18, 10, 8, 2, seed=0)
        x = onehot_batch(np.random.default_rng(6), 3, 18, 10, 8)
        assert model.predict(x).shape == (3,)

    def test_parameter_count_closed_form(self):
        cfg = CnnConfig()
        conv1 = 10 * 1 * 8 * 16 + 16
        conv2 = 10 * 1 * 16 * 8 + 8
        flat = (18 - 10 + 1) * 8
        dense = flat * 128 + 128
        out = 128 * 2 + 2
        model = build_cnn(18, 10, 8, 2, cfg, seed=0)
        assert model.parameter_count() == conv1 + conv2 + dense + out

    def test_conv2_kernel_clipped_for_narrow_inputs(self):
        model = build_cnn(6, 4, 3, 2, seed=1)
        assert model.conv2_kernel == 6
        x = onehot_batch(np.random.default_rng(7), 2, 6, 4, 3)
        assert model.predict(x).shape == (2,)

    def test_trains_on_toy_fixture(self):
        x, y = toy_fixture()
        model = build_cnn(6, 4, 4, 2, seed=2)
        train_model(model, x, y, TrainConfig(epochs=150, batch_size=10, seed=2))
        assert evaluate_accuracy(model, x, y) >= 0.9

    def test_dropout_only_during_training(self):
        model = build_cnn(6, 4, 4, 2, seed=3)
        x = onehot_batch(np.random.default_rng(8), 4, 6, 4, 4)
        a = model.predict(x)
        b = model.predict(x)
        assert np.array_equal(a, b)

    def test_gradient_check(self):
        model = PatchyCnn(5, 3, 3, 2, CnnConfig(conv1_filters=4, conv2_filters=3,
                                                conv2_kernel=3, dense_width=8, dropout=0.0),
                          seed=4)
        rng = np.random.default_rng(13)
        x = onehot_batch(rng, 3, 5, 3, 3)
        y = np.array([0, 1, 0])
        names = sorted(model.params)

        def loss_fn(*tensors):
            for name, t in zip(names, tensors):
                model.params[name] = t
            loss, _ = model.loss_batch(x, y, train=False)
            return loss

        point = [model.params[n].data.copy() for n in names]
        assert grad_check(loss_fn, point, h=1e-5) < 1e-4


DTYPE_MODELS = {
    "capsnet-margin": lambda: CapsNet(4, 3, 4, 2, TINY, seed=14),
    "capsnet-binary_ce": lambda: CapsNet(4, 3, 4, 2, replace(TINY, loss_mode="binary_ce"),
                                         seed=14),
    "cnn-dropout": lambda: PatchyCnn(4, 3, 4, 2, CnnConfig(
        conv1_filters=4, conv2_filters=3, conv2_kernel=3, dense_width=8, dropout=0.5), seed=14),
}


class TestDtype:
    """The dtype follows the data: one-hot input and the models' parameters
    are float32, so a whole training step is; float64 data stays float64."""

    def _step(self, model, x, monkeypatch):
        """One training step; returns (loss, dtypes of every op output, Adam state)."""
        made = set()
        make = Tensor._make

        def recording_make(data, parents, backward):
            made.add(np.asarray(data).dtype)
            return make(data, parents, backward)

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
        loss, _ = model.loss_batch(x, np.array([0, 1, 1, 0]), train=True,
                                   rng=np.random.default_rng(15))
        loss.backward()
        state = nn.AdamState(base_lr=1e-3)
        nn.adam_step(model.params, {n: p.grad for n, p in model.params.items()}, state, 0)
        return loss, made, state

    @pytest.mark.parametrize("name", sorted(DTYPE_MODELS))
    def test_float32_step(self, name, monkeypatch):
        model = DTYPE_MODELS[name]()
        x = one_hot(np.random.default_rng(16).integers(0, 4, (4, 4, 3)), 3)
        loss, made, state = self._step(model, x, monkeypatch)
        assert loss.data.dtype == np.float32
        assert made == {np.dtype(np.float32)}
        for pname, p in model.params.items():
            assert p.data.dtype == p.grad.dtype == np.float32, pname
            assert state.m[pname].dtype == state.v[pname].dtype == np.float32, pname

    @pytest.mark.parametrize("name", sorted(DTYPE_MODELS))
    def test_float64_step(self, name, monkeypatch):
        model = DTYPE_MODELS[name]()
        model.params = {n: Tensor(p.data.astype(np.float64), requires_grad=True)
                        for n, p in model.params.items()}
        x = one_hot(np.random.default_rng(16).integers(0, 4, (4, 4, 3)), 3).astype(np.float64)
        loss, made, state = self._step(model, x, monkeypatch)
        assert loss.data.dtype == np.float64
        assert made == {np.dtype(np.float64)}
        for pname, p in model.params.items():
            assert p.data.dtype == p.grad.dtype == np.float64, pname
            assert state.m[pname].dtype == state.v[pname].dtype == np.float64, pname

    def test_routing_op_runs_in_float32(self):
        u = Tensor(np.random.default_rng(18).normal(size=(3, 6, 2, 4)).astype(np.float32),
                   requires_grad=True)
        v, couplings = routing(u, 3)
        (v * v).sum().backward()
        assert v.data.dtype == u.grad.dtype == np.float32
        assert {c.dtype for c in couplings} == {np.dtype(np.float32)}

    def test_adam_takes_float64_gradients_for_float32_parameters(self):
        param = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        state = nn.AdamState(base_lr=0.1)
        nn.adam_step({"p": param}, {"p": np.full(3, 0.5)}, state, 0)
        assert param.data.dtype == state.m["p"].dtype == state.v["p"].dtype == np.float32
        assert np.allclose(param.data, 0.9)

    def test_training_twice_gives_identical_float32_parameters(self):
        x, y = toy_fixture()
        x = x.astype(np.float32)
        finals = []
        for _ in range(2):
            model = build_capsnet(6, 4, 4, 2, TOY_CFG, seed=17)
            train_model(model, x, y, TrainConfig(epochs=3, batch_size=10, seed=17))
            finals.append({n: p.data.copy() for n, p in model.params.items()})
        for name in finals[0]:
            assert finals[0][name].dtype == np.float32
            assert np.array_equal(finals[0][name], finals[1][name])
