import resource
from dataclasses import replace

import numpy as np
import pytest

from graphcaps import models, nn
from graphcaps.autodiff import Tensor, grad_check, routing
from graphcaps.data import one_hot
from graphcaps.experiment import PRESETS
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
from graphcaps.selftest import TINY
from helpers import poison_gradient, traced_peak


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
        assert sum(p.data.size for p in model.params.values()) == conv1 + conv2 + caps + dec

    def test_decoder_output_matches_input_shape(self):
        model = build_capsnet(18, 10, 8, 2, seed=0)
        x = onehot_batch(np.random.default_rng(1), 2, 18, 10, 8)
        _, _, recon = model.forward(x, [0, 1])
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
        _, norms, _ = model.forward(np.zeros((2, 8, 5, 4)), [0, 1])
        assert np.all(np.isfinite(norms.data))
        assert np.all(norms.data < 1.0)

    def test_batch_of_one_matches_batch_of_eight(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=1)
        x = onehot_batch(np.random.default_rng(2), 8, 8, 5, 4)
        y = np.arange(8) % 2
        _, norms_batch, recon_batch = model.forward(x, y)
        _, norms_one, recon_one = model.forward(x[:1], y[:1])
        assert np.allclose(norms_batch.data[0], norms_one.data[0], atol=1e-12)
        assert np.allclose(recon_batch.data[0], recon_one.data[0], atol=1e-12)

    def test_identical_inputs_identical_outputs(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=2)
        x = onehot_batch(np.random.default_rng(3), 1, 8, 5, 4)
        pair = np.concatenate([x, x])
        _, norms, _ = model.forward(pair, [0, 0])
        assert np.array_equal(norms.data[0], norms.data[1])

    def test_norms_below_one_random_inputs(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=3)
        x = onehot_batch(np.random.default_rng(4), 16, 8, 5, 4)
        _, norms, _ = model.forward(x, np.arange(16) % 2)
        assert np.all(norms.data < 1.0)

    def test_untrained_reconstruction_loss_bounded(self):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=4)
        x = onehot_batch(np.random.default_rng(5), 4, 8, 5, 4)
        _, parts = model.loss_batch(x, np.array([0, 1, 0, 1]))
        assert np.isfinite(parts["mse"])
        assert parts["mse"] <= 1.0


# Every entry point of both models, called on a batch x with labels y.
ENTRY_POINTS = {
    "capsnet-forward": (lambda: build_capsnet(8, 5, 4, 2, TOY_CFG, seed=9),
                        lambda m, x, y: m.forward(x, y)),
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


class TestInputContract:
    """Both models take a (B, w, k, channels) batch, and only a batch, at
    every entry point, and reject other shapes."""

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_transposed_batch_rejected(self, name):
        build, call = ENTRY_POINTS[name]
        x = one_hot(np.random.default_rng(10).integers(0, 4, (3, 8, 5)), 3)
        with pytest.raises(ValueError, match=r"input shape \(5, 8, 4\) != \(8, 5, 4\)"):
            call(build(), x.transpose(0, 2, 1, 3), np.array([0, 1, 0]))
        # one unbatched sample is a wrong shape too, not a batch of one
        with pytest.raises(ValueError, match=r"input shape \(5, 4\) != \(8, 5, 4\)"):
            call(build(), x[0], np.array([0]))

    def test_capsnet_predict_skips_the_decoder(self, monkeypatch):
        model = build_capsnet(8, 5, 4, 2, TOY_CFG, seed=12)
        x = one_hot(np.random.default_rng(13).integers(0, 4, (300, 8, 5)), 3)
        _, norms, _ = model.forward(x, np.zeros(len(x), dtype=int))

        def no_decoder(v, mask):
            raise AssertionError("predict ran the decoder")

        monkeypatch.setattr(model, "_decode", no_decoder)
        pred = model.predict(x)
        assert np.array_equal(pred, norms.data.argmax(axis=1))
        assert len(set(pred.tolist())) == 2


# Both models at the toy geometry (w=6, k=4, 4 channels), the CNN with dropout.
UINT8_MODELS = {
    "capsnet": lambda: build_capsnet(6, 4, 4, 2, TOY_CFG, seed=19),
    "cnn": lambda: build_cnn(6, 4, 4, 2, seed=19),
}


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

    @pytest.mark.parametrize("build", UINT8_MODELS.values(), ids=UINT8_MODELS.keys())
    def test_leaf_updates_match_backward_then_adam_step(self, build):
        # the reference: the whole backward, then one adam_step over every
        # gradient, with train_model's shuffle and dropout draws
        x, y = toy_fixture()
        cfg = TrainConfig(epochs=3, batch_size=8, lr_decay=0.3, seed=23)
        model, reference = build(), build()
        train_model(model, x, y, cfg)
        rng = np.random.default_rng([cfg.seed, 0x7261])
        state = nn.AdamState(base_lr=cfg.base_lr, decay=cfg.lr_decay)
        for epoch in range(cfg.epochs):
            perm = rng.permutation(len(x))
            for lo in range(0, len(x), cfg.batch_size):
                idx = perm[lo : lo + cfg.batch_size]
                loss, _ = reference.loss_batch(x[idx], y[idx], rng=rng)
                loss.backward()
                nn.adam_step(reference.params, {n: p.grad for n, p in reference.params.items()},
                             state, epoch)
                for p in reference.params.values():
                    p.zero_grad()
        for name, p in model.params.items():
            assert p.data.tobytes() == reference.params[name].data.tobytes(), name
            assert p.grad is None, name  # each update consumed its gradient

    def test_nonfinite_gradient_names_epoch_and_batch(self):
        x, y = toy_fixture()
        model = build_capsnet(6, 4, 4, 2, TOY_CFG, seed=24)
        poison_gradient(model, "dec3_w", at_call=3)  # two batches per epoch
        with pytest.raises(nn.TrainingError,
                           match=r"^non-finite gradient for parameter 'dec3_w' at epoch 1, "
                                 r"batch 1$"):
            train_model(model, x, y, TrainConfig(epochs=3, batch_size=10, seed=24))

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
            loss, _ = model.loss_batch(x, y)
            return loss

        point = [model.params[n].data.copy() for n in names]
        err = grad_check(loss_fn, point)
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
        assert sum(p.data.size for p in model.params.values()) == conv1 + conv2 + dense + out

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
            loss, _ = model.loss_batch(x, y)
            return loss

        point = [model.params[n].data.copy() for n in names]
        assert grad_check(loss_fn, point) < 1e-4


DTYPE_MODELS = {
    "capsnet-margin": lambda: CapsNet(4, 3, 4, 2, TINY, seed=14),
    "capsnet-binary_ce": lambda: CapsNet(4, 3, 4, 2, replace(TINY, loss_mode="binary_ce"),
                                         seed=14),
    "cnn-dropout": lambda: PatchyCnn(4, 3, 4, 2, CnnConfig(
        conv1_filters=4, conv2_filters=3, conv2_kernel=3, dense_width=8, dropout=0.5), seed=14),
}


class TestDtype:
    """The dtype follows the parameters: the input boundary casts each batch
    to their dtype, so float32 parameters make a whole training step float32
    whatever the input's dtype, and float64 parameters a float64 one."""

    def _step(self, model, x, monkeypatch):
        """One training step; returns (loss, dtypes of every op output, Adam state)."""
        made = set()
        make = Tensor._make

        def recording_make(data, parents, backward):
            made.add(np.asarray(data).dtype)
            return make(data, parents, backward)

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
        loss, _ = model.loss_batch(x, np.array([0, 1, 1, 0]), rng=np.random.default_rng(15))
        loss.backward()
        state = nn.AdamState(base_lr=1e-3)
        nn.adam_step(model.params, {n: p.grad for n, p in model.params.items()}, state, 0)
        return loss, made, state

    @pytest.mark.parametrize("name", sorted(DTYPE_MODELS))
    def test_float32_step(self, name, monkeypatch):
        self._check_float32_step(name, np.float32, monkeypatch)

    # one_hot's uint8, and float64 input, which a Tensor would keep as it is
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("name", sorted(DTYPE_MODELS))
    def test_other_inputs_make_a_float32_step(self, name, dtype, monkeypatch):
        self._check_float32_step(name, dtype, monkeypatch)

    def _check_float32_step(self, name, dtype, monkeypatch):
        model = DTYPE_MODELS[name]()
        x = one_hot(np.random.default_rng(16).integers(0, 4, (4, 4, 3)), 3).astype(dtype)
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

    @pytest.mark.parametrize("build", UINT8_MODELS.values(), ids=UINT8_MODELS.keys())
    def test_uint8_one_hot_trains_as_its_float32_copy(self, build):
        x, y = toy_fixture()
        x = x.astype(np.uint8)
        runs = []
        for xs in (x, x.astype(np.float32)):
            model = build()
            train_model(model, xs, y, TrainConfig(epochs=3, batch_size=10, seed=19))
            runs.append(({n: p.data for n, p in model.params.items()}, model.predict(xs),
                         model.inner_features(xs)))
        (params, pred, features), (params32, pred32, features32) = runs
        for name in params:
            assert params[name].tobytes() == params32[name].tobytes(), name
        assert np.array_equal(pred, pred32) and features.tobytes() == features32.tobytes()


class TestInferenceMemory:
    @pytest.mark.parametrize("build", UINT8_MODELS.values(), ids=UINT8_MODELS.keys())
    def test_predict_casts_one_chunk_at_a_time(self, build):
        model = build()
        x = np.eye(4, dtype=np.uint8)[np.random.default_rng(20).integers(0, 4, (1000, 6, 4))]
        chunk = x[: model._chunk]
        model.predict(chunk)  # allocations made once per process stay out of the peaks

        # 1000 graphs hold what one chunk holds, plus less than one chunk's float32 copy
        one, whole = traced_peak(lambda: model.predict(chunk)), traced_peak(lambda: model.predict(x))
        assert whole - one < chunk.size * np.dtype(np.float32).itemsize, (one, whole)

    @pytest.mark.parametrize("shape", [(18, 10, 8), (30, 10, 38)], ids=["MUTAG", "NCI1"])
    @pytest.mark.parametrize("preset", ["paper", "small"])
    def test_capsule_outputs_do_not_depend_on_the_chunk(self, preset, shape):
        w, k, c = shape
        model = build_capsnet(w, k, c, 2, CapsNetConfig(**PRESETS[preset]["capsnet"]), seed=25)
        x = np.eye(c, dtype=np.uint8)[np.random.default_rng(26).integers(0, c, (80, w, k))]
        assert model._chunk < len(x)
        runs = []
        for chunk in (model._chunk, 256):
            model._chunk = chunk
            runs.append((model.predict(x).tobytes(), model.inner_features(x).tobytes()))
        assert runs[0] == runs[1]

    def test_cnn_chunk_stays_at_the_cap(self):
        # the CNN's last bits depend on the chunk size; at the benchmark
        # shapes its patches per graph keep the chunk at MAX_CHUNK
        for w, c in ((18, 8), (30, 38)):
            assert build_cnn(w, 10, c, 2)._chunk == models.MAX_CHUNK


# MUTAG-shaped uint8 one-hot graphs (w 18, k 10, 8 channels) and two classes.
MUTAG_X = np.eye(8, dtype=np.uint8)[np.random.default_rng(21).integers(0, 8, (188, 18, 10))]
MUTAG_Y = np.arange(188) % 2


class TestMemoryBounds:
    """Traced peaks of a capsule network at the MUTAG shape.  Each bound sits
    between the peak of the code it guards and that of its predecessor, which
    kept every conv patch matrix and the pre-ReLU map on the tape, held every
    gradient until one whole Adam step, drew the weights in float64, and
    predicted up to 256 graphs at once; the comments give both, measured with
    numpy 2.4 (MB = 1e6 bytes)."""

    @staticmethod
    def _model(preset):
        return build_capsnet(18, 10, 8, 2, CapsNetConfig(**PRESETS[preset]["capsnet"]), seed=1)

    def test_paper_build_draws_float32_rows(self):
        # 12.2 MB, for 10.7 MB of float32 parameters; 33.6 MB drawn whole in float64
        self._model("paper")
        assert traced_peak(lambda: self._model("paper")) < 15e6

    # one epoch of 188 graphs at batch 50, the Adam moments included:
    # paper 59.1 MB (97.7 MB before), small 12.8 MB (24.0 MB); keeping the
    # patches on the tape alone gives 70.6 MB and 17.1 MB
    @pytest.mark.parametrize("preset, bound", [("paper", 64e6), ("small", 15e6)],
                             ids=["paper", "small"])
    def test_epoch_holds_only_what_the_backward_reads(self, preset, bound):
        model = self._model(preset)
        model.predict(MUTAG_X[:5])
        peak = traced_peak(lambda: train_model(model, MUTAG_X, MUTAG_Y,
                                               TrainConfig(epochs=1, batch_size=50)))
        assert peak < bound, peak

    def test_steps_fault_in_no_freed_pages(self):
        # what a step frees stays with the allocator for the next step; with
        # glibc's defaults these 8 steps fault in about 12800 pages
        if models._MALLOPT is None:
            pytest.skip("the C library has no mallopt")
        model = self._model("small")
        train_model(model, MUTAG_X, MUTAG_Y, TrainConfig(epochs=1, batch_size=50))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_model(model, MUTAG_X, MUTAG_Y, TrainConfig(epochs=2, batch_size=50))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 800, faults

    # 188 graphs: paper 9.5 MB in chunks of 27 (66.2 MB at once), small
    # 6.8 MB in chunks of 73 (17.4 MB at once)
    @pytest.mark.parametrize("preset, bound", [("paper", 16e6), ("small", 10e6)],
                             ids=["paper", "small"])
    def test_predict_holds_one_chunk_of_patches(self, preset, bound):
        model = self._model(preset)
        model.predict(MUTAG_X[:5])
        peak = traced_peak(lambda: model.predict(MUTAG_X))
        assert peak < bound, peak


class TestInitialWeights:
    @pytest.mark.parametrize("shape", [(1000, 777), (3, 3, 8, 256), (5,), (2, 70000)])
    def test_row_blocks_draw_the_values_of_one_draw(self, shape):
        want = np.random.default_rng(27).normal(0.0, 0.3, shape).astype(np.float32)
        got = models._normal(np.random.default_rng(27), 0.3, shape)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build", [lambda: build_capsnet(8, 5, 4, 2, TOY_CFG, seed=28),
                                       lambda: build_cnn(8, 5, 4, 2, seed=28)],
                             ids=["capsnet", "cnn"])
    def test_parameters_do_not_depend_on_the_block(self, build, monkeypatch):
        whole = {n: p.data.tobytes() for n, p in build().params.items()}
        monkeypatch.setattr(models, "_DRAW_BLOCK", 1)  # one row per block
        for name, p in build().params.items():
            assert p.data.dtype == np.float32 and p.data.tobytes() == whole[name], name
