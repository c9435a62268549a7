import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from graphcaps import nn
from graphcaps.autodiff import Tensor, routing, squash_op
from graphcaps.nn import (
    NORM_EPS,
    AdamState,
    TrainingError,
    adam_step,
    binary_margin_loss,
    capsule_norms,
    cross_entropy,
    dynamic_routing,
    margin_loss,
    reconstruction_loss,
    squash,
    total_loss,
)


class TestSquash:
    def test_zero_vector_maps_to_zero(self):
        assert np.array_equal(squash(np.zeros(4)).data, np.zeros(4))

    def test_unit_vector_halves(self):
        e = np.array([1.0, 0.0, 0.0])
        assert np.allclose(squash(e).data, 0.5 * e, atol=1e-8)

    def test_norm_three_shrinks_to_nine_tenths(self):
        v = np.array([0.0, 3.0])
        assert np.allclose(squash(v).data, np.array([0.0, 0.9]), atol=1e-8)

    @given(arrays(np.float64, (4,), elements=st.floats(-5, 5)))
    def test_norm_below_one_direction_preserved(self, v):
        out = squash(v).data
        assert np.linalg.norm(out) < 1.0
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            cos = out @ v / (np.linalg.norm(out) * norm)
            assert cos == pytest.approx(1.0, abs=1e-12)


def oracle_routing(u_hat: Tensor, iterations: int):
    """Routing-by-agreement taped round by round from elementary Tensor ops:
    (output capsules, per-round (B, n_in, n_out) couplings)."""
    B, n_in, n_out, d = u_hat.data.shape
    logits = Tensor(np.zeros((B, n_in, n_out)))
    couplings = []
    for it in range(iterations):
        e = logits.exp()
        c = e / e.sum(axis=2, keepdims=True)
        couplings.append(c.data)
        v = squash_op((c.reshape(B, n_in, n_out, 1) * u_hat).sum(axis=1), eps=NORM_EPS)
        if it < iterations - 1:
            logits = logits + (u_hat * v.reshape(B, 1, n_out, d)).sum(axis=3)
    return v, couplings


class TestRouting:
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("n_out", [2, 3])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_fused_op_matches_taped_oracle(self, batch, n_out, iterations):
        rng = np.random.default_rng([batch, n_out, iterations])
        u = rng.normal(size=(batch, 5, n_out, 4))
        weights = rng.normal(size=(batch, n_out, 4))
        fused = Tensor(u.copy(), requires_grad=True)
        v, trace = routing(fused, iterations, eps=NORM_EPS)
        (v * Tensor(weights)).sum().backward()
        taped = Tensor(u, requires_grad=True)
        v_ref, trace_ref = oracle_routing(taped, iterations)
        (v_ref * Tensor(weights)).sum().backward()
        assert v.data.shape == (batch, n_out, 4)
        assert np.allclose(v.data, v_ref.data, rtol=0.0, atol=1e-12)
        assert np.allclose(fused.grad, taped.grad, rtol=0.0, atol=1e-10)
        assert len(trace) == iterations
        for c, c_ref in zip(trace, trace_ref):
            assert np.allclose(c, c_ref.transpose(0, 2, 1), rtol=0.0, atol=1e-12)

    def test_single_pair_reduces_to_squash(self):
        rng = np.random.default_rng(0)
        u_hat = rng.normal(size=(1, 1, 1, 4))
        out = dynamic_routing(u_hat, iterations=3)
        assert np.allclose(out.data[0], squash(u_hat[0, 0]).data, atol=1e-12)

    def test_one_iteration_uses_uniform_coupling(self):
        rng = np.random.default_rng(1)
        u_hat = rng.normal(size=(1, 5, 3, 4))
        out, trace = routing(u_hat, iterations=1, eps=NORM_EPS)
        assert np.allclose(trace[0], 1.0 / 3.0)
        expected = squash(Tensor(u_hat[0].mean(axis=0) * 5 / 3)).data  # sum_i (1/3) u_i
        assert np.allclose(out.data[0], expected, atol=1e-12)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 4, 5])
    def test_coupling_rows_sum_to_one(self, iterations):
        rng = np.random.default_rng(iterations)
        u_hat = rng.normal(size=(2, 6, 3, 4))
        _, trace = routing(u_hat, iterations)
        assert len(trace) == iterations
        for c in trace:  # (B, n_out, n_in): each input's couplings over the outputs
            assert np.allclose(c.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="at least one"):
            dynamic_routing(np.zeros((1, 1, 1, 2)), iterations=0)

    def test_rejects_unbatched_predictions(self):
        with pytest.raises(ValueError, match=r"\(B, n_in, n_out, d\)"):
            dynamic_routing(np.zeros((1, 1, 2)), iterations=1)


class TestMarginLoss:
    def test_ideal_configuration_is_zero(self):
        norms = np.array([[0.9, 0.1, 0.1]])
        assert margin_loss(norms, target=[0]).item() == 0.0

    def test_dead_capsules_cost_081(self):
        norms = np.zeros((1, 3))
        assert margin_loss(norms, target=[0]).item() == pytest.approx(0.9**2)

    def test_wrong_class_down_weighted(self):
        norms = np.array([[0.9, 1.0]])
        assert margin_loss(norms, target=[0], lam=0.5).item() == pytest.approx(0.5 * 0.9**2)

    def test_non_negative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            norms = rng.uniform(0, 1, size=(1, 4))
            assert margin_loss(norms, target=rng.integers(0, 4, size=1)).item() >= 0.0

    def test_batched_mean(self):
        norms = np.array([[0.9, 0.1], [0.0, 0.0]])
        got = margin_loss(norms, target=[0, 1]).item()
        assert got == pytest.approx((0.0 + 0.9**2 + 0.5 * 0.0) / 2)


class TestBinaryLoss:
    def test_equal_norms_give_ln2(self):
        assert binary_margin_loss(np.array([[0.4, 0.4]]), [0]).item() == pytest.approx(math.log(2))

    def test_confident_correct_goes_to_zero(self):
        # widen the gap artificially; loss must shrink toward 0
        losses = [
            binary_margin_loss(np.array([[gap, 0.0]]), [0]).item() for gap in (1.0, 5.0, 20.0)
        ]
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-8

    def test_matches_scalar_oracle(self):
        # independent scalar evaluation of -log softmax([0.9, 0.1])[0]
        z0, z1 = 0.9, 0.1
        expected = -math.log(math.exp(z0) / (math.exp(z0) + math.exp(z1)))
        assert binary_margin_loss(np.array([[z0, z1]]), [0]).item() == pytest.approx(expected,
                                                                                     abs=1e-12)

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="exactly 2"):
            binary_margin_loss(np.array([[0.5, 0.2, 0.3]]), [0])

    @pytest.mark.parametrize("loss", [margin_loss, binary_margin_loss, cross_entropy])
    def test_unbatched_scores_rejected(self, loss):
        with pytest.raises(ValueError, match=r"\(B, C\) batch"):
            loss(np.array([0.4, 0.6]), 0)

    def test_cross_entropy_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        per_sample = []
        for row, t in zip(logits, targets):
            shifted = row - row.max()
            per_sample.append(-(shifted[t] - math.log(np.exp(shifted).sum())))
        got = cross_entropy(logits, targets).item()
        assert got == pytest.approx(float(np.mean(per_sample)), abs=1e-12)


class TestReconstructionAndTotal:
    def test_identical_tensors_zero(self):
        x = np.ones((3, 4))
        assert reconstruction_loss(x, x).item() == 0.0

    def test_all_ones_difference(self):
        a, b = np.ones((2, 5)), np.zeros((2, 5))
        assert reconstruction_loss(a, b).item() == 1.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        want = sum((x - y) ** 2 for x, y in zip(a.flat, b.flat)) / a.size
        assert reconstruction_loss(a, b).item() == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            reconstruction_loss(np.ones(3), np.ones(4))

    def test_total_loss_identities(self):
        assert total_loss(Tensor(0.0), Tensor(0.0)).item() == 0.0
        assert total_loss(Tensor(0.81), Tensor(0.0), alpha=1.0).item() == pytest.approx(0.81)
        assert total_loss(Tensor(0.3), Tensor(0.2), alpha=0.5).item() == pytest.approx(0.4)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        state = AdamState(base_lr=0.1)
        adam_step(p, {"w": np.zeros(2)}, state, epoch=0)
        assert np.array_equal(p["w"].data, np.array([1.0, 2.0]))
        assert state.t == 1

    def test_first_step_is_minus_lr(self):
        p = {"w": Tensor(np.array(5.0), requires_grad=True)}
        state = AdamState(base_lr=0.01)
        adam_step(p, {"w": np.array(1.0)}, state, epoch=0)
        # bias correction is exact at t=1 so the step is lr/(1 + eps)
        assert float(p["w"].data) == pytest.approx(5.0 - 0.01 / (1.0 + 1e-8), abs=1e-15)

    def test_two_steps_match_hand_trace(self):
        # f(x) = x^2 from x = 1, lr = 0.1: grad = 2x
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x = 1.0
        m = v = 0.0
        trace = []
        for t in (1, 2):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            x = x - lr * mh / (math.sqrt(vh) + eps)
            trace.append(x)

        p = {"x": Tensor(np.array(1.0), requires_grad=True)}
        state = AdamState(base_lr=lr)
        for step, want in zip(range(2), trace):
            g = 2.0 * p["x"].data
            adam_step(p, {"x": g}, state, epoch=0)
            assert float(p["x"].data) == pytest.approx(want, abs=1e-15)

    def test_float32_steps_match_the_textbook_expression_bitwise(self):
        rng = np.random.default_rng(3)
        start = rng.standard_normal((40, 30)).astype(np.float32)
        grads = [rng.standard_normal((40, 30)).astype(np.float32) for _ in range(4)]
        p = {"w": Tensor(start.copy(), requires_grad=True)}
        state = AdamState(base_lr=0.01, decay=0.3)
        want, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for t, g in enumerate(grads, start=1):
            adam_step(p, {"w": g}, state, epoch=t)
            if t == 1:
                moments = state.m["w"], state.v["w"]
            lr = state.effective_lr(t)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * (g * g)
            want = want - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert p["w"].data.dtype == want.dtype == np.float32
            assert np.array_equal(p["w"].data, want)
        assert moments[0] is state.m["w"] and moments[1] is state.v["w"]

    def test_sliced_update_is_bitwise_the_whole_parameter_update(self):
        # the update as one pass per operation over each whole parameter
        def whole_adam(p, m, v, g, t, lr):
            step, denom = np.empty_like(p), np.empty_like(p)
            m *= 0.9
            m += np.multiply(g, 1.0 - 0.9, out=step)
            v *= 0.999
            v += np.multiply(np.multiply(g, g, out=step), 1.0 - 0.999, out=step)
            np.sqrt(np.divide(v, 1.0 - 0.999**t, out=denom), out=denom)
            denom += 1e-8
            np.multiply(np.divide(m, 1.0 - 0.9**t, out=step), lr, out=step)
            p -= np.divide(step, denom, out=step)

        rng = np.random.default_rng(8)
        shapes = {"big": (3 * nn._ADAM_SLICE + 123,), "conv": (3, 3, 5, 8), "scalar": (),
                  "wide": (2, nn._ADAM_SLICE + 7)}
        start = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        start["transposed"] = rng.standard_normal((40, 30)).astype(np.float32).T
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
        want = {k: a.copy() for k, a in start.items()}
        moments = {k: (np.zeros_like(a), np.zeros_like(a)) for k, a in start.items()}
        state = AdamState(base_lr=0.01, decay=0.2)
        for t in range(1, 31):
            # "conv" takes float64 gradients, as the layer probe passes them
            grads = {k: rng.standard_normal(a.shape).astype(
                np.float64 if k == "conv" else np.float32) for k, a in start.items()}
            adam_step(params, grads, state, epoch=t // 4)
            for k, g in grads.items():
                whole_adam(want[k], *moments[k], g, t, state.effective_lr(t // 4))
        for k in start:
            assert params[k].data.tobytes() == want[k].tobytes(), k

    def test_nonfinite_gradient_leaves_the_parameter_unchanged(self):
        start = np.arange(2 * nn._ADAM_SLICE + 5, dtype=np.float32)
        p = {"w": Tensor(start.copy(), requires_grad=True)}
        g = np.ones_like(start)
        g[-1] = np.inf  # in the last slice
        with pytest.raises(TrainingError, match="'w'"):
            adam_step(p, {"w": g}, AdamState(0.1), 0)
        assert np.array_equal(p["w"].data, start)

    def test_nonfinite_gradient_names_parameter(self):
        p = {"bad_param": Tensor(np.ones(2), requires_grad=True)}
        with pytest.raises(TrainingError, match="bad_param"):
            adam_step(p, {"bad_param": np.array([1.0, np.nan])}, AdamState(0.1), 0)

    def test_lr_decay_with_floor(self):
        state = AdamState(base_lr=1e-3, decay=0.5)
        assert state.effective_lr(0) == pytest.approx(1e-3)
        assert state.effective_lr(4) == pytest.approx(1e-3 * math.exp(-2.0))
        assert state.effective_lr(1000) == 1e-6  # floored

    def test_converges_on_two_parameter_toy(self):
        # minimize (a - 3)^2 + (b + 1)^2
        p = {
            "a": Tensor(np.array(0.0), requires_grad=True),
            "b": Tensor(np.array(0.0), requires_grad=True),
        }
        state = AdamState(base_lr=0.05)
        for step in range(2000):
            loss = (p["a"].data - 3.0) ** 2 + (p["b"].data + 1.0) ** 2
            if loss < 1e-6:
                break
            grads = {"a": 2 * (p["a"].data - 3.0), "b": 2 * (p["b"].data + 1.0)}
            adam_step(p, grads, state, epoch=0)
        assert loss < 1e-6


class TestCapsuleNorms:
    @given(arrays(np.float64, (3, 4), elements=st.floats(-3, 3)))
    def test_matches_numpy_norm(self, v):
        got = capsule_norms(v).data
        want = np.sqrt((v**2).sum(axis=-1) + 1e-9)
        assert np.allclose(got, want, atol=1e-12)
