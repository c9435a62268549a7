import numpy as np
import pytest

from graphcaps import autodiff
from graphcaps.autodiff import (
    Tensor,
    caps_predict,
    conv2d,
    grad_check,
    no_grad,
    routing,
    squash_op,
)
from helpers import traced_peak


def naive_conv2d(x, k, b, stride):
    """Direct sextuple-loop cross-correlation; the independent conv oracle."""
    sh, sw = stride
    B, H, W, Cin = x.shape
    fh, fw, _, Cout = k.shape
    Ho, Wo = (H - fh) // sh + 1, (W - fw) // sw + 1
    out = np.zeros((B, Ho, Wo, Cout))
    for bb in range(B):
        for i in range(Ho):
            for j in range(Wo):
                for o in range(Cout):
                    acc = 0.0
                    for p in range(fh):
                        for q in range(fw):
                            for c in range(Cin):
                                acc += x[bb, i * sh + p, j * sw + q, c] * k[p, q, c, o]
                    out[bb, i, j, o] = acc + (b[o] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 5, 3))
        k = np.eye(3).reshape(1, 1, 3, 3)
        out = conv2d(x, k, np.zeros(3), stride=(1, 1))
        assert np.allclose(out.data, x)

    def test_zero_input_broadcasts_bias(self):
        x = np.zeros((1, 4, 4, 2))
        k = np.ones((2, 2, 2, 3))
        b = np.array([1.0, -2.0, 0.5])
        out = conv2d(x, k, b).data
        assert np.allclose(out, np.broadcast_to(b, out.shape))

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_matches_naive_loop_oracle(self, stride):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 1))
        b = rng.normal(size=1)
        got = conv2d(x, k, b, stride=stride).data
        want = naive_conv2d(x, k, b, stride)
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1), (3, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_patches_are_the_slice_gather(self, stride, dtype):
        # the window copy against the per-offset slice copies it replaced
        sh, sw = stride
        x = np.random.default_rng(2).normal(size=(2, 7, 6, 3)).astype(np.float32)
        fh, fw = 3, 2
        Ho, Wo = (7 - fh) // sh + 1, (6 - fw) // sw + 1
        want = np.empty((2, Ho, Wo, fh, fw, 3), dtype)
        for p in range(fh):
            for q in range(fw):
                want[:, :, :, p, q, :] = x[:, p : p + sh * Ho : sh, q : q + sw * Wo : sw, :]
        got = autodiff._patches(x, fh, fw, sh, sw, dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        # a non-contiguous input gives the same patches
        xt = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        assert autodiff._patches(xt, fh, fw, sh, sw, dtype).tobytes() == want.tobytes()

    def test_tiling_windows_are_the_input_itself(self):
        # kernel == stride over the rows of a one-column strip: no copy
        x = np.random.default_rng(3).normal(size=(2, 12, 1, 5))
        cols = autodiff._patches(x, 4, 1, 4, 1, x.dtype)
        assert np.shares_memory(cols, x) and cols.shape == (6, 20)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_relu_matches_the_relu_op(self, dtype):
        rng = np.random.default_rng(4)
        point = [rng.normal(size=(2, 6, 5, 3)), rng.normal(size=(3, 2, 3, 4)), rng.normal(size=4)]
        runs = []
        for fused in (True, False):
            x, k, b = (Tensor(a.astype(dtype), requires_grad=True) for a in point)
            out = conv2d(x, k, b, stride=(2, 1), relu=fused)
            out = out if fused else out.relu()
            ((out * out).sum()).backward()
            runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in (x, k, b)])
        assert runs[0] == runs[1]

    def test_geometry_errors(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(np.zeros((1, 4, 4, 2)), np.zeros((2, 2, 3, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="larger than input"):
            conv2d(np.zeros((1, 2, 2, 1)), np.zeros((3, 3, 1, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="expects"):
            conv2d(np.zeros((4, 4, 2)), np.zeros((2, 2, 2, 1)), np.zeros(1))


class TestCapsPredict:
    # the paper preset's shape at MUTAG: 672 primary capsules of 8 into 2 of
    # 16, batch 50, float32; the output and its gradient are 4.3 MB each.
    # Forward 5.0 MB and backward 6.1 MB, against 10.4 MB each with the
    # input, output and gradient copied into the GEMM's layout
    def test_forward_and_backward_copy_no_prediction_sized_array(self):
        rng = np.random.default_rng(10)
        u = Tensor(rng.normal(size=(50, 672, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(672, 2, 8, 16)).astype(np.float32), requires_grad=True)
        caps_predict(u, w).sum().backward()
        assert traced_peak(lambda: caps_predict(u, w)) < 6e6
        loss = caps_predict(u, w).sum()
        assert traced_peak(loss.backward) < 8e6

    def test_matches_the_einsum(self):
        rng = np.random.default_rng(11)
        u = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4, 2, 3)), requires_grad=True)
        out = caps_predict(u, w)
        g = rng.normal(size=out.data.shape)
        (out * Tensor(g)).sum().backward()
        assert np.allclose(out.data, np.einsum("bid,iode->bioe", u.data, w.data))
        assert np.allclose(u.grad, np.einsum("bioe,iode->bid", g, w.data))
        assert np.allclose(w.grad, np.einsum("bioe,bid->iode", g, u.data))


class TestElementwiseAndShapes:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        ta, tb = Tensor(a), Tensor(b)
        assert np.allclose((ta + tb).data, a + b)
        assert np.allclose((ta * tb).data, a * b)
        assert np.allclose((ta - tb).data, a - b)
        assert np.allclose((ta ** 3).data, a ** 3)
        assert np.allclose(ta.exp().data, np.exp(a))
        assert np.allclose((ta ** 2 + 1.0).log().data, np.log(a ** 2 + 1.0))
        assert np.allclose(ta.relu().data, np.maximum(a, 0.0))
        assert np.allclose(ta.sigmoid().data, 1.0 / (1.0 + np.exp(-a)))
        assert np.allclose(ta.reshape(4, 3).data, a.reshape(4, 3))
        assert np.allclose(ta.sum(axis=0).data, a.sum(0))
        assert np.allclose(ta.mean(axis=1, keepdims=True).data, a.mean(1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_the_where_form(self, dtype):
        a = np.random.default_rng(6).normal(size=(4, 37)).astype(dtype)
        a[0, :3] = 0.0
        t = Tensor(a, requires_grad=True)
        out = t.relu()
        out.sum().backward()
        assert out.data.tobytes() == np.where(a > 0, a, 0.0).astype(dtype).tobytes()
        assert np.array_equal(t.grad, (a > 0).astype(dtype))

    def test_relu_of_negative_zero_and_nan(self):
        # -0.0 gives a zero whose sign numpy's maximum leaves to the SIMD
        # path; NaN propagates, so a non-finite activation reaches the loss
        # check. Neither passes a gradient.
        t = Tensor(np.array([-0.0, np.nan, -np.inf, np.inf]), requires_grad=True)
        out = t.relu()
        out.sum().backward()
        assert out.data[0] == 0.0 and np.isnan(out.data[1])
        assert np.array_equal(out.data[2:], [0.0, np.inf])
        assert np.array_equal(t.grad, [0.0, 0.0, 0.0, 1.0])

    def test_broadcast_gradients(self):
        # (3,4) + (4,) bias: bias grad sums over the broadcast axis
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        ((x + b) * 2.0).sum().backward()
        assert np.array_equal(x.grad, np.full((3, 4), 2.0))
        assert np.array_equal(b.grad, np.full(4, 6.0))

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert x.grad == pytest.approx(12.0)

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._parents == ()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_leaf_callback_sees_final_gradients(self):
        # x feeds two ops, w one; each leaf is handed over once, after every
        # rule that feeds it, and may take its gradient
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        c = Tensor(np.array([5.0, 5.0]))  # needs no gradient: not handed over
        seen = []

        def take(leaf):
            seen.append((leaf, leaf.grad.copy()))
            leaf.grad = None

        ((x * w).sum() + (x * x * c).sum()).backward(on_leaf=take)
        assert [leaf for leaf, _ in seen] in ([x, w], [w, x])
        grads = {id(leaf): g for leaf, g in seen}
        assert np.array_equal(grads[id(x)], w.data + 10.0 * x.data)
        assert np.array_equal(grads[id(w)], x.data)
        assert x.grad is None and w.grad is None

    @staticmethod
    def _walk(loss, nodes, leaves):
        """The names of the rules and of the ``on_leaf`` calls of ``loss.backward``,
        in the order they happen, with each leaf's gradient as handed over."""
        events, grads = [], {}
        for name, node in nodes.items():
            def rule(g, name=name, run=node._backward):
                events.append(name)
                run(g)
            node._backward = rule
        names = {id(leaf): name for name, leaf in leaves.items()}

        def take(leaf):
            events.append(names[id(leaf)])
            grads[names[id(leaf)]] = leaf.grad

        loss.backward(on_leaf=take)
        return events, grads

    def test_each_leaf_is_handed_over_right_after_its_last_rule(self):
        # w2's gradient is final once the outer product's rule has run, so it
        # is handed over (and may be freed) before the inner product's rule
        rng = np.random.default_rng(6)
        x, w1, w2 = (Tensor(rng.normal(size=s), requires_grad=True)
                     for s in ((2, 3), (3, 4), (4, 5)))
        inner = x @ w1
        outer = inner @ w2
        loss = outer.sum()
        events, _ = self._walk(loss, {"sum": loss, "outer": outer, "inner": inner},
                               {"x": x, "w1": w1, "w2": w2})
        assert events[:4] == ["sum", "outer", "w2", "inner"]
        assert sorted(events[4:]) == ["w1", "x"]

    def test_a_leaf_fed_by_two_rules_waits_for_both(self):
        # w feeds the outer product directly and the inner one below it
        rng = np.random.default_rng(7)
        x, w = Tensor(rng.normal(size=(2, 3)), requires_grad=True), \
            Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        inner = x @ w
        outer = inner @ w
        loss = outer.sum()
        events, grads = self._walk(loss, {"sum": loss, "outer": outer, "inner": inner},
                                   {"x": x, "w": w})
        assert events[:3] == ["sum", "outer", "inner"] and sorted(events[3:]) == ["w", "x"]
        ones = np.ones((2, 3))
        assert np.allclose(grads["w"], x.data.T @ ones @ w.data.T + (x.data @ w.data).T @ ones)

    def test_backward_releases_the_tape(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * 3.0
        y = (h * h).sum()
        y.backward()
        assert np.array_equal(x.grad, 18.0 * x.data)  # leaves keep their gradient
        for node in (h, y):
            assert node.grad is None and node._parents == ()
        with pytest.raises(RuntimeError, match="released"):
            y.backward()
        with pytest.raises(RuntimeError, match="released"):
            (h * 2.0).sum().backward()  # a new graph over a released node
        assert np.array_equal(x.grad, 18.0 * x.data)


class TestGradCheck:
    def test_linear_map_machine_precision(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3))

        def f(x):
            return (x @ w).sum()

        err = grad_check(f, [rng.normal(size=(2, 4))])
        assert err < 1e-9

    def test_squash_gradient(self):
        rng = np.random.default_rng(4)
        err = grad_check(lambda v: (squash_op(v) ** 2).sum(), [rng.normal(size=(3, 5))])
        assert err < 1e-6

    def test_squash_gradient_at_zero(self):
        err = grad_check(lambda v: (squash_op(v) ** 2).sum(), [np.zeros((2, 3))])
        assert err < 1e-6

    @pytest.mark.parametrize(
        "name",
        ["matmul", "conv", "conv_relu", "caps_predict", "routing", "sigmoid"],
    )
    def test_every_op_differentiates(self, name):
        rng = np.random.default_rng(5)
        cases = {
            "matmul": (lambda a, b: (a @ b).sum(), [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]),
            "conv": (
                lambda x, k, b: (conv2d(x, k, b, stride=(2, 1)).relu() ** 2).sum(),
                [rng.normal(size=(2, 5, 4, 2)), rng.normal(size=(3, 2, 2, 3)), rng.normal(size=3)],
            ),
            "caps_predict": (
                lambda u, w: (caps_predict(u, w) ** 2).sum(),
                [rng.normal(size=(2, 4, 3)), rng.normal(size=(4, 2, 3, 5))],
            ),
            "routing": (
                lambda u: (routing(u, 3)[0] ** 2).sum(),
                [rng.normal(size=(2, 4, 3, 5))],
            ),
            "sigmoid": (lambda a: (a.sigmoid() ** 3).sum(), [rng.normal(size=(4,))]),
            # drawn last, so the other cases keep their points
            "conv_relu": (
                # sigmoid passes a gradient at 0, so only the mask stops it there
                lambda x, k, b: conv2d(x, k, b, stride=(2, 1), relu=True).sigmoid().sum(),
                [rng.normal(size=(2, 5, 4, 2)), rng.normal(size=(3, 2, 2, 3)), rng.normal(size=3)],
            ),
        }
        f, point = cases[name]
        assert grad_check(f, point) < 1e-6


class TestDtype:
    def test_floating_arrays_keep_their_dtype(self):
        for dtype in (np.float16, np.float32, np.float64):
            assert Tensor(np.ones(2, dtype=dtype)).data.dtype == dtype
        for data in (1, 2.5, [1, 2], np.arange(3), np.ones(2, dtype=bool)):
            assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize("name", ["add", "radd", "sub", "rsub", "mul", "rmul", "pow",
                                      "mean", "relu", "sigmoid", "sqrt"])
    def test_python_numbers_take_the_tensor_dtype(self, name):
        ops = {
            "add": lambda t: t + 1.5, "radd": lambda t: 1.5 + t,
            "sub": lambda t: t - 1.5, "rsub": lambda t: 1.5 - t,
            "mul": lambda t: t * 1.5, "rmul": lambda t: 1.5 * t,
            "pow": lambda t: t ** 2, "mean": lambda t: t.mean(axis=0),
            "relu": lambda t: t.relu(), "sigmoid": lambda t: t.sigmoid(),
            "sqrt": lambda t: t.sqrt(),
        }
        t = Tensor(np.linspace(0.5, 2.0, 6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = ops[name](t)
        out.sum().backward()
        assert out.data.dtype == np.float32 and t.grad.dtype == np.float32

    def test_mixed_inputs_follow_numpy_promotion(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = a @ b
        out.sum().backward()
        assert out.data.dtype == np.float64 and b.grad.dtype == np.float64

    @pytest.mark.parametrize("dtypes", [("float32",) * 3, ("float32", "float32", "float64"),
                                        ("float64", "float32", "float32")])
    def test_conv2d_runs_in_the_promoted_dtype(self, dtypes):
        rng = np.random.default_rng(8)
        shapes = [(2, 5, 4, 2), (3, 2, 2, 3), (3,)]
        x, k, b = (Tensor(rng.normal(size=s).astype(d), requires_grad=True)
                   for s, d in zip(shapes, dtypes))
        out = conv2d(x, k, b, stride=(2, 1))
        out.sum().backward()
        expected = np.result_type(*dtypes)
        assert out.data.dtype == expected
        assert x.grad.dtype == k.grad.dtype == b.grad.dtype == expected
        oracle = naive_conv2d(x.data, k.data, b.data, (2, 1))
        assert np.allclose(out.data, oracle, atol=1e-5 if expected == np.float32 else 1e-12)

    def test_grad_check_runs_float32_points_in_float64(self):
        rng = np.random.default_rng(9)
        point = [rng.normal(size=(3, 5)).astype(np.float32)]
        assert grad_check(lambda v: (squash_op(v) ** 2).sum(), point) < 1e-6
