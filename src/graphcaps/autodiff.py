"""Minimal dense-tensor kernel with reverse-mode gradients.

Just enough ops for the models in this project: elementwise arithmetic,
matmul, valid-padding 2-D convolution, reductions, the capsule
prediction contraction, the capsule squash, and routing-by-agreement as one
op (:func:`routing`, whose backward replays the stored rounds).  Arrays are
row-major numpy; convolution gathers its patches with one strided-window
copy, so the heavy lifting stays in BLAS, and gathers them again in the
backward rather than keeping them on the tape.

The dtype follows the data: a :class:`Tensor` keeps the floating dtype of
the array it wraps, so float32 inputs and parameters train in float32, and
mixed inputs follow numpy promotion.  Python numbers an op combines with a
tensor take that tensor's dtype, so a constant never upcasts a float32
graph.  :func:`grad_check` runs in float64.

Gradients are accumulated over a taped graph; ``Tensor.backward()`` walks the
tape in reverse topological order and releases each intermediate node's rule,
parents and gradient once its rule has run, and lets go of the node, so a
step's tape is freed as it is consumed and a graph can be walked only once.
Leaves keep their gradients unless a callback consumes them: a leaf is
reached only after every rule that feeds its gradient, so
``backward(on_leaf)`` hands each one over as soon as its gradient is final,
and an optimizer can update it and drop the gradient there.  Ops performed
inside :func:`no_grad` (or on tensors that do not require gradients) record
nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

_GRAD_ENABLED = True

# Stabilizer added inside the norm square root; keeps squash and capsule norms
# differentiable at the zero vector.  Included in all gradient checks.
NORM_EPS = 1e-9

# grad_check's central-difference step and the floor of its error denominator
_FD_STEP, _FD_REL_FLOOR = 1e-5, 1e-6


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _released(g):
    raise RuntimeError(
        "backward() reached a node whose graph an earlier backward() released; "
        "run the forward pass again to rebuild it"
    )


class Tensor:
    """A floating ndarray plus an optional gradient tape entry.

    A floating array keeps its dtype; anything else (Python numbers, lists,
    integer or boolean arrays) becomes float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x, like: "Tensor | None" = None) -> "Tensor":
        """``x`` as a Tensor; a Python number combined with ``like`` takes its
        dtype (numpy >= 2 would let a float64 0-d constant upcast it)."""
        if isinstance(x, Tensor):
            return x
        if like is not None and isinstance(x, (int, float)):
            return Tensor(np.asarray(x, dtype=like.data.dtype))
        return Tensor(x)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # first contribution copies (g may be a view into another grad buffer
        # that is also handed to a second parent)
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g

    def _accumulate_owned(self, g: np.ndarray):
        # fast path for backward rules that pass a freshly allocated array (or
        # a view of one) given to this parent only; ownership transfers
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other, like=self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(-g)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other):
        return self + (-Tensor._lift(other, like=self))

    def __rsub__(self, other):
        return Tensor._lift(other, like=self) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other, like=self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate_owned(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g * exponent * a.data ** (exponent - 1))

        return Tensor._make(a.data**exponent, (a,), backward)

    def __matmul__(self, other):
        other = Tensor._lift(other, like=self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
                b._accumulate_owned(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

        return Tensor._make(a.data @ b.data, (a, b), backward)

    # -- elementwise functions ---------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g * out_data)

        return Tensor._make(out_data, (a,), backward)

    def log(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g / a.data)

        return Tensor._make(np.log(a.data), (a,), backward)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g * 0.5 / out_data)

        return Tensor._make(out_data, (a,), backward)

    def relu(self):
        a = self
        mask = a.data > 0

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g * mask)

        # one pass; NaN stays NaN, and -0.0 maps to a zero of either sign
        return Tensor._make(np.maximum(a.data, 0), (a,), backward)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), backward)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        a = self
        old_shape = a.data.shape

        def backward(g):
            if a.requires_grad:
                a._accumulate_owned(g.reshape(old_shape))

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        in_shape = a.data.shape

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate_owned(np.broadcast_to(g, in_shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate_owned(np.broadcast_to(g, in_shape).copy())

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- tape -----------------------------------------------------------------

    def backward(self, on_leaf=None):
        """Fill the gradients of this scalar's graph.  ``on_leaf(leaf)``, if
        given, is called for each leaf that requires a gradient as soon as
        that gradient is final, and may consume it."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:  # popped, so that a node whose rule has run can be freed
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _released, ()
            elif on_leaf is not None and node.requires_grad:
                on_leaf(node)


# ---------------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------------


def _patches(x: np.ndarray, fh: int, fw: int, sh: int, sw: int, dtype) -> np.ndarray:
    """The ``(B*Ho*Wo, fh*fw*Cin)`` im2col matrix of the ``(B, H, W, Cin)``
    array ``x`` in ``dtype``: one copy of a strided ``(B, Ho, Wo, fh, fw*Cin)``
    window view, and no copy where the windows tile ``x`` in order."""
    x = np.ascontiguousarray(x)
    B, H, W, Cin = x.shape
    Ho, Wo = (H - fh) // sh + 1, (W - fw) // sw + 1
    s0, s1, s2, s3 = x.strides
    windows = as_strided(x, (B, Ho, Wo, fh, fw * Cin), (s0, sh * s1, sw * s2, s1, s3),
                         writeable=False)
    return np.asarray(windows, dtype=dtype, order="C").reshape(B * Ho * Wo, fh * fw * Cin)


def conv2d(x, kernels, bias, stride=(1, 1), relu=False):
    """Valid-padding cross-correlation, followed by a ReLU if ``relu``.

    x: (B, H, W, Cin); kernels: (fh, fw, Cin, Cout); bias: (Cout,).
    Output: (B, Ho, Wo, Cout) with Ho = (H - fh)//sh + 1, Wo = (W - fw)//sw + 1.
    The patches are gathered (im2col) so each direction is one GEMM, and
    gathered again in the backward for the kernel gradient rather than held
    until then.  The fused ReLU masks the gradient by the op's own output,
    which is positive exactly where its input was.
    """
    x = Tensor._lift(x)
    kernels = Tensor._lift(kernels)
    if isinstance(stride, int):
        stride = (stride, stride)
    sh, sw = stride
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ValueError(
            f"conv2d expects x (B,H,W,Cin) and kernels (fh,fw,Cin,Cout), "
            f"got {x.data.shape} and {kernels.data.shape}"
        )
    B, H, W, Cin = x.data.shape
    fh, fw, kin, Cout = kernels.data.shape
    if kin != Cin:
        raise ValueError(f"input has {Cin} channels but kernels expect {kin}")
    if fh > H or fw > W:
        raise ValueError(f"kernel {fh}x{fw} larger than input {H}x{W}")
    Ho = (H - fh) // sh + 1
    Wo = (W - fw) // sw + 1
    b = Tensor._lift(bias)
    if b.data.shape != (Cout,):
        raise ValueError(f"bias shape {b.data.shape} != ({Cout},)")

    # the patches take the promoted dtype, so the GEMM and the bias add run in it
    dtype = np.result_type(x.data, kernels.data, b.data)
    k2d = kernels.data.reshape(fh * fw * Cin, Cout)
    cols = _patches(x.data, fh, fw, sh, sw, dtype)
    out_data = (cols @ k2d).reshape(B, Ho, Wo, Cout)
    out_data += b.data
    if relu:  # one pass; NaN stays NaN, and -0.0 maps to a zero of either sign
        np.maximum(out_data, 0, out=out_data)

    def backward(g):
        if relu:  # g is this node's own gradient buffer: mask it in place
            g *= out_data > 0
        g2d = g.reshape(-1, Cout)
        if b.requires_grad:
            b._accumulate_owned(g2d.sum(axis=0))
        # the patches are freed before dcols is made
        if kernels.requires_grad:
            dk = _patches(x.data, fh, fw, sh, sw, dtype).T @ g2d
            kernels._accumulate_owned(dk.reshape(fh, fw, Cin, Cout))
        if x.requires_grad:
            dcols = (g2d @ k2d.T).reshape(B, Ho, Wo, fh, fw, Cin)
            dx = np.zeros_like(x.data, dtype=dcols.dtype)
            for p in range(fh):
                for q in range(fw):
                    dx[:, p : p + sh * Ho : sh, q : q + sw * Wo : sw, :] += dcols[:, :, :, p, q, :]
            x._accumulate_owned(dx)

    return Tensor._make(out_data, (x, kernels, b), backward)


def caps_predict(u, weights):
    """Per-pair linear maps from input to output capsule space.

    u: (B, n_in, d_in); weights: (n_in, n_out, d_in, d_out).
    Output predictions: (B, n_in, n_out, d_out).  Expressed as one batched
    GEMM over the n_in axis.
    """
    u = Tensor._lift(u)
    weights = Tensor._lift(weights)
    B, n_in, d_in = u.data.shape
    w_in, n_out, wd_in, d_out = weights.data.shape
    if (w_in, wd_in) != (n_in, d_in):
        raise ValueError(
            f"weights {weights.data.shape} incompatible with inputs {u.data.shape}"
        )
    # (n_in, B, d_in) @ (n_in, d_in, n_out*d_out) -> (n_in, B, n_out*d_out)
    w_flat = np.ascontiguousarray(
        weights.data.transpose(0, 2, 1, 3).reshape(n_in, d_in, n_out * d_out)
    )
    u_t = np.ascontiguousarray(u.data.transpose(1, 0, 2))
    out_data = (u_t @ w_flat).reshape(n_in, B, n_out, d_out).transpose(1, 0, 2, 3)

    def backward(g):
        g_t = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(n_in, B, n_out * d_out)
        if u.requires_grad:
            du = (g_t @ w_flat.transpose(0, 2, 1)).transpose(1, 0, 2)
            u._accumulate_owned(du)
        if weights.requires_grad:
            dw_flat = u_t.transpose(0, 2, 1) @ g_t  # (n_in, d_in, n_out*d_out)
            weights._accumulate_owned(
                dw_flat.reshape(n_in, d_in, n_out, d_out).transpose(0, 2, 1, 3)
            )

    return Tensor._make(np.ascontiguousarray(out_data), (u, weights), backward)


def _squash(v: np.ndarray):
    """Capsule squash along the last axis, ``v * nsq / ((1+nsq) sqrt(nsq+eps))``
    with nsq = |v|^2 and eps = :data:`NORM_EPS`, and the factors its gradient
    reuses."""
    nsq = (v * v).sum(axis=-1, keepdims=True)
    root = np.sqrt(nsq + NORM_EPS)
    scale = nsq / ((1.0 + nsq) * root)
    return v * scale, (nsq, root, scale)


def _squash_grad(g: np.ndarray, v: np.ndarray, factors) -> np.ndarray:
    """Gradient of :func:`_squash` at ``v`` for the output gradient ``g``."""
    nsq, root, scale = factors
    # d scale / d nsq, written to stay finite at nsq = 0
    denom = (1.0 + nsq) * root
    dscale = (
        1.0 / denom
        - nsq / ((1.0 + nsq) * denom)
        - 0.5 * nsq / (denom * (nsq + NORM_EPS))
    )
    inner = (g * v).sum(axis=-1, keepdims=True)
    return g * scale + v * (2.0 * inner * dscale)


def squash_op(v):
    """Fused capsule squash along the last axis (see :func:`_squash`)."""
    v = Tensor._lift(v)
    out_data, factors = _squash(v.data)

    def backward(g):
        if v.requires_grad:
            v._accumulate_owned(_squash_grad(g, v.data, factors))

    return Tensor._make(out_data, (v,), backward)


def routing(predictions, iterations: int):
    """Routing-by-agreement (Sabour et al. 2017) over (B, n_in, n_out, d)
    predictions, as one op; see :func:`graphcaps.nn.dynamic_routing`.
    Returns the (B, n_out, d) output capsules and each round's (B, n_out, n_in)
    couplings.  The logits are (B, n_out, n_in), so the softmax reduces over
    an outer axis.  The backward replays the stored rounds in reverse and
    forms the predictions' gradient as one GEMM per (batch, output capsule):
    the stacked couplings and logit gradients, n_in x (2T-1), times the
    stacked sum gradients and outputs, (2T-1) x d.
    """
    u = Tensor._lift(predictions)
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    if u.data.ndim != 4:
        raise ValueError(f"predictions must be (B, n_in, n_out, d), got shape {u.data.shape}")
    B, n_in, n_out, d = u.data.shape
    T, dtype = iterations, u.data.dtype
    u_t = u.data.transpose(0, 2, 1, 3)  # (B, n_out, n_in, d), a view
    keep = _GRAD_ENABLED and u.requires_grad
    # rows < T: the couplings; the backward writes the logit gradients into rows >= T
    lhs = np.empty((B, n_out, 2 * T - 1, n_in), dtype=dtype) if keep else None
    saved, couplings = [], []
    logits = np.zeros((B, n_out, n_in), dtype=dtype)
    for t in range(T):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        c = e / e.sum(axis=1, keepdims=True)
        s = (c[:, :, None, :] @ u_t)[:, :, 0, :]
        v, factors = _squash(s)
        if t < T - 1:
            logits += (u_t @ v[:, :, :, None])[:, :, :, 0]
        couplings.append(c)
        if keep:
            lhs[:, :, t] = c
            saved.append((s, v, factors))

    def backward(g):
        rhs = np.empty((B, n_out, 2 * T - 1, d), dtype=dtype)  # sum grads, then outputs
        g_logits = np.zeros((B, n_out, n_in), dtype=dtype)  # of the next round's logits
        g_v = g
        for t in reversed(range(T)):
            s, v, factors = saved[t]
            if t < T - 1:  # next logits = these logits + u_t @ v
                lhs[:, :, T + t] = g_logits
                rhs[:, :, T + t] = v
                g_v = (g_logits[:, :, None, :] @ u_t)[:, :, 0, :]
            g_s = _squash_grad(g_v, s, factors)
            rhs[:, :, t] = g_s
            if t > 0:  # the first round's logits are the constant zero
                c = lhs[:, :, t]
                g_c = (u_t @ g_s[:, :, :, None])[:, :, :, 0]
                g_logits += c * (g_c - (g_c * c).sum(axis=1, keepdims=True))
        g_u = np.empty_like(u.data)
        np.matmul(lhs.swapaxes(2, 3), rhs, out=g_u.transpose(0, 2, 1, 3))
        u._accumulate_owned(g_u)

    return Tensor._make(v, (u,), backward), couplings


def grad_check(f, point) -> float:
    """Max elementwise relative error between reverse-mode and central
    finite-difference gradients of the scalar map ``f``.

    ``point`` is a sequence of arrays; ``f`` receives one Tensor per array and
    returns a scalar Tensor.  The differences step by ``h = 1e-5``; the error
    denominator is floored at 1e-6, so elements whose true gradient is ~0 are
    compared absolutely at that scale.  The point is converted to float64
    whatever its dtype: central differences at that ``h`` are meaningless in
    float32.
    """
    tensors = [Tensor(np.array(p, dtype=np.float64), requires_grad=True) for p in point]
    out = f(*tensors)
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    for ti, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + _FD_STEP
            with no_grad():
                hi = f(*tensors).item()
            flat[j] = orig - _FD_STEP
            with no_grad():
                lo = f(*tensors).item()
            flat[j] = orig
            fd[j] = (hi - lo) / (2.0 * _FD_STEP)
        ref = analytic[ti].reshape(-1)
        denom = np.maximum(np.abs(ref) + np.abs(fd), _FD_REL_FLOOR)
        worst = max(worst, float(np.max(np.abs(ref - fd) / denom)))
    return worst
