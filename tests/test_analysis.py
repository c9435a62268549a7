import functools
import inspect
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from graphcaps import _pool, analysis
from graphcaps.analysis import (
    cluster_distances,
    joint_probabilities,
    kl_divergence,
    perplexity_search,
    tsne,
    write_distances_csv,
    write_embeddings_csv,
)
from graphcaps.models import CapsNetConfig, build_capsnet, build_cnn
from helpers import traced_peak


def two_blobs(n_per=10, dims=50, gap=5.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, dims)) - gap
    b = rng.normal(0.0, 1.0, (n_per, dims)) + gap
    points = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return points, labels


def small_capsnet():
    cfg = CapsNetConfig(conv_filters=8, primary_channels=2, primary_dim=4, primary_kernel=2,
                        primary_stride=1, caps_dim=6, decoder_hidden=(8, 12))
    return build_capsnet(8, 5, 4, 2, cfg, seed=0)


class TestInnerFeatures:
    """The layers `graphcaps embed --source cnn|caps` reads (`raw` is the
    flattened input: see test_cli's TestEmbedAndReport)."""

    def setup_method(self):
        rng = np.random.default_rng(1)
        self.x = np.zeros((6, 8, 5, 4))
        idx = rng.integers(0, 4, size=(6, 8, 5))
        for b in range(6):
            for i in range(8):
                for j in range(5):
                    self.x[b, i, j, idx[b, i, j]] = 1.0

    def test_primary_caps_dimensionality(self):
        model = small_capsnet()
        points = model.inner_features(self.x)
        assert points.shape == (6, model.n_primary * model.cfg.primary_dim)

    def test_cnn_inner_dimensionality(self):
        model = build_cnn(8, 5, 4, 2, seed=0)
        points = model.inner_features(self.x)
        assert points.shape == (6, 128)

    def test_identical_inputs_identical_rows(self):
        pair = np.concatenate([self.x[:1], self.x[:1]])
        for model in (small_capsnet(), build_cnn(8, 5, 4, 2, seed=0)):
            points = model.inner_features(pair)
            assert np.array_equal(points[0], points[1])

    @pytest.mark.parametrize("source", ["caps", "cnn"])
    def test_model_reads_inputs_at_its_parameter_dtype(self, source):
        model = small_capsnet() if source == "caps" else build_cnn(8, 5, 4, 2, seed=0)
        # the input boundary casts: the layers see the parameters' dtype
        layer = "_primary_capsules" if source == "caps" else "_features"
        seen = []
        features = getattr(model, layer)
        setattr(model, layer, lambda xb: seen.append(xb.data.dtype) or features(xb))
        points = model.inner_features(self.x)  # self.x is float64
        assert seen == [np.float32] and points.dtype == np.float32


def oracle_entropy_and_probs(row, beta):
    """Entropy and probabilities of one conditional distribution p_{j|i}."""
    p = np.exp(-row * beta)
    s = p.sum()
    if s <= 0.0:
        return 0.0, np.zeros_like(p)
    p /= s
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum()), p


def oracle_perplexity_search(d2, perplexity, tol=1e-4, max_steps=100):
    """The per-point bisection, one row at a time: the loop the vectorised,
    threaded search must reproduce bit for bit."""
    entropy_and_probs = oracle_entropy_and_probs
    m = d2.shape[0]
    target = float(np.log(perplexity))
    P = np.zeros((m, m))
    betas = np.ones(m)
    for i in range(m):
        row = np.delete(d2[i], i)
        if row.max() <= 0.0:
            raise ValueError(f"point {i} has zero distance to all others")
        beta, lo, hi = 1.0, 0.0, np.inf
        h, p = entropy_and_probs(row, beta)
        for _ in range(max_steps):
            if abs(h - target) <= tol:
                break
            if h > target:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else (beta + lo) / 2.0
            h, p = entropy_and_probs(row, beta)
        betas[i] = beta
        P[i, :i] = p[:i]
        P[i, i + 1 :] = p[i:]
    return P, betas


def sq_dists(x):
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def underflow_points():
    """Two tight 1-D clusters and three far, lone points: at the first
    precision (beta = 1) every term of a lone point's row underflows (the
    all-zero branch), and a clustered point's far terms underflow while its
    near ones do not."""
    x = np.concatenate([np.arange(6) * 0.7, 30.0 + np.arange(5) * 0.9, [90.0, 140.0, 200.0]])
    return x[:, None]


class TestPerplexitySearch:
    def test_three_point_scalar_oracle(self):
        # point 0 sees squared distances (1, 4); its conditional distribution
        # is p = 1/(1 + exp(-3 beta)) over the two neighbours.  Solve the
        # entropy equation for beta independently with plain bisection.
        target_perplexity = 1.5
        target_h = math.log(target_perplexity)

        def entropy(beta):
            p = 1.0 / (1.0 + math.exp(-3.0 * beta))
            q = 1.0 - p
            if q <= 0.0:
                return 0.0
            return -(p * math.log(p) + q * math.log(q))

        lo, hi = 1e-6, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if entropy(mid) > target_h:
                lo = mid
            else:
                hi = mid
        beta_oracle = 0.5 * (lo + hi)

        points = np.array([[0.0], [1.0], [2.0]])  # d01 = 1, d02 = 4
        d2 = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        P, betas = perplexity_search(d2, target_perplexity, tol=1e-6)
        assert betas[0] == pytest.approx(beta_oracle, rel=1e-3)
        row = np.array([P[0, 1], P[0, 2]])
        h = -(row * np.log(row)).sum()
        assert h == pytest.approx(target_h, abs=1e-4)

    def test_hits_target_perplexity_within_tolerance(self):
        points, _ = two_blobs()
        m = len(points)
        sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        P, betas = perplexity_search(sq, perplexity=5.0, tol=1e-4)
        target = math.log(5.0)
        for i in range(m):
            row = np.delete(P[i], i)
            h = -(row[row > 0] * np.log(row[row > 0])).sum()
            assert abs(h - target) <= 1e-3

    def test_joint_probabilities_symmetric_normalized(self):
        points, _ = two_blobs()
        P = joint_probabilities(points, perplexity=5.0)
        assert np.allclose(P, P.T, atol=1e-12)
        assert P.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(P >= 0.0)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["one-hot", "uint8", "uint16", "bool", "int32",
                                      "empty-columns", "lone-column", "uint8-255-rows",
                                      "int16-negative", "int8-min", "int64-one-hot"])
    def test_integer_points_give_the_bits_of_their_float64_copy(self, kind, jobs):
        # 100 columns of 30 points: three chunks of 30 columns and a ragged 10
        rng = np.random.default_rng(4)
        m, dims = 30, 100
        if kind in ("one-hot", "empty-columns", "lone-column", "int64-one-hot"):
            x = np.eye(4, dtype=np.uint8)[rng.integers(0, 4, (m, dims // 4))].reshape(m, dims)
            if kind == "empty-columns":  # some in every chunk, and a chunk's worth in a row
                x[:, 5::9] = x[:, 30:65] = 0
            elif kind == "lone-column":  # channel 3 is empty but in one row, not the first
                x[:, 3::4] = 0
                x[17, 43] = 1
            elif kind == "int64-one-hot":
                x = x.astype(np.int64)
        elif kind == "int8-min":
            # a column of -128 and 0, whose int8 negation wraps to -128: its
            # magnitude must be taken wider, or the column reads as empty
            x = rng.integers(-3, 3, (m, dims), endpoint=True).astype(np.int8)
            x[:, 7] = np.where(rng.random(m) < 0.5, -128, 0)
            x[1, 7] = -128
        elif kind == "bool":
            x = rng.random((m, dims)) < 0.3
        elif kind == "uint8-255-rows":
            # 600 columns: the sums with the rows of 255 pass 2^24, which
            # float32 chunks would round
            x = rng.integers(0, 255, (m, 600), endpoint=True).astype(np.uint8)
            x[:4] = 255
        elif kind == "int16-negative":  # |x| up to 4096 where max(x) is at most 0
            x = rng.integers(-4096, 0, (m, dims), endpoint=True).astype(np.int16)
        else:  # uint8 reaches 255, whose square wraps in a uint8 product
            top = {"uint8": 255, "uint16": 65535, "int32": 2**31 - 1}[kind]
            x = rng.integers(0, top, (m, dims), endpoint=True).astype(kind)
            x[0, 0] = top
        want = joint_probabilities(x.astype(np.float64), perplexity=8.0, jobs=jobs)
        assert joint_probabilities(x, perplexity=8.0, jobs=jobs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("top, dims, exact", [
        (1, 2**24 - 1, True), (1, 2**24, False), (3, (2**24 - 1) // 9, True), (2**12, 1, False),
        (255, 258, True), (255, 259, False),
    ])
    def test_float32_chunks_only_where_every_partial_sum_fits(self, top, dims, exact):
        assert analysis._float32_sums_exactly(top, dims) is exact

    def test_integer_gram_sums_in_the_scratch_buffer(self):
        # the float32 sums live in the bytes of scratch: what is allocated is
        # one chunk, gathered and cast, where a float64 chunk took 8 m^2
        # bytes (m large enough that numpy's 64 kB ufunc buffer stays below)
        m = 128
        x = (np.random.default_rng(5).random((m, 400)) < 0.1).astype(np.uint8)
        out, scratch = np.empty((m, m)), np.empty((m, m))
        analysis._pairwise_sq_dists(x[:, :10], out, scratch)  # one-time allocations
        peak = traced_peak(lambda: analysis._pairwise_sq_dists(x, out, scratch))
        assert peak < 8 * m * m, peak
        assert out.tobytes() == sq_dists(x.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_points_are_not_copied_to_float64(self, dtype):
        # D far above m: a float64 copy of the input (6.4 MB) dwarfs the
        # m x m buffers (12.8 kB each), and an int64 input is as large as it
        m, dims = 40, 20000
        x = (np.random.default_rng(3).random((m, dims)) < 0.2).astype(dtype)
        joint_probabilities(x[:, :50], perplexity=8.0, jobs=1)  # one-time allocations
        peak = traced_peak(lambda: joint_probabilities(x, perplexity=8.0, jobs=1))
        assert peak < 8 * m * dims, peak

    def test_perplexity_bounds(self):
        points, _ = two_blobs(n_per=3)
        with pytest.raises(ValueError, match="perplexity"):
            joint_probabilities(points, perplexity=1.0)
        with pytest.raises(ValueError, match="perplexity"):
            joint_probabilities(points, perplexity=6.0)

    @pytest.mark.parametrize("iters", [0, -5])
    def test_iters_below_one_rejected(self, iters):
        # no step would leave the random initial layout as the embedding
        points, _ = two_blobs(n_per=3)
        with pytest.raises(ValueError, match=f"iters must be >= 1, got {iters}"):
            tsne(points, perplexity=3.0, iters=iters)

    def test_zero_variance_rejected(self):
        points = np.ones((8, 4))
        with pytest.raises(ValueError, match="zero-variance"):
            joint_probabilities(points, perplexity=3.0)

    def test_lowest_zero_variance_point_is_named(self):
        d2 = sq_dists(np.random.default_rng(2).normal(size=(9, 3)))
        d2[[6, 3]] = 0.0  # rows 3 and 6 see every other point at distance 0
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="point 3 has zero distance"):
                perplexity_search(d2, 3.0, jobs=jobs)

    def test_underflow_fixture_reaches_both_branches(self):
        first = np.exp(-sq_dists(underflow_points()) * 1.0)
        np.fill_diagonal(first, np.nan)
        zeros = [np.sum(row[~np.isnan(row)] == 0.0) for row in first]
        assert max(zeros) == len(first) - 1  # a row whose every term underflows
        assert any(0 < z < len(first) - 1 for z in zeros)  # and a row with some

    def test_entropies_bitwise_equal_to_one_row_at_a_time(self):
        # P alone would not show an entropy off in its last bit (it only
        # steers the bisection), so compare the entropies themselves, on rows
        # where underflowed terms sit between the others
        x = np.random.default_rng(6).uniform(0.0, 60.0, (40, 1))
        m = len(x)
        d2 = sq_dists(x)
        neg = -d2[~np.eye(m, dtype=bool)].reshape(m, m - 1)
        buffers = (np.empty((m, m - 1)), np.zeros((m, m - 1)), np.empty((m, m - 1), bool))
        for beta in (0.25, 1.0, 3.0):
            p, h = analysis._entropy_rows(neg, np.arange(m), np.full(m, beta), *buffers)
            for i in range(m):
                want_h, want_p = oracle_entropy_and_probs(-neg[i], beta)
                assert h[i] == want_h and p[i].tobytes() == want_p.tobytes()
        assert 0 < (p == 0.0).sum() < p.size

    @pytest.mark.parametrize("fixture", ["two_blobs", "underflow", "duplicates"])
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_bitwise_equal_to_per_row_oracle(self, fixture, jobs):
        if fixture == "two_blobs":
            points, perplexity = two_blobs()[0], 5.0
        elif fixture == "underflow":
            points, perplexity = underflow_points(), 3.0
        else:
            points, _ = two_blobs(n_per=40, dims=4, seed=3)
            points[10:25] = points[3]  # 16 copies of one point
            points[50:52] = points[70]
            perplexity = 12.0
        d2 = sq_dists(points)
        got_P, got_betas = perplexity_search(d2, perplexity, jobs=jobs)
        want_P, want_betas = oracle_perplexity_search(d2, perplexity)
        assert got_P.tobytes() == want_P.tobytes()
        assert got_betas.tobytes() == want_betas.tobytes()


def reference_kernel(y):
    """The Student-t kernel of the layout ``y`` (zero diagonal) and its sum."""
    num = 1.0 / (1.0 + ((y[:, None, :] - y[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(num, 0.0)
    return num, num.sum(axis=1).sum()


def reference_kl(P, y):
    num, z = reference_kernel(y)
    terms = P * np.log(P / np.maximum(num / z, 1e-300))
    np.fill_diagonal(terms, 0.0)
    return float(terms.sum(axis=1).sum())


def reference_sums(P, y):
    """Whole-matrix ``A = (P * n) @ [1, y0, y1]`` and ``B = (n * n) @ [1, y0,
    y1]`` row by row, each row its own stacked (1 x m) @ (m x 3) product,
    and the kernel sum z."""
    num, z = reference_kernel(y)
    yext = np.column_stack([np.ones(len(y)), y])
    A = np.matmul((P * num)[:, None, :], yext)[:, 0]
    B = np.matmul((num * num)[:, None, :], yext)[:, 0]
    return A, B, z


def reference_gradient(P, y, e):
    """4 sum_j (e p_ij - q_ij) n_ij (y_i - y_j) as ``4 (S_0 y - S_1:)`` with
    ``S = e A - B / z`` (q = n / z)."""
    A, B, z = reference_sums(P, y)
    S = e * A - B / z
    return 4.0 * (S[:, :1] * y - S[:, 1:])


def reference_tsne(points, perplexity, iters, seed, early_exaggeration=12.0,
                   exaggeration_iters=250, momentum_switch=250):
    """The allocating, single-threaded t-SNE loop: every m x m array is built
    anew each step, and nothing in it knows a block size.  Returns the
    coordinates and the initial and final KL divergences."""
    m = len(points)
    cond, _ = oracle_perplexity_search(sq_dists(points), perplexity)
    P = np.maximum((cond + cond.T) / (2.0 * m), 1e-300)
    learning_rate = max(m / early_exaggeration / 4.0, 50.0)
    y = np.random.default_rng([seed, 0x74736E65]).normal(0.0, 1e-4, (m, 2))
    kl_initial = reference_kl(P, y)
    velocity, gains = np.zeros_like(y), np.ones_like(y)
    for it in range(iters):
        e = early_exaggeration if it < exaggeration_iters else 1.0
        grad = reference_gradient(P, y, e)
        momentum = 0.5 if it < momentum_switch else 0.8
        gains = np.where(np.sign(grad) == np.sign(velocity), gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y, kl_initial, reference_kl(P, y)


def assert_same_bits(res, want):
    coords, kl_initial, kl_final = want
    assert res.coords.tobytes() == coords.tobytes()
    assert (res.kl_initial, res.kl_final) == (kl_initial, kl_final)


class TestTsne:
    def test_coords_bitwise_equal_to_allocating_loop(self):
        points, _ = two_blobs(n_per=20, dims=6, gap=1.0, seed=5)
        switches = dict(exaggeration_iters=20, momentum_switch=40)
        got = tsne(points, perplexity=8.0, iters=60, seed=4, **switches)
        assert_same_bits(got, reference_tsne(points, perplexity=8.0, iters=60, seed=4,
                                             **switches))

    @pytest.mark.parametrize("m", [40, 64, 150])  # below, at, not a multiple of a block
    def test_same_bits_for_every_jobs(self, m):
        points, _ = two_blobs(n_per=m // 2, dims=5, gap=1.0, seed=m)
        switches = dict(exaggeration_iters=10, momentum_switch=20)
        want = reference_tsne(points, perplexity=8.0, iters=30, seed=1, **switches)
        for jobs in (1, 2, 3, 4):
            assert_same_bits(tsne(points, perplexity=8.0, iters=30, seed=1, jobs=jobs,
                                  **switches), want)

    @pytest.mark.parametrize("block", [7, 64, 1000])  # ragged, the default, one block
    def test_same_bits_for_every_block_size(self, block, monkeypatch):
        points, _ = two_blobs(n_per=75, dims=5, gap=1.0, seed=150)
        switches = dict(exaggeration_iters=10, momentum_switch=20)
        want = reference_tsne(points, perplexity=8.0, iters=30, seed=1, **switches)
        monkeypatch.setattr(analysis, "_ROW_BLOCK", block)
        for jobs in (1, 2, 3):
            assert_same_bits(tsne(points, perplexity=8.0, iters=30, seed=1, jobs=jobs,
                                  **switches), want)

    @pytest.mark.parametrize("block", [1, 7])
    def test_step_sums_equal_whole_matrix_sums(self, block, monkeypatch):
        # one step's row sums against the whole-matrix stacked products, at
        # blocks where a 2-D block @ yext rounds differently
        m = 150
        points, _ = two_blobs(n_per=m // 2, dims=5, gap=1.0, seed=m)
        P = joint_probabilities(points, perplexity=8.0)
        y = np.random.default_rng(2).normal(size=(m, 2))
        A, B, z = reference_sums(P, y)
        monkeypatch.setattr(analysis, "_ROW_BLOCK", block)
        for jobs in (1, 2, 3):
            s = analysis._Layout(P)  # the outputs, in the pool's shared memory
            s.put(y)
            with _pool.RowWorkers(s, m, jobs, block) as rows:
                rows.run(analysis._step_rows)
            assert s.pn.tobytes() == A.tobytes()
            assert s.nn.tobytes() == B.tobytes()
            assert s.totals.sum() == z

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_kl_is_translation_invariant(self, offset):
        # squared distances from coordinate differences, not from the Gram
        # form, which cancels catastrophically far from the origin
        points, _ = two_blobs(n_per=10, dims=5)
        P = joint_probabilities(points, perplexity=5.0)
        y = np.random.default_rng(0).normal(size=(20, 2))
        base = kl_divergence(P, y)
        assert kl_divergence(P, y + offset) == pytest.approx(base, rel=1e-9, abs=0.0)

    def test_public_functions_run_in_the_calling_thread(self, monkeypatch):
        # a tracer that wraps the public functions keeps one span stack, so
        # pool workers may run private helpers only
        caller = threading.current_thread(), os.getpid()
        calls = []
        points, _ = two_blobs(n_per=80, dims=5)
        pids = analysis._shared(len(points))  # the pid that ran the rows from each first row

        def recorded(fn, log):
            @functools.wraps(fn)  # workers look a row function up by its name
            def wrapper(*args, **kwargs):
                log(*args)
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in list(vars(analysis).items()):
            if inspect.isfunction(fn) and fn.__module__ == analysis.__name__ \
                    and not name.startswith("_"):
                monkeypatch.setattr(analysis, name, recorded(fn, lambda *_, name=name: calls.append(
                    (name, (threading.current_thread(), os.getpid())))))
        monkeypatch.setattr(analysis, "_step_rows", recorded(
            analysis._step_rows, lambda s, lo, hi: pids.__setitem__(lo, os.getpid())))
        analysis.tsne(points, perplexity=8.0, iters=3, jobs=2)
        assert {"tsne", "joint_probabilities", "perplexity_search", "kl_divergence"} <= {
            name for name, _ in calls}
        assert all(where == caller for _, where in calls)
        ran = set(pids[pids > 0].astype(int))
        assert len(ran) == 2 and os.getpid() in ran  # a second process ran rows too

    def test_worker_errors_raise_in_the_caller(self, monkeypatch):
        points, _ = two_blobs(n_per=80, dims=5)
        step = analysis._step_rows

        def failing(s, lo, hi):
            if lo > 0:  # only the worker's run
                raise FloatingPointError("row trouble")
            step(s, lo, hi)

        def dying(s, lo, hi):
            if lo > 0:
                os._exit(3)
            step(s, lo, hi)

        for fn, error, why in ((failing, FloatingPointError, "row trouble"),
                               (dying, RuntimeError,
                                "_step_rows: the worker process exited with code 3")):
            monkeypatch.setattr(analysis, "_step_rows", functools.wraps(step)(fn))
            with pytest.raises(error, match=f"^{why}$"):
                tsne(points, perplexity=8.0, iters=3, jobs=2)
            assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_pool_closes(self):
        with _pool.RowWorkers(None, 150, 3, analysis._ROW_BLOCK) as rows:
            workers = list(rows.procs.values())
        assert len(workers) == 2
        assert [proc.exitcode for proc in workers] == [0, 0]  # ended, not killed
        assert multiprocessing.active_children() == []

    def test_pool_workers_run_their_rows_alone(self):
        # a fork pool's workers are daemonic and may not start processes
        points, _ = two_blobs(n_per=75, dims=5, gap=1.0, seed=150)
        switches = dict(exaggeration_iters=10, momentum_switch=20)
        want = reference_tsne(points, perplexity=8.0, iters=30, seed=1, **switches)
        embed = functools.partial(tsne, points, 8.0, 30, jobs=2, **switches)
        for _, res in _pool.fork_map(embed, [1, 1], 2, name=str):
            assert_same_bits(res, want)

    @pytest.mark.parametrize("jobs, fork", [(1, True), (3, False)])
    def test_serial_pool_starts_no_process(self, jobs, fork, monkeypatch):
        def refused(*_args, **_kwargs):
            raise AssertionError("a serial pool started a process or thread")

        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(threading.Thread, "start", refused)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        points, _ = two_blobs(n_per=75, dims=5, gap=1.0, seed=150)
        switches = dict(exaggeration_iters=10, momentum_switch=20)
        want = reference_tsne(points, perplexity=8.0, iters=30, seed=1, **switches)
        assert_same_bits(tsne(points, perplexity=8.0, iters=30, seed=1, jobs=jobs, **switches),
                         want)

    def test_two_blob_fixture(self):
        points, labels = two_blobs()
        res = tsne(points, perplexity=5.0, iters=400, seed=3)
        assert res.coords.shape == (20, 2)
        assert res.kl_final < res.kl_initial
        # linear separability along the centroid axis
        mu0 = res.coords[labels == 0].mean(axis=0)
        mu1 = res.coords[labels == 1].mean(axis=0)
        axis = mu1 - mu0
        proj = res.coords @ axis
        assert proj[labels == 0].max() < proj[labels == 1].min()

    def test_seeded_runs_reproduce(self):
        points, _ = two_blobs()
        a = tsne(points, perplexity=5.0, iters=50, seed=9)
        b = tsne(points, perplexity=5.0, iters=50, seed=9)
        assert np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        points, _ = two_blobs()
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            tsne(points, perplexity=5.0, iters=5, jobs=jobs)

    def test_kl_requires_positive_inputs(self):
        points, _ = two_blobs(n_per=5)
        P = joint_probabilities(points, perplexity=3.0)
        y = np.random.default_rng(0).normal(size=(10, 2))
        assert kl_divergence(P, y) > 0.0


class TestClusterDistances:
    def test_hand_arithmetic_example(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        dist = cluster_distances(points, labels)
        assert dist.intra[0] == pytest.approx(1.0)
        assert dist.intra[1] == pytest.approx(1.0)
        assert dist.intra_pooled == pytest.approx(1.0)
        assert dist.inter == pytest.approx(2.0)

    def test_single_point_classes(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = cluster_distances(points, np.array([0, 1]))
        assert dist.intra == {0: 0.0, 1: 0.0}
        assert dist.inter == pytest.approx(5.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, size=30)
        base = cluster_distances(points, labels)
        shifted = cluster_distances(points + np.array([123.0, -45.0]), labels)
        for c in base.intra:
            assert shifted.intra[c] == pytest.approx(base.intra[c], abs=1e-9)
        assert shifted.inter == pytest.approx(base.inter, abs=1e-9)

    def test_multiclass_inter_is_pairwise_mean(self):
        points = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 2])
        dist = cluster_distances(points, labels)
        assert dist.inter == pytest.approx((4.0 + 3.0 + 5.0) / 3.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            cluster_distances(np.zeros((3, 2)), np.zeros(3))


class TestCsvOutputs:
    def test_embeddings_and_distances_files(self, tmp_path):
        points, labels = two_blobs(n_per=5)
        res = tsne(points, perplexity=3.0, iters=60, seed=0)
        emb_path = str(tmp_path / "embeddings.csv")
        write_embeddings_csv(emb_path, res.coords, labels)
        lines = open(emb_path).read().splitlines()
        assert lines[0] == "graph,class,x,y"
        assert len(lines) == 11
        dist = cluster_distances(res.coords, labels)
        dist_path = str(tmp_path / "distances.csv")
        write_distances_csv(dist_path, "raw", dist)
        text = open(dist_path).read()
        assert "intra_pooled" in text and "inter" in text
        assert all(line.startswith("raw,") for line in text.splitlines()[1:])
