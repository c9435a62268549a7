import math

import numpy as np
import pytest

from graphcaps.analysis import (
    EmbeddingSource,
    cluster_distances,
    extract_embeddings,
    joint_probabilities,
    kl_divergence,
    perplexity_search,
    tsne,
    write_distances_csv,
    write_embeddings_csv,
)
from graphcaps.models import CapsNetConfig, build_capsnet, build_cnn


def two_blobs(n_per=10, dims=50, gap=5.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, dims)) - gap
    b = rng.normal(0.0, 1.0, (n_per, dims)) + gap
    points = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return points, labels


class TestExtractEmbeddings:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.x = np.zeros((6, 8, 5, 4))
        idx = rng.integers(0, 4, size=(6, 8, 5))
        for b in range(6):
            for i in range(8):
                for j in range(5):
                    self.x[b, i, j, idx[b, i, j]] = 1.0

    def test_raw_flattens(self):
        points = extract_embeddings(None, self.x, "raw")
        assert points.shape == (6, 8 * 5 * 4)
        assert np.array_equal(points[1], self.x[1].ravel())

    def test_primary_caps_dimensionality(self):
        cfg = CapsNetConfig(conv_filters=8, primary_channels=2, primary_dim=4,
                            primary_kernel=2, primary_stride=1, caps_dim=6,
                            decoder_hidden=(8, 12))
        model = build_capsnet(8, 5, 4, 2, cfg, seed=0)
        points = extract_embeddings(model, self.x, "caps")
        assert points.shape == (6, model.n_primary * cfg.primary_dim)

    def test_cnn_inner_dimensionality(self):
        model = build_cnn(8, 5, 4, 2, seed=0)
        points = extract_embeddings(model, self.x, "cnn")
        assert points.shape == (6, 128)

    def test_identical_inputs_identical_rows(self):
        pair = np.concatenate([self.x[:1], self.x[:1]])
        points = extract_embeddings(None, pair, "raw")
        assert np.array_equal(points[0], points[1])

    @pytest.mark.parametrize("source", ["caps", "cnn"])
    def test_model_reads_inputs_at_its_parameter_dtype(self, source):
        cfg = CapsNetConfig(conv_filters=8, primary_channels=2, primary_dim=4,
                            primary_kernel=2, primary_stride=1, caps_dim=6,
                            decoder_hidden=(8, 12))
        model = build_capsnet(8, 5, 4, 2, cfg, seed=0) if source == "caps" else build_cnn(
            8, 5, 4, 2, seed=0)
        seen = []
        inner_features = model.inner_features
        model.inner_features = lambda x: seen.append(x.dtype) or inner_features(x)
        points = extract_embeddings(model, self.x, source)  # self.x is float64
        assert seen == [np.float32] and points.dtype == np.float32

    def test_source_model_mismatch(self):
        model = build_cnn(8, 5, 4, 2, seed=0)
        with pytest.raises(ValueError, match="capsule model"):
            extract_embeddings(model, self.x, "caps")
        with pytest.raises(ValueError, match="CNN baseline"):
            extract_embeddings(None, self.x, "cnn")


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

    def test_perplexity_bounds(self):
        points, _ = two_blobs(n_per=3)
        with pytest.raises(ValueError, match="perplexity"):
            joint_probabilities(points, perplexity=1.0)
        with pytest.raises(ValueError, match="perplexity"):
            joint_probabilities(points, perplexity=6.0)

    def test_zero_variance_rejected(self):
        points = np.ones((8, 4))
        with pytest.raises(ValueError, match="zero-variance"):
            joint_probabilities(points, perplexity=3.0)


def reference_tsne(points, perplexity, iters, seed, early_exaggeration=12.0,
                   exaggeration_iters=250, momentum_switch=250):
    """The allocating t-SNE loop: every m x m array is built anew each step."""

    def sq_dists(x):
        sq = (x * x).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.fill_diagonal(d2, 0.0)
        return np.maximum(d2, 0.0)

    m = len(points)
    cond, _ = perplexity_search(sq_dists(points), perplexity)
    P = np.maximum((cond + cond.T) / (2.0 * m), 1e-300)
    learning_rate = max(m / early_exaggeration / 4.0, 50.0)
    y = np.random.default_rng([seed, 0x74736E65]).normal(0.0, 1e-4, (m, 2))
    velocity, gains = np.zeros_like(y), np.ones_like(y)
    for it in range(iters):
        p_eff = P * early_exaggeration if it < exaggeration_iters else P
        num = 1.0 / (1.0 + sq_dists(y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-300)
        pq = (p_eff - q) * num
        grad = 4.0 * (pq.sum(axis=1, keepdims=True) * y - pq @ y)
        momentum = 0.5 if it < momentum_switch else 0.8
        gains = np.where(np.sign(grad) == np.sign(velocity), gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y


class TestTsne:
    def test_coords_bitwise_equal_to_allocating_loop(self):
        points, _ = two_blobs(n_per=20, dims=6, gap=1.0, seed=5)
        switches = dict(exaggeration_iters=20, momentum_switch=40)
        got = tsne(points, perplexity=8.0, iters=60, seed=4, **switches).coords
        want = reference_tsne(points, perplexity=8.0, iters=60, seed=4, **switches)
        assert got.tobytes() == want.tobytes()

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
        write_distances_csv(dist_path, EmbeddingSource.RAW_TENSOR, dist)
        text = open(dist_path).read()
        assert "intra_pooled" in text and "inter" in text
