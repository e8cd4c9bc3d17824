import numpy as np
import pytest

from sgmap import autodiff as ad
from sgmap.errors import ShapeError


def finite_difference(fn, params, h=1e-6):
    """Central finite differences of a scalar-valued fn over each param."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat_val = p.value.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_val.size):
            old = flat_val[i]
            flat_val[i] = old + h
            up = fn().value
            flat_val[i] = old - h
            dn = fn().value
            flat_val[i] = old
            flat_g[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def check_gradients(fn, params, rtol=1e-6):
    out = fn()
    out.backward()
    numeric = finite_difference(fn, params)
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.value)
        denom = np.maximum(np.abs(analytic) + np.abs(num), 1e-8)
        assert np.max(np.abs(analytic - num) / denom) < rtol, (analytic, num)
        p.grad = None


class TestElementwiseOps:
    def test_arithmetic_values(self):
        a = ad.Tensor([1.0, 2.0])
        b = ad.Tensor([3.0, 5.0])
        np.testing.assert_array_equal((a + b).value, [4, 7])
        np.testing.assert_array_equal((a - b).value, [-2, -3])
        np.testing.assert_array_equal((a * b).value, [3, 10])
        np.testing.assert_allclose((a / b).value, [1 / 3, 2 / 5])

    def test_arithmetic_gradients(self):
        rng = np.random.default_rng(0)
        a = ad.parameter(rng.normal(size=4))
        b = ad.parameter(rng.normal(size=4) + 3.0)
        check_gradients(lambda: ad.mean_all(a * b + a / b - b), [a, b])

    def test_broadcast_scalar_gradients(self):
        s = ad.parameter(0.7)
        v = ad.parameter(np.array([1.0, -2.0, 3.0]))
        check_gradients(lambda: ad.mean_all(s * v), [s, v])

    def test_activations(self):
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.normal(size=6))
        check_gradients(lambda: ad.mean_all(ad.sigmoid(x)), [x])
        check_gradients(lambda: ad.mean_all(ad.tanh(x)), [x])
        y = ad.parameter(np.abs(rng.normal(size=6)) + 0.5)
        check_gradients(lambda: ad.mean_all(ad.log(y)), [y])

    def test_relu_subgradient_away_from_kink(self):
        x = ad.parameter(np.array([-2.0, -0.5, 0.5, 2.0]))
        check_gradients(lambda: ad.mean_all(ad.relu(x)), [x])

    def test_sigmoid_extremes_stay_finite(self):
        x = ad.Tensor([-1000.0, 0.0, 1000.0])
        s = ad.sigmoid(x).value
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-12)


class TestMatmul:
    def test_shapes_and_gradients(self):
        rng = np.random.default_rng(2)
        w = ad.parameter(rng.normal(size=(3, 4)))
        x = ad.parameter(rng.normal(size=4))
        out = ad.linear(x, w)
        np.testing.assert_allclose(out.value, w.value @ x.value, atol=1e-12)
        check_gradients(lambda: ad.mean_all(ad.linear(x, w)), [w, x])

    def test_vector_dot(self):
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.normal(size=5))
        b = ad.parameter(rng.normal(size=5))
        assert ad.linear(a, b).value.shape == (1,)
        check_gradients(lambda: ad.mean_all(ad.linear(a, b)), [a, b])

    def test_matrix_matrix(self):
        rng = np.random.default_rng(4)
        a = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(ad.linear(a, b).value, a.value @ b.value.T, atol=1e-12)
        check_gradients(lambda: ad.mean_all(ad.linear(a, b)), [a, b])

    def test_rows_do_not_depend_on_position_or_count(self):
        rng = np.random.default_rng(13)
        for rows, k, m in [(271, 96, 32), (3300, 32, 32), (3300, 3, 32), (17, 64, 4)]:
            x = rng.normal(size=(rows, k))
            w = ad.Tensor(rng.normal(size=(m, k)))
            full = ad.linear(ad.Tensor(x), w).value
            perm = rng.permutation(rows)
            assert np.array_equal(ad.linear(ad.Tensor(x[perm]), w).value, full[perm])
            assert np.array_equal(ad.linear(ad.Tensor(x[1:]), w).value, full[1:])
            assert np.array_equal(ad.linear(ad.Tensor(x[5]), w).value, full[5])


class TestReductionsAndStructure:
    def test_softmax_normalizes_and_differentiates(self):
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.normal(size=7))
        s = ad.softmax(x)
        assert s.value.sum() == pytest.approx(1.0, abs=1e-12)
        weights = ad.Tensor(rng.normal(size=7))
        check_gradients(lambda: ad.mean_all(ad.softmax(x) * weights), [x])

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(6)
        x = ad.parameter(rng.normal(size=5) * 3)
        np.testing.assert_allclose(
            ad.log_softmax(x).value, np.log(ad.softmax(x).value), atol=1e-12
        )
        check_gradients(lambda: ad.gather(ad.log_softmax(x), 2), [x])

    def test_concat_routing(self):
        rng = np.random.default_rng(7)
        a = ad.parameter(rng.normal(size=3))
        b = ad.parameter(rng.normal(size=2))
        weights = ad.Tensor(rng.normal(size=5))
        check_gradients(lambda: ad.mean_all(ad.concat([a, b]) * weights), [a, b])
        rows_a = ad.parameter(rng.normal(size=(4, 3)))
        rows_b = ad.parameter(rng.normal(size=(4, 2)))
        np.testing.assert_array_equal(
            ad.concat([rows_a, rows_b]).value, np.hstack([rows_a.value, rows_b.value])
        )
        weights = ad.Tensor(rng.normal(size=(4, 5)))
        check_gradients(
            lambda: ad.mean_all(ad.concat([rows_a, rows_b]) * weights), [rows_a, rows_b]
        )

    def test_rowwise_softmax_and_log_softmax(self):
        rng = np.random.default_rng(14)
        x = ad.parameter(rng.normal(size=(4, 5)) * 3)
        s = ad.softmax(x).value
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        for row in range(4):
            np.testing.assert_array_equal(s[row], ad.softmax(ad.Tensor(x.value[row])).value)
        np.testing.assert_allclose(ad.log_softmax(x).value, np.log(s), atol=1e-12)
        flat = ad.parameter(x.value / 3)  # peaked rows leave gradients below FD noise
        weights = ad.Tensor(rng.normal(size=(4, 5)))
        check_gradients(lambda: ad.mean_all(ad.softmax(flat) * weights), [flat])
        check_gradients(lambda: ad.mean_all(ad.log_softmax(flat) * weights), [flat])

    def test_row_gather_accumulates_repeated_indices(self):
        rng = np.random.default_rng(16)
        m = ad.parameter(rng.normal(size=(4, 3)))
        index = np.array([2, 0, 2, 2])
        np.testing.assert_array_equal(ad.gather(m, index).value, m.value[index])
        ad.mean_all(ad.gather(m, index)).backward()
        np.testing.assert_allclose(m.grad[:, 0], np.array([1.0, 0.0, 3.0, 0.0]) / 12)
        m.grad = None
        weights = ad.Tensor(rng.normal(size=(4, 3)))
        check_gradients(lambda: ad.mean_all(ad.gather(m, index) * weights), [m])
        picked = (np.array([0, 1, 1]), np.array([2, 0, 0]))
        check_gradients(lambda: ad.mean_all(ad.gather(m, picked)), [m])

    def test_segment_max_picks_first_on_ties(self):
        m = ad.parameter(np.array([[0.0, 0.0], [1.0, 5.0], [9.0, 9.0], [1.0, 2.0]]))
        segment = np.array([1, 0, 2, 0])
        out = ad.segment_max(m, segment, 3)
        np.testing.assert_array_equal(out.value, [[1.0, 5.0], [0.0, 0.0], [9.0, 9.0]])
        ad.mean_all(out).backward()
        np.testing.assert_array_equal(
            m.grad * 6, [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
        )

    def test_segment_max_empty_segments_and_gradients(self):
        rng = np.random.default_rng(8)
        m = ad.parameter(rng.normal(size=(7, 3)))
        segment = np.array([3, 0, 3, 1, 0, 3, 3])
        out = ad.segment_max(m, segment, 5)
        for seg in range(5):
            rows = m.value[segment == seg]
            expected = rows.max(axis=0) if len(rows) else np.zeros(3)
            np.testing.assert_array_equal(out.value[seg], expected)
        weights = ad.Tensor(rng.normal(size=(5, 3)))
        check_gradients(lambda: ad.mean_all(ad.segment_max(m, segment, 5) * weights), [m])
        none = ad.segment_max(ad.parameter(np.empty((0, 3))), np.empty(0, dtype=int), 2)
        np.testing.assert_array_equal(none.value, np.zeros((2, 3)))
        nan = ad.parameter(np.array([[1.0], [np.nan]]))
        ad.mean_all(ad.segment_max(nan, np.array([0, 0]), 1)).backward()
        assert nan.grad.shape == (2, 1)

    def test_mean_and_gather(self):
        rng = np.random.default_rng(10)
        x = ad.parameter(rng.normal(size=6))
        check_gradients(lambda: ad.mean_all(x), [x])
        check_gradients(lambda: ad.gather(x, 3), [x])

    def test_reused_node_accumulates(self):
        x = ad.parameter(np.array([2.0]))
        y = x * x + x * ad.Tensor([3.0])
        ad.mean_all(y).backward()
        np.testing.assert_allclose(x.grad, [7.0])  # d(x^2 + 3x)/dx at 2

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ShapeError):
            (x * x).backward()


class TestComposite:
    def test_deep_chain_gradcheck(self):
        rng = np.random.default_rng(12)
        w1 = ad.parameter(rng.normal(size=(5, 4)) * 0.5)
        b1 = ad.parameter(rng.normal(size=5) * 0.1)
        w2 = ad.parameter(rng.normal(size=(3, 5)) * 0.5)
        x = ad.Tensor(rng.normal(size=4))

        def fn():
            h = ad.tanh(ad.linear(x, w1) + b1)
            return -ad.gather(ad.log_softmax(ad.linear(h, w2)), 1)

        check_gradients(fn, [w1, b1, w2], rtol=1e-5)
