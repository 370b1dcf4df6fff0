import numpy as np
import pytest

from beamopt.linalg import solve_batched


def rand_cmatrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def solve_one(a, b):
    """solve_batched on a one-matrix stack: (X, singular) for that matrix."""
    x, singular = solve_batched(np.asarray(a)[None], b)
    assert x.shape == (1,) + np.shape(b) and singular.shape == (1,)
    return x[0], bool(singular[0])


class TestSolve:
    def test_identity_lhs(self):
        rng = np.random.default_rng(6)
        b = rand_cmatrix(rng, 3, 2)
        x, singular = solve_one(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=1e-15)
        assert not singular

    def test_diagonal_inverse(self):
        x, _ = solve_one(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-15)

    def test_residual_on_random_system(self):
        rng = np.random.default_rng(7)
        a = rand_cmatrix(rng, 4, 4)
        b = rand_cmatrix(rng, 4, 3)
        x, _ = solve_one(a, b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-10

    def test_solve_inverts_matmul(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rand_cmatrix(rng, 4, 4)
            x = rand_cmatrix(rng, 4, 2)
            recovered, _ = solve_one(a, a @ x)
            assert np.max(np.abs(recovered - x)) < 1e-9

    def test_singular_names_pivot(self):
        # the second pivot of this rank-one matrix eliminates to exactly zero
        _, singular = solve_one(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex), np.eye(2))
        assert singular

    def test_zero_matrix_singular_at_first_pivot(self):
        x, singular = solve_one(np.zeros((3, 3), dtype=complex), np.eye(3))
        assert singular and np.all(np.isfinite(x))

    def test_nonsquare_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="square"):
            solve_batched(rand_cmatrix(rng, 4, 2), rand_cmatrix(rng, 4, 1))

    def test_rhs_rows_checked(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="rows"):
            solve_batched(rand_cmatrix(rng, 3, 3), rand_cmatrix(rng, 2, 1))
