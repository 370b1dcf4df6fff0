import numpy as np
import pytest

from beamopt.linalg import SingularMatrixError, lu_factor, solve_array


def rand_cmatrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


class TestSolve:
    def test_identity_lhs(self):
        rng = np.random.default_rng(6)
        b = rand_cmatrix(rng, 3, 2)
        np.testing.assert_allclose(solve_array(np.eye(3), b), b, atol=1e-15)

    def test_diagonal_inverse(self):
        x = solve_array(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-15)

    def test_residual_on_random_system(self):
        rng = np.random.default_rng(7)
        a = rand_cmatrix(rng, 4, 4)
        b = rand_cmatrix(rng, 4, 3)
        x = solve_array(a, b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-10

    def test_solve_inverts_matmul(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rand_cmatrix(rng, 4, 4)
            x = rand_cmatrix(rng, 4, 2)
            recovered = solve_array(a, a @ x)
            assert np.max(np.abs(recovered - x)) < 1e-9

    def test_singular_names_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError) as err:
            solve_array(a, np.eye(2))
        assert err.value.pivot_index == 1
        assert "pivot 1" in str(err.value)

    def test_zero_matrix_singular_at_first_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            lu_factor(np.zeros((3, 3), dtype=complex))
        assert err.value.pivot_index == 0

    def test_nonsquare_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="square"):
            solve_array(rand_cmatrix(rng, 3, 2), rand_cmatrix(rng, 3, 1))

    def test_rhs_rows_checked(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="rows"):
            solve_array(rand_cmatrix(rng, 3, 3), rand_cmatrix(rng, 2, 1))
