import numpy as np
import pytest

from folmi.errors import NonSquareError, ValidationError
from folmi.linalg import as_matrix, eigvals_stack, pinv

EX1_A0 = np.array([
    [2.25, -7.5, 1.25],
    [9.25, 6.25, 1.25],
    [1.25, 2.25, -0.75],
])


def charpoly_3x3(a):
    """Characteristic polynomial coefficients via traces and the explicit
    cofactor determinant (independent of any eigensolver)."""
    tr = np.trace(a)
    tr2 = np.trace(a @ a)
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    return [1.0, -tr, 0.5 * (tr * tr - tr2), -det]


def eigvals(m):
    """Eigenvalues of one matrix: the one-matrix stack of eigvals_stack."""
    return eigvals_stack(np.asarray(m, dtype=float)[None])[0]


class TestEigGeneral:
    """Eigenvalues of general (non-symmetric) real matrices."""

    def test_scalar(self):
        assert eigvals([[-1.0]]) == pytest.approx([-1.0])

    def test_rotation_matrix(self):
        vals = eigvals([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(sorted(vals, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)

    def test_example1_midpoint_is_sector_unstable(self):
        # the open-loop plant has eigenvalues inside the 0.75-order sector;
        # validate the returned eigenvalues against the cofactor-based
        # characteristic polynomial before trusting their arguments
        vals = eigvals(EX1_A0)
        coeffs = charpoly_3x3(EX1_A0)
        scale = 1.0 + np.abs(EX1_A0).max()
        for lam in vals:
            residual = np.polyval(coeffs, lam)
            assert abs(residual) <= 1e-8 * scale ** 3
        assert np.min(np.abs(np.angle(vals))) < 0.75 * np.pi / 2

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            eigvals_stack(np.zeros((1, 2, 3)))
        with pytest.raises(NonSquareError):
            eigvals_stack(np.eye(2))  # one matrix, not a stack

    def test_dimension_cap(self):
        assert eigvals_stack(np.eye(64)[None]).shape == (1, 64)
        with pytest.raises(ValueError):
            eigvals_stack(np.eye(65)[None])

    def test_trace_and_det_consistency(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            n = rng.randint(1, 9)
            stack = rng.randn(3, n, n)
            for m, vals in zip(stack, eigvals_stack(stack)):
                tol = 1e-6 * (1.0 + np.abs(m).max())
                assert abs(vals.sum() - np.trace(m)) <= tol
                assert abs(np.prod(vals) - np.linalg.det(m)) <= tol * max(
                    1.0, abs(np.linalg.det(m))
                )

    def test_deterministic(self):
        stack = np.random.RandomState(3).randn(4, 6, 6)
        np.testing.assert_array_equal(eigvals_stack(stack), eigvals_stack(stack))

    @pytest.mark.parametrize("shape, want", [((0, 3, 3), (0, 3)), ((2, 0, 0), (2, 0))])
    def test_empty_stack_shapes(self, shape, want):
        assert eigvals_stack(np.zeros(shape)).shape == want


class TestAsMatrix:
    def test_one_dimensional_input_is_one_row(self):
        a = as_matrix([1.0, 2.0])
        assert a.dtype == float
        np.testing.assert_array_equal(a, [[1.0, 2.0]])

    def test_more_than_two_dimensions_is_refused(self):
        with pytest.raises(ValidationError, match="m must be 2-D, got ndim=3"):
            as_matrix(np.zeros((1, 2, 2)), "m")


class TestPinv:
    def test_row_vector(self):
        # hand value: C^T (C C^T)^-1 for C = [1 0 1]
        np.testing.assert_allclose(
            pinv([[1.0, 0.0, 1.0]]), [[0.5], [0.0], [0.5]], atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_matrix_gives_the_transposed_empty_shape(self, shape):
        p = pinv(np.zeros(shape))
        assert p.shape == shape[::-1] and p.dtype == float

    def test_penrose_identities_random(self):
        rng = np.random.RandomState(7)
        for trial in range(200):
            r = rng.randint(1, 7)
            c = rng.randint(1, 7)
            m = rng.randn(r, c)
            if trial % 3 == 0 and min(r, c) > 1:
                m[:, -1] = m[:, 0]  # force rank deficiency
            p = pinv(m)
            tol = 1e-9 * (1.0 + np.abs(m).max())
            np.testing.assert_allclose(m @ p @ m, m, atol=tol)
            np.testing.assert_allclose(p @ m @ p, p, atol=tol)
            np.testing.assert_allclose((m @ p).T, m @ p, atol=tol)
            np.testing.assert_allclose((p @ m).T, p @ m, atol=tol)

