import re

import numpy as np
import pytest

import folmi.interval
from folmi.errors import BoundViolationError, OutOfUnitBoxError, ShapeMismatchError
from folmi.interval import (
    IntervalMatrix,
    UncertainFoltiSystem,
    UncertaintyRealization,
    decompose,
    realize,
    sweep_scalings,
)

EX1_A_LOWER = [[2.0, -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]]
EX1_A_UPPER = [[2.5, -7.0, 1.5], [9.5, 6.5, 1.5], [1.5, 2.5, -0.5]]
EX1_B_LOWER = [[1.0], [-1.0], [0.0]]
EX1_B_UPPER = [[1.5], [-0.6], [0.0]]


def example1_system():
    return UncertainFoltiSystem(
        0.75,
        IntervalMatrix(np.array(EX1_A_LOWER), np.array(EX1_A_UPPER)),
        IntervalMatrix(np.array(EX1_B_LOWER), np.array(EX1_B_UPPER)),
        np.array([[1.0, 0.0, 1.0]]),
    )


class TestTypes:
    def test_bound_violation(self):
        with pytest.raises(BoundViolationError):
            IntervalMatrix(np.array([[1.0]]), np.array([[0.5]]))

    @pytest.mark.parametrize("name,text", [
        ("", "lower (1, 1) vs upper (2, 2)"), ("b", "b_lower (1, 1) vs b_upper (2, 2)")])
    def test_bound_shapes_differ_names_the_bounds(self, name, text):
        with pytest.raises(BoundViolationError, match=re.escape(f"differ: {text}")):
            IntervalMatrix(np.zeros((1, 1)), np.zeros((2, 2)), name)

    def test_alpha_range(self):
        iv = IntervalMatrix.certain(np.eye(2))
        bv = IntervalMatrix.certain(np.ones((2, 1)))
        with pytest.raises(ValueError):
            UncertainFoltiSystem(2.0, iv, bv, np.eye(2))

    @pytest.mark.parametrize("a,b,c,match", [
        (np.ones((2, 3)), np.ones((2, 1)), np.eye(2), "A interval must be square"),
        (np.eye(2), np.ones((3, 1)), np.eye(2), "B interval has 3 rows, expected 2"),
        (np.eye(2), np.ones((2, 1)), np.ones((1, 3)), "C has 3 columns, expected 2"),
        (np.eye(2), np.ones((2, 0)), np.eye(2), "B interval has no columns"),
    ])
    def test_plant_shapes_must_agree(self, a, b, c, match):
        with pytest.raises(ShapeMismatchError, match=match):
            UncertainFoltiSystem(
                0.75, IntervalMatrix.certain(a), IntervalMatrix.certain(b), c)

    @pytest.mark.parametrize("lower,upper", [(-1e308, 1e308), (1.5e308, 1.5e308)])
    def test_bounds_whose_midpoint_or_radius_overflows(self, lower, upper):
        # used to overflow to an inf midpoint or radius with numpy's
        # RuntimeWarning; any warning fails the suite
        with pytest.raises(BoundViolationError, match="overflows"):
            IntervalMatrix(np.array([[lower]]), np.array([[upper]]))

    def test_realization_unit_box(self):
        # NaN compares False with any bound, so it must fail the check too
        for entry in (1.5, np.inf, -np.inf, np.nan):
            with pytest.raises(OutOfUnitBoxError):
                UncertaintyRealization(np.array([entry]), np.array([]))
        with pytest.raises(OutOfUnitBoxError):
            UncertaintyRealization(np.zeros(2), np.array([0.5, np.nan]))


class TestDecompose:
    def test_example1_midpoint_and_radius(self):
        f = decompose(example1_system())
        np.testing.assert_allclose(
            f.a0,
            [[2.25, -7.5, 1.25], [9.25, 6.25, 1.25], [1.25, 2.25, -0.75]],
        )
        np.testing.assert_allclose(
            f.delta_a,
            [[0.25, 0.5, 0.25], [0.25, 0.25, 0.25], [0.25, 0.25, 0.25]],
        )
        np.testing.assert_allclose(f.b0, [[1.25], [-0.8], [0.0]])
        np.testing.assert_allclose(f.delta_b, [[0.25], [0.2], [0.0]])

    def test_zero_radius(self):
        sys = UncertainFoltiSystem(
            0.5,
            IntervalMatrix.certain(np.eye(2)),
            IntervalMatrix.certain(np.zeros((2, 1))),
            np.eye(2),
        )
        f = decompose(sys)
        np.testing.assert_array_equal(f.delta_a, np.zeros((2, 2)))
        np.testing.assert_array_equal(f.m_a, np.zeros((2, 4)))
        np.testing.assert_array_equal(f.a0, np.eye(2))
        assert f.is_certain

    def test_1x1_unit_interval(self):
        sys = UncertainFoltiSystem(
            0.5,
            IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]])),
            IntervalMatrix.certain(np.zeros((1, 1))),
            np.eye(1),
        )
        f = decompose(sys)
        assert f.a0 == pytest.approx(0.0)
        assert f.delta_a == pytest.approx(1.0)
        np.testing.assert_array_equal(f.m_a, [[1.0]])
        np.testing.assert_array_equal(f.r_a, [[1.0]])

    def test_factorization_shapes(self):
        f = decompose(example1_system())
        n, l = 3, 1
        assert f.m_a.shape == (n, n * n)
        assert f.r_a.shape == (n * n, n)
        assert f.m_b.shape == (n, n * l)
        assert f.r_b.shape == (n * l, l)

    def test_product_reconstructs_radius(self):
        # sqrt factors round once, so the product matches the radii to
        # machine precision (1 ulp on irrational square roots)
        f = decompose(example1_system())
        np.testing.assert_allclose(f.m_a @ f.r_a, f.delta_a, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(f.m_b @ f.r_b, f.delta_b, rtol=1e-15, atol=1e-16)


class TestRealize:
    def test_center(self):
        f = decompose(example1_system())
        a, b = realize(f, np.zeros((1, 12)))
        np.testing.assert_array_equal(a[0], f.a0)
        np.testing.assert_array_equal(b[0], f.b0)

    def test_extremes_hit_bounds(self):
        f = decompose(example1_system())
        ones = np.ones(f.m_a.shape[1] + f.m_b.shape[1])
        (a_hi, a_lo), (b_hi, b_lo) = realize(f, np.stack([ones, -ones]))
        np.testing.assert_allclose(a_hi, np.array(EX1_A_UPPER), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(b_hi, np.array(EX1_B_UPPER), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(a_lo, np.array(EX1_A_LOWER), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(b_lo, np.array(EX1_B_LOWER), rtol=1e-15, atol=1e-15)

    def test_entrywise_identity(self):
        # (m_a diag(f) r_a)_{ij} == f[(i,j)] * radius_{ij}
        f = decompose(example1_system())
        rng = np.random.RandomState(9)
        for _ in range(100):
            fa = rng.uniform(-1, 1, f.m_a.shape[1])
            perturb = f.m_a @ (fa[:, None] * f.r_a)
            np.testing.assert_allclose(
                perturb, fa.reshape(3, 3) * f.delta_a, atol=1e-15
            )


def partly_uncertain_system():
    """n=3, l=2 with seven of the 15 radii zero: 256 vertices."""
    rng = np.random.RandomState(5)
    a_lo = rng.randn(3, 3)
    b_lo = rng.randn(3, 2)
    mask_a = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 0]])
    mask_b = np.array([[0, 1], [1, 0], [0, 1]])
    return UncertainFoltiSystem(
        0.9,
        IntervalMatrix(a_lo, a_lo + 0.3 * mask_a),
        IntervalMatrix(b_lo, b_lo + 0.2 * mask_b),
        np.eye(3)[:1],
    )


def sweep_rows(factors, sample_count, seed):
    """``(vertex_count, every swept row)`` of :func:`sweep_scalings`, whose
    row total is checked against the rows."""
    vertex_count, row_count, arrays = sweep_scalings(factors, sample_count, seed)
    rows = np.concatenate(list(arrays))
    assert len(rows) == row_count
    return vertex_count, rows


class TestStackedRealize:
    def test_matches_factorized_product_bitwise(self):
        f = decompose(partly_uncertain_system())
        _, swept = sweep_rows(f, 16, 3)
        rows = np.concatenate([swept[:16], swept[-16:]])  # vertices, samples
        a, b = realize(f, rows)
        assert a.shape == (32, 3, 3) and b.shape == (32, 3, 2)
        na = f.m_a.shape[1]
        for k, row in enumerate(rows):
            fa, fb = row[:na], row[na:]
            np.testing.assert_array_equal(a[k], f.a0 + f.m_a @ (fa[:, None] * f.r_a))
            np.testing.assert_array_equal(b[k], f.b0 + f.m_b @ (fb[:, None] * f.r_b))
            ua, ub = realize(f, np.concatenate([fa, fb])[None])
            np.testing.assert_array_equal(a[k], ua[0])
            np.testing.assert_array_equal(b[k], ub[0])

    def test_rejects_bad_width_and_out_of_box(self):
        f = decompose(example1_system())
        with pytest.raises(ValueError):
            realize(f, np.zeros((2, 5)))
        with pytest.raises(ValueError):  # one row must be a (1, 12) stack
            realize(f, np.zeros(12))
        with pytest.raises(TypeError):  # rows only, not a realization object
            realize(f, UncertaintyRealization(np.zeros(9), np.zeros(3)))
        for entry in (1.5, np.inf, -np.inf, np.nan):
            with pytest.raises(OutOfUnitBoxError):
                realize(f, np.full((1, 12), entry))
        with pytest.raises(OutOfUnitBoxError):  # one NaN among valid entries
            realize(f, np.concatenate([np.zeros(11), [np.nan]])[None])


class TestVertices:
    def test_single_uncertain_entry(self):
        sys = UncertainFoltiSystem(
            0.5,
            IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]])),
            IntervalMatrix.certain(np.zeros((1, 1))),
            np.eye(1),
        )
        count, rows = sweep_rows(decompose(sys), 0, 0)
        assert count == 2
        assert rows.shape == (2, 2)
        assert sorted(rows[:, 0]) == [-1.0, 1.0]
        assert not rows[:, 1].any()

    def test_example1_count(self):
        count, rows = sweep_rows(decompose(example1_system()), 0, 0)
        assert count == 2048
        assert rows.shape == (2048, 12)

    @pytest.mark.parametrize("sample_count", [0, 1, 500, folmi.interval.SWEEP_CHUNK + 1])
    def test_zero_radius_single_vertex(self, sample_count):
        # a certain family holds one plant: its center alone, no samples
        sys = UncertainFoltiSystem(
            0.5,
            IntervalMatrix.certain(np.eye(2)),
            IntervalMatrix.certain(np.zeros((2, 1))),
            np.eye(2),
        )
        count, rows = sweep_rows(decompose(sys), sample_count, 0)
        assert count == 1
        assert rows.shape == (1, 6) and not rows.any()

    def test_vertex_roundtrip(self):
        f = decompose(example1_system())
        lo_a, hi_a = np.array(EX1_A_LOWER), np.array(EX1_A_UPPER)
        tol = 1e-15
        a, _ = realize(f, sweep_rows(f, 0, 0)[1])
        on_bound = np.isclose(a, lo_a, rtol=tol, atol=tol) | np.isclose(
            a, hi_a, rtol=tol, atol=tol
        )
        assert on_bound.all()

    def test_chunked_sign_rows_follow_enumeration_order(self, monkeypatch):
        f = decompose(partly_uncertain_system())
        total, rows = sweep_rows(f, 0, 0)
        assert total == 256
        # vertex arrays start at 8 rows and grow fourfold up to SWEEP_CHUNK
        _, _, arrays = sweep_scalings(f, 0, 0)
        assert [len(c) for c in arrays] == [8, 32, 128, 88]
        monkeypatch.setattr(folmi.interval, "SWEEP_CHUNK", 7)
        _, _, arrays = sweep_scalings(f, 0, 0)
        chunks = list(arrays)
        assert [len(c) for c in chunks] == [7] * 36 + [4]
        np.testing.assert_array_equal(np.concatenate(chunks), rows)
        assert rows.shape == (total, f.m_a.shape[1] + f.m_b.shape[1])
        # bit k of the vertex number is the sign (+1 when set) of the k-th
        # positive radius, A row-major then B; zero radii stay pinned at 0
        radii = np.concatenate([f.delta_a.ravel(), f.delta_b.ravel()])
        active = [k for k in range(radii.size) if radii[k] > 0]
        for pattern in range(total):
            want = np.zeros(radii.size)
            for bit, k in enumerate(active):
                want[k] = 1.0 if (pattern >> bit) & 1 else -1.0
            np.testing.assert_array_equal(rows[pattern], want)
        assert not rows[:, radii == 0].any()

    def test_over_the_cap_sweeps_samples_or_the_center(self, monkeypatch):
        f = decompose(example1_system())
        monkeypatch.setattr(folmi.interval, "MAX_VERTICES", 2047)
        count, rows = sweep_rows(f, 5, 1)
        assert count == 0
        np.testing.assert_array_equal(
            rows, np.random.RandomState(1).uniform(-1.0, 1.0, size=(5, 12)))
        count, rows = sweep_rows(f, 0, 1)
        assert count == 0
        np.testing.assert_array_equal(rows, np.zeros((1, 12)))


class TestSampling:
    def test_chunked_draws_match_per_sample_draws(self, monkeypatch):
        f = decompose(example1_system())
        _, rows = sweep_rows(f, 10, 4)
        whole = rows[2048:]
        assert whole.shape == (10, 12)
        for chunk in (1, 3, 64):
            monkeypatch.setattr(folmi.interval, "SWEEP_CHUNK", chunk)
            np.testing.assert_array_equal(sweep_rows(f, 10, 4)[1], rows)
        # the seed's stream drawn f_a then f_b per sample
        rng = np.random.RandomState(4)
        for row in whole:
            np.testing.assert_array_equal(row[:9], rng.uniform(-1.0, 1.0, size=9))
            np.testing.assert_array_equal(row[9:], rng.uniform(-1.0, 1.0, size=3))

    def test_deterministic(self):
        f = decompose(example1_system())
        s1 = sweep_rows(f, 3, 7)[1][2048:]
        s2 = sweep_rows(f, 3, 7)[1][2048:]
        assert s1.shape == (3, 12)
        np.testing.assert_array_equal(s1, s2)

    def test_samples_stay_in_bounds(self):
        f = decompose(example1_system())
        lo_a, hi_a = np.array(EX1_A_LOWER), np.array(EX1_A_UPPER)
        a, b = realize(f, sweep_rows(f, 50, 0)[1][2048:])
        assert a.shape == (50, 3, 3)
        assert (a >= lo_a - 1e-12).all() and (a <= hi_a + 1e-12).all()
        assert (b >= np.array(EX1_B_LOWER) - 1e-12).all()
        assert (b <= np.array(EX1_B_UPPER) + 1e-12).all()
