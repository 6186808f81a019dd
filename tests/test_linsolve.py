import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc.exceptions import SolverFailure
from hqc.lattice2d import SpringModel2D, _apply_scalar, _p1_apply
from hqc.linsolve import cyclic_matvec, cyclic_to_dense, solve_cyclic_banded, solve_periodic_2d

from oracles import p1_stiffness_dense, probe_matrix, zero_mean_dense_solve


def random_cyclic_spd(rng, N, R):
    diags = rng.standard_normal((2 * R + 1, N))
    A = cyclic_to_dense(diags)
    A = A + A.T + (2 * R + 4) * np.eye(N)
    out = np.zeros((2 * R + 1, N))
    idx = np.arange(N)
    for d in range(-R, R + 1):
        out[R + d] = A[idx, (idx + d) % N]
    return out, A


class TestCyclicBanded:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(41)
        for N, R in ((6, 1), (12, 2), (31, 4)):
            diags = rng.standard_normal((2 * R + 1, N))
            x = rng.standard_normal(N)
            assert np.allclose(cyclic_matvec(diags, x), cyclic_to_dense(diags) @ x)

    def test_solve_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for N, R in ((12, 1), (40, 3), (65, 5), (9, 3), (300, 2)):
            diags, A = random_cyclic_spd(rng, N, R)
            b = rng.standard_normal(N)
            x = solve_cyclic_banded(diags, b)
            x_ref = np.linalg.solve(A, b)
            assert np.abs(x - x_ref).max() <= 1e-10 * max(1.0, np.abs(x_ref).max())

    def test_mean_regularized_laplacian(self):
        # the regularized solve returns the zero-mean solution of the
        # singular system for zero-mean right-hand sides, independent of alpha
        rng = np.random.default_rng(43)
        for N in (8, 50, 129):
            lap = np.zeros((3, N))
            lap[1] = 2.0
            lap[0] = -1.0
            lap[2] = -1.0
            b = rng.standard_normal(N)
            b -= b.mean()
            xs = [solve_cyclic_banded(lap, b, mean_reg=alpha) for alpha in (0.5, 3.0)]
            for x in xs:
                assert abs(x.mean()) < 1e-12
                assert np.abs(cyclic_matvec(lap, x) - b).max() < 1e-11
            assert np.abs(xs[0] - xs[1]).max() < 1e-11

    def test_singular_band_falls_back(self):
        # in-band part singular but the full cyclic matrix is fine
        N = 24
        diags = np.zeros((3, N))
        diags[1] = 1e-30
        diags[2] = 1.0  # near-permutation matrix: x_i ~ b at i+1 shifted
        b = np.zeros(N)
        b[3] = 1.0
        x = solve_cyclic_banded(diags, b)
        assert np.abs(cyclic_matvec(diags, x) - b).max() < 1e-8

    @settings(max_examples=80, deadline=None)
    @given(
        R=st.integers(1, 4),
        offset=st.integers(-3, 3),
        mean_reg=st.sampled_from([0.0, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve_around_cutoff(self, R, offset, mean_reg, seed):
        # N on both sides of the dense cut-off N <= 4R + 2
        N = 4 * R + 2 + offset
        rng = np.random.default_rng(seed)
        diags = rng.standard_normal((2 * R + 1, N))
        diags[R] += 2 * R + 4  # diagonally dominant, so nonsingular
        b = rng.standard_normal(N)
        x = solve_cyclic_banded(diags, b, mean_reg=mean_reg)
        x_ref = np.linalg.solve(cyclic_to_dense(diags) + mean_reg / N, b)
        assert np.abs(x - x_ref).max() <= 1e-10 * max(1.0, np.abs(x_ref).max())


stiffness = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform in [1e-3, 1e3]
even_size = st.integers(1, 6).map(lambda n: 2 * n)


def condition_number(A):
    """lambda_max / lambda_2 of a symmetric matrix whose kernel is the constants."""
    ev = np.linalg.eigvalsh(A)
    return ev[-1] / ev[1]


class TestPeriodic2D:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.tuples(stiffness, stiffness, stiffness),
        N1=even_size,
        N2=even_size,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spring_operator_matches_dense_solve(self, k, N1, N2, seed):
        model = SpringModel2D(*k)

        def apply(v):
            return _apply_scalar(model, v)

        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal((2, N1, N2))
        x = solve_periodic_2d(apply, rhs, (2, 2))
        A = probe_matrix(apply, (N1, N2))
        tol = 1e-13 * condition_number(A)
        for c in range(2):
            x_ref = zero_mean_dense_solve(A, rhs[c])
            assert abs(x[c].mean()) <= 1e-14 * np.abs(x_ref).max()
            assert np.abs(x[c] - x_ref).max() <= tol * np.abs(x_ref).max()

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_p1_stiffness_matches_element_assembly(self, t, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((2, 2))
        Q = B @ B.T + 0.1 * np.eye(2)
        U = rng.standard_normal((t, t))
        A = p1_stiffness_dense(Q, t)
        assert np.abs(_p1_apply(Q, U).ravel() - A @ U.ravel()).max() <= 1e-14 * (
            np.abs(A).max() * np.abs(U).max()
        )
        x = solve_periodic_2d(lambda V: _p1_apply(Q, V), U, (1, 1))
        x_ref = zero_mean_dense_solve(A, U)
        assert np.abs(x - x_ref).max() <= 1e-13 * condition_number(A) * np.abs(x_ref).max()

    @settings(max_examples=40, deadline=None)
    @given(
        value=st.floats(-1e6, 1e6),
        N1=even_size,
        N2=even_size,
        cell=st.sampled_from([(1, 1), (2, 2)]),
    )
    def test_constant_rhs_gives_zero(self, value, N1, N2, cell):
        model = SpringModel2D(1.0, 2.0, 0.25)
        operators = {
            (2, 2): lambda v: _apply_scalar(model, v),
            (1, 1): lambda v: _p1_apply(np.array([[2.0, -0.5], [-0.5, 1.0]]), v),
        }
        x = solve_periodic_2d(operators[cell], np.full((N1, N2), value), cell)
        assert not x.any()

    def test_grid_must_tile_the_cell(self):
        with pytest.raises(ValueError):
            solve_periodic_2d(lambda v: v, np.zeros((4, 6)), (4, 4))

    def test_singular_symbol_raises(self):
        # the zero operator has every field in its kernel, not only constants
        rhs = np.arange(16.0).reshape(4, 4)
        with pytest.raises(SolverFailure, match="singular periodic symbol"):
            solve_periodic_2d(lambda v: 0.0 * v, rhs, (1, 1))
