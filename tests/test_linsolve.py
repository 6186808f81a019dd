from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hqc.exceptions import SolverFailure
from hqc.lattice2d import SpringModel2D, p1_bonds
from hqc.linsolve import solve_cyclic_banded, solve_periodic_2d, spring_matvec

from oracles import (
    bond_matvec,
    p1_stiffness_dense,
    probe_matrix,
    stretch_springs_to_dense,
    zero_mean_dense_solve,
)


class TestCyclicBanded:
    """The atomistic Newton step: springs acting on nearest-neighbour
    stretches through their window sums, solved on the zero-sum space."""

    def test_matvec_matches_dense(self):
        # signed springs, also on rings of n <= R sites, where bonds alias
        rng = np.random.default_rng(41)
        for n, R in ((1, 2), (2, 3), (3, 3), (4, 4), (6, 1), (12, 2), (31, 4)):
            s = rng.standard_normal((R, n))
            x = rng.standard_normal(n)
            assert np.allclose(spring_matvec(s, x), stretch_springs_to_dense(s) @ x)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), R=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_zero_mean_solve_matches_dense_oracle(self, data, R, seed):
        # n <= 2R aliases bonds onto each other, and a bond whose range r is
        # a multiple of n spans the whole ring, so it stretches by nothing
        # on the zero-sum space, though the NN chain counts it.  The sparse
        # fallback would hide a wrong or stalled CG solve, so it must not be
        # reached.
        n = data.draw(st.integers(2, 4 * R + 8) | st.sampled_from([64, 129, 256]), label="n")
        rng = np.random.default_rng(seed)
        k = 10.0 ** rng.uniform(-3.0, 3.0, (R, n))
        rhs = rng.standard_normal(n) + rng.uniform(-5.0, 5.0)
        with mock.patch("hqc.linsolve._solve_kkt_sparse", side_effect=AssertionError("fallback")):
            x = solve_cyclic_banded(k, rhs)
        J = stretch_springs_to_dense(k)
        x_ref = zero_mean_dense_solve(J, rhs)
        assert abs(x.mean()) <= 1e-14 * np.abs(x_ref).max()
        assert np.abs(x - x_ref).max() <= 1e-13 * condition_number(J) * np.abs(x_ref).max()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), R=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_one_negative_bond_matches_dense_oracle(self, data, R, seed):
        # Depending on its size, one negative bond, never one that spans
        # the whole ring, leaves the springs positive definite on the
        # zero-sum space or makes them indefinite; CG or its sparse
        # fallback on displacements must find the solution either way.
        # Springs singular there have no solution to compare.
        n = data.draw(st.integers(2, 4 * R + 8) | st.sampled_from([64, 129, 256]), label="n")
        rng = np.random.default_rng(seed)
        k = 10.0 ** rng.uniform(-3.0, 3.0, (R, n))
        r = rng.choice(np.flatnonzero(np.arange(1, R + 1) % n))
        k[r, rng.integers(n)] *= -1.0
        J = stretch_springs_to_dense(k)
        cond = condition_number(J)
        assume(cond <= 1e8)
        rhs = rng.standard_normal(n) + rng.uniform(-5.0, 5.0)
        x = solve_cyclic_banded(k, rhs)
        x_ref = zero_mean_dense_solve(J, rhs)
        assert abs(x.mean()) <= 1e-14 * np.abs(x_ref).max()
        assert np.abs(x - x_ref).max() <= 1e-13 * cond * np.abs(x_ref).max()


stiffness = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform in [1e-3, 1e3]
even_size = st.integers(1, 6).map(lambda n: 2 * n)


def condition_number(A):
    """Largest over smallest |eigenvalue| of the symmetric A on the
    zero-mean space."""
    P = np.eye(A.shape[0]) - 1.0 / A.shape[0]
    ev = np.sort(np.abs(np.linalg.eigvalsh(P @ A @ P)))
    return ev[-1] / ev[1]


def shipped_bonds(cell):
    """The spring bonds for the (2, 2) cell, the P1 stiffness for (1, 1)."""
    if cell == (2, 2):
        return SpringModel2D(1.0, 2.0, 0.25).bonds
    return p1_bonds(np.array([[2.0, -0.5], [-0.5, 1.0]]))


class TestPeriodic2D:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.tuples(stiffness, stiffness, stiffness),
        N1=even_size,
        N2=even_size,
        seed=st.integers(0, 2**32 - 1),
    )
    # grids of one cell, and odd half-spectrum lengths
    @example(k=(1.0, 2.0, 0.25), N1=2, N2=2, seed=0)
    @example(k=(1e-3, 1e3, 1.0), N1=2, N2=6, seed=1)
    @example(k=(5.0, 0.2, 1e-2), N1=6, N2=10, seed=2)
    def test_spring_operator_matches_dense_solve(self, k, N1, N2, seed):
        bonds = SpringModel2D(*k).bonds
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal((2, N1, N2))
        x = solve_periodic_2d(bonds, rhs)
        A = probe_matrix(lambda v: bond_matvec(bonds, v), (N1, N2))
        tol = 1e-13 * condition_number(A)
        for c in range(2):
            x_ref = zero_mean_dense_solve(A, rhs[c])
            assert abs(x[c].mean()) <= 1e-14 * np.abs(x_ref).max()
            assert np.abs(x[c] - x_ref).max() <= tol * np.abs(x_ref).max()

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), Q=st.none())
    @example(t=2, seed=0, Q=None)
    @example(t=3, seed=1, Q=None)
    # Q12 > Q22: the spring along (0, 1) is negative
    @example(t=4, seed=2, Q=[[4.0, 1.5], [1.5, 1.0]])
    # Q12 < 0, as in the shipped model: the diagonal spring is negative
    @example(t=5, seed=3, Q=[[2.0, -0.5], [-0.5, 1.0]])
    def test_p1_stiffness_matches_element_assembly(self, t, seed, Q):
        rng = np.random.default_rng(seed)
        if Q is None:
            B = rng.standard_normal((2, 2))
            Q = B @ B.T + 0.1 * np.eye(2)
        Q = np.asarray(Q)
        U = rng.standard_normal((t, t))
        A = p1_stiffness_dense(Q, t)
        bonds = p1_bonds(Q)
        assert np.abs(bond_matvec(bonds, U).ravel() - A @ U.ravel()).max() <= 1e-14 * (
            np.abs(A).max() * np.abs(U).max()
        )
        x = solve_periodic_2d(bonds, U)
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
        x = solve_periodic_2d(shipped_bonds(cell), np.full((N1, N2), value))
        assert not x.any()

    def test_grid_must_tile_the_cell(self):
        with pytest.raises(ValueError, match="not a multiple of the cell"):
            solve_periodic_2d([((1, 0), np.ones((4, 4)))], np.zeros((4, 6)))

    def test_bonds_must_share_one_cell(self):
        bonds = [((1, 0), np.ones((2, 2))), ((0, 1), np.ones((1, 1)))]
        with pytest.raises(ValueError, match="one cell shape"):
            solve_periodic_2d(bonds, np.zeros((4, 4)))

    @pytest.mark.parametrize("cell", [(1, 1), (2, 2)], ids=["1x1", "2x2"])
    def test_singular_symbol_raises(self, cell):
        # zero stiffnesses put every field in the kernel, not only constants
        rhs = np.arange(16.0).reshape(4, 4)
        bonds = [((1, 0), np.zeros(cell)), ((0, 1), np.zeros(cell))]
        with pytest.raises(SolverFailure, match="singular periodic symbol"):
            solve_periodic_2d(bonds, rhs)

    @pytest.mark.parametrize(
        "bond, cell",
        [
            # sites two apart are two cells apart for the (1, 1) cell
            ((2, 0), (1, 1)),
            # sites three apart are two cells apart for the (2, 2) cell
            ((3, 0), (2, 2)),
        ],
        ids=["two-sites-cell-1x1", "three-sites-cell-2x2"],
    )
    def test_reach_beyond_one_cell_raises(self, bond, cell):
        with pytest.raises(ValueError, match="reaches beyond one cell"):
            solve_periodic_2d([(bond, np.ones(cell))], np.zeros((12, 12)))
