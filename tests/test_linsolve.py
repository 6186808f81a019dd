import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc.linsolve import cyclic_matvec, cyclic_to_dense, solve_cyclic_banded


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
