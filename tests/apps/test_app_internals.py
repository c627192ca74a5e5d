"""Unit tests for application internals: partitioning, kernels, generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.asp import _INF, _make_graph, _owner_of
from repro.apps.asp import _partition as asp_partition
from repro.apps.gauss import _back_substitute, _make_system
from repro.apps.ising import _couplings, _init_spins, _sweep_colour
from repro.apps.nbody import _EPS2, _G, _block_forces, _init_block
from repro.apps.nqueens import NQueens, _count_from, _dfs
from repro.apps.sor import _boundary_value, _init_block as sor_block, _partition, _sweep
from repro.apps.tsp import _greedy_bound, _make_map, _solve_task


class TestPartitioning:
    @pytest.mark.parametrize("n,size", [(10, 1), (10, 3), (100, 8), (9, 8)])
    def test_sor_partition_covers_interior(self, n, size):
        parts = _partition(n, size)
        assert parts[0][0] == 1
        assert parts[-1][1] == n - 1
        for (a_lo, a_hi), (b_lo, b_hi) in zip(parts, parts[1:]):
            assert a_hi == b_lo  # contiguous, no gaps or overlaps

    def test_sor_partition_balanced(self):
        parts = _partition(100, 8)
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n,size", [(16, 4), (17, 4), (5, 5)])
    def test_asp_partition_covers_all_rows(self, n, size):
        parts = asp_partition(n, size)
        assert parts[0][0] == 0 and parts[-1][1] == n
        total = sum(hi - lo for lo, hi in parts)
        assert total == n

    def test_asp_owner_of(self):
        parts = asp_partition(10, 3)
        for row in range(10):
            rank = _owner_of(row, parts)
            lo, hi = parts[rank]
            assert lo <= row < hi
        with pytest.raises(ValueError):
            _owner_of(99, parts)


class TestSorKernel:
    def test_boundary_value_deterministic(self):
        i = np.array([3]); j = np.array([4])
        assert _boundary_value(i, j, 16) == _boundary_value(i, j, 16)

    def test_sweep_preserves_boundary_columns(self):
        block = sor_block(1, 9, 10)
        left = block[:, 0].copy()
        right = block[:, -1].copy()
        _sweep(block, 1, 1.5, 0)
        np.testing.assert_array_equal(block[:, 0], left)
        np.testing.assert_array_equal(block[:, -1], right)

    def test_sweep_touches_only_one_colour(self):
        block = np.zeros((5, 8))
        block[0, :] = 1.0  # upper halo drives the update
        before = block.copy()
        _sweep(block, 1, 1.0, 0)
        gi = 1 + np.arange(3)[:, None]
        gj = np.arange(1, 7)[None, :]
        other = (gi + gj) % 2 == 1
        np.testing.assert_array_equal(
            block[1:-1, 1:-1][other], before[1:-1, 1:-1][other]
        )

    def test_sweep_converges_toward_laplace(self):
        """Relaxation reduces the residual of the interior."""
        block = sor_block(1, 31, 32)
        rng = np.random.default_rng(0)
        block[1:-1, 1:-1] += rng.normal(0, 1, size=block[1:-1, 1:-1].shape)

        def residual(b):
            lap = (
                b[0:-2, 1:-1] + b[2:, 1:-1] + b[1:-1, 0:-2] + b[1:-1, 2:]
                - 4 * b[1:-1, 1:-1]
            )
            return float(np.abs(lap).sum())

        r0 = residual(block)
        for _ in range(50):
            _sweep(block, 1, 1.5, 0)
            _sweep(block, 1, 1.5, 1)
        assert residual(block) < 0.05 * r0


class TestIsingKernel:
    def test_couplings_deterministic_and_gaussian(self):
        jh1, jv1 = _couplings(32, 5)
        jh2, jv2 = _couplings(32, 5)
        np.testing.assert_array_equal(jh1, jh2)
        np.testing.assert_array_equal(jv1, jv2)
        assert abs(jh1.mean()) < 0.1 and 0.8 < jh1.std() < 1.2

    def test_spins_are_plus_minus_one_and_stay_so(self):
        block = _init_spins(0, 0, 8, 16, 3)
        assert set(np.unique(block[1:-1])) <= {-1, 1}
        jh, jv = _couplings(16, 3)
        rng = np.random.default_rng(0)
        block[0] = block[-2]
        block[-1] = block[1]
        for colour in (0, 1):
            _sweep_colour(block, jh[0:8], jv[np.arange(-1, 8) % 16], 0,
                          colour, 0.8, rng)
        assert set(np.unique(block[1:-1])) <= {-1, 1}

    def test_zero_temperature_limit_only_downhill(self):
        """At beta -> inf, flips with positive energy cost never accept."""
        n = 16
        block = _init_spins(0, 0, 8, n, 1)
        block[0] = block[-2]
        block[-1] = block[1]
        jh, jv = _couplings(n, 1)
        rng = np.random.default_rng(2)

        def energy(b):
            inter = b[1:-1].astype(float)
            up = b[0:-2]; down = b[2:]
            left = np.roll(inter, 1, axis=1); right = np.roll(inter, -1, axis=1)
            j_up = jv[np.arange(-1, 8) % n][:-1]
            j_down = jv[np.arange(-1, 8) % n][1:]
            field = j_up * up + j_down * down + np.roll(jh[0:8], 1, 1) * left + jh[0:8] * right
            return float(-(inter * field).sum())

        e_before = energy(block)
        _sweep_colour(block, jh[0:8], jv[np.arange(-1, 8) % n], 0, 0, 1e9, rng)
        # halos stale now, but the sweep only used the pre-sweep halos:
        assert energy(block) <= e_before + 1e-9


def _sweep_colour_oracle(block, jh_rows, jv_rows, row_offset, colour, beta, rng):
    """The checkerboard sweep as first written: mask rebuilt per call,
    flips by two fancy-index passes."""
    m, n = block.shape[0] - 2, block.shape[1]
    if m <= 0:
        return
    interior = block[1:-1]
    left = np.roll(interior, 1, axis=1)
    right = np.roll(interior, -1, axis=1)
    j_left = np.roll(jh_rows, 1, axis=1)
    field = jv_rows[:-1] * block[0:-2] + jv_rows[1:] * block[2:] + j_left * left + jh_rows * right
    d_e = 2.0 * interior * field
    mask = ((row_offset + np.arange(m))[:, None] + np.arange(n)[None, :]) % 2 == colour
    u = rng.random(size=interior.shape)
    flip = mask & (u < np.exp(-beta * np.maximum(d_e, 0.0)))
    interior[flip] = -interior[flip]


class TestIsingOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(0, 7),
        n=st.integers(1, 9),
        row_offset=st.integers(0, 5),
        colour=st.sampled_from((0, 1)),
        beta=st.sampled_from((0.0, 0.3, 0.8, 5.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1, n=3, row_offset=0, colour=0, beta=0.8, seed=0)
    @example(m=1, n=3, row_offset=1, colour=1, beta=0.8, seed=0)
    def test_sweep_bit_identical_to_oracle(self, m, n, row_offset, colour, beta, seed):
        data = np.random.default_rng(seed)
        block = data.choice(np.array([-1, 1], dtype=np.int8), size=(m + 2, n))
        jh = data.normal(size=(m, n))
        jv = data.normal(size=(m + 1, n))
        got, want = block.copy(), block.copy()
        rng_got = np.random.default_rng(seed + 1)
        rng_want = np.random.default_rng(seed + 1)
        _sweep_colour(got, jh, jv, row_offset, colour, beta, rng_got)
        _sweep_colour_oracle(want, jh, jv, row_offset, colour, beta, rng_want)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # the random stream is left at the same position
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestAspGraph:
    def test_graph_deterministic(self):
        np.testing.assert_array_equal(_make_graph(20, 1, 0.3), _make_graph(20, 1, 0.3))

    def test_diagonal_zero_and_inf_marks(self):
        g = _make_graph(20, 1, 0.1)
        assert (np.diag(g) == 0).all()
        assert (g == _INF).any()  # sparse graph has missing edges

    def test_density_controls_edges(self):
        dense = (_make_graph(50, 1, 0.9) < _INF).sum()
        sparse = (_make_graph(50, 1, 0.1) < _INF).sum()
        assert dense > sparse


class TestGauss:
    def test_system_diagonally_dominant(self):
        aug = _make_system(32, 7)
        a = aug[:, :-1]
        diag = np.abs(np.diag(a))
        off = np.abs(a).sum(axis=1) - diag
        assert (diag > off * 0.5).all()  # strongly weighted diagonal

    def test_back_substitution_solves_triangular(self):
        n = 10
        rng = np.random.default_rng(1)
        u = np.triu(rng.uniform(1, 2, size=(n, n)))
        x_true = rng.uniform(-1, 1, size=n)
        aug = np.concatenate([u, (u @ x_true)[:, None]], axis=1)
        np.testing.assert_allclose(_back_substitute(aug), x_true, rtol=1e-10)


class TestNBody:
    def test_forces_antisymmetric(self):
        pos_a, _, mass_a = _init_block(0, 5, 1)
        pos_b, _, mass_b = _init_block(1, 5, 1)
        f_ab = (_block_forces(pos_a, pos_b, mass_b) * mass_a[:, None]).sum(axis=0)
        f_ba = (_block_forces(pos_b, pos_a, mass_a) * mass_b[:, None]).sum(axis=0)
        np.testing.assert_allclose(f_ab, -f_ba, atol=1e-9)

    def test_empty_blocks(self):
        pos, _, mass = _init_block(0, 3, 1)
        empty = np.zeros((0, 3))
        assert _block_forces(empty, pos, mass).shape == (0, 3)
        assert (_block_forces(pos, empty, np.zeros(0)) == 0).all()

    def test_self_forces_finite(self):
        pos, _, mass = _init_block(0, 8, 1)
        f = _block_forces(pos, pos, mass)
        assert np.isfinite(f).all()  # softening handles self-pairs


def _block_forces_oracle(tpos, spos, smass):
    """The force kernel as first written, over a ``(t, s, 3)`` array."""
    if tpos.size == 0 or spos.size == 0:
        return np.zeros_like(tpos)
    dr = spos[None, :, :] - tpos[:, None, :]
    r2 = (dr * dr).sum(axis=2) + _EPS2
    inv_r3 = r2 ** -1.5
    return _G * (dr * (smass[None, :] * inv_r3)[:, :, None]).sum(axis=1)


def _bodies(max_count):
    coords = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    return st.integers(0, max_count).flatmap(
        lambda k: st.tuples(
            hnp.arrays(np.float64, (k, 3), elements=coords),
            hnp.arrays(np.float64, k, elements=st.floats(0.5, 1.5)),
        )
    )


class TestNBodyOracle:
    @settings(max_examples=200, deadline=None)
    @given(target=_bodies(12), source=_bodies(40))
    @example(target=(np.zeros((0, 3)), np.zeros(0)), source=(np.ones((2, 3)), np.ones(2)))
    @example(target=(np.ones((2, 3)), np.ones(2)), source=(np.zeros((0, 3)), np.zeros(0)))
    @example(target=(np.ones((1, 3)), np.ones(1)), source=(np.ones((1, 3)), np.ones(1)))
    def test_forces_bit_identical_to_oracle(self, target, source):
        (tpos, _), (spos, smass) = target, source
        got = _block_forces(tpos, spos, smass)
        want = _block_forces_oracle(tpos, spos, smass)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_forces_bit_identical_on_run_sized_blocks(self):
        """The row-sized blocks nbody-1536 on 8 ranks exchanges."""
        pos_a, _, _ = _init_block(0, 192, 3)
        pos_b, _, mass_b = _init_block(1, 192, 3)
        assert np.array_equal(
            _block_forces(pos_a, pos_b, mass_b),
            _block_forces_oracle(pos_a, pos_b, mass_b),
        )


class TestTsp:
    def test_map_symmetric_zero_diagonal(self):
        d = _make_map(10, 4)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()

    def test_greedy_bound_is_a_tour_cost(self):
        d = _make_map(8, 4)
        bound = _greedy_bound(d)
        assert bound >= 8 * int(d[d > 0].min())

    def test_solve_task_never_exceeds_incumbent(self):
        d = _make_map(8, 4)
        best = _greedy_bound(d)
        improved, nodes = _solve_task(d, 1, 2, best)
        assert improved <= best
        assert nodes >= 1

    def test_solve_task_prunes_with_tight_bound(self):
        d = _make_map(9, 4)
        loose, nodes_loose = _solve_task(d, 1, 2, 10**9)
        tight, nodes_tight = _solve_task(d, 1, 2, loose)
        assert nodes_tight <= nodes_loose


class TestNQueens:
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 10), (6, 4), (8, 92)])
    def test_known_counts(self, n, expected):
        solutions, nodes = _count_from(n, 0, 0, 0, 0)
        assert solutions == expected
        assert nodes > solutions

    def test_search_is_not_cached(self):
        assert not hasattr(_dfs, "cache_info")
        assert not hasattr(_dfs, "__wrapped__")

    def test_memo_holds_every_task_of_the_largest_board(self):
        assert _count_from.cache_parameters()["maxsize"] >= len(NQueens(12)._tasks())

    def test_repeated_task_is_a_cache_hit(self):
        task = (9, 0b101, 0b1100, 0b10, 2)  # queens at (0, 0) and (1, 2)
        first = _count_from(*task)
        before = _count_from.cache_info()
        again = _count_from(*task)
        after = _count_from.cache_info()
        assert again == first == _dfs(*task)
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
