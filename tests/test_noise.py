import hashlib
import math

import numpy as np
import pytest

from frachp.core import TimeGrid
from frachp.errors import InvalidArgument
from frachp.noise import (_ACK_SPLIT, _DRAWS, WienerPath, _uniforms, coarsen,
                          generate_path, generate_paths, normal_inv_cdf,
                          spawn_substream, zero_path)

from ._reference import ks_statistic


class TestGeneratePath:
    def test_deterministic(self):
        a = generate_path(42, 0.01, 500, 3)
        b = generate_path(42, 0.01, 500, 3)
        assert np.array_equal(a.increments, b.increments)

    def test_distinct_seeds(self):
        a = generate_path(42, 0.01, 1000, 2).increments
        b = generate_path(43, 0.01, 1000, 2).increments
        assert np.mean(a != b) > 0.99

    def test_moments(self):
        h, k = 0.0001, 100_000
        inc = generate_path(11, h, k, 1).increments[:, 0]
        assert abs(inc.mean()) <= 4.0 * math.sqrt(h / k)
        assert abs(inc.var() - h) <= 5.0 * h * math.sqrt(2.0 / k)

    def test_variance_five_sigma_window(self):
        h = 0.0001
        inc = generate_path(3, h, 100_000, 1).increments[:, 0]
        assert 0.95 * h <= inc.var() <= 1.05 * h

    def test_channel_independence(self):
        inc = generate_path(5, 1.0, 10_000, 2).increments
        corr = np.corrcoef(inc.T)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(10_000)

    def test_scaled_increments_are_standard_normal(self):
        h = 0.25
        inc = generate_path(17, h, 10_000, 1).increments[:, 0] / math.sqrt(h)
        assert ks_statistic(inc) < 1.63 / math.sqrt(10_000)  # 1% critical

    def test_input_validation(self):
        with pytest.raises(InvalidArgument, match="^h=0.0 "):
            generate_path(1, 0.0, 10, 1)
        for h in (math.nan, math.inf):  # used to give NaN or inf increments
            for make in (generate_path, lambda *a: zero_path(*a[1:])):
                with pytest.raises(InvalidArgument, match=f"h={h}"):
                    make(1, h, 10, 1)
        with pytest.raises(InvalidArgument, match="^n_steps=0 "):
            generate_path(1, 0.1, 0, 1)
        with pytest.raises(ValueError):
            generate_path(1, 0.1, 10, 0)


class TestGeneratePaths:
    """The many-seed draw against one generate_path per seed, bit for bit,
    across the edges of its passes."""

    @pytest.mark.parametrize("n_paths, n_steps, channels", [
        (64, 4000, 1),      # 8 seeds per pass
        (11, 4000, 1),      # a last pass of 3 seeds
        (5, 7, 3),          # one short pass
        (3, 20000, 2),      # a table longer than a pass: one seed each
    ])
    def test_rows_are_generate_path(self, n_paths, n_steps, channels):
        seeds = [spawn_substream(7, i) for i in range(n_paths)]
        seeds[:3] = [-1, np.int64(2), np.uint64(2 ** 64 - 1)]
        got = generate_paths(seeds, 0.01, n_steps, channels)
        assert got.shape == (n_paths, n_steps, channels)
        want = np.stack([generate_path(s, 0.01, n_steps, channels).increments
                         for s in seeds])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        again = generate_paths(iter(seeds), 0.01, n_steps, channels)
        assert np.array_equal(again.view(np.uint64), got.view(np.uint64))

    def test_pass_sizes(self):
        assert _DRAWS // 4000 == 8 and 20000 * 2 > _DRAWS

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_every_seed_is_checked(self, where):
        seeds = [1, 2, 3, 4, 5]
        seeds[where] = 2.5
        with pytest.raises(InvalidArgument,
                           match=r"^seed=2.5 must be a whole number$"):
            generate_paths(seeds, 0.01, 10, 2)

    def test_no_seeds(self):
        # As integrate_paths(()) returns (): an empty batch, not an error.
        got = generate_paths([], 0.01, 10, 2)
        assert got.shape == (0, 10, 2) and got.dtype == np.float64
        with pytest.raises(InvalidArgument, match="^h=0.0 "):
            generate_paths([], 0.0, 10, 2)


def test_normal_inv_cdf_pinned():
    # Golden sha256 of the normals at both split points, their float
    # neighbours, 0.5 and 10^5 stream draws: the central and tail
    # rationals, and where one hands over to the other, to the bit.
    edges = [f(x) for x in (_ACK_SPLIT, 1.0 - _ACK_SPLIT)
             for f in (lambda x: np.nextafter(x, 0.0), float,
                       lambda x: np.nextafter(x, 1.0))] + [0.5]
    u = np.concatenate([edges, _uniforms(2024, 0, 100_000)])
    assert hashlib.sha256(normal_inv_cdf(u).tobytes()).hexdigest() == (
        "287366d9f0b01a18b3db4621ea5ef0d10728dde913ecffd2b1bb63b5933edf91")


def test_generate_path_pinned():
    # Golden sha256 of a 3-channel table over an odd step count: the
    # counters, the normals and the scaling by sqrt(h), to the bit.
    path = generate_path(2025, 0.01, 777, 3)
    assert hashlib.sha256(path.increments.tobytes()).hexdigest() == (
        "ed0ab891b04ef1760b55e25263101742487e0185702858312d6ca80b686cd534")


@pytest.mark.parametrize("shape", [(5,), (5, 1, 1)])
def test_wiener_table_must_be_2d(shape):
    # A 1-D table used to fail later, with an IndexError from `channels`.
    with pytest.raises(InvalidArgument,
                       match=rf"increments=shape \({shape[0]},"):
        WienerPath(0.1, np.zeros(shape))


class TestCoarsen:
    def test_full_collapse_is_column_sum(self):
        p = generate_path(9, 0.5, 64, 2)
        c = coarsen(p, 64)
        assert c.n_steps == 1
        assert np.allclose(c.increments[0], p.increments.sum(axis=0),
                           rtol=1e-14)

    def test_twice_by_two_equals_once_by_four(self):
        p = generate_path(21, 0.1, 4096, 1)
        a = coarsen(coarsen(p, 2), 2)
        b = coarsen(p, 4)
        assert np.array_equal(a.increments, b.increments)
        assert a.h == b.h

    def test_terminal_invariant(self):
        # W(T) is the full collapse; any coarsening first sums it bit for
        # bit the same.
        p = generate_path(33, 0.1, 1024, 2)
        terminal = coarsen(p, 1024).increments[0]
        for factor in (2, 4, 8, 1024):
            c = coarsen(p, factor)
            if c.n_steps > 1:
                c = coarsen(c, c.n_steps)
            assert np.array_equal(c.increments[0], terminal)

    def test_coarse_variance(self):
        h, factor = 0.001, 4
        p = generate_path(13, h, 40_000, 1)
        c = coarsen(p, factor)
        var = c.increments[:, 0].var()
        assert abs(var - h * factor) <= 5 * h * factor * math.sqrt(2 / 10_000)

    def test_indivisible(self):
        p = generate_path(1, 0.1, 10, 1)
        with pytest.raises(InvalidArgument, match="^factor=3 "):
            coarsen(p, 3)
        with pytest.raises(InvalidArgument, match="^factor=1 "):
            coarsen(p, 1)


@pytest.mark.parametrize("call, key", [
    (lambda: generate_path(1, 0.1, 4, 1.5), "channels"),
    (lambda: generate_path(1, 0.1, 4, True), "channels"),
    (lambda: zero_path(0.1, 4, 1.5), "channels"),
    (lambda: coarsen(generate_path(1, 0.1, 4), 2.0), "factor"),
    (lambda: TimeGrid(0.0, 0.1, True), "n_steps"),
], ids=["generate-float", "generate-bool", "zero-float", "coarsen-float",
        "grid-bool"])
def test_counts_must_be_whole_numbers(call, key):
    # These used to raise a bare TypeError from numpy, or (the grid) pass.
    with pytest.raises(InvalidArgument,
                       match=rf"^{key}=\S+ must be a whole number$"):
        call()


def test_numpy_integer_counts_are_whole_numbers():
    path = generate_path(1, 0.1, 4, np.int64(2))
    assert path.channels == 2
    assert coarsen(path, np.int64(2)).n_steps == 2
    assert np.array_equal(generate_path(np.int64(1), 0.1, 4, 2).increments,
                          path.increments)
    assert spawn_substream(np.uint64(5), np.int32(2)) == spawn_substream(5, 2)


class TestSpawnSubstream:
    def test_deterministic(self):
        assert spawn_substream(5, 10) == spawn_substream(5, 10)

    def test_distinct(self):
        rng = np.random.default_rng(0)
        for s in rng.integers(0, 2 ** 63, size=1000):
            assert spawn_substream(int(s), 0) != spawn_substream(int(s), 1)

    # Child seeds at indices 0, 63 and 2**40, for seeds at the edges of
    # the 64-bit wrap, as Python and numpy integers.
    @pytest.mark.parametrize("seed, children", [
        (0, [15388598648594725369, 30237139133491901,
             13494130784414819841]),
        (-1, [13608412451125358996, 9595981085522689516,
              17745374172141867368]),
        (2 ** 63, [8190084633585348210, 6152476760588735101,
                   16409578389204777756]),
        (2 ** 64 - 1, [13608412451125358996, 9595981085522689516,
                       17745374172141867368]),
        (np.int64(-1), [13608412451125358996, 9595981085522689516,
                        17745374172141867368]),
        (np.int64(2 ** 63 - 1), [15343687550378153929, 13240458151981394134,
                                 3350914516879228864]),
        (np.uint64(2 ** 63), [8190084633585348210, 6152476760588735101,
                              16409578389204777756]),
        (np.uint64(2 ** 64 - 1), [13608412451125358996, 9595981085522689516,
                                  17745374172141867368]),
    ], ids=["0", "-1", "2**63", "2**64-1", "int64(-1)", "int64(2**63-1)",
            "uint64(2**63)", "uint64(2**64-1)"])
    def test_pinned(self, seed, children):
        got = [spawn_substream(seed, i) for i in (0, 63, 2 ** 40)]
        assert got == children
        assert all(type(c) is int for c in got)

    def test_stream_independence(self):
        a = generate_path(spawn_substream(5, 0), 1.0, 10_000, 1)
        b = generate_path(spawn_substream(5, 1), 1.0, 10_000, 1)
        corr = np.corrcoef(a.increments[:, 0], b.increments[:, 0])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(10_000)


def test_zero_path():
    p = zero_path(0.1, 5, 2)
    assert not p.increments.any()
