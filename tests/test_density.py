"""Tests for ground-truth density maps and scale binning."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saan import density, ops
from saan.density import ScaleBins, bin_of
from saan.errors import AnnotationError, BinningError, ShapeError

from oracles import naive_box_sum, naive_gathered_box_sum, naive_gaussian_density_map


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestGaussianDensityMap:
    def test_centered_dot_sums_to_one(self):
        m = density.gaussian_density_map([(32.0, 32.0)], 64, 64, sigma=4.0)
        assert abs(m.sum() - 1.0) < 1e-6

    def test_zero_dots(self):
        m = density.gaussian_density_map(np.empty((0, 2)), 16, 16)
        np.testing.assert_array_equal(m, np.zeros((16, 16)))

    def test_corner_dot_renormalized(self):
        m = density.gaussian_density_map([(0.0, 0.0)], 64, 64, sigma=4.0)
        assert abs(m.sum() - 1.0) < 1e-6

    def test_many_dots_sum_to_count(self, rng):
        pts = np.column_stack([rng.uniform(0, 48, 30), rng.uniform(0, 40, 30)])
        m = density.gaussian_density_map(pts, 40, 48, sigma=4.0)
        assert abs(m.sum() - 30.0) < 1e-4
        assert np.all(m >= 0)

    def test_out_of_bounds_names_dot(self):
        for points, message in [
            ([(5.0, 5.0), (70.0, 5.0)], "dot 1 at (70.0, 5.0)"),
            ([(-0.5, 5.0)], "dot 0 at (-0.5, 5.0)"),
            ([(5.0, 5.0), (5.0, 64.0)], "dot 1 at (5.0, 64.0)"),
            ([(5.0, 5.0), (np.nan, 5.0), (99.0, 5.0)], "dot 1 at (nan, 5.0)"),
            ([(5.0, np.inf)], "dot 0 at (5.0, inf)"),
        ]:
            with pytest.raises(AnnotationError) as exc:
                density.gaussian_density_map(points, 64, 64)
            assert str(exc.value) == f"{message} lies outside the 64x64 image"

    def test_bad_sigma(self):
        for sigma in (0.0, -1.0, np.nan, np.inf, 1e-200):
            with pytest.raises(ValueError, match="sigma"):
                density.gaussian_density_map([(1.0, 1.0)], 8, 8, sigma=sigma)

    def test_wide_sigma_table_is_clipped_to_the_image(self):
        # r = ceil(4 sigma) = 40000: an unclipped table would be 80001^2
        # float64; clipped to |dy| <= 20, |dx| <= 30 it is 41x61
        tracemalloc.start()
        try:
            m = density.gaussian_density_map([(0.0, 0.0), (29.5, 19.5)], 20, 30, sigma=1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert abs(m.sum() - 2.0) < 1e-9


def _edge_dots(h, w):
    """Every corner and edge midpoint, plus x = W - 0.5 and y = H - 0.5,
    which round half to even onto column W and row H when W, H are even."""
    xs = (0.0, w / 2, w - 1.0, w - 0.5)
    ys = (0.0, h / 2, h - 1.0, h - 0.5)
    return [(x, y) for x in xs for y in ys if x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])]


def _coordinate(n):
    """A coordinate on a side of n pixels: any float in [0, n), or a
    half-integer, which rounds half to even."""
    return st.one_of(st.floats(0.0, float(n), exclude_max=True),
                     st.integers(0, 2 * n - 1).map(lambda k: k / 2))


DENSITY_CASES = [
    pytest.param([(0.0, 0.0), (2.5, 1.5), (6.5, 4.5), (3.2, 2.7)], 5, 7,
                 id="smaller_than_a_stamp"),
    pytest.param(_edge_dots(40, 48), 40, 48, id="edges_and_corners"),
    pytest.param(_edge_dots(33, 35) + [(17.0, 16.0)], 33, 35, id="odd_sides"),
    pytest.param([(0.0, 0.0), (0.5, 0.5)], 1, 1, id="one_pixel"),
    # at sigma 1e4 a stamp covers 96x128 = 12288 pixels: more than one
    # 8192-element reduction buffer, so its sum depends on its memory layout
    pytest.param(_edge_dots(96, 128), 96, 128, id="wide_stamp"),
    pytest.param(np.empty((0, 2)), 16, 24, id="no_dots"),
]


class TestGaussianMatchesNaiveOracle:
    @pytest.mark.parametrize("sigma", [0.7, 2.3, 4.0, 1e4])
    @pytest.mark.parametrize("points, h, w", DENSITY_CASES)
    def test_bytes_equal(self, points, h, w, sigma):
        got = density.gaussian_density_map(points, h, w, sigma=sigma)
        want = naive_gaussian_density_map(points, h, w, sigma=sigma)
        assert got.tobytes() == want.tobytes()

    def test_bytes_equal_at_384x512(self, rng):
        pts = np.column_stack([rng.uniform(0, 512, 1200), rng.uniform(0, 384, 1200)])
        pts[:8] = [(0, 0), (511.5, 383.5), (0, 383.5), (511.5, 0),
                   (255.5, 0), (0, 191.5), (16.5, 16.5), (495.5, 367.5)]
        got = density.gaussian_density_map(pts, 384, 512)
        assert got.tobytes() == naive_gaussian_density_map(pts, 384, 512).tobytes()
        local = ops.box_sum(got, density.LOCAL_RADIUS)
        assert local.tobytes() == naive_gathered_box_sum(got, density.LOCAL_RADIUS).tobytes()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_maps_bytes_equal(self, data):
        h = data.draw(st.integers(1, 40), label="h")
        w = data.draw(st.integers(1, 40), label="w")
        sigma = data.draw(st.one_of(st.floats(0.1, 12.0), st.sampled_from([1e4, 1e300])),
                          label="sigma")
        points = data.draw(st.lists(st.tuples(_coordinate(w), _coordinate(h)), max_size=12),
                           label="points")
        got = density.gaussian_density_map(points, h, w, sigma=sigma)
        assert got.tobytes() == naive_gaussian_density_map(points, h, w, sigma=sigma).tobytes()
        radius = data.draw(st.integers(0, 45), label="radius")
        assert ops.box_sum(got, radius).tobytes() == naive_gathered_box_sum(got, radius).tobytes()


class TestBinOf:
    def test_equal_width_edges(self):
        # range [10, 40]: bins [10,20), [20,30), [30,40]
        assert bin_of(10.0, 10.0, 40.0) == 1
        assert bin_of(19.999, 10.0, 40.0) == 1
        assert bin_of(20.0, 10.0, 40.0) == 2
        assert bin_of(25.0, 10.0, 40.0) == 2
        assert bin_of(30.0, 10.0, 40.0) == 3
        assert bin_of(40.0, 10.0, 40.0) == 3

    def test_clamping(self):
        assert bin_of(5.0, 10.0, 40.0) == 1
        assert bin_of(95.0, 10.0, 40.0) == 3

    def test_monotone(self, rng):
        v = np.sort(rng.uniform(-10, 60, 100))
        classes = bin_of(v, 10.0, 40.0)
        assert np.all(np.diff(classes) >= 0)


class TestComputeBins:
    def _map_with_count(self, rng, count, h=64, w=64):
        pts = np.column_stack(
            [rng.uniform(0, w - 1, count), rng.uniform(0, h - 1, count)]
        )
        return density.gaussian_density_map(pts, h, w)

    def test_ranges_from_training_counts(self, rng):
        maps = [self._map_with_count(rng, c) for c in (10, 25, 40)]
        bins = density.compute_bins(maps)
        assert bins.global_min == pytest.approx(10.0, abs=1e-6)
        assert bins.global_max == pytest.approx(40.0, abs=1e-6)
        assert density.global_scale_label(maps[0], bins) == 1
        assert density.global_scale_label(maps[1], bins) == 2
        assert density.global_scale_label(maps[2], bins) == 3

    def test_degenerate_counts_raise(self, rng):
        # identical maps, so the counts match bitwise and the range collapses
        m = self._map_with_count(rng, 7)
        with pytest.raises(BinningError, match="degenerate"):
            density.compute_bins([m, m.copy(), m.copy()])

    def test_empty_raises(self):
        for maps in ([], iter(())):
            with pytest.raises(BinningError, match="^cannot compute bins from an empty"):
                density.compute_bins(maps)

    def test_reads_a_generator_once(self, rng):
        maps = [self._map_with_count(rng, c) for c in (10, 25, 40)]
        assert density.compute_bins(m for m in maps) == density.compute_bins(maps)


class TestGlobalScaleLabel:
    def test_bin_boundary_cases(self):
        bins = ScaleBins(10.0, 40.0, 0.0, 1.0)
        m35 = np.zeros((8, 8))
        m35[0, 0] = 35.0
        assert density.global_scale_label(m35, bins) == 3
        m5 = np.zeros((8, 8))
        m5[0, 0] = 5.0
        assert density.global_scale_label(m5, bins) == 1


class TestLocalScaleMap:
    def test_empty_map_is_all_ones(self):
        bins = ScaleBins(1.0, 9.0, 0.0, 4.0)
        labels = density.local_scale_map(np.zeros((16, 16)), bins)
        np.testing.assert_array_equal(labels, np.ones((4, 4), dtype=labels.dtype))

    def test_output_dims(self, rng):
        bins = ScaleBins(1.0, 9.0, 0.0, 4.0)
        labels = density.local_scale_map(rng.uniform(0, 0.1, (64, 32)), bins)
        assert labels.shape == (16, 8)
        assert labels.min() >= 1 and labels.max() <= 3

    def test_matches_naive_per_pixel(self, rng):
        m = rng.uniform(0, 0.05, (32, 32))
        bins = ScaleBins(1.0, 9.0, 0.5, 20.0)
        labels = density.local_scale_map(m, bins)
        naive_counts = naive_box_sum(m, 32)
        for i in range(8):
            for j in range(8):
                want = bin_of(naive_counts[4 * i, 4 * j], bins.local_min, bins.local_max)
                assert labels[i, j] == want

    def test_indivisible_raises(self, rng):
        bins = ScaleBins(1.0, 9.0, 0.0, 4.0)
        with pytest.raises(ShapeError):
            density.local_scale_map(rng.uniform(0, 1, (18, 16)), bins)


class TestScaleBins:
    def test_inverted_range_rejected(self):
        with pytest.raises(BinningError):
            ScaleBins(10.0, 5.0, 0.0, 1.0)
        with pytest.raises(BinningError):
            ScaleBins(0.0, 1.0, 4.0, 2.0)
