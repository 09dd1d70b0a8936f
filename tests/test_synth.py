"""Tests for the synthetic scene generator and augmentation."""

import numpy as np
import pytest

from saan import density, synth
from saan.errors import ShapeError


class TestSynthScene:
    def test_deterministic(self):
        img1, pts1 = synth.synth_scene(123, 48, 64, (5, 20))
        img2, pts2 = synth.synth_scene(123, 48, 64, (5, 20))
        np.testing.assert_array_equal(img1, img2)
        np.testing.assert_array_equal(pts1, pts2)

    def test_fixed_count(self):
        _, pts = synth.synth_scene(7, 64, 64, (5, 5))
        assert pts.shape == (5, 2)

    def test_pixels_in_unit_range(self):
        img, _ = synth.synth_scene(9, 64, 64, (10, 30))
        assert img.shape == (1, 64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_points_in_bounds(self):
        _, pts = synth.synth_scene(11, 40, 56, (20, 20))
        assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 55)
        assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= 39)

    def test_density_integral_matches_count(self):
        for seed in (1, 2, 3):
            img, pts = synth.synth_scene(seed, 64, 64, (5, 50))
            m = density.gaussian_density_map(pts, 64, 64, sigma=4.0)
            assert abs(round(m.sum()) - len(pts)) < 1e-3

    def test_seeds_differ(self):
        img1, _ = synth.synth_scene(1, 32, 32, (5, 5))
        img2, _ = synth.synth_scene(2, 32, 32, (5, 5))
        assert not np.array_equal(img1, img2)


class TestAugment:
    def _scene(self, seed=3, hw=64):
        img, pts = synth.synth_scene(seed, hw, hw, (12, 12))
        return img, density.gaussian_density_map(pts, hw, hw, sigma=4.0)

    def test_full_crop_is_identity_or_flip(self):
        img, den = self._scene()
        flips = set()
        for seed in range(20):
            ai, ad = synth.augment(img, den, seed, 64)
            flip = not np.array_equal(ai, img)
            np.testing.assert_array_equal(ai, img[:, :, ::-1] if flip else img)
            np.testing.assert_array_equal(ad, den[:, ::-1] if flip else den)
            flips.add(flip)
        assert flips == {False, True}

    def test_deterministic(self):
        img, den = self._scene()
        a1 = synth.augment(img, den, 42, 32)
        a2 = synth.augment(img, den, 42, 32)
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)

    def test_crop_alignment_and_shapes(self):
        # every pixel holds its own index, so a crop names its window; the
        # map is twice the image, so it must share the window and the flip
        img = np.arange(64 * 64, dtype=np.float64).reshape(1, 64, 64)
        den = 2.0 * img[0]
        flips = set()
        for seed in range(20):
            ai, ad = synth.augment(img, den, seed, 32)
            assert ai.shape == (1, 32, 32) and ad.shape == (32, 32)
            np.testing.assert_array_equal(ad, 2.0 * ai[0])
            top, left = divmod(int(ai.min()), 64)
            assert top % 4 == 0 and left % 4 == 0
            window = img[:, top:top + 32, left:left + 32]
            flip = not np.array_equal(ai, window)
            np.testing.assert_array_equal(ai, window[:, :, ::-1] if flip else window)
            flips.add(flip)
        assert flips == {False, True}

    def test_cropped_density_exact_when_dots_clear_the_cut(self):
        # every kernel (reach ceil(4*sigma) = 16 px) stays on one side of
        # the 32px crop lines, so no mass leaks across the cut; seed 34
        # draws the top-left window, unflipped
        pts = np.array([[8.0, 8.0], [14.0, 3.0], [52.0, 30.0], [30.0, 52.0]])
        den = density.gaussian_density_map(pts, 64, 64, sigma=4.0)
        _, cd = synth.augment(np.zeros((1, 64, 64)), den, 34, 32)
        np.testing.assert_array_equal(cd, den[:32, :32])
        assert abs(cd.sum() - 2.0) < 1e-9

    def test_cropped_density_bounded_by_edge_leakage(self):
        # one dot straddles the cut: its surviving mass is partial, but
        # the discrepancy is bounded by that dot's unit mass; seed 142
        # draws the top-left window, flipped
        pts = np.array([[8.0, 8.0], [31.0, 8.0]])
        den = density.gaussian_density_map(pts, 64, 64, sigma=4.0)
        _, cd = synth.augment(np.zeros((1, 64, 64)), den, 142, 32)
        np.testing.assert_array_equal(cd, den[:32, 31::-1])
        assert abs(cd.sum() - 2.0) <= 1.0
        assert cd.sum() < 2.0  # some mass really did leak out

    def test_invalid_crop_raises(self):
        img, den = self._scene()
        with pytest.raises(ShapeError, match="divisible"):
            synth.augment(img, den, 0, 30)
        with pytest.raises(ShapeError, match="exceeds"):
            synth.augment(img, den, 0, 128)
