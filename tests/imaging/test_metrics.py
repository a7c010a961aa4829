"""Tests for the image/bitstream metrics."""

import pytest

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage
from repro.imaging.metrics import (
    average_bits_per_pixel,
    bits_per_pixel,
    compression_ratio,
    first_order_entropy,
    gradient_statistics,
    histogram,
    images_identical,
    mean_absolute_error,
    residual_entropy,
)


class TestEntropy:
    def test_constant_image_has_zero_entropy(self):
        assert first_order_entropy(GrayImage.constant(8, 8, 42)) == 0.0

    def test_two_equally_likely_values_give_one_bit(self):
        image = GrayImage(2, 1, [0, 255])
        assert abs(first_order_entropy(image) - 1.0) < 1e-12

    def test_uniform_histogram_gives_log2_levels(self):
        image = GrayImage(4, 1, [0, 1, 2, 3])
        assert abs(first_order_entropy(image) - 2.0) < 1e-12

    def test_residual_entropy_of_ramp_is_near_zero(self):
        image = GrayImage.from_rows([[0, 1, 2, 3, 4, 5, 6, 7]] * 4)
        assert residual_entropy(image) < 0.6

    def test_histogram_counts(self):
        image = GrayImage(3, 1, [5, 5, 9])
        assert histogram(image) == {5: 2, 9: 1}


class TestRates:
    def test_bits_per_pixel(self):
        image = GrayImage.constant(10, 10, 0)
        assert bits_per_pixel(b"\x00" * 25, image) == 2.0

    def test_compression_ratio(self):
        image = GrayImage.constant(10, 10, 0)  # 100 pixels x 8 bits = 800 bits
        assert compression_ratio(b"\x00" * 25, image) == 4.0

    def test_ratio_of_empty_stream_rejected(self):
        with pytest.raises(ImageFormatError):
            compression_ratio(b"", GrayImage.constant(2, 2, 0))

    def test_average(self):
        assert average_bits_per_pixel([4.0, 5.0, 6.0]) == 5.0

    def test_average_of_empty_rejected(self):
        with pytest.raises(ImageFormatError):
            average_bits_per_pixel([])


class TestComparisons:
    def test_identical_images(self):
        a = GrayImage.constant(4, 4, 7)
        b = GrayImage.constant(4, 4, 7)
        assert images_identical(a, b)
        assert mean_absolute_error(a, b) == 0.0

    def test_different_images(self):
        a = GrayImage.constant(4, 4, 7)
        b = GrayImage.constant(4, 4, 8)
        assert not images_identical(a, b)
        assert mean_absolute_error(a, b) == 1.0
        black, white = GrayImage.constant(4, 4, 0), GrayImage.constant(4, 4, 255)
        assert mean_absolute_error(black, white) == mean_absolute_error(white, black) == 255.0

    def test_mismatched_geometry_rejected(self):
        with pytest.raises(ImageFormatError):
            mean_absolute_error(GrayImage.constant(2, 2, 0), GrayImage.constant(3, 2, 0))

    def test_gradient_statistics_of_flat_image(self):
        stats = gradient_statistics(GrayImage.constant(8, 8, 100))
        assert stats["mean_abs_dh"] == 0.0
        assert stats["mean_abs_dv"] == 0.0
        assert stats["std"] == 0.0
