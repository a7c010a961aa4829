"""Tests for the GrayImage container."""

import numpy as np
import pytest

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage


class TestConstruction:
    def test_basic_construction(self):
        image = GrayImage(2, 3, [0, 1, 2, 3, 4, 5])
        assert image.width == 2
        assert image.height == 3
        assert image.pixel_count == 6
        assert image.bit_depth == 8
        assert image.max_value == 255

    def test_pixel_count_mismatch_rejected(self):
        with pytest.raises(ImageFormatError):
            GrayImage(2, 2, [1, 2, 3])

    def test_out_of_range_pixel_rejected(self):
        with pytest.raises(ImageFormatError):
            GrayImage(1, 1, [256])
        with pytest.raises(ImageFormatError):
            GrayImage(1, 1, [-1])

    @pytest.mark.parametrize(
        "samples", [[3.7], ["7"], [None], np.array([2.0]), np.array(["7"])]
    )
    def test_non_integral_samples_rejected(self, samples):
        with pytest.raises(ImageFormatError):
            GrayImage(1, 1, samples)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ImageFormatError):
            GrayImage(0, 5, [])
        with pytest.raises(ImageFormatError):
            GrayImage(5, -1, [])

    def test_invalid_bit_depth_rejected(self):
        with pytest.raises(ImageFormatError):
            GrayImage(1, 1, [0], bit_depth=0)
        with pytest.raises(ImageFormatError):
            GrayImage(1, 1, [0], bit_depth=17)

    def test_16_bit_samples(self):
        image = GrayImage(2, 1, [0, 65535], bit_depth=16)
        assert image.max_value == 65535

    def test_from_rows(self):
        image = GrayImage.from_rows([[1, 2], [3, 4]])
        assert image.pixels() == [1, 2, 3, 4]

    def test_from_rows_ragged_rejected(self):
        with pytest.raises(ImageFormatError):
            GrayImage.from_rows([[1, 2], [3]])

    def test_from_rows_empty_rejected(self):
        with pytest.raises(ImageFormatError):
            GrayImage.from_rows([])

    def test_from_array_clips_and_rounds(self):
        array = np.array([[255.7, -3.0], [12.4, 12.6]])
        image = GrayImage.from_array(array)
        assert image.pixels() == [255, 0, 12, 13]

    def test_from_array_requires_2d(self):
        with pytest.raises(ImageFormatError):
            GrayImage.from_array(np.zeros(5))

    def test_constant(self):
        image = GrayImage.constant(3, 2, 9)
        assert image.pixels() == [9] * 6


class TestAccessors:
    def test_get_and_row(self):
        image = GrayImage.from_rows([[1, 2, 3], [4, 5, 6]])
        assert image.get(0, 0) == 1
        assert image.get(2, 1) == 6
        assert image.row(1) == [4, 5, 6]

    def test_get_out_of_bounds(self):
        image = GrayImage.constant(2, 2, 0)
        with pytest.raises(ImageFormatError):
            image.get(2, 0)
        with pytest.raises(ImageFormatError):
            image.get(0, -1)

    def test_row_out_of_bounds(self):
        with pytest.raises(ImageFormatError):
            GrayImage.constant(2, 2, 0).row(2)

    def test_to_array_round_trips(self):
        image = GrayImage.from_rows([[1, 2], [3, 4]])
        assert GrayImage.from_array(image.to_array()) == image

    def test_to_bytes_8bit(self):
        image = GrayImage(2, 1, [1, 255])
        assert image.to_bytes() == bytes([1, 255])

    def test_to_bytes_16bit_big_endian(self):
        image = GrayImage(1, 1, [0x0102], bit_depth=16)
        assert image.to_bytes() == bytes([0x01, 0x02])

    @pytest.mark.parametrize("bit_depth", [1, 8, 16])
    def test_views_are_python_ints(self, bit_depth):
        top = (1 << bit_depth) - 1
        image = GrayImage(2, 1, [0, top], bit_depth=bit_depth)
        views = [image.get(1, 0), *image.row(0), *image.pixels(), *image.iter_pixels()]
        assert all(type(value) is int for value in views)
        # Fixed-width scalars would wrap here; the reference engine relies on it not.
        assert image.get(1, 0) + 1 == top + 1
        assert image.to_array().dtype == np.int64

    def test_construction_copies_its_input(self):
        samples = np.array([[1, 2], [3, 4]])
        image = GrayImage(2, 2, samples)
        samples[0, 0] = 99
        assert image.get(0, 0) == 1

    def test_pixels_returns_copy(self):
        image = GrayImage.constant(2, 2, 5)
        pixels = image.pixels()
        pixels[0] = 99
        assert image.get(0, 0) == 5

    def test_with_name(self):
        image = GrayImage.constant(2, 2, 5).with_name("label")
        assert image.name == "label"


class TestEquality:
    def test_equal_images(self):
        a = GrayImage(2, 1, [1, 2])
        b = GrayImage(2, 1, [1, 2])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_pixels(self):
        assert GrayImage(2, 1, [1, 2]) != GrayImage(2, 1, [1, 3])

    def test_different_geometry(self):
        assert GrayImage(2, 1, [1, 2]) != GrayImage(1, 2, [1, 2])

    def test_non_image_comparison(self):
        assert GrayImage(1, 1, [0]) != "not an image"

    def test_repr_contains_geometry(self):
        assert "3x2" in repr(GrayImage.constant(3, 2, 0))
