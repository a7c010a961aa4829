"""Grey-scale image container.

All codecs in this package operate on :class:`GrayImage`: a small, immutable
image with an explicit bit depth.  The samples live in one private,
read-only numpy array (``uint8`` up to 8 bits, ``uint16`` above), so
building an image, comparing it and serialising it are array operations.
The accessor views (:meth:`~GrayImage.pixels`, :meth:`~GrayImage.row`,
:meth:`~GrayImage.get`, :meth:`~GrayImage.iter_pixels`) hand out plain
Python integers: the reference engine is integer-exact, and fixed-width
numpy scalars would wrap where its arithmetic must not.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.exceptions import ImageFormatError

__all__ = ["GrayImage", "raw_sample_dtype"]


def raw_sample_dtype(bit_depth: int) -> np.dtype:
    """The raw (Netpbm) sample type: one byte up to 8 bits, big-endian 16-bit above."""
    return np.dtype("u1" if bit_depth <= 8 else ">u2")


class GrayImage:
    """An immutable grey-scale image of ``height`` x ``width`` pixels.

    Parameters
    ----------
    width, height:
        Image dimensions in pixels; both must be positive.
    pixels:
        ``width * height`` integer samples in row-major order: a sequence or
        an integer array of any shape.  They are copied; float, string and
        object samples are rejected (:meth:`from_array` rounds floats).
    bit_depth:
        Bits per sample (1-16).  All samples must lie in
        ``[0, 2**bit_depth - 1]``.
    name:
        Optional label used in reports (e.g. the corpus image name).
    """

    __slots__ = ("_width", "_height", "_array", "_bit_depth", "_name")

    def __init__(
        self,
        width: int,
        height: int,
        pixels: Union[Sequence[int], np.ndarray],
        bit_depth: int = 8,
        name: str = "",
    ) -> None:
        if width <= 0 or height <= 0:
            raise ImageFormatError(
                "image dimensions must be positive, got %dx%d" % (width, height)
            )
        if not 1 <= bit_depth <= 16:
            raise ImageFormatError("bit_depth must be in [1, 16], got %d" % bit_depth)
        samples = np.asarray(pixels)
        if samples.dtype.kind not in "biu":
            raise ImageFormatError(
                "pixel samples must be integers, got dtype %s" % samples.dtype
            )
        if samples.size != width * height:
            raise ImageFormatError(
                "expected %d pixels for %dx%d image, got %d"
                % (width * height, width, height, samples.size)
            )
        max_value = (1 << bit_depth) - 1
        low, high = int(samples.min()), int(samples.max())
        if low < 0 or high > max_value:
            raise ImageFormatError(
                "pixel value %d outside [0, %d] for bit depth %d"
                % (low if low < 0 else high, max_value, bit_depth)
            )
        array = samples.astype(np.uint8 if bit_depth <= 8 else np.uint16)
        array = array.reshape(height, width)
        array.flags.writeable = False
        self._width = width
        self._height = height
        self._array = array
        self._bit_depth = bit_depth
        self._name = name

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_array(cls, array: np.ndarray, bit_depth: int = 8, name: str = "") -> "GrayImage":
        """Build an image from a 2-D numpy array (values are rounded and clipped)."""
        if array.ndim != 2:
            raise ImageFormatError(
                "expected a 2-D array, got %d dimensions" % array.ndim
            )
        max_value = (1 << bit_depth) - 1
        clipped = np.clip(np.rint(array), 0, max_value).astype(np.int64)
        height, width = clipped.shape
        return cls(width, height, clipped, bit_depth, name)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], bit_depth: int = 8, name: str = "") -> "GrayImage":
        """Build an image from a list of equal-length rows."""
        if not rows:
            raise ImageFormatError("cannot build an image from zero rows")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ImageFormatError("rows have inconsistent lengths")
        return cls(width, len(rows), np.asarray(rows), bit_depth, name)

    @classmethod
    def constant(cls, width: int, height: int, value: int, bit_depth: int = 8, name: str = "") -> "GrayImage":
        """Build an image filled with a single value."""
        # Clamped so that bad dimensions reach the constructor's own check.
        return cls(width, height, np.full(max(width * height, 0), value), bit_depth, name)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def width(self) -> int:
        return self._width

    @property
    def height(self) -> int:
        return self._height

    @property
    def bit_depth(self) -> int:
        return self._bit_depth

    @property
    def name(self) -> str:
        return self._name

    @property
    def max_value(self) -> int:
        """Largest representable sample value."""
        return (1 << self._bit_depth) - 1

    @property
    def pixel_count(self) -> int:
        return self._width * self._height

    def get(self, x: int, y: int) -> int:
        """Return the sample at column ``x``, row ``y`` (bounds-checked)."""
        if not 0 <= x < self._width or not 0 <= y < self._height:
            raise ImageFormatError(
                "pixel (%d, %d) outside %dx%d image"
                % (x, y, self._width, self._height)
            )
        return int(self._array[y, x])

    def row(self, y: int) -> List[int]:
        """Return row ``y`` as a list."""
        if not 0 <= y < self._height:
            raise ImageFormatError("row %d outside image of height %d" % (y, self._height))
        return self._array[y].tolist()

    def pixels(self) -> List[int]:
        """Return a copy of the row-major pixel list."""
        return self._array.reshape(-1).tolist()

    def iter_pixels(self) -> Iterable[int]:
        """Iterate over pixels in raster order."""
        return iter(self.pixels())

    def to_array(self) -> np.ndarray:
        """Return the image as a 2-D numpy array of int64."""
        return self._array.astype(np.int64)

    def to_bytes(self) -> bytes:
        """Serialise the raw samples (big-endian 16-bit when depth > 8)."""
        return self._array.astype(raw_sample_dtype(self._bit_depth)).tobytes()

    def with_name(self, name: str) -> "GrayImage":
        """Return a copy of this image carrying a different label."""
        return GrayImage(self._width, self._height, self._array, self._bit_depth, name)

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self._width == other._width
            and self._height == other._height
            and self._bit_depth == other._bit_depth
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self) -> int:
        return hash((self._width, self._height, self._bit_depth, self._array.tobytes()))

    def __repr__(self) -> str:
        label = " %r" % self._name if self._name else ""
        return "<GrayImage%s %dx%d depth=%d>" % (
            label,
            self._width,
            self._height,
            self._bit_depth,
        )
