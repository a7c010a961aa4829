"""Seeded inputs of every workload.

All inputs come from the program's synthetic corpus generator
(``repro.imaging.synthetic``) driven by the benchmark seed, so the same
seed gives the same images, the same region sequence and the same
never-seen ingest images.  Expected pixels are computed here from the
source arrays, never from the program's own output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

#: Corpus images are SIZE x SIZE unless a workload says otherwise; served
#: images are stored with STRIPES stripes (a 64-row image has the serve
#: tier's 8-row cells).
SIZE = 64
STRIPES = 8

#: Region reads as stripe ranges ``[start, stop)``: every single-stripe
#: region, and the same plus the two-stripe regions at even starts.  Two
#: thirds of the mixed reads are single-stripe, so the median falls inside
#: the single-stripe population and the 90th percentile inside the other.
SINGLE_STRIPE_REGIONS: Tuple[Tuple[int, int], ...] = tuple(
    (start, start + 1) for start in range(STRIPES)
)
MIXED_REGIONS: Tuple[Tuple[int, int], ...] = SINGLE_STRIPE_REGIONS + tuple(
    (start, start + 2) for start in range(0, STRIPES - 1, 2)
)

#: One put per READS_PER_PUT region reads in regions-cold-ingest; the read
#: right after a put fetches a region of the image just stored.
READS_PER_PUT = 10


@dataclass(frozen=True)
class SourceImage:
    """One input image: ``planes`` is a ``(C, H, W)`` uint8 array."""

    name: str
    planes: np.ndarray

    @property
    def samples(self) -> int:
        return int(self.planes.size)

    def netpbm(self) -> bytes:
        """PGM (one plane) or PPM (three planes) bytes of the image."""
        count, height, width = self.planes.shape
        magic = b"P5" if count == 1 else b"P6"
        header = b"%s\n%d %d\n255\n" % (magic, width, height)
        return header + np.ascontiguousarray(self.planes.transpose(1, 2, 0)).tobytes()

    def region_pixels(self, region: Tuple[int, int]) -> List[List[int]]:
        """Row-major pixels of every plane over stripes ``[start, stop)``."""
        start, stop = region
        rows_per_stripe = self.planes.shape[1] // STRIPES
        rows = self.planes[:, start * rows_per_stripe : stop * rows_per_stripe, :]
        return [plane.ravel().tolist() for plane in rows]


def _corpus_image(index: int, seed: int, planar: bool, size: int = SIZE) -> SourceImage:
    from repro.imaging.synthetic import (
        CORPUS_IMAGE_NAMES,
        generate_image,
        generate_planar_image,
    )

    name = CORPUS_IMAGE_NAMES[index % len(CORPUS_IMAGE_NAMES)]
    image_seed = seed * 1009 + index
    if planar:
        array = generate_planar_image(name, size=size, seed=image_seed).to_array()
        planes = array.transpose(2, 0, 1)
    else:
        planes = generate_image(name, size=size, seed=image_seed).to_array()[None]
    kind = "rgb" if planar else "grey"
    return SourceImage("%s-%s-%d" % (name, kind, index), planes.astype(np.uint8))


def codec_corpus(seed: int) -> List[SourceImage]:
    """The seven corpus images: four grey, three 3-plane (odd positions)."""
    return [_corpus_image(index, seed, planar=index % 2 == 1) for index in range(7)]


def working_set(seed: int, count: int, planar: bool, size: int) -> List[SourceImage]:
    """``count`` served images of ``size`` x ``size``, all 3-plane or all grey."""
    return [_corpus_image(index, seed + 7919, planar, size) for index in range(count)]


def pixels_of(image) -> List[List[int]]:
    """Row-major pixels of a decoded ``GrayImage`` or ``PlanarImage``."""
    if hasattr(image, "planes"):
        return [plane.pixels() for plane in image.planes()]
    return [image.pixels()]


# ---------------------------------------------------------------------- #
# operation streams
# ---------------------------------------------------------------------- #


def _shuffled_cycles(rng: np.random.Generator, size: int) -> Iterator[int]:
    """Endless passes over ``range(size)``, each in a fresh seeded order.

    Every pass touches each item once, so runs of different seeds read the
    same mix of grey and 3-plane, single- and two-stripe regions.
    """
    while True:
        yield from rng.permutation(size).tolist()


def hot_ops(seed: int, stream: int, images: int, regions: int) -> Iterator[Tuple[str, int, int]]:
    """Endless ``("read", image, region)`` ops over every region of the working set."""
    rng = np.random.default_rng([seed, stream])
    for pick in _shuffled_cycles(rng, images * regions):
        yield ("read", pick // regions, pick % regions)


def cold_ops(seed: int, stream: int, images: int, regions: int) -> Iterator[Tuple[str, int, int]]:
    """Endless reads with one put of a never-seen image per ten reads.

    Ops are ``("read", image, region)``, ``("put", put_number, 0)`` and
    ``("read_new", 0, region)``, the last reading the image just put.
    """
    rng = np.random.default_rng([seed, stream])
    reads = _shuffled_cycles(rng, images * regions)
    new_regions = _shuffled_cycles(rng, regions)
    puts = 0
    while True:
        for _ in range(READS_PER_PUT - 1):
            pick = next(reads)
            yield ("read", pick // regions, pick % regions)
        yield ("put", puts, 0)
        puts += 1
        yield ("read_new", 0, next(new_regions))


def ingest_image(
    seed: int, stream: int, number: int, base: List[SourceImage]
) -> SourceImage:
    """Put image ``number`` of ``stream``: a working-set image plus fresh noise."""
    source = base[number % len(base)]
    rng = np.random.default_rng([seed, 1000 + stream, number])
    noise = rng.integers(-2, 3, size=source.planes.shape)
    planes = np.clip(source.planes.astype(np.int16) + noise, 0, 255).astype(np.uint8)
    return SourceImage("put-%d-%d" % (stream, number), planes)
