"""Property-based conformance of Netpbm I/O: every writer output reads back exactly.

Images are drawn over every bit depth (1-16), the three plane counts that
pick the three formats (1 → PGM, 3 → PPM, 4 → PAM), geometries up to 8×8
and both binary and ASCII variants (PAM has no ASCII form, so ``binary``
is moot there).  Binary files are also checked for their exact length:
the header :func:`netpbm_region_header` synthesises, then one byte per
sample up to 8 bits and two above.
"""

from __future__ import annotations

import io

from hypothesis import given
from hypothesis import strategies as st

from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage
from repro.imaging.pnm import (
    netpbm_region_header,
    read_image,
    split_netpbm_payload,
    write_image,
)


@st.composite
def netpbm_images(draw):
    bit_depth = draw(st.integers(1, 16))
    planes = draw(st.sampled_from([1, 3, 4]))
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    top = (1 << bit_depth) - 1
    count = width * height
    layers = [
        GrayImage(
            width,
            height,
            draw(st.lists(st.integers(0, top), min_size=count, max_size=count)),
            bit_depth,
        )
        for _ in range(planes)
    ]
    return layers[0] if planes == 1 else PlanarImage(layers)


def _plane_count(image) -> int:
    return image.num_planes if isinstance(image, PlanarImage) else 1


@given(image=netpbm_images(), binary=st.booleans())
def test_write_then_read_is_identity(image, binary):
    buffer = io.BytesIO()
    write_image(image, buffer, binary=binary)
    assert read_image(io.BytesIO(buffer.getvalue())) == image


@given(image=netpbm_images())
def test_binary_body_is_header_then_raw_samples(image):
    buffer = io.BytesIO()
    write_image(image, buffer)
    header, body = split_netpbm_payload(buffer.getvalue())
    planes = _plane_count(image)
    expected_header, _ = netpbm_region_header(planes, image.width, image.height, image.bit_depth)
    assert header == expected_header
    sample_size = 1 if image.bit_depth <= 8 else 2
    assert len(body) == image.width * image.height * planes * sample_size
