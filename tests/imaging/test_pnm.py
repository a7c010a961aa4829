"""Tests for PGM reading and writing."""

import io

import pytest

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage
from repro.imaging.pnm import read_image, read_pgm, write_image, write_pam, write_pgm

# One fixed 3x2 image per writer format.  The expected bytes are literal, so
# an endianness or interleave-order slip shared by reader and writer (which
# a round trip cannot see) still fails here.
_GRAY_8 = GrayImage.from_rows([[0, 1, 2], [253, 254, 255]])
_GRAY_16 = GrayImage.from_rows([[0x0102, 0x0304, 0x0506], [0xFFFE, 0x8000, 0x00FF]], 16)
_RGB_8 = PlanarImage(
    [GrayImage.from_rows([[v + 10 * k for v in (1, 2, 3)], [v + 10 * k for v in (4, 5, 6)]])
     for k in range(3)]
)
_FOUR_16 = PlanarImage(
    [GrayImage.from_rows([[0x1000 * k + i for i in (0, 1, 2)], [0x1000 * k + i for i in (3, 4, 5)]],
                         16)
     for k in range(4)]
)
_VECTORS = {
    "P5-8": (_GRAY_8, True, b"P5\n3 2\n255\n\x00\x01\x02\xfd\xfe\xff"),
    "P2-8": (_GRAY_8, False, b"P2\n3 2\n255\n0 1 2\n253 254 255\n"),
    "P5-16": (
        _GRAY_16,
        True,
        b"P5\n3 2\n65535\n" + bytes.fromhex("0102 0304 0506 fffe 8000 00ff"),
    ),
    "P2-16": (_GRAY_16, False, b"P2\n3 2\n65535\n258 772 1286\n65534 32768 255\n"),
    "P6-8": (
        _RGB_8,
        True,
        b"P6\n3 2\n255\n" + bytes.fromhex("010b15 020c16 030d17 040e18 050f19 06101a"),
    ),
    "P3-8": (_RGB_8, False, b"P3\n3 2\n255\n1 11 21 2 12 22 3 13 23\n4 14 24 5 15 25 6 16 26\n"),
    "P7-16": (
        _FOUR_16,
        True,
        b"P7\nWIDTH 3\nHEIGHT 2\nDEPTH 4\nMAXVAL 65535\nENDHDR\n"
        + bytes.fromhex(
            "0000 1000 2000 3000  0001 1001 2001 3001  0002 1002 2002 3002"
            "0003 1003 2003 3003  0004 1004 2004 3004  0005 1005 2005 3005"
        ),
    ),
}


class TestWriteRead:
    def test_binary_roundtrip(self, tmp_path):
        image = GrayImage.from_rows([[0, 128, 255], [1, 2, 3]])
        path = tmp_path / "test.pgm"
        write_pgm(image, path)
        assert read_pgm(path) == image

    def test_ascii_roundtrip(self, tmp_path):
        image = GrayImage.from_rows([[10, 20], [30, 40], [50, 60]])
        path = tmp_path / "test_ascii.pgm"
        write_pgm(image, path, binary=False)
        assert read_pgm(path) == image

    def test_16bit_roundtrip(self, tmp_path):
        image = GrayImage(2, 2, [0, 1000, 65535, 42], bit_depth=16)
        path = tmp_path / "deep.pgm"
        write_pgm(image, path)
        assert read_pgm(path) == image

    def test_roundtrip_via_file_objects(self):
        image = GrayImage.from_rows([[7, 8], [9, 10]])
        buffer = io.BytesIO()
        write_pgm(image, buffer)
        buffer.seek(0)
        assert read_pgm(buffer) == image

    def test_comment_lines_are_skipped(self):
        payload = b"P5\n# a comment line\n2 2\n255\n" + bytes([1, 2, 3, 4])
        assert read_pgm(io.BytesIO(payload)).pixels() == [1, 2, 3, 4]

    def test_p2_whitespace_layout_is_free_form(self):
        payload = b"P2\n3 1\n255\n1   2\n3\n"
        assert read_pgm(io.BytesIO(payload)).pixels() == [1, 2, 3]


class TestWriterVectors:
    @pytest.mark.parametrize("name", sorted(_VECTORS))
    def test_writer_emits_exact_bytes(self, name):
        image, binary, expected = _VECTORS[name]
        buffer = io.BytesIO()
        if name.startswith("P7"):
            write_pam(image, buffer)
        else:
            write_image(image, buffer, binary=binary)
        assert buffer.getvalue() == expected
        assert read_image(io.BytesIO(expected)) == image


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P6\n1 1\n255\n\x00\x00\x00"))

    def test_truncated_header(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P5\n2 2"))

    def test_truncated_payload(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P5\n2 2\n255\n\x00\x00"))

    def test_truncated_16bit_payload(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P5\n2 1\n65535\n\x00\x01\x00"))

    def test_non_numeric_header(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P5\nx 2\n255\n\x00\x00"))

    def test_invalid_maxval(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P5\n1 1\n0\n\x00"))
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P5\n1 1\n70000\n\x00\x00"))

    def test_ascii_sample_overflow(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P2\n1 1\n255\n300\n"))

    def test_ascii_non_numeric_sample(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P2\n1 1\n255\nabc\n"))

    def test_ascii_truncated_samples(self):
        with pytest.raises(ImageFormatError):
            read_pgm(io.BytesIO(b"P2\n2 2\n255\n1 2 3\n"))

    @pytest.mark.parametrize(
        "payload",
        [
            b"P5\n1_0 1\n255\n" + bytes(10),
            b"P5\n+2 1\n255\n\x00\x00",
            b"P5\n2 1\n2_55\n\x00\x00",
            b"P2\n2 1\n255\n1_0 5\n",
            b"P2\n2 1\n255\n+7 5\n",
            b"P2\n2 1\n255\n-0 5\n",
            b"P2\n1 1\n255\n\xd9\xa3\n",
            b"P3\n1 1\n255\n1 +2 3\n",
            b"P7\nWIDTH 1_0\nHEIGHT 1\nDEPTH 1\nMAXVAL 255\nENDHDR\n" + bytes(10),
            b"P7\nWIDTH 1\nHEIGHT +1\nDEPTH 1\nMAXVAL 255\nENDHDR\n\x00",
            b"P7\nWIDTH 1\nHEIGHT 1\nDEPTH +1\nMAXVAL 255\nENDHDR\n\x00",
            b"P7\nWIDTH 1\nHEIGHT 1\nDEPTH 1\nMAXVAL 2_55\nENDHDR\n\x00",
        ],
        ids=[
            "width-underscore", "width-plus", "maxval-underscore", "p2-underscore",
            "p2-plus", "p2-minus", "p2-arabic-digit", "p3-plus",
            "pam-width", "pam-height", "pam-depth", "pam-maxval",
        ],
    )
    def test_numbers_must_be_ascii_decimal_digits(self, payload):
        with pytest.raises(ImageFormatError):
            read_image(io.BytesIO(payload))
