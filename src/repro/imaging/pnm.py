"""Netpbm (PGM/PPM/PAM) reading and writing.

The command-line tools operate on Netpbm files because the formats are
trivial, self-describing and supported by every image viewer:

* PGM (``P2`` ASCII / ``P5`` binary) — grey-scale, one sample per pixel,
  read into :class:`~repro.imaging.image.GrayImage`;
* PPM (``P3`` ASCII / ``P6`` binary) — RGB colour, three interleaved samples
  per pixel, read into a three-plane
  :class:`~repro.imaging.planar.PlanarImage`;
* PAM (``P7`` binary) — arbitrary ``DEPTH`` components per pixel, the
  container for multi-band payloads beyond RGB.

16-bit samples are stored big-endian as the Netpbm specification requires.
:func:`read_image` sniffs the magic number and dispatches to the right
reader, returning whichever of the two image containers matches the file.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage, raw_sample_dtype
from repro.imaging.planar import MAX_PLANES, PlanarImage, default_plane_names

__all__ = [
    "read_pgm",
    "write_pgm",
    "read_ppm",
    "write_ppm",
    "read_pam",
    "write_pam",
    "read_image",
    "write_image",
    "netpbm_bytes",
    "netpbm_region_header",
    "split_netpbm_payload",
]

_PathOrFile = Union[str, Path, BinaryIO]
_Image = Union[GrayImage, PlanarImage]

# (ASCII, binary) magic pairs, so ``magics[binary]`` picks the variant.
_GRAY_MAGICS = (b"P2", b"P5")
_RGB_MAGICS = (b"P3", b"P6")
_PAM_MAGIC = b"P7"

_PAM_TUPLTYPES = {1: "GRAYSCALE", 3: "RGB"}


def _decimals(tokens: Sequence[bytes], what: str) -> List[int]:
    """Parse Netpbm numbers: every token must be unsigned ASCII decimal digits.

    ``int`` alone also takes signs and digit-group underscores (``+7``,
    ``1_0``), which no Netpbm writer emits; such bytes are malformed input.
    """
    try:
        if b"".join(tokens).isdigit():
            return [int(token) for token in tokens]
    except ValueError:  # an empty field, or more digits than ``int`` converts
        pass
    raise ImageFormatError("non-numeric %s in %r" % (what, b" ".join(tokens)[:40]))


def _tokenise_header(stream: BinaryIO, magics: Tuple[bytes, ...]) -> Tuple[bytes, int, int, int]:
    """Read magic, width, height, maxval, skipping whitespace and comments."""
    magic = stream.read(2)
    if magic not in magics:
        raise ImageFormatError(
            "not a %s file (magic %r)" % ("/".join(m.decode() for m in magics), magic)
        )
    tokens: List[bytes] = []
    while len(tokens) < 3:
        char = stream.read(1)
        if not char:
            raise ImageFormatError("truncated %s header" % magic.decode())
        if char == b"#":
            while char not in (b"\n", b""):
                char = stream.read(1)
            continue
        if char.isspace():
            continue
        token = bytearray(char)
        while True:
            char = stream.read(1)
            if not char or char.isspace():
                break
            if char == b"#":
                while char not in (b"\n", b""):
                    char = stream.read(1)
                break
            token.extend(char)
        tokens.append(bytes(token))
    width, height, maxval = _decimals(tokens, "header field")
    return magic, width, height, maxval


def _check_geometry(kind: str, width: int, height: int, maxval: int) -> int:
    """Validate header fields; return the implied bit depth."""
    if width <= 0 or height <= 0:
        raise ImageFormatError("invalid %s dimensions %dx%d" % (kind, width, height))
    if not 1 <= maxval <= 65535:
        raise ImageFormatError("invalid %s maxval %d" % (kind, maxval))
    return max(1, maxval.bit_length())


def _read_samples(
    stream: BinaryIO, count: int, maxval: int, kind: str, binary: bool
) -> np.ndarray:
    """Read ``count`` samples (raw bytes or ASCII decimals), checked against ``maxval``."""
    if binary:
        dtype = raw_sample_dtype(maxval.bit_length())
        raw = stream.read(count * dtype.itemsize)
        if len(raw) != count * dtype.itemsize:
            raise ImageFormatError(
                "truncated %s payload: expected %d bytes, got %d"
                % (kind, count * dtype.itemsize, len(raw))
            )
        samples = np.frombuffer(raw, dtype)
    else:
        tokens = stream.read().split()
        if len(tokens) < count:
            raise ImageFormatError(
                "truncated ASCII %s: expected %d samples, got %d" % (kind, count, len(tokens))
            )
        samples = np.array(_decimals(tokens[:count], "ASCII %s sample" % kind))
    peak = samples.max()
    if peak > maxval:
        raise ImageFormatError("sample %d exceeds %s maxval %d" % (peak, kind, maxval))
    return samples


def _deinterleave(
    samples: np.ndarray, width: int, height: int, depth: int, bit_depth: int
) -> PlanarImage:
    """Split pixel-interleaved samples into a planar image."""
    pixels = samples.reshape(height, width, depth)
    return PlanarImage(
        GrayImage(width, height, pixels[:, :, k], bit_depth, label)
        for k, label in enumerate(default_plane_names(depth))
    )


def _read_plain(source: BinaryIO, magics: Tuple[bytes, bytes], kind: str, depth: int) -> PlanarImage:
    """Read a PGM or PPM body: the magic-width-height-maxval header, then samples."""
    magic, width, height, maxval = _tokenise_header(source, magics)
    bit_depth = _check_geometry(kind, width, height, maxval)
    samples = _read_samples(source, width * height * depth, maxval, kind, magic == magics[1])
    return _deinterleave(samples, width, height, depth, bit_depth)


def _header(kind: str, width: int, height: int, planes: int, maxval: int, binary: bool = True) -> bytes:
    """Format the Netpbm header every writer emits (never with comments)."""
    if kind == "pam":
        lines = ["P7", "WIDTH %d" % width, "HEIGHT %d" % height, "DEPTH %d" % planes,
                 "MAXVAL %d" % maxval]
        tupltype = _PAM_TUPLTYPES.get(planes)
        if tupltype:
            lines.append("TUPLTYPE %s" % tupltype)
        lines.append("ENDHDR")
    else:
        magic = (_GRAY_MAGICS if kind == "pgm" else _RGB_MAGICS)[binary].decode()
        lines = [magic, "%d %d" % (width, height), "%d" % maxval]
    return ("\n".join(lines) + "\n").encode("ascii")


def _kind_for(planes: int) -> str:
    """The format :func:`write_image` picks for ``planes`` components."""
    return {1: "pgm", 3: "ppm"}.get(planes, "pam")


def _write(data: bytes, destination: _PathOrFile) -> None:
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            handle.write(data)
    else:
        destination.write(data)


def netpbm_bytes(image: _Image, binary: bool = True, pam: bool = False) -> Tuple[bytes, str]:
    """Serialise ``image`` as a whole Netpbm file; return ``(file_bytes, kind)``.

    The format follows the plane count as in :func:`write_image` (``kind``
    is ``"pgm"``, ``"ppm"`` or ``"pam"``); ``pam=True`` forces PAM, which
    has no ASCII variant and ignores ``binary``.
    """
    planes = image.num_planes if isinstance(image, PlanarImage) else 1
    kind = "pam" if pam else _kind_for(planes)
    header = _header(kind, image.width, image.height, planes, image.max_value, binary)
    if binary or kind == "pam":
        return header + image.to_bytes(), kind
    rows = image.to_array().reshape(image.height, -1).tolist()
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return header + text.encode("ascii"), kind


# ---------------------------------------------------------------------- #
# PGM — grey-scale
# ---------------------------------------------------------------------- #


def read_pgm(source: _PathOrFile) -> GrayImage:
    """Read a PGM file (P2 or P5) into a :class:`GrayImage`."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return read_pgm(handle)
    return _read_plain(source, _GRAY_MAGICS, "PGM", 1).gray()


def write_pgm(image: GrayImage, destination: _PathOrFile, binary: bool = True) -> None:
    """Write ``image`` as a PGM file (P5 when ``binary`` else P2)."""
    _write(netpbm_bytes(image, binary)[0], destination)


# ---------------------------------------------------------------------- #
# PPM — RGB colour
# ---------------------------------------------------------------------- #


def read_ppm(source: _PathOrFile) -> PlanarImage:
    """Read a PPM file (P3 or P6) into a three-plane :class:`PlanarImage`."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return read_ppm(handle)
    return _read_plain(source, _RGB_MAGICS, "PPM", 3)


def write_ppm(image: PlanarImage, destination: _PathOrFile, binary: bool = True) -> None:
    """Write a three-plane ``image`` as a PPM file (P6 when ``binary`` else P3)."""
    if image.num_planes != 3:
        raise ImageFormatError(
            "PPM stores exactly 3 components, image has %d (use write_pam)"
            % image.num_planes
        )
    _write(netpbm_bytes(image, binary)[0], destination)


# ---------------------------------------------------------------------- #
# PAM — arbitrary component count
# ---------------------------------------------------------------------- #


def read_pam(source: _PathOrFile) -> PlanarImage:
    """Read a PAM file (P7) into a :class:`PlanarImage` of ``DEPTH`` planes."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return read_pam(handle)

    magic = source.read(2)
    if magic != _PAM_MAGIC:
        raise ImageFormatError("not a PAM file (magic %r)" % magic)
    fields = {}
    while True:
        line = bytearray()
        while True:
            char = source.read(1)
            if not char:
                raise ImageFormatError("truncated PAM header (missing ENDHDR)")
            if char == b"\n":
                break
            line.extend(char)
        text = bytes(line).strip()
        if not text or text.startswith(b"#"):
            continue
        if text == b"ENDHDR":
            break
        parts = text.split(None, 1)
        fields[parts[0].upper().decode("ascii", errors="replace")] = (
            parts[1] if len(parts) > 1 else b""
        )
    names = ("WIDTH", "HEIGHT", "DEPTH", "MAXVAL")
    for name in names:
        if name not in fields:
            raise ImageFormatError("PAM header is missing the %s field" % name)
    width, height, depth, maxval = _decimals([fields[name] for name in names], "PAM header field")
    bit_depth = _check_geometry("PAM", width, height, maxval)
    if not 1 <= depth <= MAX_PLANES:
        raise ImageFormatError("PAM depth must be in [1, %d], got %d" % (MAX_PLANES, depth))
    samples = _read_samples(source, width * height * depth, maxval, "PAM", True)
    return _deinterleave(samples, width, height, depth, bit_depth)


def write_pam(image: PlanarImage, destination: _PathOrFile) -> None:
    """Write ``image`` as a binary PAM (P7) file."""
    _write(netpbm_bytes(image, pam=True)[0], destination)


# ---------------------------------------------------------------------- #
# streaming: header synthesis and header/sample splitting
# ---------------------------------------------------------------------- #


def netpbm_region_header(planes: int, width: int, height: int, bit_depth: int) -> Tuple[bytes, str]:
    """Synthesise the binary Netpbm header for a region of known geometry.

    Returns ``(header_bytes, kind)`` where ``kind`` is ``"pgm"``, ``"ppm"``
    or ``"pam"`` — the format :func:`write_image` would pick for an image
    of ``planes`` components.  The bytes are exactly what the corresponding
    writer emits (our writers never emit comments), so a streamed response
    can send the header first and follow with raw sample chunks whose
    concatenation is byte-identical to a fully assembled file.
    """
    if width <= 0 or height <= 0:
        raise ImageFormatError("invalid region dimensions %dx%d" % (width, height))
    if not 1 <= planes <= MAX_PLANES:
        raise ImageFormatError("plane count must be in [1, %d], got %d" % (MAX_PLANES, planes))
    maxval = (1 << bit_depth) - 1
    if not 1 <= maxval <= 65535:
        raise ImageFormatError("invalid region bit depth %d" % bit_depth)
    kind = _kind_for(planes)
    return _header(kind, width, height, planes, maxval), kind


def split_netpbm_payload(payload: bytes) -> Tuple[bytes, bytes]:
    """Split a binary Netpbm payload written by this module into (header, samples).

    Only the exact output of our binary writers is supported: P5/P6 headers
    are three newline-terminated lines with no comments, P7 headers end at
    ``ENDHDR``.  The streaming serve path uses this to strip per-stripe
    headers so stripe sample chunks can be concatenated under one
    region-wide header.
    """
    magic = payload[:2]
    if magic == _PAM_MAGIC:
        marker = b"ENDHDR\n"
        end = payload.find(marker)
        if end < 0:
            raise ImageFormatError("PAM payload is missing ENDHDR")
        cut = end + len(marker)
        return payload[:cut], payload[cut:]
    if magic in (b"P5", b"P6"):
        cut = 0
        for _ in range(3):
            cut = payload.find(b"\n", cut) + 1
            if cut == 0:
                raise ImageFormatError("truncated %s header" % magic.decode())
        return payload[:cut], payload[cut:]
    raise ImageFormatError("not a binary PGM/PPM/PAM payload (magic %r)" % magic)


# ---------------------------------------------------------------------- #
# format auto-detection
# ---------------------------------------------------------------------- #


def read_image(source: _PathOrFile) -> Union[GrayImage, PlanarImage]:
    """Read any supported Netpbm file, dispatching on the magic number.

    PGM files come back as :class:`GrayImage`; PPM and PAM files as
    :class:`PlanarImage` (three and ``DEPTH`` planes respectively).
    """
    if isinstance(source, (str, Path)):
        # Peek two magic bytes, then hand the path to the format reader —
        # no whole-file copy just to dispatch.
        with open(source, "rb") as handle:
            magic = handle.read(2)
        return _reader_for_magic(magic)(source)

    if source.seekable():
        magic = source.read(2)
        source.seek(-len(magic), io.SEEK_CUR)
        return _reader_for_magic(magic)(source)
    # Non-seekable stream (pipe): buffering is the only way to replay the
    # magic bytes for the chosen reader.
    buffered = io.BytesIO(source.read())
    magic = buffered.read(2)
    buffered.seek(0)
    return _reader_for_magic(magic)(buffered)


def _reader_for_magic(magic: bytes):
    if magic in _GRAY_MAGICS:
        return read_pgm
    if magic in _RGB_MAGICS:
        return read_ppm
    if magic == _PAM_MAGIC:
        return read_pam
    raise ImageFormatError("not a PGM/PPM/PAM file (magic %r)" % magic)


def write_image(
    image: Union[GrayImage, PlanarImage], destination: _PathOrFile, binary: bool = True
) -> None:
    """Write an image in the most natural Netpbm format for its shape.

    :class:`GrayImage` and single-plane images go to PGM, three-plane images
    to PPM and any other component count to PAM.  Paths ending in ``.pam``
    always get a PAM file, whatever the plane count.
    """
    pam = isinstance(destination, (str, Path)) and str(destination).lower().endswith(".pam")
    _write(netpbm_bytes(image, binary, pam)[0], destination)
