"""Unit tests for the multi-component subsystem (container v3).

The acceptance-defining test lives here: byte-count accounting proves that
``decode_plane`` / ``decode_region`` hand the entropy decoder exactly the
indexed bytes of the requested cells — random access really skips the rest
of the stream rather than decoding and discarding it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.cellgrid as cellgrid
import repro.core.components as components
from repro.core.bitstream import (
    pack_component_stream,
    unpack_stream,
    CodecId,
)
from repro.core.codec import ProposedCodec
from repro.core.components import (
    decode_plane,
    decode_planar,
    decode_region,
    encode_planar,
    stream_index,
)
from repro.core.config import CodecConfig
from repro.core.decoder import decode_image
from repro.core.encoder import encode_image
from repro.exceptions import (
    BitstreamError,
    CodecMismatchError,
    ConfigError,
    HeaderError,
)
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage
from repro.imaging.synthetic import generate_image, generate_planar_image
from repro.parallel.codec import ParallelCodec
from repro.parallel.executor import SerialExecutor


@pytest.fixture(scope="module")
def rgb_image() -> PlanarImage:
    return generate_planar_image("lena", size=24)


@pytest.fixture(scope="module")
def multiband_image() -> PlanarImage:
    return generate_planar_image("goldhill", size=20, planes=5)


class TestRoundtrip:
    @pytest.mark.parametrize("plane_delta", [False, True])
    @pytest.mark.parametrize("stripes", [1, 3])
    def test_rgb(self, rgb_image, plane_delta, stripes):
        stream = encode_planar(rgb_image, stripes=stripes, plane_delta=plane_delta)
        assert decode_planar(stream) == rgb_image

    def test_multiband(self, multiband_image):
        stream = encode_planar(multiband_image, stripes=2, plane_delta=True)
        assert decode_planar(stream) == multiband_image

    def test_sixteen_bit_planes_with_negative_deltas(self):
        # Each plane minus the one before is negative at most pixels, so the
        # delta only round-trips through its modular wrap, not the uint16 store.
        ramp = np.arange(24).reshape(4, 6) * 2000
        planes = [65535 - ramp, ramp, 65535 - ramp // 2]
        image = PlanarImage([GrayImage.from_array(p, bit_depth=16) for p in planes])
        config = CodecConfig.hardware(bit_depth=16, count_bits=10)
        stream = encode_planar(image, config, engine="fast", plane_delta=True)
        assert decode_planar(stream, config, engine="fast") == image

    def test_single_plane_planar(self):
        image = PlanarImage([generate_image("zelda", size=18)])
        stream = encode_planar(image)
        assert decode_planar(stream) == image
        # A one-plane v3 stream also decodes through the grey entry point.
        assert decode_image(stream) == image.plane(0)

    def test_delta_improves_correlated_planes(self, rgb_image):
        independent = encode_planar(rgb_image, plane_delta=False)
        delta = encode_planar(rgb_image, plane_delta=True)
        assert len(delta) < len(independent)

    def test_gray_streams_decode_as_one_plane(self):
        gray = generate_image("boat", size=18)
        planar = decode_planar(encode_image(gray))
        assert planar.num_planes == 1
        assert planar.plane(0) == gray


class TestRandomAccess:
    @pytest.mark.parametrize("plane_delta", [False, True])
    def test_decode_plane_matches_full_decode(self, rgb_image, plane_delta):
        stream = encode_planar(rgb_image, stripes=4, plane_delta=plane_delta)
        full = decode_planar(stream)
        for k in range(rgb_image.num_planes):
            assert decode_plane(stream, k) == full.plane(k) == rgb_image.plane(k)

    @pytest.mark.parametrize("plane_delta", [False, True])
    def test_decode_region_matches_full_decode(self, rgb_image, plane_delta):
        stream = encode_planar(rgb_image, stripes=4, plane_delta=plane_delta)
        region = decode_region(stream, (1, 3))
        full_array = decode_planar(stream).to_array()
        index = stream_index(stream)
        rows = [e for e in index.entries if e.plane == 0 and 1 <= e.stripe < 3]
        first = min(e.start_row for e in rows)
        last = max(e.start_row + e.row_count for e in rows)
        assert (region.to_array() == full_array[first:last]).all()

    def test_decode_region_on_v1_and_v2(self):
        gray = generate_image("peppers", size=20)
        v1 = encode_image(gray)
        assert decode_region(v1, (0, 1)) == gray
        v2 = ParallelCodec(cores=4, executor=SerialExecutor()).encode(gray)
        region = decode_region(v2, (1, 3))
        full = gray.to_array()
        assert (region.to_array() == full[5:15]).all()

    def test_plane_and_region_bounds_checked(self, rgb_image):
        """Out-of-range *arguments* are caller errors (ConfigError), distinct
        from corrupt containers (BitstreamError)."""
        stream = encode_planar(rgb_image, stripes=2)
        with pytest.raises(ConfigError):
            decode_plane(stream, 3)
        with pytest.raises(ConfigError):
            decode_plane(stream, -1)
        for bad_range in ((0, 0), (1, 1), (0, 3), (-1, 1), (2, 1)):
            with pytest.raises(ConfigError):
                decode_region(stream, bad_range)
        with pytest.raises(ConfigError):
            decode_region(stream, (0,))

    def test_decode_plane_reads_only_indexed_bytes(self, rgb_image, monkeypatch):
        """Byte-count accounting: the entropy decoder sees exactly the
        indexed cells of the requested plane, nothing else."""
        stream = encode_planar(rgb_image, stripes=4, plane_delta=False)
        index = stream_index(stream)
        seen = []
        real = cellgrid.decode_payload

        def counting(payload, width, height, config, engine="reference"):
            seen.append(len(payload))
            return real(payload, width, height, config, engine=engine)

        monkeypatch.setattr(cellgrid, "decode_payload", counting)
        decode_plane(stream, 1)
        plane_cells = [e.length for e in index.entries if e.plane == 1]
        assert sorted(seen) == sorted(plane_cells)
        assert sum(seen) < index.payload_length

    def test_decode_region_reads_only_indexed_bytes(self, rgb_image, monkeypatch):
        stream = encode_planar(rgb_image, stripes=4, plane_delta=True)
        index = stream_index(stream)
        seen = []
        real = cellgrid.decode_payload

        def counting(payload, width, height, config, engine="reference"):
            seen.append(len(payload))
            return real(payload, width, height, config, engine=engine)

        monkeypatch.setattr(cellgrid, "decode_payload", counting)
        decode_region(stream, (2, 4))
        region_cells = [e.length for e in index.entries if 2 <= e.stripe < 4]
        assert sorted(seen) == sorted(region_cells)
        assert sum(seen) < index.payload_length

    def test_delta_decode_plane_skips_later_planes(self, multiband_image, monkeypatch):
        """On a delta stream, plane k needs planes 0..k — and not k+1..C-1."""
        stream = encode_planar(multiband_image, stripes=2, plane_delta=True)
        index = stream_index(stream)
        seen = []
        real = cellgrid.decode_payload

        def counting(payload, width, height, config, engine="reference"):
            seen.append(len(payload))
            return real(payload, width, height, config, engine=engine)

        monkeypatch.setattr(cellgrid, "decode_payload", counting)
        decode_plane(stream, 2)
        chain_cells = [e.length for e in index.entries if e.plane <= 2]
        assert sorted(seen) == sorted(chain_cells)


class TestEnginesAndFacades:
    def test_engines_byte_identical(self, rgb_image):
        for plane_delta in (False, True):
            reference = encode_planar(
                rgb_image, engine="reference", stripes=2, plane_delta=plane_delta
            )
            fast = encode_planar(
                rgb_image, engine="fast", stripes=2, plane_delta=plane_delta
            )
            assert fast == reference
            assert decode_planar(reference, engine="fast") == rgb_image

    def test_parallel_codec_matches_serial_encoder(self, rgb_image):
        codec = ParallelCodec(cores=3, executor=SerialExecutor(), plane_delta=True)
        stream = codec.encode(rgb_image)
        assert stream == encode_planar(rgb_image, stripes=3, plane_delta=True)
        assert codec.decode(stream) == rgb_image

    def test_proposed_codec_dispatch(self, rgb_image):
        codec = ProposedCodec(plane_delta=True)
        stream = codec.encode(rgb_image)
        decoded = codec.decode(stream)
        assert isinstance(decoded, PlanarImage)
        assert decoded == rgb_image
        assert codec.decode_plane(stream, 0) == rgb_image.plane(0)
        assert codec.decode_region(stream, (0, 1)) == rgb_image
        assert codec.last_statistics is not None
        assert codec.last_statistics.total_bytes == len(stream)

    def test_decode_image_rejects_multicomponent_with_version(self, rgb_image):
        stream = encode_planar(rgb_image)
        with pytest.raises(CodecMismatchError, match="version-3"):
            decode_image(stream)


class TestValidation:
    def test_bit_depth_mismatch(self, rgb_image):
        with pytest.raises(ConfigError):
            encode_planar(rgb_image, CodecConfig.hardware(bit_depth=10))

    def test_too_many_stripes(self, rgb_image):
        with pytest.raises(ConfigError):
            encode_planar(rgb_image, stripes=rgb_image.height + 1)

    def test_pack_rejects_ragged_planes(self):
        with pytest.raises(HeaderError):
            pack_component_stream(
                CodecId.PROPOSED, 4, 4, 8, [[b"ab", b"cd"], [b"ef"]]
            )

    def test_pack_rejects_zero_planes(self):
        with pytest.raises(HeaderError):
            pack_component_stream(CodecId.PROPOSED, 4, 4, 8, [])

    def test_index_crc_round_trips_through_header(self, rgb_image):
        stream = encode_planar(rgb_image, stripes=2)
        header, payload = unpack_stream(stream)
        assert header.component_count == 3
        assert len(header.component_crcs) == 3
        assert all(len(plane) == 2 for plane in header.component_crcs)

    def test_stream_index_on_v1_reports_single_cell(self):
        gray = generate_image("zelda", size=18)
        index = stream_index(encode_image(gray))
        assert index.version == 1
        assert len(index.entries) == 1
        assert index.entries[0].length == index.payload_length
        assert index.entries[0].crc is None
