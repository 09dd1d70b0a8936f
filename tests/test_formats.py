"""Tests for the on-disk codecs: PGM, annotations, density maps,
manifests and checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saan import io_formats, params
from saan.density import ScaleBins
from saan.errors import AnnotationError, CodecError, ManifestError
from saan.io_formats import Manifest, ManifestItem


@pytest.fixture
def rng():
    return np.random.default_rng(404)


class TestPgm:
    def test_quantized_round_trip(self, rng, tmp_path):
        img = rng.uniform(0, 1, (12, 17))
        path = tmp_path / "a.pgm"
        io_formats.write_pgm(path, img)
        back = io_formats.read_pgm(path)
        assert back.shape == (12, 17)
        np.testing.assert_allclose(back, np.rint(img * 255) / 255.0, atol=1e-6)

    def test_exact_round_trip_on_quantized_values(self, rng, tmp_path):
        levels = rng.integers(0, 256, (8, 8))
        img = (levels / 255.0).astype(np.float64)
        path = tmp_path / "b.pgm"
        io_formats.write_pgm(path, img)
        back = io_formats.read_pgm(path)
        np.testing.assert_array_equal(back, (levels.astype(np.float32) / np.float32(255.0)))

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = io_formats.read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 1] == np.float32(128) / np.float32(255)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(CodecError, match="magic"):
            io_formats.read_pgm(path)

    def test_truncated_data_reports_offset(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(CodecError, match="offset"):
            io_formats.read_pgm(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(CodecError, match="maxval"):
            io_formats.read_pgm(path)

    @pytest.mark.parametrize("dims", [b"-4 -4", b"0 3", b"3 0"])
    def test_non_positive_dimensions_report_offset(self, tmp_path, dims):
        # a sign is not a decimal digit, so -4 is refused as a header field
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(16))
        match = "not decimal digits" if dims.startswith(b"-") else "dimensions must be positive"
        with pytest.raises(CodecError, match=match + ".*offset"):
            io_formats.read_pgm(path)

    @pytest.mark.parametrize("header, offset", [
        (b"P5 1_0 1_0 255\n", 3), (b"P5 +10 10 255\n", 3), (b"P5 10 10 2_55\n", 9),
        (b"P5 10 10 " + b"9" * 5000 + b"\n", 9),
    ], ids=["underscore", "sign", "maxval-underscore", "5000-digits"])
    def test_header_fields_are_ascii_decimal_digits(self, tmp_path, header, offset):
        # int() would read 1_0 and +10 as 10, and fails on 5000 digits
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(100))
        with pytest.raises(CodecError, match=rf"\(at byte offset {offset}\)") as info:
            io_formats.read_pgm(path)
        assert info.value.offset == offset


class TestAnnotations:
    def test_round_trip_exact(self, rng, tmp_path):
        pts = rng.uniform(0, 63, (20, 2))
        path = tmp_path / "a.txt"
        io_formats.write_annotations(path, pts)
        back = io_formats.read_annotations(path)
        np.testing.assert_array_equal(back, pts)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("")
        assert io_formats.read_annotations(path).shape == (0, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1.5,2.5\n\n3.0,4.0\n")
        assert io_formats.read_annotations(path).shape == (2, 2)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0,2.0\nnot-a-pair\n")
        with pytest.raises(AnnotationError, match=":2:"):
            io_formats.read_annotations(path)

    def test_non_numeric_reports_number(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1.0,abc\n")
        with pytest.raises(AnnotationError, match=":1:"):
            io_formats.read_annotations(path)


class TestDensityCodec:
    def test_round_trip_bitwise(self, rng, tmp_path):
        m = rng.uniform(0, 0.3, (24, 30)).astype(np.float32)
        path = tmp_path / "a.dm"
        io_formats.save_density(path, m)
        back = io_formats.load_density(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, m)

    def test_bad_magic_at_offset_zero(self, rng, tmp_path):
        path = tmp_path / "b.dm"
        io_formats.save_density(path, rng.uniform(0, 1, (4, 4)))
        blob = bytearray(path.read_bytes())
        blob[3] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(CodecError, match="magic") as exc:
            io_formats.load_density(path)
        assert exc.value.offset == 0

    def test_truncation_reports_offset(self, rng, tmp_path):
        path = tmp_path / "c.dm"
        io_formats.save_density(path, rng.uniform(0, 1, (8, 8)))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CodecError, match="truncated"):
            io_formats.load_density(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "d.dm"
        io_formats.save_density(path, rng.uniform(0, 1, (4, 4)))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CodecError, match="trailing"):
            io_formats.load_density(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_reports_offset(self, tmp_path, value):
        m = np.zeros((3, 4), dtype=np.float32)
        m[1, 2] = value
        m[2, 3] = np.nan
        path = tmp_path / "e.dm"
        io_formats.save_density(path, m)
        with pytest.raises(CodecError, match="is not finite") as exc:
            io_formats.load_density(path)
        assert exc.value.offset == 16 + 4 * 6

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_maps_raise_only_codec_errors(self, tmp_path_factory, data):
        # a loaded map is float32, finite, of the shape its header states,
        # and (as ground truth) not negative; anything else is a CodecError
        path = tmp_path_factory.getbasetemp() / "mutated.dm"
        io_formats.save_density(path, SMALL_DM)
        blob = data.draw(mutated_small_dm(path.read_bytes()))
        path.write_bytes(blob)
        for load in (io_formats.load_density, io_formats.load_ground_truth):
            try:
                back = load(path)
            except CodecError:
                continue
            assert back.dtype == np.float32
            assert back.shape == struct.unpack_from("<II", blob, 8)
            assert np.isfinite(back).all()
            assert load is io_formats.load_density or (back >= 0).all()

    def test_negative_value_is_refused_in_ground_truth_only(self, tmp_path):
        # a predicted map may hold negative values; a ground-truth one may not
        m = np.zeros((3, 4), dtype=np.float32)
        m[1, 2] = -1e-3
        m[2, 3] = -2.0
        path = tmp_path / "f.dm"
        io_formats.save_density(path, m)
        np.testing.assert_array_equal(io_formats.load_density(path), m)
        with pytest.raises(CodecError, match="is negative in a ground-truth map") as exc:
            io_formats.load_ground_truth(path)
        assert exc.value.offset == 16 + 4 * 6
        m[m < 0] = 0.25
        io_formats.save_density(path, m)
        np.testing.assert_array_equal(io_formats.load_ground_truth(path), m)


# a small valid ground-truth map; its header's height and width fields
# sit at bytes 8 and 12
SMALL_DM = (np.arange(12, dtype=np.float32) / 8).reshape(3, 4)


@st.composite
def mutated_small_dm(draw, blob):
    """blob with its height and width fields overwritten (favouring values
    that overflow or disagree with the payload) and up to four bits
    flipped anywhere, magic included, then extended by a few bytes and
    perhaps cut at a drawn length."""
    out = bytearray(blob)
    for off in draw(st.lists(st.sampled_from([8, 12]), max_size=2)):
        value = draw(st.sampled_from([0, 1, 2, 3, 4, 6, 12, 0x10000, 0x7FFFFFFF, 0xFFFFFFFF])
                     | st.integers(0, 0xFFFFFFFF))
        out[off : off + 4] = value.to_bytes(4, "little")
    for bit in draw(st.lists(st.integers(0, 8 * len(out) - 1), max_size=4)):
        out[bit // 8] ^= 1 << bit % 8
    out += draw(st.binary(max_size=8))
    return bytes(out[: draw(st.none() | st.integers(0, len(out)))])


class TestManifest:
    def _sample(self, with_bins=True):
        items = [
            ManifestItem("images/a.pgm", "anns/a.txt", "train"),
            ManifestItem("images/b.pgm", "anns/b.txt", "test"),
        ]
        bins = ScaleBins(5.125, 49.75, 0.0, 12.345678901234567) if with_bins else None
        return Manifest(items=items, bins=bins)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        m = self._sample()
        io_formats.save_manifest(path, m)
        back = io_formats.load_manifest(path)
        assert back.items == m.items
        assert back.bins == m.bins  # exact float round trip through JSON

    def test_round_trip_null_bins(self, tmp_path):
        path = tmp_path / "manifest.json"
        io_formats.save_manifest(path, self._sample(with_bins=False))
        assert io_formats.load_manifest(path).bins is None

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '{"items":[{"image":"a","ann":"b","split":"training"}],"bins":null}'
        )
        with pytest.raises(ManifestError, match="split"):
            io_formats.load_manifest(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"items":[],"bins":null,"extra":1}')
        with pytest.raises(ManifestError):
            io_formats.load_manifest(path)

    @pytest.mark.parametrize("image, ann", [
        ("5", '"b"'), ('"a"', "null"), ('""', '"b"'), ('"a"', '["b"]'),
    ])
    def test_non_string_paths_rejected(self, tmp_path, image, ann):
        path = tmp_path / "manifest.json"
        path.write_text(
            '{"items":[{"image":' + image + ',"ann":' + ann + ',"split":"train"}],"bins":null}'
        )
        with pytest.raises(ManifestError, match="item 0"):
            io_formats.load_manifest(path)

    @pytest.mark.parametrize("bins", [
        '{"global": 5, "local": [0, 1]}',
        '{"global": ["a", "b"], "local": [0, 1]}',
        '{"global": [0, true], "local": [0, 1]}',
        '{"global": [NaN, 1], "local": [0, 1]}',
        '{"global": [0, 1], "local": [0, 1, 2]}',
    ])
    def test_malformed_bins_rejected(self, tmp_path, bins):
        path = tmp_path / "manifest.json"
        path.write_text('{"items": [], "bins": ' + bins + "}")
        with pytest.raises(ManifestError, match="bins"):
            io_formats.load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError, match="JSON"):
            io_formats.load_manifest(path)

    def test_missing_file_validation(self, tmp_path):
        m = self._sample()
        with pytest.raises(ManifestError, match="a.pgm"):
            io_formats.validate_manifest_files(m, tmp_path)

    def test_split_selector(self):
        m = self._sample()
        assert [it.split for it in m.split_items("train")] == ["train"]

    def test_density_path_convention(self):
        item = ManifestItem("images/scene_007.pgm", "anns/scene_007.txt", "train")
        path = io_formats.density_path("/data/run", item)
        assert path.endswith("density/scene_007.dm")


def ck_entry(name, dims, data=b""):
    """One checkpoint tensor record: name, rank, dims, then `data`."""
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + data)


def ck_blob(*entries):
    return params.MAGIC + struct.pack("<II", params.VERSION, len(entries)) + b"".join(entries)


# a small valid checkpoint, and the (offset, width) of its version, count,
# name-length, rank and dim fields
SMALL_CK = {"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b.scale": np.float32(0.5).reshape(()), "c.bias": np.ones(4, np.float32)}


def _small_ck_fields():
    fields = [(8, 4), (12, 4)]
    off = 16
    for name in sorted(SMALL_CK):
        arr = SMALL_CK[name]
        fields.append((off, 2))
        off += 2 + len(name)
        fields.append((off, 1))
        fields += [(off + 1 + 4 * i, 4) for i in range(arr.ndim)]
        off += 1 + 4 * arr.ndim + 4 * arr.size
    return fields


@st.composite
def mutated_small_ck(draw, blob):
    """blob with up to five of its fields overwritten, favouring values at
    the edges of the u16/u32 range, then cut at a drawn length."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 5))):
        off, width = draw(st.sampled_from(_small_ck_fields()))
        top = (1 << 8 * width) - 1
        value = draw(st.sampled_from([0, 1, 2, 0xFFFF, 0x10000, top]) | st.integers(0, top))
        out[off : off + width] = (value & top).to_bytes(width, "little")
    return bytes(out[: draw(st.integers(0, len(out)))])


class TestCheckpointCodec:
    def test_dims_whose_product_wraps_int64(self, tmp_path):
        # 65536**4 == 2**64: a wrapping product would read a 0-element tensor
        path = tmp_path / "wrap.ck"
        path.write_bytes(ck_blob(ck_entry("w", (65536,) * 4)))
        with pytest.raises(CodecError, match="truncated") as exc:
            params.load_checkpoint(path)
        assert exc.value.offset == 16 + 2 + 1 + 1 + 16

    def test_zero_dim_refused(self, tmp_path):
        path = tmp_path / "zero.ck"
        path.write_bytes(ck_blob(ck_entry("w", (0, 4294967295))))
        with pytest.raises(CodecError, match="zero dim") as exc:
            params.load_checkpoint(path)
        assert exc.value.offset == 16 + 2 + 1 + 1

    def test_duplicate_name_refused(self, tmp_path):
        one = ck_entry("w", (2,), np.ones(2, "<f4").tobytes())
        path = tmp_path / "dup.ck"
        path.write_bytes(ck_blob(one, one))
        with pytest.raises(CodecError, match="twice") as exc:
            params.load_checkpoint(path)
        assert exc.value.offset == 16 + len(one) + 2

    def test_small_checkpoint_round_trips(self, tmp_path):
        path = tmp_path / "small.ck"
        params.save_checkpoint(SMALL_CK, path)
        back = params.load_checkpoint(path)
        assert sorted(back) == sorted(SMALL_CK)
        for name, arr in SMALL_CK.items():
            assert back[name].shape == arr.shape
            np.testing.assert_array_equal(back[name], arr)
        blob = path.read_bytes()
        assert blob == ck_blob(*(ck_entry(n, a.shape, a.tobytes()) for n, a in sorted(SMALL_CK.items())))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_headers_raise_only_codec_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "mutated.ck"
        params.save_checkpoint(SMALL_CK, path)
        blob = data.draw(mutated_small_ck(path.read_bytes()))
        path.write_bytes(blob)
        try:
            back = params.load_checkpoint(path)
        except CodecError:
            return
        assert all(arr.dtype == np.float32 for arr in back.values())


class TestAtomicWrites:
    # each writer gets a value that fails after part of the file is out:
    # the second tensor, the density data after its header, the first item
    @pytest.mark.parametrize("name, write, bad", [
        ("a.ck", lambda path, p: params.save_checkpoint(p, path),
         {"a": np.ones(3, np.float32), "b": object()}),
        ("a.dm", io_formats.save_density, np.array([[0.5, object()]], dtype=object)),
        ("manifest.json", io_formats.save_manifest,
         Manifest(items=[ManifestItem(object(), "anns/a.txt", "train")], bins=None)),
    ])
    def test_failed_write_keeps_old_file(self, tmp_path, name, write, bad):
        path = tmp_path / name
        path.write_bytes(b"old bytes")
        with pytest.raises(TypeError):
            write(str(path), bad)
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_successful_write_replaces_file(self, tmp_path):
        path = tmp_path / "a.dm"
        path.write_bytes(b"old bytes")
        io_formats.save_density(str(path), np.ones((2, 3), np.float32))
        np.testing.assert_array_equal(io_formats.load_density(path), np.ones((2, 3)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.dm"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "a.dm"
        path.write_bytes(b"old bytes")
        path.chmod(0o600)
        io_formats.save_density(str(path), np.ones((2, 3), np.float32))
        assert path.stat().st_mode & 0o777 == 0o600
