"""Tests for the on-disk codecs: PGM, annotations, density maps,
manifests, configs and checkpoints."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saan import io_formats, params
from saan.cli import load_config
from saan.density import ScaleBins
from saan.errors import AnnotationError, CodecError, ManifestError, SaanError
from saan.io_formats import Manifest, ManifestItem
from saan.train import TrainConfig


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

    @pytest.mark.parametrize("blob, offset", [
        (b"P5\n4 4\n255\n" + bytes(7), 11), (b"P5 2 2 255", 10),
    ], ids=["short-payload", "eof-after-maxval"])
    def test_truncated_data_reports_offset(self, tmp_path, blob, offset):
        path = tmp_path / "e.pgm"
        path.write_bytes(blob)
        with pytest.raises(CodecError, match=rf"have \d+ \(at byte offset {offset}\)"):
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

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_files_match_the_header_grammar(self, tmp_path_factory, data):
        # read_pgm returns exactly the pixels after a header that
        # PGM_HEADER matches with positive dimensions and maxval 255, when
        # enough of them follow; anything else is a CodecError
        blob = data.draw(mutated_pgm())
        path = tmp_path_factory.getbasetemp() / "mutated.pgm"
        path.write_bytes(blob)
        header = PGM_HEADER.match(blob)
        width, height, maxval = map(int, header.groups()) if header else (0, 0, 0)
        if width > 0 and height > 0 and maxval == 255 and len(blob) - header.end() >= width * height:
            want = np.frombuffer(blob, np.uint8, width * height, header.end())
            want = want.reshape(height, width).astype(np.float32) / np.float32(255.0)
            assert io_formats.read_pgm(path).tobytes() == want.tobytes()
        else:
            with pytest.raises(CodecError) as info:
                io_formats.read_pgm(path)
            assert 0 <= info.value.offset <= len(blob)


# a binary PGM header: tokens split by whitespace and '#' comments to the
# end of a line, a token ends only at whitespace, and one whitespace byte
# follows maxval
_GAP = rb"(?:\s|#[^\n]*)*"
PGM_HEADER = re.compile(rb"\A" + _GAP + rb"P5\s" + b"".join([_GAP + rb"(\d+)\s"] * 3))


@st.composite
def mutated_pgm(draw):
    """A PGM with up to two of its nine parts bad: bad magic, signs,
    underscores, zeros or values that overflow or disagree with the
    payload, a missing separator, a payload a few bytes short or long;
    perhaps mutated as in mutated_bytes."""
    bad_parts, part = draw(st.sets(st.integers(0, 8), max_size=2)), iter(range(9))

    def pick(good, bad):
        return draw(st.sampled_from(bad if next(part) in bad_parts else good))

    def field(*good):
        bad = (0, 7, 2**32, 10**25, 2**64 + 1, "-2", "+2", "1_0", "0x3", "2.0", "\u0663")
        return str(pick(good, bad)).encode()

    def sep(*bad):
        return pick((b" ", b"\n", b"\t", b"\r\n", b"\n# c 9 9\n"), bad)

    width, height = field(1, 3, 4), field(1, 2, 5)
    head = pick((b"P5",), (b"P2", b"P6", b"p5", b"P55", b"", b"# c\nP5", b" P5"))
    for value in (width, height, field(255, "0255")):
        head += sep(b"#x", b"") + value
    head += sep(b"\r", b"", b"#")
    stated = int(width) * int(height) if width.isdigit() and height.isdigit() else 12
    size = max(0, min(stated, 64) + pick((0,), (-2, -1, 1, 3)))
    return draw(mutated_bytes(head + draw(st.binary(min_size=size, max_size=size))))


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

    @pytest.mark.parametrize("line", ["1.0,abc", "1_0,2", "\u0663,4"])
    def test_non_numeric_reports_number(self, tmp_path, line):
        # float() reads 1_0 as 10 and the Arabic-Indic digit three as 3
        path = tmp_path / "e.txt"
        path.write_text(f"{line}\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match=f":1: non-numeric coordinate in {line!r}"):
            io_formats.read_annotations(path)

    @pytest.mark.parametrize("line", ["nan,nan", "1e400,2", "-inf,3", "4, Infinity"])
    def test_non_finite_coordinate_reports_number(self, tmp_path, line):
        # float() reads each of these; as a dot it would count as a person
        path = tmp_path / "f.txt"
        path.write_text(f"1.0,2.0\n\n{line}\n5.0,6.0\n")
        with pytest.raises(AnnotationError, match=f":3: non-finite coordinate in {line!r}"):
            io_formats.read_annotations(path)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_files_raise_or_read_every_line(self, tmp_path_factory, data):
        # unmutated, a file reads as its finite pairs, or raises naming its
        # first bad line; mutated, it raises or reads one finite pair per
        # line that is not blank
        lines = data.draw(annotation_lines(), label="lines")
        blob = "".join(text + end for text, _, end in lines).encode("utf-8")
        mutated = data.draw(mutated_bytes(blob), label="mutated")
        path = tmp_path_factory.getbasetemp() / "mutated.txt"
        path.write_bytes(mutated)
        def split(text):  # as a text-mode file reads: \r\n, \r and \n end a line
            return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

        try:
            back = io_formats.read_annotations(path)
        except AnnotationError as exc:
            if mutated == blob:
                bad = [i for i, (_, value, _) in enumerate(lines) if value is None]
                before = "".join(text + end for text, _, end in lines[:bad[0]])
                assert f":{len(split(before))}:" in str(exc)
            return
        assert back.dtype == np.float64 and np.isfinite(back).all()
        assert back.shape == (sum(1 for line in split(mutated.decode("utf-8")) if line.strip()), 2)
        if mutated == blob:
            assert all(value is not None for _, value, _ in lines)
            assert back.tolist() == [value for _, value, _ in lines if value]


@st.composite
def annotation_lines(draw):
    """Up to six lines with up to two bad ones among them, each as (text,
    the pair it reads as, or None when it must be refused and () when it
    is blank, line end)."""
    def line(bad):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        x, y = draw(finite), draw(finite)
        if bad:
            non_finite = f"{x!r},{draw(st.sampled_from(['nan', '-inf', '1e400', 'Infinity']))}"
            return draw(st.just((non_finite, None)) | st.sampled_from([
                (f"{x!r}", None), (f"{x!r} {y!r}", None), (f"{x!r},{y!r},", None),
                (f"{x!r},,{y!r}", None), (f"{x!r}\0,{y!r}", None), ("x,y", None),
                (f"1_0,{y!r}", None), (f"{x!r},\u0663", None)]))
        pad = st.sampled_from(["", " ", "\t", "  "])
        return draw(st.sampled_from([
            (f"{x!r},{y!r}", [x, y]), (draw(pad), ()),
            (f"{draw(pad)}{x!r}{draw(pad)},{draw(pad)}{y!r}{draw(pad)}", [x, y])]))

    lines = [line(False) for _ in range(draw(st.integers(0, 6)))]
    for pos in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(pos, line(True))
    return [(text, value, draw(st.sampled_from(["\n", "\r\n", "\r"]))) for text, value in lines]


@st.composite
def mutated_bytes(draw, blob):
    """blob, or blob with up to two bits flipped, NUL or non-UTF-8 bytes
    inserted, and perhaps cut at a drawn length."""
    if not draw(st.booleans()):
        return blob
    out = bytearray(blob)
    for bit in draw(st.lists(st.integers(0, 8 * len(out) - 1), max_size=2)) if out else ():
        out[bit // 8] ^= 1 << bit % 8
    for pos, junk in draw(st.lists(st.tuples(st.integers(0, len(out)),
                                             st.sampled_from([b"\0", b"\xff", b"\xc3("])),
                                   max_size=2)):
        out[pos:pos] = junk
    return bytes(out[: draw(st.none() | st.integers(0, len(out)))])


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
        '{"global": [0, 1e400], "local": [0, 1]}',
        '{"global": [0, 1], "local": [0, 1' + "0" * 400 + "]}",
        '{"global": [-1' + "0" * 400 + ', 1], "local": [0, 1]}',
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

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"items": [], "bins": null, "items": []}',
        '{"items": [{"image": "a", "ann": "b", "split": "train", "split": "test"}], '
        '"bins": null}',
        '{"items": [], "bins": 1' + "0" * 5000 + "}",
    ], ids=["deep", "repeated-key", "repeated-item-key", "int-past-digit-limit"])
    def test_json_past_the_parsers_limits_rejected(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ManifestError, match=f"{re.escape(str(path))}: not valid JSON"):
            io_formats.load_manifest(path)

    def test_integer_bins_past_int64_load_as_floats(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"items": [], "bins": {"global": [0, 18446744073709551616], '
                        '"local": [0, 1]}}')
        assert io_formats.load_manifest(path).bins == ScaleBins(0.0, 2.0**64, 0.0, 1.0)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_manifests_raise_or_round_trip(self, tmp_path_factory, data):
        # a mutated manifest is refused with a SaanError, or it loads as a
        # manifest that save_manifest writes and load_manifest reads back
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        io_formats.save_manifest(path, self._sample())
        blob = data.draw(mutated_json(json.loads(path.read_bytes())), label="blob")
        path.write_bytes(blob)
        try:
            m = io_formats.load_manifest(path)
        except SaanError:
            return
        again = tmp_path_factory.getbasetemp() / "again.json"
        io_formats.save_manifest(again, m)
        assert io_formats.load_manifest(again) == m

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


# JSON values a mutation puts in place of another: numbers past float64
# or int64, other types, and nesting deeper than the parser allows
JSON_VALUES = ["1e400", "-1e400", str(10**400), str(-10**400), str(2**64), "NaN", "Infinity",
               "null", "true", "0", "-1", "0.5", '""', '"train"', "[]", "{}", "[0, 1]",
               "[" * 100_000 + "]" * 100_000]


@st.composite
def mutated_json(draw, doc):
    """doc as JSON text with some of its values replaced (from JSON_VALUES,
    or a drawn number) and some keys repeated in their object, then as
    mutated_bytes mutates it."""
    values = st.sampled_from(JSON_VALUES) | st.integers().map(str) | st.floats(
        allow_nan=False, allow_infinity=False).map(repr)

    def text(node):
        if draw(st.integers(0, 15)) == 0:
            return draw(values)
        if isinstance(node, list):
            return "[" + ", ".join(text(v) for v in node) + "]"
        if not isinstance(node, dict):
            return json.dumps(node)
        pairs = [(json.dumps(k), text(v)) for k, v in node.items()]
        if pairs and draw(st.integers(0, 15)) == 0:
            key = draw(st.sampled_from(pairs))[0]
            pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(values)))
        return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"

    return draw(mutated_bytes(text(doc).encode("utf-8")))


class TestConfigFile:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_configs_raise_or_load(self, tmp_path_factory, data):
        # a mutated config is refused with a SaanError, or it loads as a
        # TrainConfig
        path = tmp_path_factory.getbasetemp() / "config.json"
        doc = {"manifest": "data/manifest.json", "out_dir": "run", "seed": 3,
               "phase1_epochs": 2, "learning_rate": 1e-3, "crop_size": 32, "lambda_g": 0.5}
        path.write_bytes(data.draw(mutated_json(doc), label="blob"))
        try:
            config = load_config(str(path))
        except SaanError:
            return
        assert isinstance(config, TrainConfig)


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

    @pytest.mark.parametrize("name, write, value", [
        ("a.ck", lambda path, p: params.save_checkpoint(p, path), {"a": np.ones(3, np.float32)}),
        ("a.dm", io_formats.save_density, np.ones((2, 3), np.float32)),
        ("manifest.json", io_formats.save_manifest, Manifest(items=[], bins=None)),
    ])
    def test_missing_directory_names_the_target(self, tmp_path, name, write, value):
        path = str(tmp_path / "nodir" / name)
        with pytest.raises(FileNotFoundError) as info:
            write(path, value)
        assert info.value.filename == path
        assert ".tmp" not in str(info.value)

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
