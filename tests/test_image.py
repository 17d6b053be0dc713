import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mammocad import image
from mammocad.errors import (
    InvalidPixelValue,
    IoFailure,
    MalformedHeader,
    MammoCadError,
    NotDivisible,
    TruncatedData,
    UnsupportedMaxval,
)
from mammocad.image import GrayImage, decode_pgm, haar_downsample, negate, read_pgm, write_pgm
from mammocad.phantom import generate_phantom

from oracles import haar_pyramid, read_p2


@st.composite
def gray_images(draw, max_side=12):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    pix = draw(
        st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h)
    )
    return GrayImage(np.array(pix, dtype=np.uint8).reshape(h, w))


WHITESPACE = [bytes([c]) for c in b" \t\r\n\v\f"]
# Comment text: anything but a newline, including '#' and digits.
comment_text = st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"#"))
separators = st.lists(
    st.one_of(
        st.sampled_from(WHITESPACE),
        comment_text.map(lambda text: b"#" + text + b"\n"),
    ),
    max_size=3,
).map(b"".join)
odd_samples = st.sampled_from(
    [b"+5", b"1_0", b"-1", b"-0", b"007", b"0007", b"00255", b"256", b"x", b"5x",
     b"5\x00", b"0x1", b"\xff", b"\x00"]
)
samples = st.one_of(
    st.integers(0, 255).map(lambda v: str(v).encode()),
    odd_samples,
    st.integers(2**64 - 2, 2**65).map(lambda v: str(v).encode()),
)


@st.composite
def p2_streams(draw):
    """P2 bytes with random separators, comments and odd samples.

    Most streams hold exactly width * height samples; some have too few
    or extra trailing tokens, and some end in a comment with no newline.
    """
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([1, 15, 200, 255, 256]))
    count = max(width * height + draw(st.sampled_from([0, 0, 0, -1, 1, 2])), 0)
    tokens = [b"P2", b"%d" % width, b"%d" % height, b"%d" % maxval]
    tokens += [draw(samples) for _ in range(count)]
    out = b""
    for token in tokens:
        # An empty separator after a token would glue it to the next one;
        # a lone comment right after the token keeps them apart.
        sep = draw(separators)
        out += token + (sep or draw(st.sampled_from(WHITESPACE + [b"#c\n"])))
    if draw(st.booleans()):
        out += b"#" + draw(comment_text)  # comment at EOF, no newline
    return out


def img_of(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


class TestReadPgm:
    def test_p2_basic(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 2\n255\n0 128 255 7\n")
        img = read_pgm(path)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[0, 128], [255, 7]]

    def test_p5_matches_p2(self, tmp_path):
        p2 = tmp_path / "a.pgm"
        p2.write_text("P2\n2 2\n255\n0 128 255 7\n")
        p5 = tmp_path / "b.pgm"
        p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
        assert read_pgm(p5) == read_pgm(p2)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# made by hand\n2 1 # trailing note\n255\n9 10\n")
        assert read_pgm(path).pixels.tolist() == [[9, 10]]

    def test_truncated_p2(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(TruncatedData):
            read_pgm(path)

    def test_truncated_p5(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2]))
        with pytest.raises(TruncatedData):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [256, 65535])
    def test_maxval_above_255_rejected(self, tmp_path, maxval):
        path = tmp_path / "a.pgm"
        path.write_text(f"P2\n1 1\n{maxval}\n0\n")
        with pytest.raises(UnsupportedMaxval):
            read_pgm(path)

    @pytest.mark.parametrize("header", ["P3\n1 1\n255\n0\n", "Px\n1 1\n255\n0\n"])
    def test_bad_magic(self, tmp_path, header):
        path = tmp_path / "a.pgm"
        path.write_text(header)
        with pytest.raises(MalformedHeader):
            read_pgm(path)

    @pytest.mark.parametrize(
        "header,message",
        [
            ("P2\n0 2\n255\n\n", "width must be >= 1"),
            ("P2\nab 2\n255\n\n", "non-numeric width: b'ab'"),
            ("P2\n2 ab\n255\n\n", "non-numeric height: b'ab'"),
        ],
    )
    def test_bad_dimensions(self, tmp_path, header, message):
        path = tmp_path / "a.pgm"
        path.write_text(header)
        with pytest.raises(MalformedHeader, match=message):
            read_pgm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_pgm(tmp_path / "nope.pgm")

    def test_small_maxval_samples_used_as_is(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 1\n15\n15 0\n")
        assert read_pgm(path).pixels.tolist() == [[15, 0]]

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (b"P5\n2 1\n15\n\xc8\x03", InvalidPixelValue, "sample 200 outside [0, 15]"),
            (b"P5\n3 1\n15\n\x01\x10\x11", InvalidPixelValue, "sample 16 outside [0, 15]"),
            # A bad byte among those present comes before too few bytes.
            (b"P5\n3 1\n15\n\x01\x11", InvalidPixelValue, "sample 17 outside [0, 15]"),
            (b"P5\n3 1\n15\n\x0f\x00", TruncatedData, "expected 3 bytes, found 2"),
            (b"P5\n1 1\n255#c\n\x00", MalformedHeader, "missing whitespace after maxval"),
            (b"P5\n1 1\n255", MalformedHeader, "missing whitespace after maxval"),
            # The whitespace after the maxval is the file's last byte.
            (b"P5\n2 2\n255\n", TruncatedData, "expected 4 bytes, found 0"),
        ],
    )
    def test_p5_first_fault_reported(self, data, error, message, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(data)
        with pytest.raises(error, match=re.escape(message)):
            read_pgm(path)

    @given(width=st.integers(1, 6), maxval=st.integers(1, 255), raster=st.binary(max_size=8))
    def test_p5_matches_p2_of_same_samples(self, width, maxval, raster):
        # A P5 raster reads like the P2 text of its bytes: the same values,
        # or the same fault and message, apart from the truncation wording.
        header = b"%d 1\n%d\n" % (width, maxval)
        p5 = b"P5\n" + header + raster
        p2 = b"P2\n" + header + b" ".join(b"%d" % v for v in raster) + b"\n"
        try:
            expected = read_p2(p2)
        except TruncatedData:
            with pytest.raises(TruncatedData):
                decode_pgm(p5)
        except InvalidPixelValue as exc:
            with pytest.raises(InvalidPixelValue, match=re.escape(str(exc))):
                decode_pgm(p5)
        else:
            assert decode_pgm(p5).pixels.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "raster, message",
        [
            ("0 256 x", "sample 256 outside [0, 255]"),  # out of range before non-numeric
            ("0 x 256", "non-numeric sample b'x'"),
            ("-1 0 0", "sample -1 outside [0, 255]"),
        ],
    )
    def test_first_bad_sample_reported(self, tmp_path, raster, message):
        path = tmp_path / "a.pgm"
        path.write_text(f"P2\n3 1\n255\n{raster}\n")
        with pytest.raises(InvalidPixelValue, match=re.escape(message)):
            read_pgm(path)

    @settings(deadline=None, max_examples=300)
    @given(data=st.one_of(p2_streams(), st.binary(max_size=40).map(lambda b: b"P2 " + b)))
    @example(data=b"P2 1 1 255 +5")
    @example(data=b"P2 1 1 255 1_0")
    @example(data=b"P2\v2\f1\r255\t7#note\n8#eof")  # every separator, '#' after a token
    @example(data=b"P2 1 1 255 3 extra tokens")
    @example(data=b"P2 2 1 255 3 #one comment, one sample short")
    @example(data=b"P2 1 1 #255")  # no maxval: a comment's text is no token
    @example(data=b"P2 1 1 255 #5")  # no sample either
    @example(data=b"P2 2 1 255 7 8")  # last sample at EOF, no whitespace after it
    @example(data=b"P2 2 1 255#c\n7 8")  # comment right after the maxval
    @example(data=b"P2 2 1 255 0007 00255")  # leading zeros past three bytes
    @example(data=b"P2 1 1 255 -0")
    @example(data=b"P2 1 1 255 5\x00")
    @example(data=b"P2 1 1 255 7 x")  # bad token after the last needed sample
    def test_p2_matches_reference(self, data):
        assert_p2_matches_reference(data)

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        odd=st.lists(st.tuples(st.integers(0, 128 * 128 - 1), samples), max_size=3),
        missing=st.sampled_from([0, 0, 1, -2]),
    )
    def test_large_p2_matches_reference(self, seed, odd, missing):
        # A 128x128 raster with random separators and comments, odd or bad
        # tokens deep inside it, and some streams short or long at the end.
        rng = np.random.default_rng(seed)
        tokens = [b"%d" % v for v in rng.integers(0, 256, 128 * 128 - missing)]
        for at, token in odd:
            tokens[min(at, len(tokens) - 1)] = token
        seps = [b" ", b"\n", b"\t", b"\r\n", b"\v", b"\f", b"  "]
        seps += [b"#\n", b" #c 12\n", b"#x#9\n"]  # a comment right after a token
        picks = rng.integers(0, len(seps), len(tokens))
        data = b"P2 128 128 255\n" + b"".join(t + seps[k] for t, k in zip(tokens, picks))
        assert_p2_matches_reference(data)

    def test_p2_read_memory_bounded(self, tmp_path):
        # Arrays with one entry per file byte stay uint8 or bool.
        path = tmp_path / "phantom.pgm"
        flat = generate_phantom("tumor", 1, 1024)[0].pixels.ravel().tolist()
        tokens = [b"%d" % v for v in range(256)]
        lines = [
            b" ".join([tokens[v] for v in flat[i : i + 17]]) for i in range(0, len(flat), 17)
        ]
        path.write_bytes(b"P2\n1024 1024\n255\n" + b"\n".join(lines) + b"\n")
        tracemalloc.start()
        try:
            img = read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.pixels.shape == (1024, 1024)
        assert peak <= 16 * path.stat().st_size


    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
    @settings(deadline=None, max_examples=60)
    @given(data=p2_streams())
    def test_p2_chunk_size_does_not_matter(self, chunk, data):
        # Chunks of a few bytes put every token, comment and fault across
        # chunk boundaries.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(image, "_CHUNK", chunk)
            assert_p2_matches_reference(data)

    @pytest.mark.parametrize("offset", range(5))
    @pytest.mark.parametrize(
        "token, value, error, last",
        [
            (b"0123", 123, None, False),  # four digits: int() decides
            (b"+5", 5, None, False),
            (b"5x", None, "non-numeric sample b'5x'", False),
            (b"256", None, "sample 256 outside [0, 255]", False),
            (b"9", 9, None, True),  # the last needed sample; bad tokens follow it
        ],
    )
    def test_p2_token_across_chunk_boundary(self, token, value, error, last, offset):
        # The raster is everything after the maxval token. The token starts
        # ``offset`` bytes before the end of its second chunk, and the raster
        # runs on into a third.
        lead = 2 * image._CHUNK - offset
        fill = (lead - 1) // 2  # " 7" each, then one or two spaces
        raster = b" 7" * fill + b" " * (lead - 2 * fill) + token + b" " + b" ".join(
            [b"x" if last else b"7"] * 300
        )
        assert len(raster) > 2 * image._CHUNK
        rest = [] if last else [7] * 300
        data = b"P2 %d 1 255" % (fill + 1 + len(rest)) + raster
        if error:
            with pytest.raises(InvalidPixelValue, match=re.escape(error)):
                decode_pgm(data)
        else:
            assert decode_pgm(data).pixels.ravel().tolist() == [7] * fill + [value] + rest

    def test_p2_value_table(self):
        # Every token of one to four bytes over these symbols reads as int()
        # reads it: its value, or the same fault and message.
        symbols = [bytes([c]) for c in b"019+-_a\x00\xff"]
        tokens = [
            b"".join(t) for n in range(1, 5) for t in itertools.product(symbols, repeat=n)
        ]
        assert len(tokens) == 7380
        for maxval in (255, 99):
            for token in tokens:
                assert_p2_matches_reference(b"P2 1 1 %d\n" % maxval + token + b"\n")
        assert not image._VALUE.flags.writeable
        with pytest.raises(ValueError):
            image._VALUE[0, 0] = 0

    def test_p2_read_memory_near_file_size(self, tmp_path):
        # The raster is decoded in chunks: besides the file's bytes and the
        # image, nothing grows with the file.
        path = tmp_path / "phantom.pgm"
        flat = generate_phantom("multi", 2, 1024)[0].pixels.ravel()
        lines = [
            b" ".join(b"%d" % v for v in flat[i : i + 17].tolist())
            for i in range(0, len(flat), 17)
        ]
        path.write_bytes(b"P2\n1024 1024\n255\n" + b"\n".join(lines) + b"\n")
        tracemalloc.start()
        try:
            img = read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(img.pixels.ravel(), flat)
        assert peak <= 3 * path.stat().st_size


def assert_p2_matches_reference(data):
    try:
        expected = read_p2(data)
    except Exception as exc:
        with pytest.raises(MammoCadError) as err:
            decode_pgm(data)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
    else:
        assert decode_pgm(data).pixels.tolist() == expected.tolist()


class TestWritePgm:
    def test_binary_header_layout(self, tmp_path):
        img = img_of([[1, 2, 3], [4, 5, 6]])
        path = tmp_path / "a.pgm"
        write_pgm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[len(b"P5\n3 2\n255\n") :] == bytes([1, 2, 3, 4, 5, 6])

    def test_single_pixel_round_trip(self, tmp_path):
        img = img_of([[0]])
        path = tmp_path / "one.pgm"
        write_pgm(img, path)
        assert read_pgm(path) == img

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoFailure):
            write_pgm(img_of([[0]]), tmp_path / "no" / "dir" / "a.pgm")

    @settings(deadline=None, max_examples=40)
    @given(img=gray_images())
    def test_round_trip_identity(self, img, tmp_path_factory):
        path = tmp_path_factory.mktemp("pgm") / "rt.pgm"
        write_pgm(img, path)
        assert read_pgm(path) == img


class TestGrayImage:
    @pytest.mark.parametrize(
        "pixels, message",
        [
            # Values a cast to uint8 would change.
            (np.array([[300, -1]]), "integers in 0..255"),
            (np.array([[256]]), "integers in 0..255"),
            (np.array([[-1]]), "integers in 0..255"),
            (np.array([[1.7]]), "integers in 0..255"),
            (np.array([[1.0]]), "integers in 0..255"),
            (np.array([[True]]), "integers in 0..255"),
            (np.zeros((0, 3), np.uint8), "non-empty 2-D"),
            (np.zeros(3, np.uint8), "non-empty 2-D"),
        ],
    )
    def test_rejected(self, pixels, message):
        with pytest.raises(ValueError, match=message):
            GrayImage(pixels)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8])
    def test_integers_in_range_kept(self, dtype):
        img = GrayImage(np.array([[0, 7], [100, 127]], dtype=dtype))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[0, 7], [100, 127]]


class TestNegate:
    def test_endpoints(self):
        img = img_of([[0, 255]])
        assert negate(img).pixels.tolist() == [[255, 0]]

    def test_constant(self):
        img = GrayImage(np.full((4, 4), 100, np.uint8))
        assert (negate(img).pixels == 155).all()

    @given(img=gray_images())
    def test_involution(self, img):
        assert negate(negate(img)) == img


class TestHaarDownsample:
    def test_two_by_two_mean(self):
        img = img_of([[0, 0], [0, 4]])
        assert haar_downsample(img, 1).pixels.tolist() == [[1]]

    def test_round_half_up(self):
        assert haar_downsample(img_of([[1, 1], [2, 2]]), 1).pixels.tolist() == [[2]]
        assert haar_downsample(img_of([[0, 0], [1, 1]]), 1).pixels.tolist() == [[1]]
        assert haar_downsample(img_of([[0, 0], [0, 1]]), 1).pixels.tolist() == [[0]]

    def test_constant_preserved(self):
        img = GrayImage(np.full((8, 8), 100, np.uint8))
        assert (haar_downsample(img, 3).pixels == 100).all()

    def test_levels_zero_is_identity(self):
        img = img_of([[5, 9], [1, 3]])
        assert haar_downsample(img, 0) == img

    def test_not_divisible(self):
        img = GrayImage(np.zeros((6, 6), np.uint8))
        with pytest.raises(NotDivisible):
            haar_downsample(img, 2)

    def test_negative_levels(self):
        with pytest.raises(ValueError):
            haar_downsample(img_of([[0]]), -1)

    def test_huge_levels_raise_at_once(self):
        """A huge ``levels`` is refused from the sides' trailing zero bits, not from 2**levels."""
        img = GrayImage(np.zeros((8, 8), np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(NotDivisible, match=r"^8x8 not divisible by 2\^1000000000000$"):
                haar_downsample(img, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("height,width,levels", [(8, 8, 4), (8, 12, 3), (24, 8, 4), (1, 2, 1)])
    def test_levels_past_a_side_raise(self, height, width, levels):
        img = GrayImage(np.zeros((height, width), np.uint8))
        with pytest.raises(NotDivisible, match=rf"^{width}x{height} not divisible by 2\^{levels}$"):
            haar_downsample(img, levels)
        haar_downsample(img, levels - 1)

    @settings(deadline=None, max_examples=60)
    @given(
        levels=st.integers(0, 4),
        height=st.integers(1, 5),
        width=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1, 2, 256]),
    )
    def test_matches_oracle(self, levels, height, width, seed, spread):
        rng = np.random.default_rng(seed)
        shape = (height << levels, width << levels)
        pixels = (255 - rng.integers(0, spread, shape)).astype(np.uint8)
        out = haar_downsample(GrayImage(pixels), levels).pixels
        assert out.dtype == np.uint8
        assert np.array_equal(out, haar_pyramid(pixels, levels))

    @pytest.mark.parametrize("value", [0, 255])  # 255: the largest sum, 4 * 255 + 2
    @pytest.mark.parametrize("levels", [1, 3])
    def test_constant_extremes_match_oracle(self, value, levels):
        pixels = np.full((3 << levels, 2 << levels), value, np.uint8)
        out = haar_downsample(GrayImage(pixels), levels).pixels
        assert np.array_equal(out, haar_pyramid(pixels, levels))
        assert (out == value).all()

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_range_closure(self, data):
        side = data.draw(st.sampled_from([4, 8]))
        pix = data.draw(
            st.lists(st.integers(0, 255), min_size=side * side, max_size=side * side)
        )
        img = GrayImage(np.array(pix, np.uint8).reshape(side, side))
        out = haar_downsample(img, 2)
        assert out.pixels.min() >= img.pixels.min()
        assert out.pixels.max() <= img.pixels.max()

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_level_composition_drift(self, data):
        pix = data.draw(st.lists(st.integers(0, 255), min_size=64, max_size=64))
        img = GrayImage(np.array(pix, np.uint8).reshape(8, 8))
        combined = haar_downsample(img, 3)
        nested = haar_downsample(haar_downsample(img, 1), 2)
        drift = np.abs(combined.pixels.astype(int) - nested.pixels.astype(int))
        assert drift.max() <= 3

    def test_level_composition_exact_when_divisible(self):
        # All block sums divisible by 4: averaging is exact, no rounding drift.
        img = GrayImage((np.arange(64, dtype=np.uint8).reshape(8, 8) // 16) * 4)
        assert haar_downsample(img, 2) == haar_downsample(haar_downsample(img, 1), 1)
