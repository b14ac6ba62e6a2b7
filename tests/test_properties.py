"""Hypothesis properties of frame files, the decoder and the channel.

They live apart from the example-based tests so that only this module
needs hypothesis (the `test` extra) to be collected.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings, strategies as st

from bch6351 import frame_file
from bch6351.channel_sim import bernoulli_mask, bernoulli_masks
from bch6351.cli import main
from bch6351.decoder import decode
from bch6351.encoder import MESSAGE_BITS, encode_lfsr
from bch6351.frame_file import FrameFileError, parse_frame_file, write_frame_file


NEWLINES = [b"\n", b"\r\n", b"\r"]


def _value_bits(kind, short):
    return {("message", False): 51, ("codeword", False): 63,
            ("message", True): 19, ("codeword", True): 31}[kind, short]


@settings(deadline=None)
@given(kind=st.sampled_from(["message", "codeword"]), short=st.booleans(),
       newline=st.sampled_from(NEWLINES), data=st.data())
def test_write_parse_round_trip_property(tmp_path_factory, kind, short, newline, data):
    bits = _value_bits(kind, short)
    frames = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=20))
    path = tmp_path_factory.mktemp("round-trip") / "frames.hex"
    write_frame_file(str(path), frames, short)
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert list(parse_frame_file(str(path), kind, short)) == frames


def _bad_lines(width, bits):
    hex_digits = st.text("0123456789abcdefABCDEF", min_size=width, max_size=width)
    # anything but a hex digit or a line break; at an edge a space strips
    # away and leaves the line short
    not_hex = st.characters(max_codepoint=127, exclude_characters="0123456789abcdefABCDEF\r\n")
    wrong_width = st.integers(0, width + 4).filter(lambda k: k != width).flatmap(
        lambda k: st.text("0123456789abcdef", min_size=k, max_size=k))
    foreign = st.tuples(hex_digits, st.integers(0, width - 1), not_hex).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])
    reserved = st.tuples(st.integers(0, (1 << bits) - 1), st.integers(bits, 4 * width - 1)).map(
        lambda t: format(t[0] | 1 << t[1], f"0{width}x"))
    encoded = st.one_of(wrong_width, foreign, reserved).map(str.encode)
    non_ascii = st.tuples(hex_digits.map(str.encode), st.integers(0, width - 1),
                          st.integers(0x80, 0xFF)).map(
        lambda t: t[0][:t[1]] + bytes([t[2]]) + t[0][t[1] + 1:])
    return st.one_of(encoded, non_ascii)


@settings(deadline=None)
@given(command=st.sampled_from(["encode", "decode", "corrupt"]), short=st.booleans(),
       newline=st.sampled_from(NEWLINES), data=st.data())
def test_rejected_line_exits_2_naming_its_line_property(tmp_path_factory, command, short,
                                                        newline, data):
    kind = "message" if command == "encode" else "codeword"
    width = 8 if short else 16
    bits = _value_bits(kind, short)
    good = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=5))
    bad_at = data.draw(st.integers(0, len(good)))
    lines = [format(v, f"0{width}x").encode() for v in good]
    lines.insert(bad_at, data.draw(_bad_lines(width, bits)))
    work = tmp_path_factory.mktemp("rejected")
    infile, outfile = work / "in.hex", work / "out.hex"
    infile.write_bytes(newline.join(lines) + newline)
    flags = ["--short"] if short else []
    if command == "corrupt":
        flags += ["--weight", "1", "--seed", "5"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([command, *flags, str(infile), str(outfile)]) == 2
    assert f"{infile}:{bad_at + 1}: " in err.getvalue()
    assert sorted(os.listdir(work)) == ["in.hex"]


def _line_by_line(path, data, width, bits):
    """The frames and the error of applying the per-line check to each line of `data`."""
    values = []
    try:
        for lineno, line in enumerate(data.splitlines(keepends=True), start=1):
            values.append(frame_file._checked_line(path, lineno, line.decode("latin-1"),
                                                   width, bits))
    except FrameFileError as exc:
        return values, str(exc)
    return values, None


@settings(deadline=None)
@given(kind=st.sampled_from(["message", "codeword"]), short=st.booleans(),
       block=st.integers(1, 4), final_newline=st.booleans(), data=st.data())
def test_block_parsing_equals_line_by_line_parsing_property(tmp_path_factory, kind, short,
                                                            block, final_newline, data):
    # The block is cut to a few frames, so blocks that take the block
    # path, and blocks that fall back to the per-line check, alternate.
    width, bits = 8 if short else 16, _value_bits(kind, short)
    pad = st.text(" \t\x0b\x0c\x1c\x1d\x1e\x1f", max_size=2)
    digits = st.tuples(st.integers(0, (1 << bits) - 1), st.booleans()).map(
        lambda t: format(t[0], f"0{width}X" if t[1] else f"0{width}x"))
    valid = st.one_of(digits, st.tuples(pad, digits, pad).map("".join)).map(str.encode)
    lines = data.draw(st.lists(valid, max_size=30))
    if data.draw(st.booleans()):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(_bad_lines(width, bits)))
    ends = data.draw(st.lists(st.sampled_from([b"\n"] * 4 + NEWLINES),
                              min_size=len(lines), max_size=len(lines)))
    content = b"".join(line + end for line, end in zip(lines, ends))
    if not final_newline:
        content = content.rstrip(b"\r\n")
    path = tmp_path_factory.mktemp("blocks") / "frames.hex"
    path.write_bytes(content)
    values = []
    with mock.patch.object(frame_file, "_BLOCK_FRAMES", block):
        try:
            values.extend(parse_frame_file(str(path), kind, short))
            error = None
        except FrameFileError as exc:
            error = str(exc)
    assert (values, error) == _line_by_line(str(path), content, width, bits)


@settings(deadline=None)
@given(short=st.booleans(), block=st.integers(1, 4), data=st.data())
def test_block_writing_equals_line_writing_property(tmp_path_factory, short, block, data):
    width = 8 if short else 16
    frames = data.draw(st.lists(st.one_of(st.none(), st.integers(0, (1 << 4 * width) - 1)),
                                max_size=12))
    path = tmp_path_factory.mktemp("blocks") / "frames.hex"
    with mock.patch.object(frame_file, "_BLOCK_FRAMES", block):
        write_frame_file(str(path), frames, short)
    assert path.read_text() == "".join("X" * width + "\n" if value is None
                                       else format(value, f"0{width}x") + "\n"
                                       for value in frames)


@settings(deadline=None)
@given(message=st.integers(0, (1 << MESSAGE_BITS) - 1),
       error=st.one_of(st.integers(0, (1 << 63) - 1),
                       st.sets(st.integers(0, 62), max_size=4).map(
                           lambda positions: sum(1 << i for i in positions))))
def test_decode_linearity_property(message, error):
    # the syndromes of c ^ e are those of e, so both decodes name the same
    # positions; run_ber_experiment decodes the flip mask on this basis
    codeword = encode_lfsr(message)
    received, alone = decode(codeword ^ error), decode(error)
    assert (received.status, received.positions) == (alone.status, alone.positions)
    if alone.corrected is not None:
        assert received.corrected == codeword ^ alone.corrected


@settings(deadline=None)
@given(p=st.floats(0, 1), frames=st.integers(0, 600), nbits=st.integers(1, 63),
       rng=st.randoms(use_true_random=False))
def test_bernoulli_masks_property(p, frames, nbits, rng):
    # up to 600 seeds: as many as two 256-seed blocks of lanes and a short one
    seeds = [rng.getrandbits(66) - 2**65 for _ in range(frames)]
    assert list(bernoulli_masks(p, seeds, nbits)) == [bernoulli_mask(p, s, nbits) for s in seeds]
