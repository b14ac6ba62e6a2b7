"""Hypothesis properties of frame files and of the decoder.

They live apart from the example-based tests so that only this module
needs hypothesis (the `test` extra) to be collected.
"""

import contextlib
import io
import os

from hypothesis import given, settings, strategies as st

from bch6351.cli import main, parse_frame_file, write_frame_file
from bch6351.decoder import decode
from bch6351.encoder import MESSAGE_BITS, encode_lfsr


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


@settings(deadline=None)
@given(message=st.integers(0, (1 << MESSAGE_BITS) - 1),
       error=st.one_of(st.integers(0, (1 << 63) - 1),
                       st.sets(st.integers(0, 62), max_size=4).map(
                           lambda positions: sum(1 << i for i in positions))))
def test_decode_linearity_property(tables, message, error):
    # the syndromes of c ^ e are those of e, so both decodes name the same
    # positions; run_ber_experiment decodes the flip mask on this basis
    codeword = encode_lfsr(message)
    received, alone = decode(codeword ^ error, tables), decode(error, tables)
    assert (received.status, received.positions) == (alone.status, alone.positions)
    if alone.corrected is not None:
        assert received.corrected == codeword ^ alone.corrected
