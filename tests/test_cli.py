"""CLI behavior: framing, round trips, exit codes, reports."""

import ast
import hashlib
import os
import pathlib
import random
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

import bch6351
from bch6351 import cli, decoder, encoder, reference_oracle
from bch6351.channel_sim import (
    SplitMix64,
    bernoulli_mask,
    random_error_pattern,
    run_ber_experiment,
    substream_seed,
)
from bch6351.cli import main
from bch6351.encoder import CODEWORD_BITS, MESSAGE_BITS, SHORT_PAYLOAD_BITS
from bch6351.frame_file import FrameFileError, parse_frame_file, write_frame_file
from test_channel_sim import reference_mask


def write_messages(path, messages, short=False):
    width = 8 if short else 16
    path.write_text("".join(format(m, f"0{width}x") + "\n" for m in messages))


def random_messages(count, seed, bits=MESSAGE_BITS):
    rng = SplitMix64(seed)
    return [rng.next_bits(bits) for _ in range(count)]


def test_encode_zero_message(tmp_path):
    infile, outfile = tmp_path / "m.hex", tmp_path / "c.hex"
    write_messages(infile, [0])
    assert main(["encode", str(infile), str(outfile)]) == 0
    assert outfile.read_text() == "0" * 16 + "\n"


def test_encode_decode_round_trip(tmp_path):
    infile = tmp_path / "m.hex"
    encoded = tmp_path / "c.hex"
    decoded = tmp_path / "out.hex"
    write_messages(infile, random_messages(50, seed=1))
    assert main(["encode", str(infile), str(encoded)]) == 0
    assert main(["decode", str(encoded), str(decoded)]) == 0
    assert decoded.read_bytes() == infile.read_bytes()


def test_pipeline_with_weight2_corruption(tmp_path):
    infile = tmp_path / "m.hex"
    encoded = tmp_path / "c.hex"
    corrupted = tmp_path / "r.hex"
    decoded = tmp_path / "out.hex"
    report = tmp_path / "report.csv"
    write_messages(infile, random_messages(40, seed=2))
    assert main(["encode", str(infile), str(encoded)]) == 0
    assert main(["corrupt", "--weight", "2", "--seed", "7",
                 str(encoded), str(corrupted)]) == 0
    assert corrupted.read_bytes() != encoded.read_bytes()
    assert main(["decode", "--report", str(report),
                 str(corrupted), str(decoded)]) == 0
    assert decoded.read_bytes() == infile.read_bytes()
    lines = report.read_text().splitlines()
    assert lines[0] == "frame_index,status,num_errors_corrected"
    assert len(lines) == 41
    assert all(line.split(",")[1] == "corrected" for line in lines[1:])
    assert all(line.split(",")[2] == "2" for line in lines[1:])


def test_corrupt_determinism(tmp_path):
    # --bsc output is deterministic, and frame i is flipped by the
    # definitional mask drawn from sub-seed i of --seed
    infile = tmp_path / "c.hex"
    out1, out2 = tmp_path / "r1.hex", tmp_path / "r2.hex"
    for flags, bits in (([], 63), (["--short"], 31)):
        words = random_messages(20, seed=3, bits=bits)
        write_messages(infile, words, short=bool(flags))
        for out in (out1, out2):
            assert main(["corrupt", *flags, "--bsc", "0.1", "--seed", "11",
                         str(infile), str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        received = [int(line, 16) for line in out1.read_text().splitlines()]
        assert received == [word ^ reference_mask(0.1, substream_seed(11, i), bits)
                            for i, word in enumerate(words)]
        assert received != words


CORRUPT_MODES = [
    ("weight-2", ["--weight", "2"], 63, lambda seed: random_error_pattern(2, 63, seed)),
    ("bsc", ["--bsc", "0.05"], 63, lambda seed: bernoulli_mask(0.05, seed, 63)),
    ("bsc-0", ["--bsc", "0"], 63, lambda seed: 0),
    ("bsc-1", ["--bsc", "1"], 63, lambda seed: (1 << 63) - 1),
    ("short-weight-3", ["--short", "--weight", "3"], 31,
     lambda seed: random_error_pattern(3, 31, seed)),
]
# Line i of a frame file, given its digits.  At full width \n lines are read
# 256 to a block, as the masks are drawn; \r\n lines about 242; and a
# space-padded line sends its block down the per-line path.
LINE_LAYOUTS = {
    "": lambda i, digits: digits + "\n",
    "-crlf": lambda i, digits: digits + "\r\n",
    "-padded": lambda i, digits: (" " + digits if i % 100 == 50 else digits) + "\n",
}


@pytest.mark.parametrize("flags, bits, mask, layout", [
    pytest.param(flags, bits, mask, layout, id=name + suffix)
    for name, flags, bits, mask in CORRUPT_MODES for suffix, layout in LINE_LAYOUTS.items()])
def test_corrupt_flips_frame_i_by_the_mask_of_sub_seed_i(tmp_path, flags, bits, mask, layout):
    # 600 frames: two full blocks of masks and a partial one, whatever the read blocks
    infile, out = tmp_path / "c.hex", tmp_path / "r.hex"
    words = random_messages(600, seed=5, bits=bits)
    width = 8 if bits == 31 else 16
    infile.write_bytes("".join(layout(i, format(word, f"0{width}x"))
                               for i, word in enumerate(words)).encode())
    seed = 2**64 - 3
    assert main(["corrupt", *flags, "--seed", str(seed), str(infile), str(out)]) == 0
    received = [int(line, 16) for line in out.read_text().splitlines()]
    assert received == [word ^ mask(substream_seed(seed, i)) for i, word in enumerate(words)]


def test_corrupt_weight_range_is_checked_before_the_input_is_read(tmp_path, capsys):
    empty, zero, out = tmp_path / "empty.hex", tmp_path / "zero.hex", tmp_path / "r.hex"
    empty.write_text("")
    for flags, n in (([], 63), (["--short"], 31)):
        for weight in (-1, n + 1):
            with pytest.raises(SystemExit) as exc:
                main(["corrupt", *flags, "--weight", str(weight), "--seed", "1",
                      str(empty), str(out)])
            assert exc.value.code == 2
            assert f"--weight must be in 0..{n}" in capsys.readouterr().err
            assert not out.exists()
        # both ends are in range: weight 0 flips no bit of a zero frame, weight n every bit
        write_messages(zero, [0], short=bool(flags))
        assert main(["corrupt", *flags, "--weight", "0", "--seed", "1",
                     str(zero), str(out)]) == 0
        assert out.read_bytes() == zero.read_bytes()
        assert main(["corrupt", *flags, "--weight", str(n), "--seed", "1",
                     str(zero), str(out)]) == 0
        assert int(out.read_text(), 16) == (1 << n) - 1
        out.unlink()


def test_uncorrectable_frames_and_sentinel(tmp_path):
    infile = tmp_path / "m.hex"
    encoded = tmp_path / "c.hex"
    corrupted = tmp_path / "r.hex"
    decoded = tmp_path / "out.hex"
    report = tmp_path / "report.csv"
    write_messages(infile, random_messages(30, seed=4))
    main(["encode", str(infile), str(encoded)])
    # weight-5 corruption: plenty of frames land outside every radius-2 ball
    main(["corrupt", "--weight", "5", "--seed", "13", str(encoded), str(corrupted)])
    code = main(["decode", "--report", str(report), str(corrupted), str(decoded)])
    statuses = [line.split(",")[1] for line in report.read_text().splitlines()[1:]]
    out_lines = decoded.read_text().splitlines()
    assert len(out_lines) == 30
    assert "uncorrectable" in statuses
    assert code == 1
    for status, line in zip(statuses, out_lines):
        if status == "uncorrectable":
            assert line == "X" * 16
        else:
            assert len(line) == 16 and line != "X" * 16
    # --allow-errors downgrades the exit code, output unchanged
    decoded2 = tmp_path / "out2.hex"
    assert main(["decode", "--allow-errors", str(corrupted), str(decoded2)]) == 0
    assert decoded2.read_bytes() == decoded.read_bytes()


def test_shortened_round_trip(tmp_path):
    infile = tmp_path / "m.hex"
    encoded = tmp_path / "c.hex"
    corrupted = tmp_path / "r.hex"
    decoded = tmp_path / "out.hex"
    payloads = random_messages(25, seed=5, bits=19)
    write_messages(infile, payloads, short=True)
    assert main(["encode", "--short", str(infile), str(encoded)]) == 0
    assert encoded.read_text() == "".join(f"{encoder.encode_shortened(m):08x}\n" for m in payloads)
    assert main(["corrupt", "--short", "--weight", "2", "--seed", "21",
                 str(encoded), str(corrupted)]) == 0
    assert main(["decode", "--short", str(corrupted), str(decoded)]) == 0
    assert decoded.read_bytes() == infile.read_bytes()


@pytest.mark.parametrize("short", [False, True], ids=["width16", "width8"])
def test_decode_equals_a_per_frame_decode_on_every_coset_twice(tmp_path, capsys, short):
    # decode runs once per coset: the words 0..4095 visit each coset once,
    # and the same words plus distinct random codewords visit it again
    # through different words
    width, payload_bits = (8, 19) if short else (16, MESSAGE_BITS)
    encode = encoder.encode_shortened if short else encoder.encode
    reference = decoder.decode_shortened if short else decoder.decode
    payloads = random.Random(19).sample(range(1 << payload_bits), 4096)
    words = [*range(4096), *(word ^ encode(m) for word, m in enumerate(payloads))]
    messages, rows = [], ["frame_index,status,num_errors_corrected"]
    for index, word in enumerate(words):
        outcome = reference(word)
        if outcome.corrected is None:
            messages.append("X" * width)
        else:
            message = outcome.corrected if short else outcome.corrected >> encoder.PARITY_BITS
            messages.append(format(message, f"0{width}x"))
        rows.append(f"{index},{outcome.status.value},{len(outcome.positions)}")
    uncorrectable = messages.count("X" * width)
    assert 0 < uncorrectable < len(words)

    received, out, report = tmp_path / "r.hex", tmp_path / "out.hex", tmp_path / "report.csv"
    write_messages(received, words, short)
    flags = ["--short"] if short else []
    assert main(["decode", *flags, "--allow-errors", "--report", str(report),
                 str(received), str(out)]) == 0
    # lists, not whole texts: pytest diffs two long unequal strings for minutes
    assert out.read_text().split("\n") == [*messages, ""]
    assert report.read_text().split("\n") == [*rows, ""]
    assert capsys.readouterr().err == f"{uncorrectable} uncorrectable frame(s)\n"
    assert main(["decode", *flags, str(received), str(out)]) == 1
    assert capsys.readouterr().err == f"{uncorrectable} uncorrectable frame(s)\n"


def test_each_decode_run_starts_with_an_empty_coset_memo(tmp_path, monkeypatch):
    # a run that reused an earlier run's decodes would hide a decoder fault
    # from the benchmark's injected-fault run and from selftest; ber too
    infile, encoded, corrupted = tmp_path / "m.hex", tmp_path / "c.hex", tmp_path / "r.hex"
    write_messages(infile, random_messages(20, seed=6))
    assert main(["encode", str(infile), str(encoded)]) == 0
    assert main(["corrupt", "--weight", "2", "--seed", "9", str(encoded), str(corrupted)]) == 0
    assert main(["decode", str(corrupted), str(tmp_path / "first.hex")]) == 0
    run_ber_experiment(0.1, 50, 1)

    def broken(locator):
        raise ValueError("injected")

    monkeypatch.setattr(decoder, "chien_search", broken)
    assert main(["decode", str(corrupted), str(tmp_path / "second.hex")]) == 2
    with pytest.raises(ValueError, match="injected"):
        run_ber_experiment(0.1, 50, 1)


def test_parse_error_bad_hex(tmp_path, capsys):
    # int(text, 16) would take the prefix, sign and underscore forms
    lines = [
        b"00000000000000zz",
        b"0x000000000000ab",
        b"+00000000000000a",
        b"-00000000000000a",
        b"0000_0000000000a",
        b"0000000000000 0a",
        "00000000000000\u00e9".encode(),
        b"\xff000000000000000",
    ]
    infile = tmp_path / "m.hex"
    for line in lines:
        infile.write_bytes(line + b"\n")
        assert main(["encode", str(infile), str(tmp_path / "c.hex")]) == 2, line
        err = capsys.readouterr().err
        assert f"{infile}:1:" in err and "reserved" not in err, (line, err)


@pytest.mark.parametrize("line, want", [
    (b"\t\x0b\x0c\x1c 000000000000002A \x1d\x1e\x1f", 42),  # str.strip's ASCII blanks
    (b"\xa0000000000000002a", "non-ASCII byte 0xa0 at column 1"),
    (b"000000000000002a\x85", "non-ASCII byte 0x85 at column 17"),
    (b" 0000000000\xc3\xa9002a", "non-ASCII byte 0xc3 at column 12"),
    (b"0\x7f\xe90000000000002a", "non-ASCII byte 0xe9 at column 3"),  # DEL is ASCII
    (b" 2a ", "expected 16 hex digits, got '2a'"),
    pytest.param(b"0" * 40, f"expected 16 hex digits, got '{'0' * 40}'", id="40-digits"),
    pytest.param(b"0" * 100_000,  # quoted by its first 40 characters and its length
                 f"expected 16 hex digits, got '{'0' * 40}'... (100000 characters)",
                 id="100000-digits"),
    (b"0x0000000000002a", "not a hex frame: '0x0000000000002a'"),
    (b"8000000000000000", "reserved bits above bit 62 are set"),
])
def test_line_check(tmp_path, line, want):
    path = tmp_path / "f.hex"
    path.write_bytes(b"0" * 16 + b"\n" + line + b"\n")
    frames = parse_frame_file(str(path), "codeword", short=False)
    if isinstance(want, int):
        assert list(frames) == [0, want]
    else:
        with pytest.raises(FrameFileError) as exc:
            list(frames)
        assert str(exc.value) == f"{path}:2: {want}"


def test_lines_split_as_bytes_splitlines(tmp_path):
    # mixed line ends, and a \r\n pair at every offset of the reader's
    # buffer (padding shifts the 18-byte lines), with and without a final break
    rng = random.Random(7)
    words = random_messages(2000, seed=7, bits=63)
    frames = [format(w, "016x").encode() for w in words]
    mixed = b"".join(f + rng.choice([b"\n", b"\r\n", b"\r"]) for f in frames)
    crlf = b"".join(f + b"\r\n" for f in frames)
    path = tmp_path / "f.hex"
    for data in [mixed] + [b" " * pad + crlf for pad in range(18)]:
        for text in (data, data.rstrip(b"\r\n")):
            path.write_bytes(text)
            assert list(parse_frame_file(str(path), "codeword", short=False)) == words


def test_parse_error_wrong_width(tmp_path, capsys, monkeypatch):
    infile = tmp_path / "m.hex"
    infile.write_text("0000000000000000\nabc\n")
    assert main(["encode", str(infile), str(tmp_path / "c.hex")]) == 2
    assert ":2:" in capsys.readouterr().err
    # a long line is not echoed whole
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.hex").write_text("0" * 100_000 + "\n")
    assert main(["decode", "long.hex", "out.hex"]) == 2
    err = capsys.readouterr().err
    assert len(err) < 200 and "long.hex:1:" in err and "(100000 characters)" in err, err


@pytest.mark.parametrize("command, bits, lines, line", [
    pytest.param(command, bits, lines, line, id=f"{name}-line-{line}-of-{lines}")
    for name, command, bits in (("encode", ["encode"], MESSAGE_BITS),
                                ("encode-short", ["encode", "--short"], SHORT_PAYLOAD_BITS),
                                ("decode", ["decode"], CODEWORD_BITS))
    for lines, line in ((1, 1), (600, 300))])
def test_parse_error_reserved_bits(tmp_path, capsys, command, bits, lines, line):
    # bare frame lines: the line goes through the block path, which must
    # find the bit above the frame's value bits and name the line
    infile = tmp_path / "in.hex"
    words = random_messages(lines, seed=9, bits=bits)
    words[line - 1] |= 1 << bits
    write_messages(infile, words, short="--short" in command)
    assert main([*command, str(infile), str(tmp_path / "out.hex")]) == 2
    err = capsys.readouterr().err
    assert f":{line}:" in err and "reserved" in err


def test_missing_input_file(tmp_path, capsys):
    missing = tmp_path / "nope.hex"
    assert main(["encode", str(missing), str(tmp_path / "c.hex")]) == 2
    assert capsys.readouterr().err == f"error: {missing}: cannot read: No such file or directory\n"
    # reported before any output is opened, here in a missing directory
    assert main(["encode", str(tmp_path / "nope.hex"), str(tmp_path / "no" / "c.hex")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["encode", "{words}", "{out}"],
    ["decode", "{words}", "{out}"],
    ["corrupt", "--weight", "1", "--seed", "3", "{words}", "{out}"],
    ["decode", "--report", "{out}", "{words}", "{ok}"],
    ["ber", "--p", "0.01", "--frames", "10", "--seed", "1", "--csv", "{out}"],
], ids=["encode", "decode", "corrupt", "decode-report", "ber-csv"])
def test_unwritable_output_exit_code(tmp_path, capsys, command):
    # a file error is exit 2, like a parse error; exit 1 means an
    # uncorrectable frame
    words = tmp_path / "w.hex"
    write_messages(words, [0, 1])
    out = tmp_path / "missing-dir" / "o.txt"
    paths = {"words": words, "out": out, "ok": tmp_path / "ok.hex"}
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("words", ["bad-line-3", "missing"])
@pytest.mark.parametrize("command", [
    ["encode", "{words}", "{out}"],
    ["corrupt", "--weight", "2", "--seed", "1", "{words}", "{out}"],
    ["decode", "--report", "{report}", "{words}", "{out}"],
], ids=["encode", "corrupt", "decode-report"])
def test_failed_run_leaves_outputs_as_they_were(tmp_path, capsys, command, words):
    infile = tmp_path / "w.hex"
    if words == "bad-line-3":
        infile.write_text("0" * 16 + "\n" + "0" * 16 + "\nzz\n" + "0" * 16 + "\n")
    paths = {"words": infile, "out": tmp_path / "o.hex", "report": tmp_path / "r.csv"}
    paths["out"].write_bytes(b"old output\n")
    paths["report"].write_bytes(b"old report\n")
    before = sorted(os.listdir(tmp_path))
    assert main([arg.format(**paths) for arg in command]) == 2
    assert (":3:" if words == "bad-line-3" else "cannot read") in capsys.readouterr().err
    assert paths["out"].read_bytes() == b"old output\n"
    assert paths["report"].read_bytes() == b"old report\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("old_out", [None, b"old output\n"], ids=["no-out", "old-out"])
def test_decode_keeps_out_when_its_report_cannot_be_written(tmp_path, capsys, old_out):
    # /dev/full takes no byte, so the report fails; OUT must not be replaced
    words, out = tmp_path / "c.hex", tmp_path / "o.hex"
    write_messages(words, [0, 1])
    if old_out is not None:
        out.write_bytes(old_out)
    before = sorted(os.listdir(tmp_path))
    assert main(["decode", "--report", "/dev/full", str(words), str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before
    if old_out is not None:
        assert out.read_bytes() == old_out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", [
    ["encode", "{words}", "/dev/full"],
    ["decode", "--report", "/dev/full", "{words}", "{out}"],
    ["decode", "--report", "{report}", "{words}", "/dev/full"],
    ["ber", "--p", "0.1", "--frames", "3", "--seed", "1", "--csv", "/dev/full"],
], ids=["encode", "decode-report", "decode-out", "ber-csv"])
def test_an_output_that_cannot_be_written_is_named(tmp_path, capsys, command):
    # /dev/full takes no byte; the error names it, and an input that
    # cannot be read is still named in its place
    words = tmp_path / "w.hex"
    write_messages(words, [0, 1])
    paths = {"words": words, "out": tmp_path / "o.hex", "report": tmp_path / "r.csv"}
    assert main([arg.format(**paths) for arg in command]) == 2
    assert "No space left on device: '/dev/full'" in capsys.readouterr().err
    if command[0] != "ber":
        paths["words"] = tmp_path / "missing.hex"
        assert main([arg.format(**paths) for arg in command]) == 2
        err = capsys.readouterr().err
        assert f"{paths['words']}: cannot read" in err and "/dev/full" not in err


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("report, out", [("F", "./F"), ("/dev/stdout", "/dev/stdout")],
                         ids=["relative", "dev-stdout"])
def test_report_naming_out_is_a_usage_error(tmp_path, monkeypatch, capsys, report, out):
    # checked before IN, which does not exist, is opened
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--report", report, "missing.hex", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--report and OUT name the same file" in err
    assert os.listdir(tmp_path) == []


def test_failure_after_frames_were_written_leaves_no_output(tmp_path, monkeypatch):
    # the third frame raises after two frames went to the new file
    infile, outfile = tmp_path / "m.hex", tmp_path / "c.hex"
    write_messages(infile, [1, 2, 3, 4])
    calls = []

    def failing(message):
        calls.append(message)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return message

    monkeypatch.setattr(cli, "encode", failing)
    with pytest.raises(RuntimeError):
        main(["encode", str(infile), str(outfile)])
    assert sorted(os.listdir(tmp_path)) == ["m.hex"]


def test_symlinked_output_stays_a_link(tmp_path):
    infile = tmp_path / "m.hex"
    write_messages(infile, [0, 1])
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "c.hex"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "c.hex"
    link.symlink_to(target)
    assert main(["encode", str(infile), str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == "0" * 16 + "\n" + "0000000000001539\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(os.listdir(tmp_path / "real")) == ["c.hex"]


def test_fifo_output_is_written_in_place(tmp_path):
    infile, fifo = tmp_path / "m.hex", tmp_path / "pipe"
    write_messages(infile, [0, 1])
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["encode", str(infile), str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [b"0" * 16 + b"\n" + b"0000000000001539\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["m.hex", "pipe"]


def run_module(argv, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m bch6351 argv` on this checkout's package."""
    return subprocess.run(
        [sys.executable, "-m", "bch6351", *argv], stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(bch6351.__file__).parent.parent)},
        **kwargs,
    )


# Two commands that write one output, OUT or --csv, given without that last argument.
ONE_OUTPUT = pytest.mark.parametrize("command", [
    ["encode", "m.hex"],
    ["ber", "--p", "0.1", "--frames", "10", "--seed", "1", "--csv"],
], ids=["encode", "ber-csv"])


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
@ONE_OUTPUT
def test_device_and_descriptor_outputs_in_process(tmp_path, monkeypatch, command):
    # /dev/null, a character device, is opened by its path; /dev/fd/N is a
    # duplicate of N, here a file opened for append
    monkeypatch.chdir(tmp_path)
    write_messages(tmp_path / "m.hex", random_messages(5, seed=9))
    assert main([*command, "out"]) == 0
    assert main([*command, "/dev/null"]) == 0
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    log = tmp_path / "log"
    log.write_bytes(b"earlier line\n")
    with open(log, "ab") as fh:
        assert main([*command, f"/dev/fd/{fh.fileno()}"]) == 0
    assert log.read_bytes() == b"earlier line\n" + (tmp_path / "out").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["log", "m.hex", "out"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@ONE_OUTPUT
def test_dev_stdout_on_a_pipe_is_written_in_place(tmp_path, monkeypatch, command):
    # /dev/stdout links to the pipe through /proc/self/fd/1, whose resolved
    # name does not exist; the pipe must get what a regular OUT gets
    monkeypatch.chdir(tmp_path)
    write_messages(tmp_path / "m.hex", random_messages(5, seed=9))
    result = run_module([*command, "/dev/stdout"], stdout=subprocess.PIPE)
    assert result.returncode == 0, result.stderr
    assert main([*command, "out"]) == 0
    assert result.stdout == (tmp_path / "out").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("setup", ["stdout-append", "fd-append", "stdout-truncate"])
@ONE_OUTPUT
def test_descriptor_output_on_a_file_is_written_through_the_descriptor(
        tmp_path, monkeypatch, command, setup):
    # As under `>> log` or `> log`: /dev/stdout and /dev/fd/N name a file
    # that the caller opened, so the output goes through that descriptor.
    # Replacing the file, or reopening it by name, would lose its old bytes.
    monkeypatch.chdir(tmp_path)
    write_messages(tmp_path / "m.hex", random_messages(5, seed=9))
    assert main([*command, "out"]) == 0
    log = tmp_path / "log"
    log.write_bytes(b"earlier line\n")
    with open(log, "wb" if setup == "stdout-truncate" else "ab") as fh:
        if setup == "fd-append":
            result = run_module([*command, f"/dev/fd/{fh.fileno()}"], pass_fds=(fh.fileno(),))
        else:
            result = run_module([*command, "/dev/stdout"], stdout=fh)
    assert result.returncode == 0, result.stderr
    earlier = b"" if setup == "stdout-truncate" else b"earlier line\n"
    assert log.read_bytes() == earlier + (tmp_path / "out").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["log", "m.hex", "out"]


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
@ONE_OUTPUT
def test_closed_descriptor_output_is_an_error_naming_it(tmp_path, monkeypatch, command):
    # the child inherits only descriptors 0, 1 and 2, so 9 is not open
    monkeypatch.chdir(tmp_path)
    write_messages(tmp_path / "m.hex", random_messages(5, seed=9))
    result = run_module([*command, "/dev/fd/9"], stdout=subprocess.PIPE)
    assert result.returncode == 2
    assert b"/dev/fd/9" in result.stderr
    assert result.stdout == b""
    assert os.listdir(tmp_path) == ["m.hex"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("bad_line", [3, 300])  # in the first block of 256, and past it
@pytest.mark.parametrize("command", [
    ["encode"],
    ["corrupt", "--weight", "2", "--seed", "4"],
    ["decode", "--allow-errors", "--report", "r.csv"],
], ids=["encode", "corrupt", "decode-report"])
def test_descriptor_output_keeps_the_frames_before_a_rejected_line(tmp_path, monkeypatch,
                                                                  command, bad_line):
    # An output written through a descriptor is not replaced, so the frames
    # before the rejected line reach it, as they would line by line.
    monkeypatch.chdir(tmp_path)
    lines = [format(m, "016x") + "\n" for m in random_messages(bad_line + 20, seed=bad_line)]
    pathlib.Path("good.hex").write_text("".join(lines[:bad_line - 1]))
    assert main([*command, "good.hex", "want.hex"]) == 0
    pathlib.Path("bad.hex").write_text("".join(lines[:bad_line - 1]) + "zz\n"
                                       + "".join(lines[bad_line:]))
    pathlib.Path("r.csv").unlink(missing_ok=True)
    result = run_module([*command, "bad.hex", "/dev/stdout"], stdout=subprocess.PIPE)
    assert result.returncode == 2
    assert f"bad.hex:{bad_line}: expected 16 hex digits".encode() in result.stderr
    assert result.stdout == pathlib.Path("want.hex").read_bytes()
    assert sorted(os.listdir()) == ["bad.hex", "good.hex", "want.hex"]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_decode_memory_does_not_grow_with_the_file(tmp_path, newline):
    # frames are streamed, so the traced peak of a decode --report holds
    # steady from 2k to 20k frames, whatever ends the lines
    def peak(count):
        messages, coded, noisy = (tmp_path / f"{name}{count}.hex" for name in "mcn")
        write_messages(messages, random_messages(count, seed=count))
        assert main(["encode", str(messages), str(coded)]) == 0
        assert main(["corrupt", "--weight", "2", "--seed", "3", str(coded), str(noisy)]) == 0
        noisy.write_bytes(noisy.read_bytes().replace(b"\n", newline))
        tracemalloc.start()
        try:
            assert main(["decode", "--report", str(tmp_path / "r.csv"),
                         str(noisy), str(tmp_path / "d.hex")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_000)  # warm-up: first-call allocations are not the file's
    small, large = peak(2_000), peak(20_000)
    assert large < 1.5 * small, (small, large)


def test_hard_linked_output_is_replaced_not_rewritten(tmp_path):
    # the output's name gets the new file; another link keeps the old one
    infile, out, other = tmp_path / "m.hex", tmp_path / "c.hex", tmp_path / "other.hex"
    write_messages(infile, [0])
    out.write_text("old\n")
    os.link(out, other)
    assert main(["encode", str(infile), str(out)]) == 0
    assert out.read_text() == "0" * 16 + "\n"
    assert other.read_text() == "old\n"
    assert out.stat().st_nlink == 1


def test_output_error_when_no_file_can_be_made_beside_it(tmp_path, monkeypatch, capsys):
    # as in a directory the user cannot write: the existing output, even
    # if writable, is left as it was, and the message says why
    infile, out = tmp_path / "m.hex", tmp_path / "c.hex"
    write_messages(infile, [0])
    out.write_text("old\n")

    def refuse(path, *args):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "open", refuse)
    assert main(["encode", str(infile), str(out)]) == 2
    err = capsys.readouterr().err
    assert "Permission denied (an output is replaced by a new file made in its directory)" in err
    assert err.endswith(f"'{out}'\n")
    assert out.read_text() == "old\n"


def test_output_error_names_the_path_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_messages(tmp_path / "m.hex", [0])
    (tmp_path / "file").write_text("")
    for out in ("file/o.hex", "missing/o.hex"):
        assert main(["encode", "m.hex", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"'{out}'\n"), err
        assert "replaced" not in err  # said only of an output that exists


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["decode"])  # missing positionals
    assert exc.value.code == 2


def test_read_rewrite_identity(tmp_path):
    original = tmp_path / "a.hex"
    rewritten = tmp_path / "b.hex"
    write_messages(original, random_messages(20, seed=12, bits=63))
    frames = parse_frame_file(str(original), "codeword", short=False)
    write_frame_file(str(rewritten), frames, short=False)
    assert rewritten.read_bytes() == original.read_bytes()


@pytest.mark.parametrize("short", [False, True], ids=["width16", "width8"])
def test_write_frame_file_rejects_a_value_that_does_not_fit(tmp_path, short):
    width = 8 if short else 16
    out = tmp_path / "o.hex"
    write_frame_file(str(out), [(1 << 4 * width) - 1], short)
    assert out.read_text() == "f" * width + "\n"
    # a block of values, and a block that holds a sentinel
    for before in ([0], [None]):
        for bad in (1 << 4 * width, -1):
            with pytest.raises(ValueError, match=f"frame {bad} does not fit in {width} hex"):
                write_frame_file(str(out), [*before, bad], short)
            assert out.read_text() == "f" * width + "\n"


def test_parse_serialize_identity(tmp_path):
    infile = tmp_path / "m.hex"
    encoded1 = tmp_path / "c1.hex"
    encoded2 = tmp_path / "c2.hex"
    write_messages(infile, random_messages(15, seed=6))
    main(["encode", str(infile), str(encoded1)])
    # re-encoding the decoded output of encoded1 reproduces it bit-exactly
    decoded = tmp_path / "d.hex"
    main(["decode", str(encoded1), str(decoded)])
    main(["encode", str(decoded), str(encoded2)])
    assert encoded1.read_bytes() == encoded2.read_bytes()


# p = 0 and p = 1 and one frame are the ends of the accepted ranges
@pytest.mark.parametrize("p, frames", [(0.01, 500), (0, 5), (1, 5), (0.01, 1)])
def test_ber_subcommand_stdout(capsys, tmp_path, p, frames):
    assert main(["ber", "--p", str(p), "--frames", str(frames), "--seed", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p,frames,seed,pre_fec_ber,post_fec_ber,fer,uncorrectable,miscorrected",
                   run_ber_experiment(p, frames, 9).csv_row()]
    csv = tmp_path / "ber.csv"
    assert main(["ber", "--p", str(p), "--frames", str(frames), "--seed", "9",
                 "--csv", str(csv)]) == 0
    assert csv.read_text().splitlines() == out


# Outputs recorded at commit ca86d0a, so that a change to the stream
# contract fails here: the other channel tests compare two implementations
# of the same commit.  The frame counts take a one-frame run, a final short
# block of masks, one full block, and both.
RECORDED_BER_ROWS = """\
0.001,1,1,0,0,0,0,0
0.001,1,4242,0,0,0,0,0
0.001,255,1,0.001076509035,0,0,0,0
0.001,255,4242,0.00061514802,0,0,0,0
0.001,256,1,0.001072303922,0,0,0,0
0.001,256,4242,0.000612745098,0,0,0,0
0.001,257,1,0.001068131533,0,0,0,0
0.001,257,4242,0.0006103608759,0,0,0,0
0.001,10000,1,0.0009784313725,0,0,0,0
0.001,10000,4242,0.0009745098039,0,0,0,0
0.1,1,1,0.03921568627,0.05882352941,1,0,1
0.1,1,4242,0.137254902,0.137254902,1,1,0
0.1,255,1,0.1010380623,0.1119569396,0.9411764706,128,112
0.1,255,4242,0.09888504421,0.1117262591,0.9647058824,104,142
0.1,256,1,0.1008731618,0.1118259804,0.94140625,128,113
0.1,256,4242,0.09895833333,0.1119025735,0.96484375,104,143
0.1,257,1,0.1009384298,0.1118486305,0.9416342412,128,114
0.1,257,4242,0.09887846189,0.1118486305,0.9649805447,104,144
0.1,10000,1,0.0996,0.1103509804,0.9585,4890,4695
0.1,10000,4242,0.1004156863,0.1114156863,0.9597,4832,4765
"""


def test_ber_rows_equal_the_recorded_ones(capsys):
    rows = []
    for p in ("1e-3", "0.1"):
        for frames in (1, 255, 256, 257, 10_000):
            for seed in (1, 4242):
                assert main(["ber", "--p", p, "--frames", str(frames), "--seed", str(seed)]) == 0
                rows.append(capsys.readouterr().out.splitlines()[1])
    assert rows == RECORDED_BER_ROWS.splitlines()


@pytest.mark.parametrize("flags, digits, sha256", [
    ([], 16, "0d0ab778c522c55d68bb3b3ff796785492150721695dd6677906e9e9b64fe3e3"),
    (["--short"], 8, "23d4b58bc63e0c6bb26588dd982e925e06db709446c8daea27c67e9231a51345"),
], ids=["full", "short"])
def test_corrupt_bsc_output_equals_the_recorded_one(tmp_path, flags, digits, sha256):
    # messages 0..299, encoded: two full blocks of masks, as the stream never ends
    messages, encoded, received = tmp_path / "m.hex", tmp_path / "c.hex", tmp_path / "r.hex"
    messages.write_text("".join(format(i, f"0{digits}x") + "\n" for i in range(300)))
    assert main(["encode", *flags, str(messages), str(encoded)]) == 0
    assert main(["corrupt", *flags, "--bsc", "0.05", "--seed", "7",
                 str(encoded), str(received)]) == 0
    assert hashlib.sha256(received.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("flags, message", [
    (["ber", "--p", "2", "--frames", "10", "--seed", "1"], "--p probability must be in [0, 1]"),
    (["ber", "--p", "-0.1", "--frames", "10", "--seed", "1"], "--p probability must be in [0, 1]"),
    (["ber", "--p", "nan", "--frames", "10", "--seed", "1"], "--p probability must be in [0, 1]"),
    (["ber", "--p", "0.1", "--frames", "0", "--seed", "1"], "--frames must be at least 1"),
    (["ber", "--p", "0.1", "--frames", "10", "--seed", "-1"], "--seed must be in 0..2^64-1"),
    (["ber", "--p", "0.1", "--frames", "10", "--seed", str(1 << 64)], "--seed must be in 0..2^64-1"),
    (["corrupt", "--weight", "2", "--seed", "-1"], "--seed must be in 0..2^64-1"),
    (["corrupt", "--weight", "2", "--seed", str(1 << 64)], "--seed must be in 0..2^64-1"),
    (["corrupt", "--bsc", "2", "--seed", "1"], "--bsc probability must be in [0, 1]"),
    (["corrupt", "--bsc", "-0.1", "--seed", "1"], "--bsc probability must be in [0, 1]"),
    (["corrupt", "--bsc", "nan", "--seed", "1"], "--bsc probability must be in [0, 1]"),
], ids=["p-2", "p-negative", "p-nan", "frames-0", "ber-seed-negative", "ber-seed-2^64",
        "corrupt-seed-negative", "corrupt-seed-2^64", "bsc-2", "bsc-negative", "bsc-nan"])
def test_out_of_range_ber_and_seed_values_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                           flags, message):
    # checked with the usage line before any table is built or output touched
    monkeypatch.setattr(cli, "build_tables", lambda: pytest.fail("tables were built"))
    out = tmp_path / "out"
    if flags[0] == "ber":
        argv = [*flags, "--csv", str(out)]
    else:
        (tmp_path / "c.hex").write_text("0" * 16 + "\n")
        argv = [*flags, str(tmp_path / "c.hex"), str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err
    assert not out.exists()


def test_seed_range_ends_are_accepted(tmp_path, capsys):
    infile, out = tmp_path / "c.hex", tmp_path / "r.hex"
    infile.write_text("0" * 16 + "\n")
    for seed in (0, (1 << 64) - 1):
        assert main(["ber", "--p", "0.1", "--frames", "10", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"0.1,10,{seed},")
        assert main(["corrupt", "--weight", "2", "--seed", str(seed), str(infile), str(out)]) == 0
        assert int(out.read_text(), 16).bit_count() == 2


def test_tables_subcommand(capsys):
    assert main(["tables"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 63
    assert lines[0] == "0 000001"
    assert lines[6] == "6 000011"


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # every line in full, name and detail, up to its timing in milliseconds
    assert all(re.search(r" \(\d+\.\d{3}s\)$", line) for line in lines)
    assert [re.sub(r" \(\d+\.\d{3}s\)$", "", line) for line in lines] == [
        "PASS  multiplier equivalence (4096 pairs): 0 mismatches",
        "PASS  syndrome certificate (1912 single-byte words): 0 mismatches",
        "PASS  encoder certificate (1537 single-byte messages): 0 mismatches",
        "PASS  syndrome distinctness (2017 keys): 2017 entries",
        "PASS  decoder/oracle coset certificate (4096 cosets): 0 disagreements, 2017 correctable",
        "self-test passed",
    ]


def test_selftest_references_see_every_input(monkeypatch, capsys):
    # each check calls its reference once per input, through the module
    # global that a fault test or a trace replaces
    calls = {}

    def counted(module, name):
        function = getattr(module, name)

        def counter(*args):
            calls[name] += 1
            return function(*args)

        calls[name] = 0
        monkeypatch.setattr(module, name, counter)

    for name in ("gf_mul_mse", "gf_mul_table", "encode_lfsr", "compute_syndromes", "decode"):
        counted(cli, name)
    counted(reference_oracle, "brute_force_decode")
    assert main(["selftest"]) == 0
    assert calls == {"gf_mul_mse": 4096, "gf_mul_table": 4096, "encode_lfsr": 1537,
                     "compute_syndromes": 1912 + 1537, "decode": 4096,
                     "brute_force_decode": 4096}
    assert "self-test passed (" in capsys.readouterr().out


@pytest.mark.parametrize("table, entry, bit, verdicts, raised", [
    # decode's zero-syndrome re-check raises in the coset certificate
    ("_B0", 0x03, 1, ["PASS", "FAIL", "FAIL", "PASS", "FAIL"], "RuntimeError: corrected word"),
    # build_syndrome_table raises, and both checks that read its table fail
    ("_B0", 0x01, 1 << 12, ["PASS", "FAIL", "FAIL", "FAIL", "FAIL"],
     "ValueError: syndrome collision"),
    # the top byte's table is read by the single-byte words placed there
    ("_B7", 0x01, 1, ["PASS", "FAIL", "FAIL", "PASS", "FAIL"], "RuntimeError: corrected word"),
], ids=["re-check", "key-collision", "top-byte"])
def test_selftest_reaches_a_verdict_when_a_check_raises(monkeypatch, capsys, table, entry, bit,
                                                        verdicts, raised):
    flipped = list(getattr(decoder, table))
    flipped[entry] ^= bit
    monkeypatch.setattr(decoder, table, tuple(flipped))
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:4] for line in lines[:5]] == verdicts
    assert lines[1].startswith(
        "FAIL  syndrome certificate (1912 single-byte words): 1 mismatches (")
    assert lines[4].startswith(
        f"FAIL  decoder/oracle coset certificate (4096 cosets): raised {raised}")
    assert lines[5].startswith("SELF-TEST FAILED") and len(lines) == 6


def wrong_product(monkeypatch):
    correct = cli.gf_mul_mse
    monkeypatch.setattr(cli, "gf_mul_mse", lambda a, b: correct(a, b) ^ (a == 5 and b == 9))


def wrong_parity_entry(monkeypatch):
    tables = [list(table) for table in encoder._PARITY_TABLES]
    tables[6][3] ^= 1
    monkeypatch.setattr(encoder, "_PARITY_TABLES", tuple(map(tuple, tables)))


def wrong_coset_3_word(monkeypatch):
    # coset 3 keeps its status, so it still counts as correctable
    correct = cli.decode

    def decode(word):
        outcome = correct(word)
        return outcome._replace(corrected=outcome.corrected ^ 1 << 40) if word == 3 else outcome

    monkeypatch.setattr(cli, "decode", decode)


def wrong_top_byte_s3(monkeypatch):
    # 1 << 62, the highest single-byte word, must be among the syndrome
    # certificate's inputs, and its S3 must be compared
    correct = cli.compute_syndromes

    def compute_syndromes(word):
        s1, s2, s3 = correct(word)
        return (s1, s2, s3 ^ 1) if word == 1 << 62 else (s1, s2, s3)

    monkeypatch.setattr(cli, "compute_syndromes", compute_syndromes)


def wrong_key_entry(monkeypatch):
    # bit 0 of entry 0x40 of byte 3's low key table: the block key of
    # 1 << 30 becomes that of the UNCORRECTABLE word 0xc62, which a memo
    # then corrects with 1 << 30's pattern
    correct = decoder._key_columns

    def key_columns():
        columns = correct()
        low, high = columns[3]
        columns[3] = (low[:0x40] + bytes([low[0x40] ^ 1]) + low[0x41:], high)
        return columns

    monkeypatch.setattr(decoder, "_key_columns", key_columns)
    assert decoder.coset_decoder(decoder.decode)([1 << 30, 0xC62]) == [1 << 30, 1 << 30]


def nonzero_codeword_syndromes(monkeypatch):
    # the codeword of message 1 still equals the LFSR's, so only its
    # syndromes can fail the encoder certificate
    correct, codeword = cli.compute_syndromes, encoder.encode(1)
    monkeypatch.setattr(cli, "compute_syndromes",
                        lambda word: (1, 1, 1) if word == codeword else correct(word))


@pytest.mark.parametrize("fault, check, message", [
    (wrong_product, 0, "multiplier equivalence (4096 pairs): 1 mismatches"),
    (wrong_top_byte_s3, 1, "syndrome certificate (1912 single-byte words): 1 mismatches"),
    (wrong_key_entry, 1, "syndrome certificate (1912 single-byte words): 1 mismatches"),
    (wrong_parity_entry, 2, "encoder certificate (1537 single-byte messages): 1 mismatches"),
    (nonzero_codeword_syndromes, 2,
     "encoder certificate (1537 single-byte messages): 1 mismatches"),
    (wrong_coset_3_word, 4,
     "decoder/oracle coset certificate (4096 cosets): 1 disagreements, 2017 correctable"),
], ids=["wrong-product", "top-byte-s3", "key-table-entry", "parity-table-entry",
        "codeword-syndromes", "coset-3-word"])
def test_selftest_fails_only_the_check_a_fault_reaches(monkeypatch, capsys, fault, check,
                                                       message):
    fault(monkeypatch)
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[check].startswith(f"FAIL  {message} (")
    assert [line[:4] for i, line in enumerate(lines[:5]) if i != check] == ["PASS"] * 4
    assert re.fullmatch(r"SELF-TEST FAILED \(\d+\.\d{3}s\)", lines[5]) and len(lines) == 6


def test_no_assert_statements_in_package():
    # checks must survive python -O, which strips assert statements
    for path in sorted(pathlib.Path(bch6351.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"


def test_no_unused_imports_in_package():
    # __init__.py re-exports what it imports; elsewhere an imported name
    # must be read, or its line must be marked "# noqa: F401"
    for path in sorted(pathlib.Path(bch6351.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
        assert unused == [], f"{path.name}: unused imports {unused}"


def test_every_top_level_definition_has_a_reader_outside_the_tests():
    # a def, class or assigned name that only tests (or only bench/) read
    # is API no command uses: it goes, or moves into the tests
    package = pathlib.Path(bch6351.__file__).parent
    modules = {path: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(package.glob("*.py"))}
    acceptance = pathlib.Path(__file__).with_name("test_acceptance.py")
    read = set()
    for tree in [*modules.values(), ast.parse(acceptance.read_text())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path, tree in modules.items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            else:
                continue
            unread += [f"{path.name}:{name}" for name in names if name not in read]
    assert unread == []


def test_cli_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, a large share of every command's start-up;
    # -S keeps the interpreter's own site imports out of the check
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bch6351.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(bch6351.__file__).parent.parent)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_selftest_passes_under_optimize_flag():
    result = subprocess.run(
        [sys.executable, "-O", "-m", "bch6351", "selftest"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-test passed" in result.stdout


def test_module_entry_point(tmp_path):
    infile = tmp_path / "m.hex"
    write_messages(infile, [0x3FF])
    result = subprocess.run(
        [sys.executable, "-m", "bch6351", "encode", str(infile),
         str(tmp_path / "c.hex")],
        capture_output=True,
    )
    assert result.returncode == 0
