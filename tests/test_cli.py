"""CLI behavior: framing, round trips, exit codes, reports."""

import ast
import pathlib
import subprocess
import sys

import pytest

import bch6351
from bch6351.channel_sim import SplitMix64, substream_seed
from bch6351.cli import main, parse_frame_file, write_frame_file
from bch6351.encoder import MESSAGE_BITS
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
    write_messages(infile, random_messages(25, seed=5, bits=19), short=True)
    assert main(["encode", "--short", str(infile), str(encoded)]) == 0
    assert all(len(line) == 8 for line in encoded.read_text().splitlines())
    assert main(["corrupt", "--short", "--weight", "2", "--seed", "21",
                 str(encoded), str(corrupted)]) == 0
    assert main(["decode", "--short", str(corrupted), str(decoded)]) == 0
    assert decoded.read_bytes() == infile.read_bytes()


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


def test_parse_error_wrong_width(tmp_path, capsys):
    infile = tmp_path / "m.hex"
    infile.write_text("0000000000000000\nabc\n")
    assert main(["encode", str(infile), str(tmp_path / "c.hex")]) == 2
    assert ":2:" in capsys.readouterr().err


def test_parse_error_reserved_bits(tmp_path, capsys):
    infile = tmp_path / "m.hex"
    # bit 51 set: not a valid 51-bit message
    write_messages(infile, [1 << 51])
    assert main(["encode", str(infile), str(tmp_path / "c.hex")]) == 2
    err = capsys.readouterr().err
    assert ":1:" in err and "reserved" in err


def test_missing_input_file(tmp_path, capsys):
    assert main(["encode", str(tmp_path / "nope.hex"), str(tmp_path / "c.hex")]) == 2
    assert "cannot read" in capsys.readouterr().err


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


def test_ber_subcommand_stdout(capsys, tmp_path):
    assert main(["ber", "--p", "0.01", "--frames", "500", "--seed", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p,frames,seed,pre_fec_ber,post_fec_ber,fer,uncorrectable,miscorrected"
    assert out[1].startswith("0.01,500,9,")
    csv = tmp_path / "ber.csv"
    assert main(["ber", "--p", "0.01", "--frames", "500", "--seed", "9",
                 "--csv", str(csv)]) == 0
    assert csv.read_text().splitlines()[1] == out[1]


def test_tables_subcommand(capsys):
    assert main(["tables"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 63
    assert lines[0] == "0 000001"
    assert lines[6] == "6 000011"


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "self-test passed" in out
    assert "PASS  decoder/oracle coset certificate (4096 cosets): 0 disagreements, " \
           "2017 correctable (" in out
    checks = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(checks) == 5
    assert all(line.startswith("PASS  ") and line.endswith("s)") for line in checks)


def test_no_assert_statements_in_package():
    # checks must survive python -O, which strips assert statements
    for path in sorted(pathlib.Path(bch6351.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"


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
