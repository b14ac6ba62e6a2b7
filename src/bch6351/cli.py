"""Command-line front end: hex-framed encode/decode, corruption, BER sweeps.

Frame files hold one frame per line.  A full-length frame is 16 hex
digits (a 64-bit value); bit i of the value is the coefficient of x^i,
so a message uses bits 0..50 (bits 51..63 must be zero) and a codeword
bits 0..62 (bit 63 must be zero).  Shortened frames are 8 hex digits
with payload bits 0..18 or codeword bits 0..30.  A line holds exactly
those digits, with surrounding whitespace allowed and nothing else (no
sign, prefix or separator).  A malformed line, a non-ASCII byte or a set
reserved bit is a parse error, reported with its file and line number.

Decode writes an all-X sentinel line for uncorrectable frames so frame
counts stay aligned across pipeline stages.

Exit codes: 0 success; 1 when decode hit an uncorrectable frame (unless
--allow-errors) or the self-test failed; 2 on usage or parse errors, or
when an input cannot be read or an output cannot be written.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from . import channel_sim, reference_oracle
from .gf64 import build_tables, format_antilog_table, gf_mul_mse, gf_mul_table
from .encoder import (
    CODEWORD_BITS,
    MESSAGE_BITS,
    PARITY_BITS,
    SHORT_CODEWORD_BITS,
    SHORT_PAYLOAD_BITS,
    encode,
    encode_lfsr,
    encode_shortened,
)
from .decoder import DecodeStatus, compute_syndromes, decode, decode_shortened


class FrameFileError(Exception):
    """Malformed frame file; message carries file and line context."""


_HEX_FRAME = {width: re.compile(f"[0-9a-fA-F]{{{width}}}") for width in (8, 16)}


def _frame_width(short: bool) -> int:
    return 8 if short else 16


def _value_bits(kind: str, short: bool) -> int:
    if kind == "message":
        return SHORT_PAYLOAD_BITS if short else MESSAGE_BITS
    return SHORT_CODEWORD_BITS if short else CODEWORD_BITS


def parse_frame_file(path: str, kind: str, short: bool) -> list[int]:
    """Read a frame file, enforcing width and reserved-bit invariants."""
    width = _frame_width(short)
    bits = _value_bits(kind, short)
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FrameFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    hex_frame = _HEX_FRAME[width]
    frames = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise FrameFileError(
                f"{path}:{lineno}: non-ASCII byte {raw[exc.start]:#04x} at column {exc.start + 1}"
            ) from None
        if len(text) != width:
            raise FrameFileError(
                f"{path}:{lineno}: expected {width} hex digits, got {text!r}"
            )
        if not hex_frame.fullmatch(text):
            raise FrameFileError(f"{path}:{lineno}: not a hex frame: {text!r}")
        value = int(text, 16)
        if value >> bits:
            raise FrameFileError(
                f"{path}:{lineno}: reserved bits above bit {bits - 1} are set"
            )
        frames.append(value)
    return frames


def write_frame_file(path: str, frames, short: bool) -> None:
    width = _frame_width(short)
    with open(path, "w", encoding="ascii") as fh:
        for value in frames:
            fh.write("X" * width if value is None else format(value, f"0{width}x"))
            fh.write("\n")


def _cmd_encode(args) -> int:
    messages = parse_frame_file(args.infile, "message", args.short)
    encoder = encode_shortened if args.short else encode
    write_frame_file(args.outfile, [encoder(m) for m in messages], args.short)
    return 0


def _cmd_decode(args) -> int:
    received = parse_frame_file(args.infile, "codeword", args.short)
    tables = build_tables()
    message_mask = (1 << MESSAGE_BITS) - 1
    out: list[int | None] = []
    rows = []
    uncorrectable = 0
    for index, word in enumerate(received):
        if args.short:
            outcome = decode_shortened(word, tables)
            message = outcome.corrected
        else:
            outcome = decode(word, tables)
            message = None if outcome.corrected is None else \
                (outcome.corrected >> PARITY_BITS) & message_mask
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            uncorrectable += 1
            out.append(None)
        else:
            out.append(message)
        rows.append((index, outcome.status.value, len(outcome.positions)))
    write_frame_file(args.outfile, out, args.short)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write("frame_index,status,num_errors_corrected\n")
            for index, status, corrected in rows:
                fh.write(f"{index},{status},{corrected}\n")
    if uncorrectable:
        print(f"{uncorrectable} uncorrectable frame(s)", file=sys.stderr)
        if not args.allow_errors:
            return 1
    return 0


def _cmd_corrupt(args) -> int:
    frames = parse_frame_file(args.infile, "codeword", args.short)
    n = SHORT_CODEWORD_BITS if args.short else CODEWORD_BITS
    out = []
    for index, word in enumerate(frames):
        frame_seed = channel_sim.substream_seed(args.seed, index)
        if args.bsc is not None:
            mask = channel_sim.bernoulli_mask(args.bsc, frame_seed, n)
        else:
            mask = channel_sim.random_error_pattern(args.weight, n, frame_seed)
        out.append(word ^ mask)
    write_frame_file(args.outfile, out, args.short)
    return 0


def _cmd_ber(args) -> int:
    tables = build_tables()
    report = channel_sim.run_ber_experiment(args.p, args.frames, args.seed, tables)
    text = report.CSV_HEADER + "\n" + report.csv_row() + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_tables(args) -> int:
    print(format_antilog_table(build_tables()))
    return 0


def _cmd_selftest(args) -> int:
    tables = build_tables()
    ok = True
    start = lap = time.perf_counter()

    def record(name: str, passed: bool, detail: str) -> None:
        nonlocal ok, lap
        now = time.perf_counter()
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail} ({now - lap:.3f}s)", flush=True)
        ok = ok and passed
        lap = now

    mse_bad = sum(
        1 for a in range(64) for b in range(64)
        if gf_mul_mse(a, b) != gf_mul_table(a, b, tables)
    )
    record("multiplier equivalence (4096 pairs)", mse_bad == 0, f"{mse_bad} mismatches")

    # The syndromes and the parity are XORs of one table entry per input
    # byte.  The inputs with one nonzero byte read every entry (entry 0 of
    # a table through the other bytes' inputs), so agreement on them is
    # agreement on every input.
    def single_byte_words(bits: int) -> list[int]:
        return [b << k for k in range(0, bits, 8) for b in range(1, 256) if (b << k) >> bits == 0]

    def definitional_syndromes(word: int) -> tuple[int, int, int]:
        s1 = s2 = s3 = 0
        for j in range(CODEWORD_BITS):
            if word >> j & 1:
                s1 ^= tables.antilog[j]
                s2 ^= tables.antilog[2 * j % 63]
                s3 ^= tables.antilog[3 * j % 63]
        return s1, s2, s3

    words = single_byte_words(CODEWORD_BITS)
    syn_bad = sum(1 for w in words if compute_syndromes(w, tables) != definitional_syndromes(w))
    record(f"syndrome certificate ({len(words)} single-byte words)", syn_bad == 0,
           f"{syn_bad} mismatches")

    messages = single_byte_words(MESSAGE_BITS)
    enc_bad = 0
    for m in messages:
        codeword = encode(m)
        enc_bad += codeword != encode_lfsr(m) or compute_syndromes(codeword, tables) != (0, 0, 0)
    record(f"encoder certificate ({len(messages)} single-byte messages)", enc_bad == 0,
           f"{enc_bad} mismatches")

    table = reference_oracle.build_syndrome_table(tables)
    record(
        "syndrome distinctness (2017 keys)",
        reference_oracle.verify_syndrome_distinctness(table),
        f"{len(table)} entries",
    )

    # The words below 2^12 are the 4096 remainders mod g(x), one in each
    # coset of the code, and a decode depends only on the coset.
    cosets = 1 << PARITY_BITS
    coset_bad = correctable = 0
    for word in range(cosets):
        ours = decode(word, tables)
        coset_bad += ours != reference_oracle.brute_force_decode(word, table, tables)
        correctable += ours.status is not DecodeStatus.UNCORRECTABLE
    record(
        f"decoder/oracle coset certificate ({cosets} cosets)",
        coset_bad == 0 and correctable == reference_oracle.TABLE_SIZE,
        f"{coset_bad} disagreements, {correctable} correctable",
    )

    elapsed = time.perf_counter() - start
    print(f"{'self-test passed' if ok else 'SELF-TEST FAILED'} ({elapsed:.1f}s)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bch6351",
        description="(63,51) two-error-correcting block codec: encode, decode, "
                    "corrupt, and measure hex-framed bitstreams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="message frames -> codeword frames")
    p.add_argument("--short", action="store_true", help="use the (31,19) shortened code")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="codeword frames -> message frames")
    p.add_argument("--short", action="store_true", help="use the (31,19) shortened code")
    p.add_argument("--report", metavar="CSV", help="write per-frame status CSV")
    p.add_argument("--allow-errors", action="store_true",
                   help="exit 0 even if some frames were uncorrectable")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("corrupt", help="inject reproducible channel errors")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weight", type=int, help="flip exactly W random bits per frame")
    mode.add_argument("--bsc", type=float, metavar="P",
                      help="flip each bit independently with probability P")
    p.add_argument("--seed", type=int, required=True, help="master seed (per-frame sub-seeded)")
    p.add_argument("--short", action="store_true", help="operate on (31,19) frames")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("ber", help="Monte Carlo BER/FER measurement")
    p.add_argument("--p", type=float, required=True, help="BSC crossover probability")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", metavar="FILE", help="write the report row to FILE instead of stdout")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("tables", help="dump the field's antilog table")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("selftest", help="run the built-in verification sweep")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "weight", None) is not None and args.weight < 0:
        parser.error("--weight must be non-negative")
    if getattr(args, "bsc", None) is not None and not 0.0 <= args.bsc <= 1.0:
        parser.error("--bsc probability must be in [0, 1]")
    try:
        return args.func(args)
    except (FrameFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
