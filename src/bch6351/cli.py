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

Frames are streamed: each command reads and writes them in blocks of
256 frames and transforms one at a time, so its memory does not grow
with the file.  An output (OUT, decode's --report, ber's --csv) is
written to a new file beside it and moved over it only when the command
succeeds, so a failing run leaves the old file, or none, never a partial
one; decode replaces OUT only once its report is fully written, and
--report must name another file than OUT.  A symlinked output keeps its
link and its target is replaced; an output that exists and is not a
regular file (a FIFO, a device) is written in place, and /dev/stdout,
/dev/stderr and /dev/fd/N through the descriptor they name.

Exit codes: 0 success; 1 when decode hit an uncorrectable frame (unless
--allow-errors) or the self-test failed; 2 on usage or parse errors, or
when an input cannot be read or an output cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from collections.abc import Iterator
from itertools import chain, product
from os.path import realpath

from . import decoder, reference_oracle
from .gf64 import build_tables, format_antilog_table, gf_mul_mse, gf_mul_table
from .encoder import (
    CODEWORD_BITS,
    MESSAGE_BITS,
    PARITY_BITS,
    SHORT_CODEWORD_BITS,
    encode,
    encode_lfsr,
)
from .decoder import DecodeStatus, coset_decoder, compute_syndromes, decode
from .frame_file import FrameFileError, blocks, parse_frame_file, replacing, write_frame_file


def _cmd_encode(args) -> int:
    messages = parse_frame_file(args.infile, "message", args.short)
    write_frame_file(args.outfile, map(encode, messages), args.short)
    return 0


def _cmd_decode(args) -> int:
    received = parse_frame_file(args.infile, "codeword", args.short)
    patterns = coset_decoder(decode)
    sent_bits = SHORT_CODEWORD_BITS if args.short else CODEWORD_BITS
    # A report row after its frame index, by the number of bits corrected.
    rows = [f",{status.value},{bits}\n" for status, bits in
            ((DecodeStatus.NO_ERROR, 0), (DecodeStatus.CORRECTED, 1), (DecodeStatus.CORRECTED, 2))]
    failed_row = f",{DecodeStatus.UNCORRECTABLE.value},0\n"
    uncorrectable = 0

    def messages(report) -> Iterator[int | None]:
        nonlocal uncorrectable
        decoded = chain.from_iterable(zip(block, patterns(block)) for block in blocks(received))
        for index, (word, pattern) in enumerate(decoded):
            if pattern >> sent_bits:  # the UNCORRECTABLE mark, or a bit that was never sent
                uncorrectable += 1
                message, row = None, failed_row
            else:
                message, row = (word ^ pattern) >> PARITY_BITS, rows[pattern.bit_count()]
            if report is not None:
                report.write(f"{index}{row}")
            yield message
        if report is not None:  # a report that cannot be written fails before OUT is replaced
            report.flush()

    with replacing(args.report) if args.report else contextlib.nullcontext() as report:
        if report is not None:
            report.write("frame_index,status,num_errors_corrected\n")
        write_frame_file(args.outfile, messages(report), args.short)
    if uncorrectable:
        print(f"{uncorrectable} uncorrectable frame(s)", file=sys.stderr)
        if not args.allow_errors:
            return 1
    return 0


def _cmd_corrupt(args) -> int:
    # Imported here, so that the commands without a channel never compile it.
    from . import channel_sim

    frames = parse_frame_file(args.infile, "codeword", args.short)
    n = SHORT_CODEWORD_BITS if args.short else CODEWORD_BITS
    # Frame i's mask comes from sub-seed i; map pairs a mask with each
    # frame as it is read, so the frames before a rejected line are still
    # written.
    if args.bsc is not None:
        masks = channel_sim.bernoulli_masks(args.bsc, args.seed, n)
    else:
        masks = channel_sim.random_error_patterns(args.weight, n, args.seed)
    write_frame_file(args.outfile, map(int.__xor__, frames, masks), args.short)
    return 0


def _cmd_ber(args) -> int:
    from . import channel_sim

    report = channel_sim.run_ber_experiment(args.p, args.frames, args.seed)
    with replacing(args.csv) if args.csv else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(report.CSV_HEADER + "\n" + report.csv_row() + "\n")
    return 0


def _cmd_tables(args) -> int:
    print(format_antilog_table(build_tables()))
    return 0


def _cmd_selftest(args) -> int:
    tables = build_tables()
    # Both oracle checks read the table; a build that raises fails both.
    oracle_table = functools.cache(reference_oracle.build_syndrome_table)

    # S_i is the XOR of alpha^(i*j) over the set positions j of the word.
    antilog = tables.antilog

    def definitional_syndromes(word: int) -> tuple[int, int, int]:
        s1 = s2 = s3 = 0
        while word:
            j = (word & -word).bit_length() - 1
            s1 ^= antilog[j]
            s2 ^= antilog[2 * j % 63]
            s3 ^= antilog[3 * j % 63]
            word &= word - 1
        return s1, s2, s3

    # The words below 2^12 are the 4096 remainders mod g(x), one in each
    # coset of the code, and a decode depends only on the coset.
    cosets = 1 << PARITY_BITS

    def coset_certificate() -> tuple[bool, str]:
        table = oracle_table()
        bad = correctable = 0
        # through the memo every decoding command runs, a 256-word block a call
        patterns = chain.from_iterable(map(coset_decoder(decode), blocks(range(cosets))))
        for word, pattern in zip(range(cosets), patterns):
            ours = None if pattern >> CODEWORD_BITS else word ^ pattern
            bad += ours != reference_oracle.brute_force_decode(word, table).corrected
            correctable += ours is not None
        return (bad == 0 and correctable == reference_oracle.TABLE_SIZE,
                f"{bad} disagreements, {correctable} correctable")

    def verdict(bad: int) -> tuple[bool, str]:
        return bad == 0, f"{bad} mismatches"

    # The syndromes and the parity are XORs of one table entry per input
    # byte.  The inputs with one nonzero byte read every entry (entry 0 of
    # a table through the other bytes' inputs), so agreement on them is
    # agreement on every input.
    words = [b << k for k in range(0, CODEWORD_BITS, 8) for b in range(1, 256)
             if (b << k) >> CODEWORD_BITS == 0]
    messages = [word for word in words if word >> MESSAGE_BITS == 0]

    def syndrome_certificate() -> tuple[bool, str]:
        # the syndromes, and the memo's block keys S1 | S3 << 6 from fresh key tables
        columns = decoder._key_columns()
        keys = chain.from_iterable(decoder._coset_keys(block, columns) for block in blocks(words))
        return verdict(sum(1 for word, key in zip(words, keys)
                           if compute_syndromes(word) != (s := definitional_syndromes(word))
                           or key != s[0] | s[2] << 6))

    checks = [
        ("multiplier equivalence (4096 pairs)", lambda: verdict(sum(
            1 for a, b in product(range(64), repeat=2)
            if gf_mul_mse(a, b) != gf_mul_table(a, b, tables)))),
        (f"syndrome certificate ({len(words)} single-byte words)", syndrome_certificate),
        # a codeword equals the LFSR's and has zero syndromes
        (f"encoder certificate ({len(messages)} single-byte messages)", lambda: verdict(sum(
            1 for m in messages
            if (c := encode(m)) != encode_lfsr(m) or compute_syndromes(c) != (0, 0, 0)))),
        ("syndrome distinctness (2017 keys)", lambda: (
            reference_oracle.verify_syndrome_distinctness(oracle_table()),
            f"{len(oracle_table())} entries")),
        (f"decoder/oracle coset certificate ({cosets} cosets)", coset_certificate),
    ]
    ok = True
    start = lap = time.perf_counter()
    for name, check in checks:
        # A check that raises has failed; the rest still run.
        try:
            passed, detail = check()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        now = time.perf_counter()
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail} ({now - lap:.3f}s)", flush=True)
        ok = ok and passed
        lap = now

    elapsed = time.perf_counter() - start
    print(f"{'self-test passed' if ok else 'SELF-TEST FAILED'} ({elapsed:.3f}s)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bch6351",
        description="(63,51) two-error-correcting block codec: encode, decode, "
                    "corrupt, and measure hex-framed bitstreams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # encode, decode and corrupt all read frames from IN and write frames to OUT.
    frames = argparse.ArgumentParser(add_help=False)
    frames.add_argument("--short", action="store_true", help="use the (31,19) shortened code")
    frames.add_argument("infile")
    frames.add_argument("outfile")

    p = sub.add_parser("encode", parents=[frames], help="message frames -> codeword frames")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", parents=[frames], help="codeword frames -> message frames")
    p.add_argument("--report", metavar="CSV", help="write per-frame status CSV")
    p.add_argument("--allow-errors", action="store_true",
                   help="exit 0 even if some frames were uncorrectable")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("corrupt", parents=[frames], help="inject reproducible channel errors")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weight", type=int, help="flip exactly W random bits per frame")
    mode.add_argument("--bsc", type=float, metavar="P",
                      help="flip each bit independently with probability P")
    p.add_argument("--seed", type=int, required=True,
                   help="master seed in 0..2^64-1 (per-frame sub-seeded)")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("ber", help="Monte Carlo BER/FER measurement")
    p.add_argument("--p", type=float, required=True, help="BSC crossover probability")
    p.add_argument("--frames", type=int, required=True, help="number of frames, at least 1")
    p.add_argument("--seed", type=int, required=True, help="master seed in 0..2^64-1")
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
    if getattr(args, "weight", None) is not None:
        n = SHORT_CODEWORD_BITS if args.short else CODEWORD_BITS
        if not 0 <= args.weight <= n:
            parser.error(f"--weight must be in 0..{n}")
    if getattr(args, "bsc", None) is not None and not 0.0 <= args.bsc <= 1.0:
        parser.error("--bsc probability must be in [0, 1]")
    if getattr(args, "seed", None) is not None and not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in 0..2^64-1")
    if getattr(args, "report", None) and realpath(args.report) == realpath(args.outfile):
        parser.error("--report and OUT name the same file")
    if args.command == "ber":
        if not 0.0 <= args.p <= 1.0:
            parser.error("--p probability must be in [0, 1]")
        if args.frames < 1:
            parser.error("--frames must be at least 1")
    try:
        return args.func(args)
    except (FrameFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
