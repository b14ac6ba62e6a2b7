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

Frames are streamed: each command reads them in blocks of up to 256
frames and maps each block to a block it writes, so its memory does not
grow with the file.  An output (OUT, decode's --report, ber's --csv) is
written to a new file beside it and moved over it only when the command
succeeds, so a failing run leaves the old file, or none, never a partial
one; decode replaces OUT only once its report is fully written, and
--report must name another file than OUT.  A symlinked output keeps its
link and its target is replaced; an output that exists and is not a
regular file (a FIFO, a device) is written in place, and /dev/stdout,
/dev/stderr and /dev/fd/N through the descriptor they name.

Exit codes: 0 success; 1 when decode hit an uncorrectable frame (unless
--allow-errors) or the self-test failed; 2 on usage or parse errors, or
when an input cannot be read or an output cannot be written.  selftest
runs the checks in the certificates module, which no other command imports.
"""

from __future__ import annotations

import contextlib
import gc
import sys
from collections.abc import Iterator
from os.path import realpath
from types import SimpleNamespace

# gf_mul_mse and encode_lfsr are not called here; bench/run.py traces them in this module.
from .gf64 import build_tables, format_antilog_table, gf_mul_mse  # noqa: F401
from .encoder import CODEWORD_BITS, PARITY_BITS, SHORT_CODEWORD_BITS, encode
from .encoder import encode_lfsr  # noqa: F401
from .decoder import DecodeStatus, coset_decoder, decode
from .frame_file import FrameFileError, parse_frame_file, replacing, write_frame_file


def _cmd_encode(args) -> int:
    blocks = parse_frame_file(args.infile, "message", args.short)
    write_frame_file(args.outfile, (list(map(encode, block)) for block in blocks), args.short)
    return 0


def _cmd_decode(args) -> int:
    received = parse_frame_file(args.infile, "codeword", args.short)
    patterns = coset_decoder(decode)
    sent_bits = args.sent_bits  # a local: the loop below reads it once a frame
    # A report row after its frame index, by the number of bits corrected.
    rows = [f",{status.value},{bits}\n" for status, bits in
            ((DecodeStatus.NO_ERROR, 0), (DecodeStatus.CORRECTED, 1), (DecodeStatus.CORRECTED, 2))]
    failed_row = f",{DecodeStatus.UNCORRECTABLE.value},0\n"
    uncorrectable = 0

    def messages(report) -> Iterator[list[int | None]]:
        nonlocal uncorrectable
        index = 0
        for block in received:
            decoded = []
            for word, pattern in zip(block, patterns(block)):
                if pattern >> sent_bits:  # the UNCORRECTABLE mark, or a bit that was never sent
                    uncorrectable += 1
                    message, row = None, failed_row
                else:
                    message, row = (word ^ pattern) >> PARITY_BITS, rows[pattern.bit_count()]
                if report is not None:
                    report.write(f"{index}{row}")
                index += 1
                decoded.append(message)
            yield decoded
        if report is not None:  # a report that cannot be written fails before OUT is replaced
            report.flush()

    with replacing(args.report) if args.report is not None else contextlib.nullcontext() as report:
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

    blocks = parse_frame_file(args.infile, "codeword", args.short)
    # Frame i's mask comes from sub-seed i: map draws a mask for each frame
    # of a block and stops at its end.
    if args.bsc is not None:
        masks = channel_sim.bernoulli_masks(args.bsc, args.seed, args.sent_bits)
    else:
        masks = channel_sim.random_error_patterns(args.weight, args.sent_bits, args.seed)
    write_frame_file(args.outfile, (list(map(int.__xor__, block, masks)) for block in blocks),
                     args.short)
    return 0


def _cmd_ber(args) -> int:
    from . import channel_sim

    report = channel_sim.run_ber_experiment(args.p, args.frames, args.seed)
    with replacing(args.csv) if args.csv is not None else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(report.CSV_HEADER + "\n" + report.csv_row() + "\n")
    return 0


def _cmd_tables(args) -> int:
    print(format_antilog_table(build_tables()))
    return 0


def _cmd_selftest(args) -> int:
    from . import certificates

    return certificates.run()


def build_parser():
    """The argparse parser: it reads every command line that _plain_args leaves, and prints
    each usage line, help text and usage error."""
    import argparse  # about 5 ms with its set-up, which a plain command line is spared

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


# By command: its options (option string -> int, float, str, or bool for a flag), its
# positionals, and the groups of its options of which exactly one must be given; as
# build_parser() defines them, which the tests check.
_PLAIN = {
    "encode": ({"--short": bool}, ("infile", "outfile"), ()),
    "decode": ({"--short": bool, "--report": str, "--allow-errors": bool},
               ("infile", "outfile"), ()),
    "corrupt": ({"--short": bool, "--weight": int, "--bsc": float, "--seed": int},
                ("infile", "outfile"), (("--weight", "--bsc"), ("--seed",))),
    "ber": ({"--p": float, "--frames": int, "--seed": int, "--csv": str}, (),
            (("--p",), ("--frames",), ("--seed",))),
    "tables": ({}, (), ()),
    "selftest": ({}, (), ()),
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) sets, if argv is plain; else None.

    Plain is a command, then its positionals and its options in any order:
    each option at most once, by its full name, with a value that does not
    start with "-" and that its type accepts, and the required ones given.
    Anything else (-h, --seed=3, an abbreviation, --, a repeat, a missing
    positional) is left to argparse, which reads it or reports it.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    command, tokens = argv[0], iter(argv[1:])
    options, positionals, required = _PLAIN[command]
    given, values = {}, []
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
            continue
        kind = options.get(token)
        if kind is None or token in given:
            return None
        if kind is bool:
            given[token] = True
            continue
        value = next(tokens, "-")  # a missing value is left to argparse, as a dash is
        if value.startswith("-"):
            return None
        try:
            given[token] = kind(value)
        except ValueError:
            return None
    if len(values) != len(positionals) or any(len(given.keys() & group) != 1
                                              for group in required):
        return None
    # func is read when main runs, so that a patched _cmd_* is the one called
    return SimpleNamespace(
        command=command, func=globals()[f"_cmd_{command}"], **dict(zip(positionals, values)),
        **{option[2:].replace("-", "_"): given.get(option, False if kind is bool else None)
           for option, kind in options.items()})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    args.sent_bits = SHORT_CODEWORD_BITS if getattr(args, "short", False) else CODEWORD_BITS
    # a range error is reported by the parser, which is built only then
    if getattr(args, "weight", None) is not None and not 0 <= args.weight <= args.sent_bits:
        build_parser().error(f"--weight must be in 0..{args.sent_bits}")
    if getattr(args, "bsc", None) is not None and not 0.0 <= args.bsc <= 1.0:
        build_parser().error("--bsc probability must be in [0, 1]")
    if getattr(args, "seed", None) is not None and not 0 <= args.seed < 1 << 64:
        build_parser().error("--seed must be in 0..2^64-1")
    if getattr(args, "report", None) and realpath(args.report) == realpath(args.outfile):
        build_parser().error("--report and OUT name the same file")
    if args.command == "ber":
        if not 0.0 <= args.p <= 1.0:
            build_parser().error("--p probability must be in [0, 1]")
        if args.frames < 1:
            build_parser().error("--frames must be at least 1")
    try:
        return args.func(args)
    except (FrameFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run main() and exit with its status: `python -m bch6351` and `bch6351` start here.

    gc.freeze, however main ends, spares the exit a cycle collection over the ~12 000
    import-time objects (about 6 ms); main, which also runs in-process, never freezes.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)
