"""Frame files: one hex frame per line, read and written as a stream.

The line format and the command-line behaviour are described in the cli
module.  Frames are read and written in blocks of 256 frames, so memory
is bounded by the block.  A block of lines that hold only a frame's
digits and a line end is checked and converted as a whole, and any other
block line by line, so an error names its line either way.  This code is
kept out of cli, which imports it: without cached bytecode every command
compiles both, and two compiles peak lower than one (by tracemalloc,
730 KiB for cli, 540 KiB here, 1260 KiB as one module).
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import re
import stat
import struct
from collections.abc import Iterable, Iterator
from itertools import islice

from .encoder import CODEWORD_BITS, MESSAGE_BITS, SHORT_CODEWORD_BITS, SHORT_PAYLOAD_BITS


class FrameFileError(Exception):
    """Malformed frame file; message carries file and line context."""


_HEX_DIGIT = "[0-9a-fA-F]"
_HEX_DIGITS = re.compile(f"{_HEX_DIGIT}*")
# By `short`: the hex digits of a frame, its struct code (4 or 8 bytes,
# big-endian), and a block of lines that hold those digits and a line end.
_FORMAT = {short: (width, word, re.compile(f"(?:{_HEX_DIGIT}{{{width}}}(?:\n|\r\n?))*"))
           for short, width, word in ((False, 16, "Q"), (True, 8, "I"))}
_VALUE_BITS = {("message", False): MESSAGE_BITS, ("codeword", False): CODEWORD_BITS,
               ("message", True): SHORT_PAYLOAD_BITS, ("codeword", True): SHORT_CODEWORD_BITS}
_BLOCK_FRAMES = 256  # frames read or written as one block
_DESCRIPTOR_PATH = re.compile("/dev/(?:(stdout)|(stderr)|fd/([0-9]+))")


def parse_frame_file(path: str, kind: str, short: bool) -> Iterator[int]:
    """Open a frame file; return an iterator over its frames, each checked as it is read.

    The file is opened before this returns, so a missing input fails
    before any output is created.  A frame that breaks the width or
    reserved-bit rules raises FrameFileError with its line number when
    the iterator reaches it.
    """
    frames = _frames(path, *_FORMAT[short], _VALUE_BITS[kind, short])
    next(frames)  # runs to the open; from there the generator closes the file
    return frames


def _frames(path: str, width: int, word: str, hex_block, bits: int) -> Iterator[int | None]:
    try:
        # latin-1 maps each byte to one character, so a non-ASCII byte can
        # be named; newline="" ends lines at \n, \r\n and a bare \r, as
        # bytes.splitlines does.
        fh = open(path, encoding="latin-1", newline="")
    except OSError as exc:
        raise FrameFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    with fh:
        yield None  # parse_frame_file's first step ends here, with the file open
        lineno = 0
        # readlines stops once its lines pass the hint: _BLOCK_FRAMES lines of a frame and \n
        while lines := fh.readlines(_BLOCK_FRAMES * (width + 1) - 1):
            text = "".join(lines)
            if hex_block.fullmatch(text):
                values = struct.unpack(f">{len(lines)}{word}", bytes.fromhex(text))
                if not max(values) >> bits:
                    lineno += len(lines)
                    yield from values
                    continue
            for lineno, line in enumerate(lines, start=lineno + 1):
                yield _checked_line(path, lineno, line, width, bits)


def _checked_line(path: str, lineno: int, line: str, width: int, bits: int) -> int:
    """The frame on one line, or FrameFileError naming the line's first fault."""
    if not line.isascii():
        column = next(i for i, char in enumerate(line) if not char.isascii())
        raise FrameFileError(f"{path}:{lineno}: non-ASCII byte {ord(line[column]):#04x} "
                             f"at column {column + 1}")
    text = line.strip()
    if len(text) != width:
        raise FrameFileError(f"{path}:{lineno}: expected {width} hex digits, got {text!r}")
    if not _HEX_DIGITS.fullmatch(text):
        raise FrameFileError(f"{path}:{lineno}: not a hex frame: {text!r}")
    value = int(text, 16)
    if value >> bits:
        raise FrameFileError(f"{path}:{lineno}: reserved bits above bit {bits - 1} are set")
    return value


class _Output(io.FileIO):
    """A file opened for writing whose write errors name `path`.

    Only the output's own writes, including the flush on close, are named
    so: an input read error raised in the body of `replacing` is not.
    """

    def __init__(self, file: int | str, path: str):
        super().__init__(file, "w")
        self.path = path

    def write(self, data) -> int:
        try:
            return super().write(data)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.path) from None


def _text_output(file: int | str, path: str) -> io.TextIOWrapper:
    raw = _Output(file, path)  # a terminal is line-buffered, as under open()
    return io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii", line_buffering=raw.isatty())


@contextlib.contextmanager
def replacing(path: str) -> Iterator:
    """Text file whose content replaces `path` if the block ends without an exception.

    The content goes to a new file in the target's directory, which
    os.replace then moves over the target, so readers see the old file
    or the whole new one.  On an exception the new file is removed and
    the target is left as it was.  A symlink to a regular file is
    followed: the link stays and the file it names is replaced.  A target
    that exists and is not a regular file (a FIFO, a device) cannot be
    replaced and is written in place, through the path as given.
    /dev/stdout, /dev/stderr and /dev/fd/N are written, not atomically,
    through a duplicate of descriptor 1, 2 or N, so under >> the output
    is appended and under > the file holds exactly the output; a
    descriptor that is not open raises OSError naming the path, and so
    does an error while the content is written.

    Replacing, unlike rewriting in place, needs write access to the
    target's directory, gives other hard links to the target the old
    content, and makes the new file owned by the current user.
    """
    named, mode = _DESCRIPTOR_PATH.fullmatch(path), None
    if named:  # opening the path by name would truncate a file that >> opened
        try:
            in_place = os.dup(1 if named[1] else 2 if named[2] else int(named[3]))
        except (OSError, OverflowError, ValueError):
            raise OSError(errno.EBADF, "not an open descriptor", path) from None
    else:
        # Stat and open the path as given, so an error names it: realpath turns
        # /dev/stdout on a pipe into /proc/<pid>/fd/pipe:[...], which does not exist.
        with contextlib.suppress(FileNotFoundError):
            mode = os.stat(path).st_mode
        in_place = path if mode is not None and not stat.S_ISREG(mode) else None
    if in_place is not None:
        with _text_output(in_place, path) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        reason = exc.strerror
        if mode is not None:  # the target itself may well be writable
            reason += " (an output is replaced by a new file made in its directory)"
        raise OSError(exc.errno, reason, path) from None
    try:
        with _text_output(fd, path) as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))  # a rewritten file keeps its permissions
            yield fh
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def write_frame_file(path: str, frames: Iterable[int | None], short: bool) -> None:
    """Write one frame per line, an all-X line for None; `path` is replaced only on success.

    A frame is None or a value in 0..16^width - 1 (width 16, or 8 when
    `short`); any other raises ValueError naming it.  Frames go out in
    blocks; those `frames` gave before it raised are still written.
    """
    width, word, _ = _FORMAT[short]
    frames = iter(frames)
    with replacing(path) as fh:
        while True:
            block: list[int | None] = []
            try:
                block.extend(islice(frames, _BLOCK_FRAMES))  # on a raise, keeps what came before
            finally:
                _write_block(fh, block, width, word)
            if len(block) < _BLOCK_FRAMES:
                return


def _write_block(fh, block: list[int | None], width: int, word: str) -> None:
    try:
        packed = struct.pack(f">{len(block)}{word}", *block)
    except struct.error:  # a None, or a value that does not fit
        for value in block:
            if value is not None and not 0 <= value < 1 << 4 * width:
                raise ValueError(f"frame {value} does not fit in {width} hex digits") from None
            fh.write("X" * width + "\n" if value is None else f"{value:0{width}x}\n")
    else:
        fh.write(packed.hex("\n", width // 2) + "\n" if packed else "")
