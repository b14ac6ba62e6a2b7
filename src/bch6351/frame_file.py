"""Frame files: one hex frame per line, read and written as a stream.

The line format and the command-line behaviour are described in the cli
module.  Frames are read in chunks of the characters of 256 frame lines
and written in the blocks given, so memory is bounded by the chunk, also
for a line of any length: a line a chunk cuts is read on in pieces of a
chunk's size.  A chunk of lines that hold only a frame's digits and a
line end is checked and converted as a whole, any other line by line, so
an error names its line either way.  It is kept out of cli, which
imports it, as two compiles peak lower than one: 530 KiB for cli, 550
here, 1070 as one module (tracemalloc).
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import re
import stat
import struct
from collections.abc import Iterable, Iterator, Sequence

from .encoder import CODEWORD_BITS, MESSAGE_BITS, SHORT_CODEWORD_BITS, SHORT_PAYLOAD_BITS


class FrameFileError(Exception):
    """Malformed frame file; message carries file and line context."""


_HEX_DIGITS = "0123456789abcdefABCDEF"
# By `short`: the hex digits of a frame, its struct code (4 or 8 bytes,
# big-endian), and the pattern of a chunk of lines that hold those digits
# and a line end.  The patterns are compiled on first use, through re's
# cache, so that a command that reads no frame file never compiles them.
_FORMAT = {short: (width, word, f"(?:[0-9a-fA-F]{{{width}}}\n)*")
           for short, width, word in ((False, 16, "Q"), (True, 8, "I"))}
_VALUE_BITS = {("message", False): MESSAGE_BITS, ("codeword", False): CODEWORD_BITS,
               ("message", True): SHORT_PAYLOAD_BITS, ("codeword", True): SHORT_CODEWORD_BITS}
_BLOCK_FRAMES = 256  # frame lines read as one chunk
_DESCRIPTOR_PATH = "/dev/(?:(stdout)|(stderr)|fd/([0-9]+))"


def parse_frame_file(path: str, kind: str, short: bool) -> Iterator[Sequence[int]]:
    """Open a frame file; return an iterator over its blocks of up to 256 frames.

    The file is opened before this returns, so a missing input fails
    before any output is created.  A frame that breaks the width or
    reserved-bit rules raises FrameFileError with its line number when
    the iterator reaches it, after a block of the frames before it in
    its block, so that they can still be written.
    """
    frames = _frames(path, *_FORMAT[short], _VALUE_BITS[kind, short])
    next(frames)  # runs to the open; from there the generator closes the file
    return frames


def _frames(path: str, width: int, word: str, hex_block, bits: int) -> Iterator[Sequence | None]:
    try:
        # latin-1 maps each byte to one character, so a non-ASCII byte can
        # be named; the default newline=None makes \r\n and a bare \r a \n,
        # so lines end where bytes.splitlines ends them.
        fh = open(path, encoding="latin-1")
    except OSError as exc:
        raise FrameFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    with fh:
        yield None  # parse_frame_file's first step ends here, with the file open
        lineno, size = 0, _BLOCK_FRAMES * (width + 1)
        while text := fh.read(size):
            if re.fullmatch(hex_block, text):
                values = struct.unpack(f">{len(text) // (width + 1)}{word}", bytes.fromhex(text))
                if not max(values) >> bits:
                    lineno += len(values)
                    yield values
                    continue
            *lines, last = text.split("\n")
            block = []
            try:  # on a rejected line, the frames before it come first
                for lineno, line in enumerate(lines, start=lineno + 1):
                    block.append(_checked_line(path, lineno, (line,), width, bits))
                if last:  # the line the chunk cut
                    lineno += 1
                    block.append(_checked_line(path, lineno, _line_pieces(fh, last, size),
                                               width, bits))
            finally:
                yield block


def _line_pieces(fh, piece: str, size: int) -> Iterator[str]:
    """A line a read cut: `piece`, then the rest in pieces of up to `size` characters."""
    yield piece
    while not piece.endswith("\n") and (piece := fh.readline(size)):
        yield piece


def _checked_line(path: str, lineno: int, pieces: Iterable[str], width: int, bits: int) -> int:
    """The frame on the line `pieces` give, or FrameFileError naming the line's first fault.

    Of the stripped line only the first 41 characters and the length are kept.
    """
    column, head, length, blanks = 0, "", 0, 0  # blanks: those since the last non-blank
    for piece in pieces:
        if not piece.isascii():
            index = next(i for i, char in enumerate(piece) if not char.isascii())
            raise FrameFileError(f"{path}:{lineno}: non-ASCII byte {ord(piece[index]):#04x} "
                                 f"at column {column + index + 1}")
        column += len(piece)
        if not head:
            piece = piece.lstrip()
        if body := piece.rstrip():
            length, blanks = length + blanks + len(body), 0
        blanks += len(piece) - len(body)
        head = (head + piece)[:41]
    text = head[:length]
    if length != width:
        # A long line is quoted by its first 40 characters and its length, not whole.
        got = repr(text) if length <= 40 else f"{text[:40]!r}... ({length} characters)"
        raise FrameFileError(f"{path}:{lineno}: expected {width} hex digits, got {got}")
    if text.strip(_HEX_DIGITS):
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
    content, and makes the new file owned by the current user.  A path
    with no file name ("", or one ending in "/", "." or "..") raises
    OSError naming it before any file is made, as open() refuses it.
    """
    if os.path.basename(path) in ("", ".", ".."):  # realpath would name a directory
        code = errno.EISDIR if path else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    named, mode = re.fullmatch(_DESCRIPTOR_PATH, path), None
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


def write_frame_file(path: str, blocks: Iterable[Sequence[int | None]], short: bool) -> None:
    """Write one frame per line, an all-X line for None; `path` is replaced only on success.

    A frame is None or a value in 0..16^width - 1 (width 16, or 8 when
    `short`); any other raises ValueError naming it.  Each block of
    `blocks` goes out as it comes; those it gave before it raised are
    still written.
    """
    width, word, _ = _FORMAT[short]
    with replacing(path) as fh:
        for block in blocks:
            _write_block(fh, block, width, word)


def _write_block(fh, block: Sequence[int | None], width: int, word: str) -> None:
    try:
        packed = struct.pack(f">{len(block)}{word}", *block)
    except struct.error:  # a None, or a value that does not fit
        for value in block:
            if value is not None and not 0 <= value < 1 << 4 * width:
                raise ValueError(f"frame {value} does not fit in {width} hex digits") from None
            fh.write("X" * width + "\n" if value is None else f"{value:0{width}x}\n")
    else:
        fh.write(packed.hex("\n", width // 2) + "\n" if packed else "")
