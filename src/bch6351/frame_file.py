"""Frame files: one hex frame per line, read and written as a stream.

The line format and the command-line behaviour are described in the cli
module.  This code is kept out of cli because, without cached bytecode,
every command compiles cli, and the compile of one large module set the
peak memory of the commands that never read a frame file.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import stat
from collections.abc import Iterable, Iterator

from .encoder import CODEWORD_BITS, MESSAGE_BITS, SHORT_CODEWORD_BITS, SHORT_PAYLOAD_BITS


class FrameFileError(Exception):
    """Malformed frame file; message carries file and line context."""


_HEX_FRAME = {width: re.compile(f"[0-9a-fA-F]{{{width}}}") for width in (8, 16)}
_DESCRIPTOR_PATH = re.compile("/dev/(?:(stdout)|(stderr)|fd/([0-9]+))")


def _frame_width(short: bool) -> int:
    return 8 if short else 16


def _value_bits(kind: str, short: bool) -> int:
    if kind == "message":
        return SHORT_PAYLOAD_BITS if short else MESSAGE_BITS
    return SHORT_CODEWORD_BITS if short else CODEWORD_BITS


def parse_frame_file(path: str, kind: str, short: bool) -> Iterator[int]:
    """Open a frame file; return an iterator over its frames, each checked as it is read.

    The file is opened before this returns, so a missing input fails
    before any output is created.  A frame that breaks the width or
    reserved-bit rules raises FrameFileError with its line number when
    the iterator reaches it.
    """
    frames = _frames(path, _frame_width(short), _value_bits(kind, short))
    next(frames)  # runs to the open; from there the generator closes the file
    return frames


def _frames(path: str, width: int, bits: int) -> Iterator[int | None]:
    try:
        # latin-1 maps each byte to one character, so a non-ASCII byte can
        # be named; newline="" ends lines at \n, \r\n and a bare \r, as
        # bytes.splitlines does.
        fh = open(path, encoding="latin-1", newline="")
    except OSError as exc:
        raise FrameFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    hex_frame = _HEX_FRAME[width]
    with fh:
        yield None  # parse_frame_file's first step ends here, with the file open
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                column = next(i for i, char in enumerate(line) if char > "\x7f")
                raise FrameFileError(
                    f"{path}:{lineno}: non-ASCII byte {ord(line[column]):#04x} "
                    f"at column {column + 1}"
                )
            text = line.strip()
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
            yield value


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
    descriptor that is not open raises OSError naming the path.

    Replacing, unlike rewriting in place, needs write access to the
    target's directory, gives other hard links to the target the old
    content, and makes the new file owned by the current user.
    """
    named = _DESCRIPTOR_PATH.fullmatch(path)
    if named:  # opening the path by name would truncate a file that >> opened
        try:
            fd = os.dup(1 if named[1] else 2 if named[2] else int(named[3]))
        except (OSError, OverflowError, ValueError):
            raise OSError(errno.EBADF, "not an open descriptor", path) from None
        with open(fd, "w", encoding="ascii") as fh:
            yield fh
        return
    # Stat and open the path as given, so an error names it: realpath turns
    # /dev/stdout on a pipe into /proc/<pid>/fd/pipe:[...], which does not exist.
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="ascii") as fh:
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
        with open(fd, "w", encoding="ascii") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))  # a rewritten file keeps its permissions
            yield fh
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def write_frame_file(path: str, frames: Iterable[int | None], short: bool) -> None:
    """Write one frame per line, an all-X line for None; `path` is replaced only on success."""
    width = _frame_width(short)
    digits = f"0{width}x"
    sentinel = "X" * width + "\n"
    with replacing(path) as fh:
        fh.writelines(sentinel if value is None else format(value, digits) + "\n"
                      for value in frames)
