"""What the other modules share, importing nothing beyond the standard library.

The config error type, the choices a pipeline config takes, and how files are
read and written: open_text for every text input, write_atomic for every
output file and csv_text for every CSV report. No numpy here, so the oracle,
the subword tools and the CLI's parser start without it.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from contextlib import contextmanager
from typing import IO, Iterable, Iterator, Optional

COMPRESSIONS = ("principles", "linear", "attention")
FUSIONS = ("cross-attention", "summation", "concatenation")
GRANULARITIES = ("subword", "character", "word")


class ConfigError(ValueError):
    pass


@contextmanager
def open_text(path: str | os.PathLike, newline: Optional[str] = None) -> Iterator[IO[str]]:
    """The UTF-8 text file at path, open for reading. Bytes that are not UTF-8 end
    in a ConfigError that names the file, wherever in the with block they are read."""
    with open(path, encoding="utf-8", newline=newline) as stream:
        try:
            yield stream
        except UnicodeDecodeError as e:
            raise not_utf8(path, e) from None


def not_utf8(where: str | os.PathLike, e: UnicodeDecodeError) -> ConfigError:
    """The error for a text input, named by where, whose bytes are not UTF-8."""
    return ConfigError(f"{where}: not UTF-8 text: byte 0x{e.object[e.start]:02x} ({e.reason})")


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write data to a temp file in the target directory, then replace path.

    An interrupted or failed write leaves the old file as it was and no temp
    file behind. An OSError names path and its reason, never the temp file.
    The file gets the mode a plain write gives: an existing file keeps its
    mode, and a new one gets 0o666 less the umask.
    """
    directory, tmp_path = os.path.dirname(os.path.abspath(path)), None
    try:
        tmp_path = os.path.join(directory, f".jamofuse-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies here
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        if os.path.exists(path):
            os.chmod(tmp_path, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp_path, path)
    except BaseException as e:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, os.fspath(path)) from e
        raise


def csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
    """RFC 4180 CSV with LF line ends; a field holding a comma, quote or newline is quoted.

    Values are written as they are: floats, numpy's included, as repr(float(v)).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
