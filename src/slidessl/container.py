"""Binary container of banks (.gsb), checkpoints (.ckpt) and embeddings (.gse).

A file is a 4-byte magic, a u32 version, then little-endian fields: u32s,
strings (u32 byte count, then UTF-8) and raw arrays. Each format picks the
fields; parsing, its checks and atomic writes live here.

A file is read through a read-only memory map, so arrays read from it are
views of the page cache. A mapping lives, and holds one file descriptor,
until the last array viewing it is freed. Truncating a file in place while
such arrays live can end the process with SIGBUS; every writer here replaces
files atomically (``write_atomic``), which leaves a mapped old file intact.
"""

import errno
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, RuntimeFailure

try:
    import resource
except ImportError:   # no rlimits on this platform
    resource = None

# descriptors kept free beside the mappings for logs, checkpoints and imports
FD_HEADROOM = 64


def u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return u32(len(raw)) + raw


def write_atomic(path, chunks) -> None:
    """Write bytes or contiguous arrays in turn to a temp file beside ``path``,
    fsync, ``os.replace``: a failure leaves the old file and no temp file."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def reserve_descriptors(n_maps: int) -> None:
    """Make room for ``n_maps`` mappings held at once, each of which holds a
    descriptor, plus ``FD_HEADROOM``: raise the soft open-file limit if it is
    lower, or raise ``RuntimeFailure`` if the hard limit is. A no-op where
    the platform has no ``resource`` module."""
    if resource is None:
        return
    need = n_maps + FD_HEADROOM
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY or soft >= need:
        return
    if hard != resource.RLIM_INFINITY and hard < need:
        raise RuntimeFailure(
            f"{n_maps} mapped files need {need} open files, but the hard "
            f"limit is {hard}; raise it with ulimit -n")
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))
    except (ValueError, OSError) as exc:
        raise RuntimeFailure(f"cannot raise the open-file limit to {need} "
                             f"({exc}); raise it with ulimit -n") from None


class Reader:
    """Cursor over one file's mapped bytes; arrays are read-only views into
    them. A bad magic or version (checked after the version and
    ``n_fields`` header u32s are read) raises ``FormatError``, a short file,
    trailing bytes or a file that shrinks while opened ``error``.

    The whole file is mapped unless ``body(fields, size)`` is given: it sees
    the header fields and the byte count after the header on disk, may
    raise, and returns how many of those bytes to map."""

    def __init__(self, path, magic, version, n_fields, error=FormatError,
                 body=None):
        self.name, self.error, self.off = Path(path).name, error, 4
        try:
            with open(path, "rb") as fh:
                self.blob = fh.read(4 * (n_fields + 2))
                if self.blob[:4] != magic:
                    raise FormatError(f"{self.name}: bad magic {self.blob[:4]!r}")
                got, *self.fields = self.u32(n_fields + 1, "header")
                if got != version:
                    raise FormatError(f"{self.name}: unsupported version {got}")
                size = os.fstat(fh.fileno()).st_size - self.off
                if body is not None:
                    size = body(self.fields, size)
                try:
                    self.blob = mmap.mmap(fh.fileno(), self.off + size,
                                          access=mmap.ACCESS_READ)
                except ValueError:   # shorter than fstat said a moment ago
                    raise error(f"{self.name}: file shrank while being "
                                f"opened") from None
        except OSError as exc:
            if exc.errno != errno.EMFILE:
                raise
            raise RuntimeFailure(f"{self.name}: too many open files; raise "
                                 f"the limit with ulimit -n") from None

    def u32(self, n: int, what: str) -> list[int]:
        return self.array("<u4", (n,), what).tolist()

    def string(self, what: str) -> str:
        (n,) = self.u32(1, what)
        try:
            return bytes(self.array("u1", (n,), what)).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.name}: {what} is not UTF-8") from None

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        dtype, count = np.dtype(dtype), math.prod(shape)
        start, self.off = self.off, self.off + count * dtype.itemsize
        if self.off > len(self.blob):
            raise self.error(f"{self.name}: truncated while reading {what}")
        return np.frombuffer(self.blob, dtype, count, start).reshape(shape)

    def end(self) -> None:
        if self.off != len(self.blob):
            raise self.error(
                f"{self.name}: {len(self.blob) - self.off} trailing bytes")
