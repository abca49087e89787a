"""Pid-guarded spill directories for the out-of-core sort.

A :class:`SpillDir` is one request's scratch space on disk: sorted runs
land in it as raw ndarray files (plain ``tofile`` writes, never synced),
the run list and dtype live in the :class:`SpillDir` object alone, and
the whole directory is deleted when the request completes.  The
discipline:

* **naming is pid-guarded** — every directory is
  ``rxspill_<pid>_<token>`` under the spill root, so ownership is
  decidable from the name alone;
* **a live registry + atexit sweep** — directories this process created
  and has not yet cleaned are removed at interpreter exit, so a crashed
  or careless run cannot strand gigabytes of spilled runs (a forked
  child inheriting the registry never removes its parent's directories:
  the creating pid rides along);
* **orphan sweeping** — :func:`sweep_orphaned_spill_dirs` removes any
  ``rxspill_*`` directory whose creating pid is dead, which is how a
  request SIGKILLed mid-spill (no atexit hooks run) leaks nothing: the
  sweep runs at service start and from this module's atexit hook, which
  importing :mod:`repro` registers.

A crash needs nothing from the directory: no reader ever reopens a
spill directory, the request that owned it died with its process, and
the pid sweep reclaims the directory whole, however far its runs got.
"""

from __future__ import annotations

import atexit
import errno
import os
import shutil
import tempfile
from contextlib import suppress
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "SpillDir",
    "default_spill_root",
    "sweep_orphaned_spill_dirs",
]

#: Directory-name prefix every spill dir carries; the orphan sweep
#: matches on it, so nothing outside this namespace is ever touched.
_SPILL_PREFIX = "rxspill_"


def default_spill_root() -> str:
    """Where spill directories live unless a caller says otherwise:
    ``$REPRO_SPILL_ROOT`` or the platform temp dir."""
    return os.environ.get("REPRO_SPILL_ROOT") or tempfile.gettempdir()


#: Spill directories this process created and has not yet cleaned,
#: swept at interpreter exit.  Keyed by path; the creating pid rides
#: along so a forked child inheriting the registry never removes its
#: parent's directories.
_LIVE: Dict[str, int] = {}


def _sweep_leaked_spill_dirs() -> None:
    me = os.getpid()
    for path, pid in list(_LIVE.items()):
        if pid != me:
            continue
        shutil.rmtree(path, ignore_errors=True)
        _LIVE.pop(path, None)
    # Directories whose owning process is gone are dead weight on the
    # same host; reclaim them too.  The sweep must never be the thing
    # that fails interpreter exit.
    with suppress(Exception):
        sweep_orphaned_spill_dirs()


atexit.register(_sweep_leaked_spill_dirs)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover — exists, other user
        return True
    except OSError as exc:  # pragma: no cover — defensive
        return exc.errno != errno.ESRCH
    return True


def sweep_orphaned_spill_dirs(root: Optional[str] = None) -> List[str]:
    """Remove every spill directory under ``root`` whose creating pid is
    dead; returns the paths removed.  Directories of live processes are
    left alone — concurrent services sharing one root never fight."""
    root = root or default_spill_root()
    removed: List[str] = []
    try:
        entries = os.listdir(root)
    except OSError:
        return removed
    for name in entries:
        if not name.startswith(_SPILL_PREFIX):
            continue
        parts = name[len(_SPILL_PREFIX):].split("_", 1)
        try:
            pid = int(parts[0])
        except (ValueError, IndexError):
            pid = -1  # malformed name: nobody owns it
        if pid > 0 and _pid_alive(pid):
            continue
        path = os.path.join(root, name)
        shutil.rmtree(path, ignore_errors=True)
        if not os.path.exists(path):
            removed.append(path)
            _LIVE.pop(path, None)
    return removed


def live_spill_dirs(root: Optional[str] = None) -> List[str]:
    """Every spill directory currently under ``root`` (leak gates list
    these before/after a soak)."""
    root = root or default_spill_root()
    try:
        return sorted(
            os.path.join(root, name)
            for name in os.listdir(root)
            if name.startswith(_SPILL_PREFIX)
        )
    except OSError:
        return []


class SpillDir:
    """One request's spill directory: its run files, listed in memory.

    Use as a context manager; the directory is removed on exit (and by
    the atexit sweep if the process dies first, and by the orphan sweep
    if it is SIGKILLed).
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_spill_root()
        os.makedirs(self.root, exist_ok=True)
        self.path = tempfile.mkdtemp(
            prefix=f"{_SPILL_PREFIX}{os.getpid()}_", dir=self.root
        )
        self._runs: List[Dict[str, Any]] = []
        self._dtype: Optional[str] = None
        self._seq = 0
        self.bytes_written = 0
        _LIVE[self.path] = os.getpid()

    # -- run files -----------------------------------------------------

    def write_run(self, arr: np.ndarray) -> str:
        """Persist one sorted run; returns its file name."""
        if arr.ndim != 1:
            raise ConfigurationError(
                f"spill runs are 1-D arrays, got shape {arr.shape}"
            )
        dtype = arr.dtype.str
        if self._dtype is None:
            self._dtype = dtype
        elif dtype != self._dtype:
            raise ConfigurationError(
                f"spill dir holds {self._dtype} runs; cannot add {dtype}"
            )
        name = f"run_{self._seq:06d}.bin"
        self._seq += 1
        arr.tofile(os.path.join(self.path, name))
        self._runs.append({"file": name, "length": int(arr.size)})
        self.bytes_written += int(arr.nbytes)
        return name

    def open_run_writer(self) -> "_RunWriter":
        """Stream one run to disk in pieces (merge passes produce output
        runs bucket by bucket — the whole run never sits in memory)."""
        name = f"run_{self._seq:06d}.bin"
        self._seq += 1
        return _RunWriter(self, name)

    def _register_run(self, name: str, length: int, nbytes: int,
                      dtype: str) -> None:
        if self._dtype is None:
            self._dtype = dtype
        elif dtype != self._dtype:
            raise ConfigurationError(
                f"spill dir holds {self._dtype} runs; cannot add {dtype}"
            )
        self._runs.append({"file": name, "length": int(length)})
        self.bytes_written += int(nbytes)

    def remove_runs(self, names: List[str]) -> None:
        """Drop merged-away input runs (frees disk between passes)."""
        drop = set(names)
        for r in self._runs:
            if r["file"] in drop:
                try:
                    os.unlink(os.path.join(self.path, r["file"]))
                except OSError:
                    pass
        self._runs = [r for r in self._runs if r["file"] not in drop]

    @property
    def runs(self) -> List[Dict[str, Any]]:
        return list(self._runs)

    @property
    def dtype(self) -> np.dtype:
        if self._dtype is None:
            raise ConfigurationError("spill dir holds no runs yet")
        return np.dtype(self._dtype)

    def open_run(self, name: str) -> np.memmap:
        """The named run as a read-only memmap (binary search over it
        touches O(log n) pages, never the whole file)."""
        meta = next(r for r in self._runs if r["file"] == name)
        return np.memmap(
            os.path.join(self.path, name),
            dtype=self.dtype,
            mode="r",
            shape=(meta["length"],),
        )

    def read_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        """Elements ``[start, stop)`` of the named run, read from disk."""
        count = max(int(stop) - int(start), 0)
        if count == 0:
            return np.empty(0, dtype=self.dtype)
        itemsize = self.dtype.itemsize
        with open(os.path.join(self.path, name), "rb") as fh:
            fh.seek(int(start) * itemsize)
            return np.fromfile(fh, dtype=self.dtype, count=count)

    # -- lifecycle -----------------------------------------------------

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        _LIVE.pop(self.path, None)

    def __enter__(self) -> "SpillDir":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.cleanup()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"SpillDir({self.path!r}, runs={len(self._runs)}, "
            f"bytes={self.bytes_written})"
        )


class _RunWriter:
    """Streams one run file; registered in the run list only at
    :meth:`close`, so a crash mid-stream leaves an unlisted file the
    directory teardown (or orphan sweep) reclaims wholesale."""

    def __init__(self, spill: SpillDir, name: str):
        self._spill = spill
        self.name = name
        self._fh = open(os.path.join(spill.path, name), "wb")
        self._length = 0
        self._nbytes = 0
        self._dtype: Optional[str] = None

    def write(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        if self._dtype is None:
            self._dtype = arr.dtype.str
        arr.tofile(self._fh)
        self._length += int(arr.size)
        self._nbytes += int(arr.nbytes)

    def close(self) -> Tuple[str, int]:
        """Finish the run; returns ``(name, length)``."""
        self._fh.close()
        dtype = self._dtype or (
            self._spill._dtype or np.dtype(np.uint32).str
        )
        self._spill._register_run(self.name, self._length, self._nbytes, dtype)
        return self.name, self._length
