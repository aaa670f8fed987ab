"""An in-memory POSIX-ish filesystem for simulated machines.

Resource drivers install packages, write configuration files, and unpack
archives against this filesystem.  It supports whole-tree snapshots,
which is how the upgrade engine implements "the current system is backed
up ... if the upgrade fails ... the old version [is] restored from the
backup" (S5.2).
"""

from __future__ import annotations

import posixpath
from typing import Iterator

from repro.core.errors import SimulationError


def normalize(path: str) -> str:
    """Normalise to an absolute POSIX path."""
    if not path.startswith("/"):
        raise SimulationError(f"paths must be absolute: {path!r}")
    normalized = posixpath.normpath(path)
    return normalized


class VirtualFilesystem:
    """Files are stored as a flat dict of path -> content; directories are
    tracked explicitly so empty directories exist."""

    def __init__(self) -> None:
        self._files: dict[str, str] = {}
        self._dirs: set[str] = {"/"}

    # -- Directories ------------------------------------------------------

    def mkdir(self, path: str, parents: bool = True) -> None:
        path = normalize(path)
        if path in self._files:
            raise SimulationError(f"file exists at {path}")
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            if not parents:
                raise SimulationError(f"parent directory missing: {parent}")
            self.mkdir(parent, parents=True)
        self._dirs.add(path)

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self._dirs

    # -- Files ------------------------------------------------------------

    def write_file(self, path: str, content: str) -> None:
        path = normalize(path)
        if path in self._dirs:
            raise SimulationError(f"directory exists at {path}")
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            self.mkdir(parent, parents=True)
        self._files[path] = content

    def read_file(self, path: str) -> str:
        path = normalize(path)
        if path not in self._files:
            raise SimulationError(f"no such file: {path}")
        return self._files[path]

    def append_file(self, path: str, content: str) -> None:
        existing = self._files.get(normalize(path), "")
        self.write_file(path, existing + content)

    def is_file(self, path: str) -> bool:
        return normalize(path) in self._files

    def exists(self, path: str) -> bool:
        path = normalize(path)
        return path in self._files or path in self._dirs

    # -- Removal / listing --------------------------------------------------

    def remove(self, path: str) -> None:
        """Remove a file, or a directory and everything under it."""
        path = normalize(path)
        if path == "/":
            raise SimulationError("refusing to remove /")
        if path in self._files:
            del self._files[path]
            return
        if path not in self._dirs:
            raise SimulationError(f"no such path: {path}")
        prefix = path + "/"
        self._dirs = {d for d in self._dirs if d != path and not d.startswith(prefix)}
        self._files = {
            f: content
            for f, content in self._files.items()
            if not f.startswith(prefix)
        }

    def walk_files(self, path: str = "/") -> Iterator[str]:
        """All file paths under ``path``, sorted."""
        path = normalize(path)
        prefix = "/" if path == "/" else path + "/"
        for file_path in sorted(self._files):
            if file_path == path or file_path.startswith(prefix):
                yield file_path

    # -- Snapshot / restore ----------------------------------------------------

    def snapshot(self) -> dict:
        """An opaque, copy-on-write-free snapshot of the whole tree."""
        return {"files": dict(self._files), "dirs": set(self._dirs)}

    def restore(self, snapshot: dict) -> None:
        self._files = dict(snapshot["files"])
        self._dirs = set(snapshot["dirs"])
