"""The event log a run writes, line by line, with its rolling digest.

A line is `<tick> <module_id|-1> <kind> key=value ...`, or a `# `-prefixed
header line. Every line is folded, with its newline, into a 64-bit FNV-1a
digest, so two runs compare by one string. A log hands each line's bytes
to one writer: a file, a check against a written file, or nothing.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path

from .errors import InvariantBreach, ReplayError
from .rng import fnv1a64


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


class EventLog:
    """Append-only run record with a rolling FNV-1a digest over every line.

    Each line is encoded to UTF-8 once, folded into the digest and handed,
    newline included, to `write`; with no `write` the log keeps the line in
    `lines`. So a writer that stores what it is handed stores exactly the
    bytes the digest hashed.
    """

    def __init__(self, write=None):
        self.lines: list[str] = []
        self._fnv = fnv1a64(b"")
        self.event_count = 0
        self._write = write

    def raw(self, line: str) -> None:
        data = (line + "\n").encode()
        self._fnv = fnv1a64(data, self._fnv)
        if self._write is None:
            self.lines.append(line)
        else:
            self._write(data)

    def event(self, tick: int, module_id: int, kind: str, **fields) -> None:
        parts = [str(tick), str(module_id), kind]
        parts.extend(f"{k}={_fmt(v)}" for k, v in fields.items())
        self.raw(" ".join(parts))
        self.event_count += 1

    @property
    def digest(self) -> str:
        return f"{self._fnv:016x}"

    def save(self, path: Path) -> None:
        """Write the kept lines to `path` as UTF-8."""
        Path(path).write_bytes(
            "".join([f"{line}\n" for line in self.lines]).encode())


class PartialFile:
    """A writer to the binary file `path`, made with its directory by the
    first line. As a context manager it renames the file to `dest` when the
    block ends or an InvariantBreach stops it, and removes it when anything
    else does."""

    def __init__(self, path: Path, dest: Path):
        self.path, self.dest = path, dest
        self._file = None

    def write(self, data: bytes) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "wb")
        self._file.write(data)

    def __enter__(self) -> PartialFile:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if self._file is not None:
            self._file.close()
            if kind is None or issubclass(kind, InvariantBreach):
                self.path.replace(self.dest)
            else:
                self.path.unlink()


def drop(data: bytes) -> None:
    """A writer that keeps nothing: the digest alone records the run."""


def checker(f):
    """A writer that compares each line, newline included, with the binary
    file `f`'s next line, raising ReplayError at the first that differs.
    Handed b"", it checks that the file ends there too."""
    numbers = count(1)

    def check(data: bytes) -> None:
        n, line = next(numbers), f.readline()
        if line != data:
            what = "diverges" if line and data else "length mismatch"
            raise ReplayError(f"log {what} at line {n}: file has "
                              f"{line.decode(errors='replace')!r}, "
                              f"rerun produced {data.decode()!r}")
    return check
