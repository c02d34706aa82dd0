"""The event log a run writes, line by line, with its rolling digest.

A line is `<tick> <module_id|-1> <kind> key=value ...`, or a `# `-prefixed
header line. Every line is folded, with its newline, into a 64-bit FNV-1a
digest, so two runs compare by one string.
"""

from __future__ import annotations

from pathlib import Path

from .rng import fnv1a64


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


class EventLog:
    """Append-only run record with a rolling FNV-1a digest over every line.

    Each line is encoded to UTF-8 once, folded into the digest and handed to
    the one destination the caller chose: the `lines` list (the default),
    the binary file `path`, or nowhere (`keep=False`; read only without a
    path). A file holds exactly the bytes the digest hashed. It is opened,
    and its directory made, when the first line arrives, so a log that
    never gets a line leaves nothing on disk; `save` finishes the file and
    `discard` removes one that `save` has not finished.
    """

    def __init__(self, path: Path | None = None, *, keep: bool = True):
        self.lines: list[str] = []
        self._fnv = fnv1a64(b"")
        self.event_count = 0
        self._path = path
        self._keep = keep
        self._file = None

    def raw(self, line: str) -> None:
        data = (line + "\n").encode()
        self._fnv = fnv1a64(data, self._fnv)
        if self._path is None:
            if self._keep:
                self.lines.append(line)
            return
        if self._file is None:
            self._start()
        self._file.write(data)

    def event(self, tick: int, module_id: int, kind: str, **fields) -> None:
        parts = [str(tick), str(module_id), kind]
        parts.extend(f"{k}={_fmt(v)}" for k, v in fields.items())
        self.raw(" ".join(parts))
        self.event_count += 1

    @property
    def digest(self) -> str:
        return f"{self._fnv:016x}"

    def _start(self) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self._path, "wb")

    def save(self, path: Path) -> None:
        """Write the log to `path`: a log streaming to a file closes it and
        renames it to `path`; a log keeping its lines writes them out."""
        if self._path is None:
            if not self._keep:
                raise ValueError("a log that keeps no lines cannot be saved")
            Path(path).write_bytes(
                "".join([f"{line}\n" for line in self.lines]).encode())
            return
        if self._file is None:
            self._start()
        self._file.close()
        self._path.replace(path)

    def discard(self) -> None:
        """Close a streaming log's file and remove it, unless `save` has
        already renamed it; nothing for a log without a path."""
        if self._file is not None:
            self._file.close()
            self._path.unlink(missing_ok=True)
