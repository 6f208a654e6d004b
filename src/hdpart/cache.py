"""Persistent count cache and resumable search checkpoints.

Both are append-only logs of UTF-8 lines, one record per line, each ending in
a checksum over all of its fields, so corruption stays local to a line. The
checksum is a CRC-32 (`binascii.crc32`, 8 lowercase hex digits): it detects
accidental corruption and torn lines, not tampering, and costs no OpenSSL
import. The count cache is one TSV file:

    kind <TAB> index <TAB> value <TAB> provenance <TAB> version <TAB> checksum

with comma-joined integer indices and decimal big-integer values. A line
written before format 2 (a sha256 checksum) fails the check, so it is skipped
on every read, and its value is recomputed and appended when next asked for.
A long alpha search keeps a checkpoint log next to it, one line per finished
connected component table, which is the persisted form of the component memo
that `mpart.alpha_tables` takes (see CheckpointedAlphaRun). Both stores read through
`_read_lines`, which skips and counts a line that fails its check (a corrupt
line, or the torn tail of an interrupted write), and write through
`_append_line`. The golden reference files are read from the `golden`
directory next to this module.
"""

from __future__ import annotations

import binascii
import os
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import mpart
from .series import IntegrityError

FORMAT_VERSION = "2"
CACHE_ENV_VAR = "HDPART_CACHE_DIR"
CACHE_FILENAME = "counts.tsv"


def _checksum(*fields: str) -> str:
    """The CRC-32 of the |-joined fields, as 8 lowercase hex digits."""
    return f"{binascii.crc32('|'.join(fields).encode()):08x}"


def _read_lines(path: Path, parse: Callable[[str], object]) -> tuple[list, int]:
    """The records parsed from the non-blank lines of path (none if it does
    not exist), and the number of lines parse rejected with ValueError."""
    records, skipped = [], 0
    if path.exists():
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            if not line.strip():
                continue
            try:
                records.append(parse(line))
            except ValueError:
                skipped += 1
    return records, skipped


def _append_line(path: Path, line: str):
    """Append one line to path in one write, so concurrent appenders never
    interleave; a torn tail left by an interrupted write is closed first."""
    payload = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        end = os.fstat(fd).st_size
        if end and os.pread(fd, 1, end - 1) != b"\n":
            payload = b"\n" + payload
        os.write(fd, payload)
    finally:
        os.close(fd)


class CacheRecord(NamedTuple):
    kind: str
    index: tuple[int, ...]
    value: int
    provenance: str
    version: str = FORMAT_VERSION

    def line(self) -> str:
        idx = ",".join(map(str, self.index))
        value = str(self.value)
        check = _checksum(self.kind, idx, value, self.provenance, self.version)
        return "\t".join((self.kind, idx, value, self.provenance, self.version, check))

    @classmethod
    def parse(cls, line: str) -> "CacheRecord":
        kind, idx, value, prov, version, check = line.rstrip("\n").split("\t")
        if _checksum(kind, idx, value, prov, version) != check:
            raise ValueError(f"checksum mismatch on cache line: {line!r}")
        index = tuple(int(x) for x in idx.split(",")) if idx else ()
        return cls(kind, index, int(value), prov, version)


def default_cache_dir() -> Optional[Path]:
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


class CacheStore:
    """Append-only store of exact count values.

    A line that fails to parse or to match its checksum (a corrupt line, or
    the torn tail of an interrupted write) is skipped and counted in
    `skipped`; the other records stay usable.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CACHE_FILENAME
        records, self.skipped = _read_lines(self.path, CacheRecord.parse)
        self._entries = {(r.kind, r.index): r for r in records}

    def get(self, kind: str, index: tuple[int, ...]) -> Optional[CacheRecord]:
        return self._entries.get((kind, tuple(index)))

    def put(self, kind: str, index: tuple[int, ...], value: int, provenance: str):
        index = tuple(index)
        existing = self._entries.get((kind, index))
        if existing is not None:
            if existing.value != value:  # two routes disagree
                raise IntegrityError(
                    f"cache conflict at {kind}{index}: {existing.value} vs {value}"
                )
            return existing
        record = CacheRecord(kind, index, value, provenance)
        _append_line(self.path, record.line())
        self._entries[(kind, index)] = record
        return record

    def __len__(self) -> int:
        return len(self._entries)


GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_rows(name: str) -> list[tuple[int, str]]:
    """(line number, line) of each data line of the golden file GOLDEN_DIR/name;
    blank lines and # comments are skipped."""
    text = (GOLDEN_DIR / name).read_text()
    return [
        (i, line)
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.startswith("#")
    ]


def load_golden_records() -> list[CacheRecord]:
    """Reference values shipped with the package in GOLDEN_DIR (large inputs
    that are not desk-scale recomputable; sources documented in golden/README)."""
    return [CacheRecord.parse(line) for _, line in _golden_rows("seeded_counts.tsv")]


def load_golden_c6() -> tuple[list[str], list[int]]:
    """The degree-9 numerator, as the one line of polynomial text in
    c6_numerator.txt, and the diagonal values it encodes, from GOLDEN_DIR."""
    num_text = (GOLDEN_DIR / "c6_numerator.txt").read_text().strip()
    diag = []
    for lineno, line in _golden_rows("c6_diagonal.tsv"):
        z, value = line.split("\t")
        if int(z) != len(diag):
            raise ValueError(f"c6_diagonal.tsv line {lineno}: row {z}, expected {len(diag)}")
        diag.append(int(value))
    return [num_text], diag


def load_golden_collisions() -> list[tuple[int, int, int, int, int]]:
    """Known collision pairs (d, n, e, m, value) with d < e, from GOLDEN_DIR."""
    return [tuple(int(x) for x in line.split("\t")) for _, line in _golden_rows("collisions.tsv")]


# --- resumable alpha runs -----------------------------------------------------


class CheckpointedAlphaRun(dict):
    """The memo of connected component tables that `mpart.alpha_tables` takes,
    persisted as an append-only log, so a long alpha search resumes after an
    interruption.

    It maps a component pair (j, q1) to (size, orbit-weighted table): the
    table of the connected stable layers on j variables with q1 quadrics,
    swept to that size under the length cap `length`. Storing a pair appends
    one line before the table is kept:

        j,q1 <TAB> size <TAB> table <TAB> checksum

    with the bucket table as space-separated `profile:value` items (comma-joined
    profile). A component table depends only on its pair, its size and the
    cap, so the checksum and the file name (`alpha-v5-cap4.tsv`,
    `alpha-v5-nocap.tsv`) are keyed by the search-format version and the cap
    alone, and one log serves every query with that cap.
    A pair logged twice keeps its larger size on load. A line that is torn,
    corrupt, or written under another version or cap fails its check and its
    pair is swept again. Resume is per finished pair: a finished pair is never
    regenerated or swept again, but a pair whose sweep alone exceeds a run's
    node ceiling never finishes.
    """

    def __init__(self, directory: Path, length: Optional[int] = None):
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._key = f"{mpart.SEARCH_FORMAT_VERSION}|{length}"
        cap = "nocap" if length is None else f"cap{length}"
        self.path = self.directory / f"alpha-v{mpart.SEARCH_FORMAT_VERSION}-{cap}.tsv"
        lines, self.skipped = _read_lines(self.path, self._parse)
        for pair, entry in lines:
            if entry[0] > self.get(pair, (0,))[0]:
                super().__setitem__(pair, entry)

    def _parse(self, line: str) -> tuple[tuple[int, int], tuple[int, mpart.BucketTable]]:
        pair, size, encoded, check = line.split("\t")
        if _checksum(self._key, pair, size, encoded) != check:
            raise ValueError(f"checksum mismatch on checkpoint line: {line!r}")
        j, q1 = (int(x) for x in pair.split(","))
        table = {}
        for item in encoded.split():
            tail, value = item.split(":")
            table[tuple(int(x) for x in tail.split(",")) if tail else ()] = int(value)
        return (j, q1), (int(size), table)

    def _flush(self, pair: tuple[int, int], entry: tuple[int, mpart.BucketTable]):
        key, size = ",".join(map(str, pair)), str(entry[0])
        encoded = " ".join(f"{','.join(map(str, t))}:{v}" for t, v in sorted(entry[1].items()))
        check = _checksum(self._key, key, size, encoded)
        _append_line(self.path, f"{key}\t{size}\t{encoded}\t{check}")

    def __setitem__(self, pair: tuple[int, int], entry: tuple[int, mpart.BucketTable]):
        self._flush(pair, entry)
        super().__setitem__(pair, entry)
