"""Persistent count cache and resumable search checkpoints.

Both are append-only logs of UTF-8 lines, one record per line, each ending in
a checksum over its fields, so corruption stays local to a line. The count
cache is one TSV file:

    kind <TAB> index <TAB> value <TAB> provenance <TAB> version <TAB> checksum

with comma-joined integer indices and decimal big-integer values. A long
alpha search keeps one checkpoint log per query next to it, one line per
finished connected representative (see CheckpointedAlphaRun). Both stores read through
`_read_lines`, which skips and counts a line that fails its check (a corrupt
line, or the torn tail of an interrupted write), and write through
`_append_line`. The golden reference files are read from the `golden`
directory next to this module.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import mpart
from .lattice import _Budget
from .series import IntegrityError

FORMAT_VERSION = "1"
CACHE_ENV_VAR = "HDPART_CACHE_DIR"
CACHE_FILENAME = "counts.tsv"


def _checksum(*fields: str) -> str:
    return hashlib.sha256("|".join(fields).encode()).hexdigest()[:12]


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
        check = _checksum(self.kind, idx, value)
        return "\t".join((self.kind, idx, value, self.provenance, self.version, check))

    @classmethod
    def parse(cls, line: str) -> "CacheRecord":
        kind, idx, value, prov, version, check = line.rstrip("\n").split("\t")
        if _checksum(kind, idx, value) != check:
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


class CheckpointedAlphaRun:
    """Per-representative task runner whose partial results survive restarts.

    The count is the exponential formula over connected component tables
    (`mpart.exponential_table`), so each task is one connected representative
    of a component pair (j, q1) that the query reads (`mpart.component_needs`),
    swept to the size the formula reads. When a task finishes, one line is
    appended to the checkpoint log:

        j,q1,index <TAB> table <TAB> checksum

    with the bucket table as space-separated `profile:value` items (comma-joined
    profile). The checksum and the file name are keyed by the search-format
    version and the query without its profile, so a run refined by profile and
    one refined by length alone share one log. A line that is torn, corrupt, or
    written for another query or version fails its check and its task is
    recomputed; resuming skips the other completed tasks, so the final
    aggregate is identical however often the run is interrupted. node_ceiling
    bounds the nodes of each run() call.
    """

    def __init__(
        self,
        directory: Path,
        k: int,
        q: int,
        m: int,
        length: Optional[int] = None,
        profile: Optional[tuple[int, ...]] = None,
        node_ceiling: Optional[int] = mpart.DEFAULT_NODE_CEILING,
        workers: int = 1,
    ):
        self.query = mpart.AlphaQuery(k, q, m, length=length, profile=profile)
        self.node_ceiling = node_ceiling
        self.workers = workers
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._key = f"{mpart.SEARCH_FORMAT_VERSION}|{k},{q},{m},{length}"
        name = hashlib.sha256(self._key.encode()).hexdigest()[:16]
        self.path = self.directory / f"alpha-{name}.tsv"
        trivial = self.query.trivial_count() is not None
        # component pair -> the size its table is swept to
        self.needs = {} if trivial else mpart.component_needs(k, q, m)
        self.tasks = [
            (j, q1, i)
            for j, q1 in sorted(self.needs)
            for i in range(len(mpart.connected_reps(j, q1)))
        ]
        lines, self.skipped = _read_lines(self.path, self._parse)
        self.completed: dict[tuple[int, int, int], mpart.BucketTable] = dict(lines)

    def _parse(self, line: str) -> tuple[tuple[int, int, int], mpart.BucketTable]:
        task, encoded, check = line.split("\t")
        if _checksum(self._key, task, encoded) != check:
            raise ValueError(f"checksum mismatch on checkpoint line: {line!r}")
        j, q1, index = (int(x) for x in task.split(","))
        table = {}
        for item in encoded.split():
            tail, value = item.split(":")
            table[tuple(int(x) for x in tail.split(",")) if tail else ()] = int(value)
        return (j, q1, index), table

    @property
    def pending(self) -> list[tuple[int, int, int]]:
        return [t for t in self.tasks if t not in self.completed]

    def _flush(self, task: tuple[int, int, int], table: mpart.BucketTable):
        key = ",".join(map(str, task))
        encoded = " ".join(f"{','.join(map(str, t))}:{v}" for t, v in sorted(table.items()))
        _append_line(self.path, f"{key}\t{encoded}\t{_checksum(self._key, key, encoded)}")
        self.completed[task] = table

    def run(self, task_limit: Optional[int] = None) -> Optional[int]:
        """Execute up to task_limit pending tasks; return the count once every
        task is complete, else None."""
        todo = self.pending if task_limit is None else self.pending[: max(task_limit, 0)]
        layers = [(mpart.connected_reps(j, q1)[i].rep, self.needs[j, q1]) for j, q1, i in todo]
        budget = _Budget(self.node_ceiling)
        tables = mpart.rep_tables(layers, self.query.length, self.workers, budget)
        for task, table in zip(todo, tables):
            self._flush(task, table)
        return None if self.pending else self.total()

    def total(self) -> int:
        if self.pending:
            raise RuntimeError("run is not complete")
        query = self.query
        trivial = query.trivial_count()
        if trivial is not None:
            return trivial
        components = {}
        for pair in self.needs:
            reps = mpart.connected_reps(*pair)
            tables = (self.completed[(*pair, i)] for i in range(len(reps)))
            components[pair] = mpart.weighted_table(reps, tables)
        table = mpart.exponential_table(query.k, query.q, query.m, components)
        return mpart.select(table, query.m, query.length, query.profile)
