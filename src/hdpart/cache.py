"""Persistent count cache and resumable search checkpoints.

The cache is a line-oriented UTF-8 TSV, one record per line:

    kind <TAB> index <TAB> value <TAB> provenance <TAB> version <TAB> checksum

with comma-joined integer indices and decimal big-integer values. Records are
append-only; the checksum covers kind+index+value so corruption stays local to
a line. Checkpoints for long searches live next to it as JSON, one file per
query, keyed by a content hash of the query. The golden reference files are
read from the `golden` directory next to this module.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import NamedTuple, Optional

from . import mpart
from .lattice import _Budget
from .series import IntegrityError

FORMAT_VERSION = "1"
CACHE_ENV_VAR = "HDPART_CACHE_DIR"
CACHE_FILENAME = "counts.tsv"


def _checksum(kind: str, index: tuple[int, ...], value: int) -> str:
    payload = f"{kind}|{','.join(map(str, index))}|{value}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class CacheRecord(NamedTuple):
    kind: str
    index: tuple[int, ...]
    value: int
    provenance: str
    version: str = FORMAT_VERSION

    def line(self) -> str:
        return "\t".join(
            (
                self.kind,
                ",".join(map(str, self.index)),
                str(self.value),
                self.provenance,
                self.version,
                _checksum(self.kind, self.index, self.value),
            )
        )

    @classmethod
    def parse(cls, line: str) -> "CacheRecord":
        kind, idx, value, prov, version, check = line.rstrip("\n").split("\t")
        index = tuple(int(x) for x in idx.split(",")) if idx else ()
        record = cls(kind, index, int(value), prov, version)
        if _checksum(kind, index, record.value) != check:
            raise ValueError(f"checksum mismatch on cache line: {line!r}")
        return record


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
        self._entries: dict[tuple[str, tuple[int, ...]], CacheRecord] = {}
        self.skipped = 0
        if self.path.exists():
            text = self.path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = CacheRecord.parse(line)
                except ValueError:
                    self.skipped += 1
                    continue
                self._entries[(record.kind, record.index)] = record

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
        payload = (record.line() + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            end = os.fstat(fd).st_size
            if end and os.pread(fd, 1, end - 1) != b"\n":
                payload = b"\n" + payload  # start after a torn tail
            # one write per record, so concurrent appenders never interleave
            os.write(fd, payload)
        finally:
            os.close(fd)
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
    """The degree-9 numerator (grammar text, one coefficient per line is not
    used; single line) and the diagonal values it encodes, from GOLDEN_DIR."""
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


def _query_id(query: dict) -> str:
    payload = json.dumps(query, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _encode_table(table: mpart.BucketTable) -> dict[str, int]:
    return {",".join(map(str, profile)): v for profile, v in sorted(table.items())}


def _decode_table(data) -> mpart.BucketTable:
    """The table _encode_table wrote; ValueError for anything else."""
    if not isinstance(data, dict) or not all(type(v) is int for v in data.values()):
        raise ValueError("malformed checkpoint table")
    return {tuple(int(x) for x in key.split(",")): v for key, v in data.items()}


class CheckpointedAlphaRun:
    """Per-representative task runner whose partial results survive restarts.

    Each stable-orbit representative is one task; after a task finishes its
    bucket table is flushed to the checkpoint file. Resuming skips completed
    tasks, so the final aggregate is identical however often the run is
    interrupted. A checkpoint file that is not JSON, holds a malformed table, or
    was written for another query or under another search-format version, is
    recomputed, never resumed. node_ceiling bounds the nodes of each run() call.
    """

    def __init__(
        self,
        directory: Path,
        k: int,
        q: int,
        m: int,
        length: Optional[int] = None,
        node_ceiling: Optional[int] = mpart.DEFAULT_NODE_CEILING,
        workers: int = 1,
    ):
        self.k, self.q, self.m, self.length = k, q, m, length
        self.node_ceiling = node_ceiling
        self.workers = workers
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.query = {"k": k, "q": q, "m": m, "length": length}
        self.path = self.directory / f"alpha-{_query_id(self.query)}.json"
        self.reps = mpart.orbit_reps(k, q)
        self.completed: dict[int, mpart.BucketTable] = {}
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text())
                if (
                    isinstance(data, dict)
                    and data.get("version") == mpart.SEARCH_FORMAT_VERSION
                    and data.get("query") == self.query
                    and isinstance(data.get("tables"), dict)
                ):
                    self.completed = {int(i): _decode_table(t) for i, t in data["tables"].items()}
            except ValueError:  # not JSON, or a malformed table: recomputed like a stale file
                pass

    @property
    def pending(self) -> list[int]:
        return [i for i in range(len(self.reps)) if i not in self.completed]

    def _flush(self):
        data = {
            "version": mpart.SEARCH_FORMAT_VERSION,
            "query": self.query,
            "tables": {str(i): _encode_table(t) for i, t in sorted(self.completed.items())},
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, sort_keys=True))
        tmp.replace(self.path)

    def run(self, task_limit: Optional[int] = None) -> Optional[int]:
        """Execute up to task_limit pending tasks; return the count once every
        task is complete, else None."""
        todo = self.pending if task_limit is None else self.pending[: max(task_limit, 0)]
        reps = [self.reps[i] for i in todo]
        budget = _Budget(self.node_ceiling)
        tables = mpart.rep_tables(reps, self.m, self.length, self.workers, budget)
        for idx, table in zip(todo, tables):
            self.completed[idx] = table
            self._flush()
        if self.pending:
            return None
        return self.total()

    def total(self) -> int:
        if self.pending:
            raise RuntimeError("run is not complete")
        tables = (self.completed[i] for i in range(len(self.reps)))
        return mpart.select(mpart.weighted_table(self.reps, tables), self.m, self.length)
