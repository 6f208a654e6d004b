"""Persistence format, checkpoint resume, and the command-line surface."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hdpart import cache as cache_mod
from hdpart import cli, lattice, mpart
from hdpart.cache import (
    CacheRecord,
    CacheStore,
    CheckpointedAlphaRun,
    load_golden_c6,
    load_golden_collisions,
    load_golden_records,
)
from hdpart.cli import main
from hdpart.lattice import ResourceCeilingError, _Budget
from hdpart.mpart import SEARCH_FORMAT_VERSION, alpha_by_hilbert, alpha_count
from hdpart.series import IntegrityError, parse_polynomial


def test_cache_round_trip_large_values(tmp_path):
    store = CacheStore(tmp_path)
    big = 10**75 + 12345  # more than 60 decimal digits
    store.put("P", (666, 30), big, "test")
    reloaded = CacheStore(tmp_path)
    assert reloaded.get("P", (666, 30)).value == big
    assert len(reloaded) == 1


def test_cache_rejects_corruption(tmp_path):
    store = CacheStore(tmp_path)
    store.put("Y", (2, 5), 5, "test")
    store.put("Y", (2, 9), 28, "test")
    text = store.path.read_text().replace("\t5\t", "\t6\t")
    store.path.write_text(text)
    with pytest.raises(ValueError):
        CacheRecord.parse(text.splitlines()[0])
    reloaded = CacheStore(tmp_path)
    assert reloaded.get("Y", (2, 5)) is None  # the bad line is never served
    assert reloaded.get("Y", (2, 9)).value == 28 and reloaded.skipped == 1


@pytest.mark.parametrize("field", range(5), ids=["kind", "index", "value", "provenance", "version"])
def test_cache_checksum_covers_every_field(tmp_path, field):
    store = CacheStore(tmp_path)
    store.put("Y", (2, 5), 5, "test")
    store.put("Y", (2, 9), 28, "test")
    first, second = store.path.read_text().splitlines()
    fields = first.split("\t")
    fields[field] = fields[field][:-1] + chr(ord(fields[field][-1]) ^ 1)  # one character changed
    store.path.write_text("\t".join(fields) + "\n" + second + "\n")
    with pytest.raises(ValueError):
        CacheRecord.parse("\t".join(fields))
    reloaded = CacheStore(tmp_path)
    assert len(reloaded) == 1 and reloaded.skipped == 1
    assert reloaded.get("Y", (2, 9)).value == 28


def _sha256_checksum(*fields):
    # the line checksum of cache format 1 and search formats up to 4
    return hashlib.sha256("|".join(fields).encode()).hexdigest()[:12]


def test_cache_written_under_format_1_is_recomputed(tmp_path):
    # format 1 checked kind, index and value with a truncated sha256
    old = "".join(
        f"{kind}\t{idx}\t{value}\tsearch\t1\t{_sha256_checksum(kind, idx, value)}\n"
        for kind, idx, value in [("P", "4,8", "684"), ("Y", "2,9", "28")]
    )
    path = tmp_path / cache_mod.CACHE_FILENAME
    path.write_text(old)
    stale = CacheStore(tmp_path)
    assert len(stale) == 0 and stale.skipped == 2
    rc, out, err = run_cli("--cache-dir", str(tmp_path), "count", "p", "--n", "4", "--d", "8")
    assert (rc, out.strip()) == (0, "684"), err
    text = path.read_text()
    assert text.startswith(old)
    (line,) = text[len(old):].splitlines()  # exactly one line appended, under format 2
    assert CacheRecord.parse(line)[:3] == ("P", (4, 8), 684)
    assert len(line.rsplit("\t", 1)[1]) == 8
    reloaded = CacheStore(tmp_path)
    assert reloaded.get("P", (4, 8)).version == "2" and reloaded.skipped == 2


def test_cache_conflict_detection(tmp_path):
    store = CacheStore(tmp_path)
    store.put("C", (2, 1), 1, "test")
    store.put("C", (2, 1), 1, "again")  # same value is idempotent
    with pytest.raises(IntegrityError):
        store.put("C", (2, 1), 2, "bad")


def test_record_line_round_trip():
    rec = CacheRecord("ALPHA", (3, 5, 13), 43260, "search")
    assert CacheRecord.parse(rec.line()) == rec


def test_golden_fixtures_load():
    records = load_golden_records()
    assert any(r.kind == "P" and r.index == (666, 30) for r in records)
    (num_text,), diag = load_golden_c6()
    assert parse_polynomial(num_text)[0] == 11
    assert len(diag) == 10 and diag[0] == 11
    pairs = load_golden_collisions()
    assert (3, 5, 7, 2, 15) in pairs


def test_golden_c6_rejects_misnumbered_row(monkeypatch, tmp_path):
    (tmp_path / "c6_numerator.txt").write_text("11\n")
    (tmp_path / "c6_diagonal.tsv").write_text("# z\tvalue\n0\t11\n\n2\t706\n")
    monkeypatch.setattr(cache_mod, "GOLDEN_DIR", tmp_path)
    with pytest.raises(ValueError, match="line 4"):
        load_golden_c6()


def _checkpointed(directory, k, q, m, length=None, **kwargs):
    """alpha(k, q, m, length) through the checkpoint log in directory."""
    log = CheckpointedAlphaRun(directory, length)
    query = mpart.AlphaQuery(k, q, m, length=length)
    return mpart.alpha(query, components=log, **kwargs)


def test_checkpoint_resume_identical(tmp_path):
    # (3, 4, 5) reads the pairs (1, 1), (2, 3) and (3, 4), whose sweeps walk
    # 7, 37 and 119 nodes: under a 150-node ceiling the first run logs two
    # pairs and stops, and the second finishes from them
    k, q, m = 3, 4, 5
    fresh = alpha_count(k, q, m)
    with pytest.raises(ResourceCeilingError):
        _checkpointed(tmp_path / "a", k, q, m, node_ceiling=150)
    assert sorted(CheckpointedAlphaRun(tmp_path / "a")) == [(1, 1), (2, 3)]
    assert _checkpointed(tmp_path / "a", k, q, m, node_ceiling=150) == fresh
    resumed = CheckpointedAlphaRun(tmp_path / "a")
    assert resumed == {p: (m1, resumed[p][1]) for p, m1 in mpart.component_needs(k, q, m).items()}
    # the interrupted log equals an uninterrupted one line for line
    assert _checkpointed(tmp_path / "b", k, q, m) == fresh
    assert CheckpointedAlphaRun(tmp_path / "b").path.read_bytes() == resumed.path.read_bytes()


def test_checkpoint_pair_over_the_ceiling_never_finishes(tmp_path):
    # resume is per finished pair: the 119-node pair (3, 4) cannot be finished
    # piecewise under a 100-node ceiling, and a retry appends nothing
    for _ in range(2):
        with pytest.raises(ResourceCeilingError):
            _checkpointed(tmp_path, 3, 4, 5, node_ceiling=100)
        log = CheckpointedAlphaRun(tmp_path)
        assert sorted(log) == [(1, 1), (2, 3)]
        assert len(log.path.read_bytes().splitlines()) == 2


def test_checkpoint_ignores_other_search_version(tmp_path, monkeypatch):
    k, q, m = 3, 4, 5
    log = CheckpointedAlphaRun(tmp_path)
    # lines written under another search-format version, and under another cap
    monkeypatch.setattr(mpart, "SEARCH_FORMAT_VERSION", SEARCH_FORMAT_VERSION + 1)
    other_version = CheckpointedAlphaRun(tmp_path / "v")
    assert _checkpointed(tmp_path / "v", k, q, m) == alpha_count(k, q, m)
    monkeypatch.undo()
    other_cap = CheckpointedAlphaRun(tmp_path / "c", 4)
    assert _checkpointed(tmp_path / "c", k, q, m, 4) == alpha_count(k, q, m, length=4)
    assert other_version.path.name != log.path.name != other_cap.path.name
    for other in (other_version, other_cap):
        log.path.write_bytes(other.path.read_bytes())
        stale = CheckpointedAlphaRun(tmp_path)
        assert stale == {} and stale.skipped == 3
        assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)


def test_checkpoint_written_under_version_3_is_recomputed(tmp_path):
    # version 3 logged one line per connected representative, keyed by query
    # and (j, q1, index)
    k, q, m = 3, 4, 5
    key = f"3|{k},{q},{m},None"
    lines = []
    for (j, q1), m1 in sorted(mpart.component_needs(k, q, m).items()):
        reps = mpart.connected_reps(j, q1)
        tables = [
            mpart._RegionSearch(mpart.bounding_region(o.rep, m1 + 2), _Budget(None)).sweep(m1)
            for o in reps
        ]
        for index, table in enumerate(tables):
            task = f"{j},{q1},{index}"
            encoded = " ".join(f"{','.join(map(str, t))}:{v}" for t, v in sorted(table.items()))
            lines.append(f"{task}\t{encoded}\t{_sha256_checksum(key, task, encoded)}\n")
    old = "".join(lines)
    name = hashlib.sha256(key.encode()).hexdigest()[:16]
    (tmp_path / f"alpha-{name}.tsv").write_text(old)
    log = CheckpointedAlphaRun(tmp_path)
    assert log.path.name != f"alpha-{name}.tsv" and log == {}
    log.path.write_text(old)  # even under the new log's name, no line is read
    stale = CheckpointedAlphaRun(tmp_path)
    assert stale == {} and stale.skipped == len(lines) == 5
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    assert (tmp_path / f"alpha-{name}.tsv").read_text() == old


def test_checkpoint_under_sha256_name_is_never_opened(tmp_path):
    # before the CRC-32 checksum, a version-4 log was named by the sha256 of
    # its key and its lines ended in a truncated sha256
    k, q, m = 3, 4, 5
    full = {}
    mpart.alpha_tables(k, q, m, components=full)
    key = f"{SEARCH_FORMAT_VERSION}|None"
    lines = []
    for (j, q1), (size, table) in sorted(full.items()):
        pair = f"{j},{q1}"
        encoded = " ".join(f"{','.join(map(str, t))}:{v}" for t, v in sorted(table.items()))
        check = _sha256_checksum(key, pair, str(size), encoded)
        lines.append(f"{pair}\t{size}\t{encoded}\t{check}\n")
    old_path = tmp_path / f"alpha-{hashlib.sha256(key.encode()).hexdigest()[:16]}.tsv"
    old_path.write_text("".join(lines))
    before = old_path.read_bytes()
    log = CheckpointedAlphaRun(tmp_path)
    assert log.path.name == f"alpha-v{SEARCH_FORMAT_VERSION}-nocap.tsv"
    assert CheckpointedAlphaRun(tmp_path, 4).path.name == f"alpha-v{SEARCH_FORMAT_VERSION}-cap4.tsv"
    assert log == {} and log.skipped == 0
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    assert old_path.read_bytes() == before
    resumed = CheckpointedAlphaRun(tmp_path)
    assert resumed == full and resumed.skipped == 0
    for line in resumed.path.read_text().splitlines():
        assert len(line.rsplit("\t", 1)[1]) == 8  # a CRC-32 over key and fields
    # the old lines, even under the new name, fail the CRC-32 check
    resumed.path.write_bytes(before)
    stale = CheckpointedAlphaRun(tmp_path)
    assert stale == {} and stale.skipped == len(full) == 3


@pytest.mark.parametrize(
    "table", [["x|3|:5"], ["zero:5"], ["5"], ["1,2:five"], ["3:5", "1,,2:5"], ["1:2:3"]]
)
def test_checkpoint_with_malformed_table_is_recomputed(tmp_path, table):
    # the checksum holds, but the table's items do not decode
    k, q, m = 3, 4, 5
    log = CheckpointedAlphaRun(tmp_path)
    encoded = " ".join(table)
    check = cache_mod._checksum(log._key, "1,1", "4", encoded)
    log.path.write_text(f"1,1\t4\t{encoded}\t{check}\n")
    stale = CheckpointedAlphaRun(tmp_path)
    assert stale == {} and stale.skipped == 1
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)


def test_checkpoint_torn_tail_is_recomputed(tmp_path):
    k, q, m = 3, 4, 5
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    path = CheckpointedAlphaRun(tmp_path).path
    text = path.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    path.write_text(text[: len(text) - len(last) // 2])  # an interrupted append
    torn = CheckpointedAlphaRun(tmp_path)
    assert torn.skipped == 1 and sorted(torn) == [(1, 1), (2, 3)]
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    resumed = CheckpointedAlphaRun(tmp_path)
    assert sorted(resumed) == [(1, 1), (2, 3), (3, 4)] and resumed.skipped == 1
    assert path.read_text().endswith("\n" + last + "\n")  # the torn line was closed first
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    assert CheckpointedAlphaRun(tmp_path) == resumed


def test_checkpoint_log_has_one_line_per_pair(tmp_path):
    k, q, m = 3, 4, 5
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    path = CheckpointedAlphaRun(tmp_path).path
    before = path.read_bytes()
    # one line per component pair: (1, 1), (2, 3) and (3, 4)
    assert [line.split(b"\t")[0] for line in before.splitlines()] == [b"1,1", b"2,3", b"3,4"]
    assert _checkpointed(tmp_path, k, q, m) == alpha_count(k, q, m)
    assert path.read_bytes() == before  # a resume appends nothing


def test_checkpoint_partial_state_is_persisted(tmp_path):
    with pytest.raises(ResourceCeilingError):
        _checkpointed(tmp_path, 3, 4, 5, node_ceiling=100)
    again = CheckpointedAlphaRun(tmp_path)
    full = {}
    mpart.alpha_tables(3, 4, 5, components=full)
    assert again == {p: full[p] for p in [(1, 1), (2, 3)]}


def test_checkpoint_smaller_query_appends_nothing(tmp_path):
    assert _checkpointed(tmp_path, 3, 4, 13) == 8595
    path = CheckpointedAlphaRun(tmp_path).path
    before = path.read_bytes()
    assert _checkpointed(tmp_path, 3, 4, 8) == 1302
    assert path.read_bytes() == before


def test_checkpoint_larger_size_supersedes(tmp_path):
    assert _checkpointed(tmp_path, 3, 4, 5) == alpha_count(3, 4, 5)
    assert _checkpointed(tmp_path, 3, 4, 8) == alpha_count(3, 4, 8)
    log = CheckpointedAlphaRun(tmp_path)
    lines = log.path.read_text().splitlines()
    assert len(lines) == 6  # every pair is read further, and logged again
    full = {}
    mpart.alpha_tables(3, 4, 8, components=full)
    assert log == full
    # the larger size wins on load, whichever line comes first
    log.path.write_text("\n".join(reversed(lines)) + "\n")
    assert CheckpointedAlphaRun(tmp_path) == full


def test_checkpoint_resume_generates_no_representatives(tmp_path):
    assert _checkpointed(tmp_path, 3, 4, 8) == 1302
    mpart.connected_reps.cache_clear()
    assert _checkpointed(tmp_path, 3, 4, 8) == 1302
    assert mpart.connected_reps.cache_info().misses == 0


# --- CLI ---------------------------------------------------------------------


def run_cli(*argv) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "hdpart", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_main_freezes_the_import_heap(capsys):
    gc.unfreeze()
    assert main(["count", "p", "--n", "3", "--d", "5"]) == 0
    assert capsys.readouterr().out.strip() == "24"
    assert gc.isenabled() and gc.get_freeze_count() > 0


def test_import_leaves_the_collector_unfrozen():
    # only cli.main freezes: importing any hdpart module, as a library or a
    # test does, leaves the host's collector as it was
    probe = (
        "import gc, importlib, pkgutil, hdpart\n"
        "for mod in pkgutil.iter_modules(hdpart.__path__):\n"
        "    importlib.import_module('hdpart.' + mod.name)\n"
        "print(gc.isenabled(), gc.get_freeze_count())"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "0"]


def test_cli_start_imports_no_record_or_resource_machinery():
    # -S: no site-packages .pth file may import these first and hide an import by hdpart;
    # hashlib and _hashlib would load OpenSSL's libcrypto
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import hdpart.cli\n"
        "print(sorted({'argparse', 'dataclasses', 'inspect', 'importlib.resources',"
        " 'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["count", "p", "--n", "3", "--d", "5", "--bogus", "1"],
        ["count", "z", "--n", "3"],
        ["count", "p", "--n", "x", "--d", "5"],
        ["count", "p", "--d", "5", "--n"],
        ["count", "p", "--n", "--d", "5"],
        ["count", "alpha", "--k", "3", "--q", "4", "--m", "8", "--checkpoint-dir="],
        ["count", "--n", "3", "--d", "5"],
        ["count", "p", "--n", "3", "--d", "5", "--workers", "2"],
        ["count", "p", "--n", "3", "--d", "5", "extra"],
        ["count", "p", "--oracle=yes", "--n", "3", "--d", "5"],
        ["--node", "5", "count", "p", "--n", "3", "--d", "5"],
        ["count", "hydral", "--n", "3", "--m", "5", "--length", "4"],
        ["count", "alpha", "--hilbert", "1,3,5,7,6", "--length", "3"],
        ["count", "alpha", "--hilbert", "1,3,5,7,6", "--k", "9"],
        ["count", "y", "--k", "2", "--d", "5", "--checkpoint-dir", "{tmp}"],
        ["series", "phi", "--n", "3", "--expand", "5"],
        ["series", "H", "--d", "5", "--order", "3"],
        ["series", "hydral", "--n", "2", "--order", "3"],
        ["series", "Y", "--e", "1", "--golden-seeds"],
        ["series", "C", "--x", "2", "--golden-seeds"],
        ["conjecture", "epsilon", "--m", "6", "--no-low-dim"],
        ["conjecture", "andrews", "--k", "1", "--extra-points", "2"],
        ["conjecture", "sparsity", "--dmax", "8", "--bound", "9", "--order", "5"],
        ["count", "p", "--n", "3", "--d", "5", "--oracle", "--verify"],
        ["count", "alpha", "--k", "3", "--q", "4", "--m", "8", "--oracle",
         "--checkpoint-dir", "{tmp}"],
        ["series", "H", "--d", "0"],
        ["--workers", "0", "count", "p", "--n", "4", "--d", "5"],
        ["--workers", "-1", "count", "p", "--n", "4", "--d", "5"],
        ["--node-ceiling", "-1", "count", "p", "--n", "4", "--d", "5"],
        ["--node-ceiling", "-5", "count", "alpha", "--k", "3", "--q", "4", "--m", "8"],
    ],
    ids=[
        "unknown-command", "no-command", "unknown-flag", "unknown-choice", "not-an-integer",
        "missing-value", "flag-as-value", "empty-value", "missing-positional",
        "global-after-command", "extra-positional", "value-for-switch", "abbreviated-flag",
        "length-off-alpha", "length-with-hilbert", "k-with-hilbert", "checkpoint-dir-off-alpha",
        "expand-with-phi", "order-with-H", "order-with-hydral", "golden-seeds-with-Y",
        "golden-seeds-with-x-2", "no-low-dim-with-epsilon", "extra-points-with-andrews",
        "order-with-sparsity", "oracle-with-verify", "oracle-with-checkpoint-dir",
        "H-at-size-0", "workers-0", "workers-below-0", "ceiling-below-0", "ceiling-below-0-alpha",
    ],
)
def test_cli_usage_error_is_bad_request(argv, tmp_path, capsys):
    # exit 1, never 2 (a failing conjecture), and one JSON object on stderr; a
    # flag that changes no answer is refused, not ignored
    argv = [a.format(tmp=tmp_path / "ckpt") for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "bad-request"
    assert not (tmp_path / "ckpt").exists()


# the flags that every choice of their command reads; `_COMMANDS` names each
# other flag beside the choices that read it
_READ_BY_EVERY_CHOICE = {"--oracle", "--verify"}


def test_cli_choice_refuses_every_flag_it_does_not_read(tmp_path, monkeypatch, capsys):
    # each choice, and each alternative of alpha's flags, with its needed flags
    # set to 1 and one flag it does not read: no output, no file, bad-request
    monkeypatch.chdir(tmp_path)
    accepted = []
    for command, (_, _, choices, flags) in cli._COMMANDS.items():
        for choice, needs in choices.items():
            for need in needs.split(" | "):
                reads = {flag.rstrip("?") for flag in need.split()}
                base = [command, choice]
                for flag in need.split():
                    base += [] if flag.endswith("?") else [flag, "1"]
                for flag, (convert, _) in flags.items():
                    if flag in reads | _READ_BY_EVERY_CHOICE:
                        continue
                    argv = base + ([flag] if convert is bool else [flag, "1"])
                    code = main(argv)
                    out, err = capsys.readouterr()
                    if (code, out) != (1, "") or json.loads(err)["error"] != "bad-request":
                        accepted.append(" ".join(argv))
    assert accepted == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "query",
    [
        ["p", "--n", "3", "--d", "5"],
        ["hydral", "--n", "3", "--m", "2"],
        ["alpha", "--k", "3", "--q", "4", "--m", "8"],
    ],
    ids=["p", "hydral", "alpha"],
)
def test_cli_verify_mismatch_is_integrity(query, monkeypatch, capsys):
    # an oracle one too high: the count table notices for p, y, c and hydral,
    # cmd_count for alpha, whose search fills no table; both are integrity errors
    for name in ("count_partitions", "count_constrained"):
        walk = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda *a, walk=walk, **kw: walk(*a, **kw) + 1)
    assert main(["count", *query, "--verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "integrity"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["count", "p", "--n", "3"], "count p needs --d"),
        (["count", "alpha", "--k", "3"], "count alpha needs --hilbert, or --q and --m"),
        (["series", "H"], "series H needs --d"),
        (["conjecture", "sparsity", "--bound", "9"], "conjecture sparsity needs --dmax"),
        (["conjecture", "epsilon"], "conjecture epsilon needs --m"),
    ],
)
def test_cli_missing_flag_is_named(argv, detail, capsys):
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"detail": detail, "error": "bad-request"}


@pytest.mark.parametrize(
    "query, detail",
    [
        (["y", "--k", "0", "--d", "0"], "need k >= 0 and d >= 1"),
        (["y", "--k", "2", "--d", "0"], "need k >= 0 and d >= 1"),
        (["c", "--k", "1", "--e", "-1"], "indices must be nonnegative"),
        (["p", "--n", "-1", "--d", "3"], "indices must be nonnegative"),
    ],
    ids=["y-k0-d0", "y-k2-d0", "c-e-1", "p-n-1"],
)
@pytest.mark.parametrize("route", [[], ["--oracle"]], ids=["pipeline", "oracle"])
def test_cli_count_outside_its_domain_is_bad_request(query, detail, route, capsys):
    # the pipeline and the oracle refuse the same indices, with the same message
    assert main(["count", *query, *route]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"detail": detail, "error": "bad-request"}


def test_cli_node_ceiling_0_is_valid(capsys):
    # p(2, d) is inverted from the product columns, so it spends no node
    assert main(["--node-ceiling", "0", "count", "p", "--n", "2", "--d", "30"]) == 0
    assert capsys.readouterr().out == "5604\n"


def test_cli_help_names_every_command():
    for flag in ("--help", "-h"):
        rc, out, err = run_cli(flag)
        assert (rc, err) == (0, "")
        assert all(f"hdpart {command} " in out for command in ("count", "series", "conjecture"))
        assert "  C: --x --expand? --golden-seeds?\n" in out


def test_cli_flag_value_after_equals(capsys):
    assert main(["--node-ceiling=100", "count", "y", "--k=3", "--d", "9"]) == 0
    joined = capsys.readouterr().out
    assert main(["--node-ceiling", "100", "count", "y", "--k", "3", "--d", "9"]) == 0
    assert joined == capsys.readouterr().out == "195\n"


def test_cli_last_repeated_flag_wins(capsys):
    assert main(["count", "p", "--n", "9", "--d", "5", "--n", "3"]) == 0
    assert capsys.readouterr().out == "24\n"


def test_cli_count_examples():
    rc, out, _ = run_cli("count", "p", "--n", "3", "--d", "5")
    assert rc == 0 and out.strip() == "24"
    rc, out, _ = run_cli("count", "alpha", "--k", "2", "--q", "2", "--m", "1")
    assert rc == 0 and out.strip() == "2"
    rc, out, _ = run_cli("count", "hydral", "--n", "3", "--m", "2")
    assert rc == 0 and out.strip() == "9"


def test_cli_count_golden_seed():
    rc, out, _ = run_cli("count", "p", "--n", "666", "--d", "30")
    assert rc == 0
    assert out.strip() == "5390806817913544023450455014935417834529246670018145780"


def test_cli_count_verify():
    rc, out, _ = run_cli("count", "c", "--k", "2", "--e", "3", "--verify")
    assert rc == 0 and out.strip() == "7"


def test_cli_count_oracle():
    rc, out, _ = run_cli("count", "p", "--n", "4", "--d", "6", "--oracle")
    assert rc == 0 and out.strip() == "140"


def test_cli_error_is_machine_readable():
    rc, _, err = run_cli(
        "--node-ceiling", "10", "count", "p", "--n", "3", "--d", "9", "--oracle"
    )
    assert rc == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "resource-ceiling"


@pytest.mark.parametrize(
    "query",
    [
        ["y", "--k", "3", "--d", "9"],
        ["alpha", "--k", "3", "--q", "4", "--m", "8", "--length", "4"],
        ["alpha", "--hilbert", "1,3,4,5,3"],
    ],
)
def test_cli_max_nodes_bounds_every_oracle_route(query):
    rc, _, err = run_cli("--node-ceiling", "5", "count", *query, "--oracle")
    assert rc == 1
    assert json.loads(err.strip())["error"] == "resource-ceiling"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_node_ceiling_is_one_per_command(workers):
    # the searches and hydral closed forms behind y(5, 12) cost 66 nodes together
    argv = ("--workers", workers, "--node-ceiling")
    rc, _, err = run_cli(*argv, "65", "count", "y", "--k", "5", "--d", "12")
    assert rc == 1
    assert json.loads(err.strip())["error"] == "resource-ceiling"
    rc, out, err = run_cli(*argv, "66", "count", "y", "--k", "5", "--d", "12")
    assert (rc, out.strip()) == (0, "23860"), err


def test_cli_node_ceiling_bounds_count_hydral(capsys):
    # the closed form is charged one node per partition of n before it
    # enumerates them: p(40) = 37338 nodes fail at once, p(5) = 7 pass
    assert main(["--node-ceiling", "10", "count", "hydral", "--n", "40", "--m", "14"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err.strip())["error"] == "resource-ceiling"
    assert main(["--node-ceiling", "6", "count", "hydral", "--n", "5", "--m", "4"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "resource-ceiling"
    assert main(["--node-ceiling", "7", "count", "hydral", "--n", "5", "--m", "4"]) == 0
    assert capsys.readouterr().out.strip() == "435"


def test_cli_node_ceiling_bounds_series_hydral(capsys):
    # charged p(n) nodes before the term loop, as count hydral is: p(8) = 22
    # nodes fail at once under a ceiling of 10, p(3) = 3 pass at exactly 3
    assert main(["--node-ceiling", "10", "series", "hydral", "--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err.strip())["error"] == "resource-ceiling"
    assert main(["--node-ceiling", "2", "series", "hydral", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "resource-ceiling"
    assert main(["--node-ceiling", "3", "series", "hydral", "--n", "3"]) == 0
    assert capsys.readouterr().out.startswith("hydral[n=3] = t*(1 + 8*t")


def test_cli_stops_quietly_on_a_closed_pipe(monkeypatch, tmp_path, capsys):
    # a reader that closed the pipe gets no JSON error: exit 1, nothing on
    # stderr, and stdout's descriptor now points at devnull
    with open(tmp_path / "stdout", "w") as target:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["series", "Y", "--e", "2"]) == 1
        stat = os.fstat(target.fileno())
    assert capsys.readouterr().err == ""
    devnull = Path(os.devnull).stat()
    assert (stat.st_dev, stat.st_ino) == (devnull.st_dev, devnull.st_ino)


@pytest.mark.parametrize("flag", ["--oracle", "--verify"])
def test_cli_c_zero_type(flag):
    # c(0, 0) counts the origin-only partition on the oracle route too
    rc, out, err = run_cli("count", "c", "--k", "0", "--e", "0", flag)
    assert (rc, out.strip()) == (0, "1"), err


def test_cli_cache_conflict_is_integrity(tmp_path):
    # a checksummed line that disagrees with the live count
    CacheStore(tmp_path).put("Y", (2, 9), 27, "test")
    rc, _, err = run_cli(
        "--cache-dir", str(tmp_path), "count", "y", "--k", "2", "--d", "9", "--verify"
    )
    assert rc == 1
    assert json.loads(err.strip())["error"] == "integrity"


@pytest.mark.parametrize("flag", ["--oracle", "--verify"])
def test_cli_refined_alpha_oracle(flag):
    # a length or profile query is checked against the oracle count of the same refinement
    rc, out, _ = run_cli("count", "alpha", "--k", "3", "--q", "4", "--m", "8", "--length", "4", flag)
    assert rc == 0 and out.strip() == "216"
    rc, out, _ = run_cli("count", "alpha", "--hilbert", "1,3,4,5,3", flag)
    assert rc == 0 and out.strip() == "180"


@pytest.mark.parametrize("query", [["--k", "0", "--q", "0", "--m", "0"], ["--hilbert", "1"]])
def test_cli_zero_type_verifies(query):
    # both routes count the origin-only partition of the zero type once
    rc, out, err = run_cli("count", "alpha", *query, "--verify")
    assert (rc, out.strip()) == (0, "1"), err


def test_cli_hydral_zero_type(tmp_path):
    # hydral(0, 0) is the zero type: one origin-only partition, as in alpha(0, 0, 0)
    rc, out, err = run_cli("count", "hydral", "--n", "0", "--m", "0", "--verify")
    assert (rc, out.strip()) == (0, "1"), err
    cache = ("--cache-dir", str(tmp_path), "count")
    run_cli(*cache, "hydral", "--n", "0", "--m", "0")
    rc, out, err = run_cli(*cache, "alpha", "--k", "0", "--q", "0", "--m", "0")
    assert (rc, out.strip()) == (0, "1"), err


def test_cli_series_outputs():
    rc, out, _ = run_cli("series", "hydral", "--n", "2")
    assert rc == 0
    assert "t*(2 + t + t^2) / ((1 - t)*(1 - t^2))" in out
    rc, out, _ = run_cli("series", "Y", "--e", "1")
    assert "1 / ((1 - t)^3)" in out
    rc, out, _ = run_cli("series", "C", "--x", "0")
    assert "(1) / (1 - 2*t)^(3/2)" in out
    rc, out, _ = run_cli("series", "H", "--d", "7", "--expand", "4")
    assert rc == 0 and "(1 - t)^7" in out


def test_cli_series_output_stable_across_runs():
    a = run_cli("series", "hydral", "--n", "3")
    b = run_cli("series", "hydral", "--n", "3")
    assert a == b


def test_cli_series_golden_seeds_x6():
    rc, out, _ = run_cli("series", "C", "--x", "6", "--golden-seeds")
    assert rc == 0
    (num_text,), _ = load_golden_c6()
    assert num_text in out


def test_cli_series_golden_seeds_x6_checks_numerator(monkeypatch, capsys):
    # the ten shipped values fit the degree bound exactly, so only the shipped
    # numerator can catch a wrong one
    (num_text,), diag = load_golden_c6()
    diag[5] += 1
    monkeypatch.setattr(cache_mod, "load_golden_c6", lambda: ([num_text], diag))
    assert main(["series", "C", "--x", "6", "--golden-seeds"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "integrity"


def test_cli_series_c_pipeline_diagonal():
    rc, out, _ = run_cli("series", "C", "--x", "2")
    assert rc == 0
    assert "(3 + 19*t + 3*t^2 - t^3) / (1 - 2*t)^(9/2)" in out


def test_cli_conjecture_exit_codes():
    rc, out, _ = run_cli("conjecture", "epsilon", "--m", "6")
    assert rc == 0 and "verdict: holds" in out
    rc, out, _ = run_cli("conjecture", "andrews", "--k", "1", "--order", "50")
    assert rc == 0 and "verdict: holds" in out
    rc, out, _ = run_cli("conjecture", "andrews", "--k", "2", "--order", "10")
    assert rc == 3  # inconclusive: not enough coefficients at this order
    rc, out, _ = run_cli(
        "conjecture", "sparsity", "--dmax", "6", "--bound", "100000"
    )
    assert rc == 0
    machine = json.loads(out.strip().splitlines()[-1])
    assert machine["verdict"] == "holds"


def test_cli_cache_write_and_reuse(tmp_path):
    # each record is written by one process and read back by the next, so
    # nothing the first one wrote is lost when it exits
    for query, kind, index, value in [
        (("y", "--k", "2", "--d", "9"), "Y", (2, 9), 28),
        (("p", "--n", "4", "--d", "8"), "P", (4, 8), 684),
    ]:
        args = ("--cache-dir", str(tmp_path), "count", *query)
        rc, out, _ = run_cli(*args)
        assert rc == 0 and out.strip() == str(value)
        store = CacheStore(tmp_path)
        assert store.get(kind, index).value == value and store.skipped == 0
        written = store.path.read_text()
        rc2, out2, _ = run_cli(*args)  # second run served from cache
        assert rc2 == 0 and out2.strip() == str(value)
        assert store.path.read_text() == written


def test_cli_survives_corrupt_cache(tmp_path):
    store = CacheStore(tmp_path)
    store.put("Y", (2, 9), 28, "test")
    store.put("Y", (2, 5), 5, "test")
    lines = store.path.read_text().splitlines()
    lines[1] = lines[1].replace("\t5\t", "\t6\t")
    store.path.write_text("\n".join(lines) + "\nY\t3,7")
    before = store.path.read_text()
    rc, out, err = run_cli("--cache-dir", str(tmp_path), "count", "y", "--k", "2", "--d", "9")
    assert (rc, out.strip()) == (0, "28"), err
    assert store.path.read_text() == before  # a hit: nothing recomputed or appended
    rc, out, err = run_cli("--cache-dir", str(tmp_path), "count", "y", "--k", "2", "--d", "5")
    assert (rc, out.strip()) == (0, "5"), err
    reloaded = CacheStore(tmp_path)
    assert reloaded.get("Y", (2, 5)).value == 5
    assert reloaded.skipped == 2


def test_cli_checkpointed_alpha(tmp_path):
    rc, out, _ = run_cli(
        "count", "alpha", "--k", "3", "--q", "5", "--m", "4",
        "--checkpoint-dir", str(tmp_path),
    )
    assert rc == 0
    assert out.strip() == str(alpha_count(3, 5, 4))


def test_cli_checkpointed_hilbert(tmp_path):
    profile = (1, 3, 5, 7, 6)
    rc, out, err = run_cli(
        "count", "alpha", "--hilbert", ",".join(map(str, profile)),
        "--checkpoint-dir", str(tmp_path),
    )
    assert (rc, out.strip()) == (0, str(alpha_by_hilbert(profile))), err
    (path,) = tmp_path.glob("alpha-*")
    before = path.read_bytes()
    # a length-refined run under the same cap resumes the same log
    assert _checkpointed(tmp_path, 3, 5, 13, 4) == alpha_count(3, 5, 13, length=4)
    assert path.read_bytes() == before
    assert CheckpointedAlphaRun(tmp_path, 4).path == path
    assert CheckpointedAlphaRun(tmp_path) == {}  # another cap, another log


@pytest.mark.parametrize(
    "argv",
    [
        ["--cache-dir", "{f}", "count", "y", "--k", "2", "--d", "5"],
        ["count", "alpha", "--k", "3", "--q", "4", "--m", "5", "--checkpoint-dir", "{f}"],
    ],
    ids=["cache-dir", "checkpoint-dir"],
)
def test_cli_directory_that_is_a_file_is_io_error(tmp_path, argv):
    taken = tmp_path / "f"
    taken.touch()
    rc, out, err = run_cli(*(a.format(f=taken) for a in argv))
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == "io"  # one JSON object, no traceback
