"""Persistence format, checkpoint resume, and the command-line surface."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hdpart import cache as cache_mod
from hdpart.cache import (
    CacheRecord,
    CacheStore,
    CheckpointedAlphaRun,
    load_golden_c6,
    load_golden_collisions,
    load_golden_records,
)
from hdpart.cli import main
from hdpart.mpart import SEARCH_FORMAT_VERSION, alpha_count
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


def test_checkpoint_resume_identical(tmp_path):
    k, q, m = 3, 4, 5
    fresh = alpha_count(k, q, m)
    # run to completion one task at a time, reloading from disk between tasks
    total = None
    for _ in range(50):
        run = CheckpointedAlphaRun(tmp_path, k, q, m)
        total = run.run(task_limit=1)
        if total is not None:
            break
    assert total == fresh
    # a later resume sees the completed state immediately
    resumed = CheckpointedAlphaRun(tmp_path, k, q, m)
    assert resumed.pending == []
    assert resumed.total() == fresh


def test_checkpoint_ignores_other_search_version(tmp_path):
    k, q, m = 3, 4, 5
    run = CheckpointedAlphaRun(tmp_path, k, q, m)
    run.run(task_limit=1)
    data = json.loads(run.path.read_text())
    data["tables"]["0"] = {"5": 10**6}  # a table that would change the total
    data["version"] += 1
    run.path.write_text(json.dumps(data))
    stale = CheckpointedAlphaRun(tmp_path, k, q, m)
    assert stale.completed == {}
    assert stale.run() == alpha_count(k, q, m)
    data["version"] -= 1
    data["query"]["m"] = 6
    for text in (json.dumps(data), "[1]", '{"tables": '):
        run.path.write_text(text)
        assert CheckpointedAlphaRun(tmp_path, k, q, m).completed == {}


@pytest.mark.parametrize("table", [{"x|3|": 5}, {"zero": 5}, [5], {"1,2": "5"}])
def test_checkpoint_with_malformed_table_is_recomputed(tmp_path, table):
    k, q, m = 3, 4, 5
    run = CheckpointedAlphaRun(tmp_path, k, q, m)
    data = {"version": SEARCH_FORMAT_VERSION, "query": run.query, "tables": {"0": table}}
    run.path.write_text(json.dumps(data))
    stale = CheckpointedAlphaRun(tmp_path, k, q, m)
    assert stale.completed == {}
    assert stale.run() == alpha_count(k, q, m)


def test_checkpoint_partial_state_is_persisted(tmp_path):
    run = CheckpointedAlphaRun(tmp_path, 3, 4, 4)
    assert run.run(task_limit=1) is None or len(run.reps) <= 1
    again = CheckpointedAlphaRun(tmp_path, 3, 4, 4)
    assert len(again.completed) >= 1


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
    # -S: no site-packages .pth file may import these first and hide an import by hdpart
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import hdpart.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    # the searches behind y(5, 12) walk 44 nodes together
    argv = ("--workers", workers, "--node-ceiling")
    rc, _, err = run_cli(*argv, "43", "count", "y", "--k", "5", "--d", "12")
    assert rc == 1
    assert json.loads(err.strip())["error"] == "resource-ceiling"
    rc, out, err = run_cli(*argv, "44", "count", "y", "--k", "5", "--d", "12")
    assert (rc, out.strip()) == (0, "23860"), err


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
