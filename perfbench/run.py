"""The hdpart benchmark: one command, four workloads, every answer checked.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/` of that checkout. Load is closed-loop: one client runs the workload's
fixed job list, job after job, and every rep of the list runs in a fresh
interpreter, because each `hdpart` invocation pays its own cold caches. The
number of reps follows from --seconds and the workload alone (REP_S), never
from how fast the code under test runs. The seed only permutes the job order.
Every time reported is at a fixed reference CPU speed: each child samples how
fast the shared host's CPU runs Python while it works (perfbench/speedometer.py)
and its times are scaled by that speed; the raw times go to the report.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates untraced and traced reps, half of each, and prints the per-module
metrics of the traced reps, measured by wrapping the modules' entry points
from outside (perfbench/tracer.py), plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. A full report
goes to .perfbench_out/ and the traced spans to .perfbench_out/*.spans.jsonl.gz.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from speedometer import scale  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # every run ends well inside three minutes
# nominal seconds of one rep on the 2-core host the baselines come from; a run
# makes --seconds // REP_S reps, so both sides of a comparison take as many
# samples however fast each runs
REP_S = {"frontier": 13.0, "search": 7.0, "series": 9.0, "cli": 18.0}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer): no result is printed."""


# --- processes ----------------------------------------------------------------


class Spawner:
    """Starts each child in its own session, kills the session when the child
    is done, and enforces the run's deadline."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline reached")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child exceeded the run deadline: {argv[1:4]}") from None
        finally:
            _kill_group(proc.pid)
            proc.wait()
        ended = time.monotonic()
        return spawned, ended, subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _kill_group(pgid: int):
    """Stop stragglers of a child's session, e.g. orphaned pool workers."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HDPART_"))}
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
        PERFBENCH_SRC=str(SRC),
    )
    return env


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- reps ------------------------------------------------------------------------


def in_process_rep(sp: Spawner, work: Path, name: str, seed: int, traced: bool,
                   spans: Path) -> dict:
    out = work / "rep.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--out", str(out)]
    if traced:
        argv += ["--trace", "--spans", str(spans)]
    spawned, _, proc = sp.run(argv)
    if proc.returncode != 0:
        raise BenchError(f"{name} worker failed:\n{proc.stderr[-2000:]}")
    data = _read_json(out)
    units = data["job_units"]
    work = data["wall_s"] - sum(units)
    return {
        "wall_s": scale(work, units),
        "raw_wall_s": work,
        "speed": scale(1.0, units),
        "setup_s": [scale(data["ready"] - spawned, data["setup_units"])],
        "rss_mb": data["rss_kb"] / 1024,
        "import_s": [scale(data["import_s"], data["setup_units"])],
        "jobs": [(j["job"], j["elapsed_s"], j["value"], j["error"]) for j in data["jobs"]],
        "raw": data.get("trace"),
    }


def cli_rep(sp: Spawner, work: Path, seed: int, traced: bool, spans: Path) -> dict:
    """Both passes of the CLI command list against fresh cache and checkpoint dirs.

    A command's job time runs from the end of its set-up (`hdpart.cli`
    imported, as the child reports) to its exit; the set-up before it counts in
    `setup_s` only. A pass's time is the sum of its job times, scaled by the
    speed samples of all its commands pooled, since a short command takes
    few. A command's latency, for `cmd_p75_s`, runs from spawn to exit and is
    scaled by that command's own samples.
    """
    rep_dir = work / "cli-rep"
    cache_dir, ckpt_dir = rep_dir / "cache", rep_dir / "ckpt"
    out = work / "cmd.json"
    rep = {"wall_s": 0.0, "raw_wall_s": 0.0, "setup_s": [], "import_s": [], "latency_s": [],
           "jobs": [], "rss_mb": 0.0, "raw_passes": []}
    rep_units = []
    for pass_no in (1, 2):
        raw_pass: dict = {}
        pass_units, pass_work = [], 0.0
        for command in workloads.permuted(workloads.CLI_COMMANDS, seed * 2 + pass_no):
            argv = [sys.executable, str(HERE / "cli_command.py"), "--out", str(out)]
            if traced:
                argv += ["--trace", "--spans", str(spans),
                         "--run-id", f"cli/pass{pass_no}/{command}"]
            argv += ["--"] + workloads.cli_argv(command, str(cache_dir), str(ckpt_dir))
            spawned, ended, proc = sp.run(argv)
            try:
                data = _read_json(out)
                out.unlink()
            except FileNotFoundError:
                raise BenchError(f"cli_command.py wrote nothing for {command!r}:\n{proc.stderr[-2000:]}")
            setup_units, job_units = data["setup_units"], data["job_units"]
            rep["latency_s"].append(scale(ended - spawned, setup_units + job_units))
            rep["setup_s"].append(scale(data["ready"] - spawned, setup_units))
            rep["import_s"].append(scale(data["import_s"], setup_units))
            pass_units += job_units
            pass_work += ended - data["ready"] - sum(job_units)
            rep["rss_mb"] = max(rep["rss_mb"], data["rss_kb"] / 1024)
            value = {"exit": proc.returncode, "stdout": proc.stdout}
            error = f"exit {proc.returncode}: {proc.stderr[-500:]}" if proc.returncode else None
            rep["jobs"].append((f"pass{pass_no} {command}", ended - data["ready"], value, error))
            if traced:
                _add(raw_pass, data["trace"])
        wall = scale(pass_work, pass_units)
        rep["wall_s"] += wall
        rep["raw_wall_s"] += pass_work
        rep_units += pass_units
        rep["raw_passes"].append(raw_pass)
        if pass_no == 2:
            rep["warm_pass_s"] = wall
    rep["speed"] = scale(1.0, rep_units)
    if traced:
        raw: dict = {}
        for raw_pass in rep["raw_passes"]:
            _add(raw, raw_pass)
        rep["raw"] = raw
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def _add(total: dict, part: dict):
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


# --- checking ----------------------------------------------------------------------


def check_jobs(name: str, rep: dict, expected: dict) -> list[str]:
    """Every job's output must equal the stored answer exactly; one message
    per failed job."""
    failures = []
    want_all = expected[name]
    for job, _, value, error in rep["jobs"]:
        want = want_all.get(job.split(" ", 1)[1] if name == "cli" else job)
        if error is not None:
            failures.append(f"{job}: raised {error}")
        elif want is None:
            failures.append(f"{job}: no expected answer stored")
        elif value != want:
            failures.append(f"{job}: got {str(value)[:200]!r}, expected {str(want)[:200]!r}")
    return failures


# --- metrics -------------------------------------------------------------------------


def per_layer(rep: dict, units: dict) -> dict:
    """The traced rep's per-module metrics, times at the reference speed."""
    metrics = tracer.derive(rep["raw"])
    for key, value in metrics.items():
        if units.get(key) == "s":
            metrics[key] = value * rep["speed"]
        elif units.get(key) == "1/s":
            metrics[key] = value / rep["speed"]
    metrics["cli.import_s"] = statistics.median(rep["import_s"])
    hits = [p.get("cache.hits", 0) for p in rep.get("raw_passes", [])] or [0, 0]
    metrics["cache.pass1_hits"], metrics["cache.pass2_hits"] = hits
    return metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hdpart").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.monotonic()
    # a terminated run still stops its children (Spawner.run) and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "hdpart" / "__init__.py").is_file():
        print(f"error: no hdpart sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = _read_json(ROOT / "BENCHMARK.json")
    expected = _read_json(HERE / "expected.json")
    prov = _provenance()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out_dir / f"{tag}.spans.jsonl.gz"  # spans of the last traced rep
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    sp = Spawner(_child_env(work), t_start + DEADLINE_S)
    name = args.workload
    untraced, traced = [], []
    reps_wanted = max(1, int(args.seconds // REP_S[name]))
    if args.trace:
        reps_wanted = max(2, reps_wanted - reps_wanted % 2)

    def one_rep(with_trace: bool) -> dict:
        if with_trace:
            spans.unlink(missing_ok=True)
        if name == "cli":
            return cli_rep(sp, work, args.seed, with_trace, spans)
        return in_process_rep(sp, work, name, args.seed, with_trace, spans)

    try:
        for i in range(reps_wanted):
            with_trace = bool(args.trace) and i % 2 == 1
            (traced if with_trace else untraced).append(one_rep(with_trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    reps = untraced + traced
    failures = [f for rep in reps for f in check_jobs(name, rep, expected)]
    attempted = sum(len(rep["jobs"]) for rep in reps)
    failed = len(failures)

    raw_walls = [r["raw_wall_s"] for r in untraced]
    e2e = {
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "setup_s": _median([s for r in untraced for s in r["setup_s"]]),
        "peak_rss_mb": _median([r["rss_mb"] for r in untraced]),
        "error_rate": failed / attempted,
    }
    e2e_detail = {
        "wall_s": f"median of {len(untraced)} reps at the reference speed; raw rep walls"
                  f" median {_median(raw_walls):.3f} min {min(raw_walls):.3f} max {max(raw_walls):.3f}",
        "setup_s": f"median of {sum(len(r['setup_s']) for r in untraced)} set-ups",
        "peak_rss_mb": "median over reps of the peak of the working processes",
        "error_rate": f"{failed} of {attempted} jobs",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_rate="ratio", cmd_p75_s="s", warm_pass_s="s")
    if name == "cli":
        lat = [x for r in untraced for x in r["latency_s"]]
        e2e["cmd_p75_s"] = statistics.quantiles(lat, n=4)[2]
        e2e["warm_pass_s"] = _median([r["warm_pass_s"] for r in untraced])
        e2e_detail["cmd_p75_s"] = f"{len(lat)} command latencies, median {_median(lat):.3f} s"
        e2e_detail["warm_pass_s"] = "median over reps of pass 2, set-up excluded"

    layer = {}
    notes = []
    if args.trace:
        # times and rates are medians over traced reps, as for wall_s; counts must repeat
        per_rep = [per_layer(rep, units) for rep in traced]
        for key in per_rep[0]:
            values = [m[key] for m in per_rep]
            if units.get(key) in ("s", "1/s"):
                layer[key] = _median(values)
            else:
                if len(set(values)) > 1:
                    failures.append(f"{key} differs between traced reps: {values}")
                layer[key] = values[0]
        layer["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"]
        if name == "cli":
            notes.append("--workers 2 command: only the parent process's spans are reported")
        notes.append("mpart.orbit_candidates is computed as sum C(k(k+1)/2, q) over cold orbit_reps calls")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# hdpart benchmark: workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} reps={len(untraced)} untraced, {len(traced)} traced")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print("# load: closed loop, 1 client, fresh interpreter per rep"
          + (", per command" if name == "cli" else ""))
    for key, value in e2e.items():
        print(f"{name}.{key:<14} {value:>14.6f} {units[key]:<6} ({e2e_detail[key]})")
    for key in sorted(layer):
        print(f"{name}.{key:<36} {layer[key]:>16.6f} {units.get(key, '')}")
    for note in notes:
        print(f"# note: {note}")
    for failure in failures:
        print(f"# FAIL {failure}")

    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "end_to_end": e2e, "per_layer": layer, "notes": notes,
        "failures": failures,
        "job_median_s": {
            job: _median([t for r in untraced for j, t, _, _ in r["jobs"] if j == job])
            for job, _, _, _ in untraced[0]["jobs"]
        },
        "reps": [{k: v for k, v in r.items() if k not in ("jobs", "raw", "raw_passes")}
                 for r in reps],
    }
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
