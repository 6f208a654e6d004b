"""One rep of an in-process workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py --workload frontier --seed 1 --out rep.json [--trace]

Set-up is `import hdpart.cli` (which loads every module) plus the golden-data
load; the monotonic clock reading taken when set-up ends goes into the output
file, so the parent can time set-up from the moment it spawned this process.
The jobs then run one after another, each timed, and the outputs, timings,
peak resident set and the speedometer's samples of set-up and of the jobs are
written to --out as JSON.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import speedometer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="append spans here (traced reps)")
    args = parser.parse_args()

    speedometer.start()
    t0 = time.perf_counter()
    import hdpart.cli  # noqa: F401
    from hdpart import cache

    import_s = time.perf_counter() - t0
    if not hdpart.cli.__file__.startswith(os.environ["PERFBENCH_SRC"]):
        raise SystemExit(f"hdpart imported from {hdpart.cli.__file__}, not the checkout")
    cache.load_golden_records()
    cache.load_golden_c6()
    cache.load_golden_collisions()
    ready = time.monotonic()
    setup_mark = len(speedometer.samples)
    out = {"ready": ready, "import_s": import_s}

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.permuted(workloads.JOBS[args.workload](), args.seed)
    results = []
    jobs_mark = len(speedometer.samples)
    start = time.perf_counter()
    for name, call in jobs:
        if tracer is not None:
            tracer.run_id = f"{args.workload}/{name}"
        t = time.perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # recorded as a failed job, never hidden
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"job": name, "elapsed_s": time.perf_counter() - t,
                        "value": value, "error": error})
    out["wall_s"] = time.perf_counter() - start
    speedometer.stop()
    out["setup_units"] = speedometer.samples[:setup_mark]
    out["job_units"] = speedometer.samples[jobs_mark:]
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["jobs"] = results
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.dump_spans(args.spans)
    _write(args.out, out)
    return 0


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    raise SystemExit(main())
