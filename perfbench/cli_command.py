"""Run one `hdpart` command the way the installed entry point does.

    python3 perfbench/cli_command.py --out cmd.json [--trace --spans FILE --run-id ID] -- <hdpart args>

Set-up ends once `hdpart.cli` is imported; that monotonic clock reading, the
import time, the peak resident set of this process and its pool workers, and
the speedometer's samples of set-up and of the command go to --out. With
--trace the span wrappers are installed before `hdpart.cli.main` runs; spans
of pool workers stay in those processes and are not reported.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import speedometer  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    out_path = opts[opts.index("--out") + 1]
    traced = "--trace" in opts

    speedometer.start()
    t0 = time.perf_counter()
    import hdpart.cli

    out = {"import_s": time.perf_counter() - t0, "ready": time.monotonic()}
    setup_mark = len(speedometer.samples)
    if not hdpart.cli.__file__.startswith(os.environ["PERFBENCH_SRC"]):
        raise SystemExit(f"hdpart imported from {hdpart.cli.__file__}, not the checkout")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.run_id = opts[opts.index("--run-id") + 1]
        tracer.install()
    try:
        code = hdpart.cli.main(command)
    finally:
        speedometer.stop()
        out["setup_units"] = speedometer.samples[:setup_mark]
        out["job_units"] = speedometer.samples[setup_mark:]
        sys.stdout.flush()
        out["rss_kb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.summary()
            tracer.dump_spans(opts[opts.index("--spans") + 1])
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
