"""Check that the benchmark's work counts repeat exactly.

    python3 perfbench/check_repeat.py

Runs every workload traced three times (seed 1 twice, then seed 2) and
compares every per-module metric whose unit is a count or a ratio
of counts. Exits 1 and names the metric if any of them differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = (1, 1, 2)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        runs = [traced_counts(workload, seed) for seed in SEEDS]
        differing = sorted(k for k in runs[0] if len({r[k] for r in runs}) > 1)
        for key in differing:
            print(f"{workload}: {key} differs: {[r[key] for r in runs]}")
        ok &= not differing
        print(f"{workload}: {len(runs[0])} counts, "
              f"{'all repeat exactly' if not differing else f'{len(differing)} differ'}"
              f" over seeds {', '.join(map(str, SEEDS))}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
