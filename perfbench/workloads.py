"""Job lists of the benchmark workloads.

Every workload is a fixed list of jobs. The seed only permutes the order; the
job set, the expected answers and the work done are the same under any seed.
Jobs of the in-process workloads return a value already in the JSON form that
`expected.json` stores, so the answer gate compares plain data.
"""

from __future__ import annotations

import random

IN_PROCESS = ("frontier", "search", "series")
WORKLOADS = IN_PROCESS + ("cli",)

# the README CLI block, then the commands that reach the oracle, --verify,
# checkpoints and the process pool; {cache} and {ckpt} are per-rep temp dirs
CLI_COMMANDS = (
    "count p --n 3 --d 5",
    "count alpha --k 3 --q 5 --m 13",
    "count alpha --k 3 --q 5 --m 13 --length 4",
    "count c --k 2 --e 3 --verify",
    "count p --n 4 --d 6 --oracle",
    "series H --d 7 --expand 10",
    "series Y --e 1",
    "series C --x 0",
    "series C --x 6 --golden-seeds",
    "series hydral --n 2",
    "series phi --n 3 --order 12",
    "series psi --parts 2,1 --order 12",
    "series pi --n 4 --order 8",
    "conjecture andrews --k 1 --order 50",
    "conjecture epsilon --m 6",
    "conjecture sparsity --dmax 8 --bound 1000000",
    "count p --n 5 --d 12 --oracle",
    "count y --k 3 --d 9 --verify",
    "count alpha --k 3 --q 4 --m 8 --verify",
    "count alpha --k 3 --q 4 --m 13 --checkpoint-dir {ckpt}",
    "--workers 2 count p --n 4 --d 11 --oracle",
)


def cli_argv(command: str, cache_dir: str, ckpt_dir: str) -> list[str]:
    """Global flags first, as a user would type them."""
    words = command.format(ckpt=ckpt_dir).split()
    if words[0] == "--workers":
        return words[:2] + ["--cache-dir", cache_dir] + words[2:]
    return ["--cache-dir", cache_dir] + words


def permuted(items, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def _report(report) -> dict:
    return {"verdict": report.verdict, "exit": report.exit_code()}


def frontier_jobs():
    """The full row y(k,15), then p(n,15) for n=4..8, from one cold Resolver."""
    from hdpart.refine import Resolver

    resolver = Resolver()
    jobs = [(f"y({k},15)", lambda k=k: resolver.y(k, 15)) for k in range(15)]
    jobs += [(f"p({n},15)", lambda n=n: resolver.p(n, 15)) for n in range(4, 9)]
    return jobs


def search_jobs():
    from hdpart import mpart

    jobs = [
        ("alpha(3,5,13)", lambda: mpart.alpha_count(3, 5, 13)),
        ("alpha(3,5,13|length=4)", lambda: mpart.alpha_count(3, 5, 13, length=4)),
        ("alpha_by_hilbert(1,3,5,7,6)", lambda: mpart.alpha_by_hilbert((1, 3, 5, 7, 6))),
        ("alpha_by_hilbert(1,3,5,6,7)", lambda: mpart.alpha_by_hilbert((1, 3, 5, 6, 7))),
        ("alpha_targeted(3,5,11)", lambda: mpart.alpha_targeted(3, 5, 11)),
    ]
    jobs += [(f"alpha(3,4,{m})", lambda m=m: mpart.alpha_count(3, 4, m)) for m in range(1, 14)]
    return jobs


def series_jobs():
    from hdpart import hydral, macmahon
    from hdpart.refine import Resolver
    from hdpart.series import series_of

    def rationality(k, order):
        report = macmahon.check_refined_rationality(k, order)
        return {**_report(report), "numerator": report.evidence.get("numerator")}

    def divisibility():
        report = macmahon.check_exponent_divisibility(12, Resolver())
        return {**_report(report), "quotient": report.evidence.get("quotient")}

    def collisions():
        report = macmahon.search_value_collisions(12, 10**9, Resolver())
        return {
            **_report(report),
            "collision_count": report.evidence["collision_count"],
            "values": [c["value"] for c in report.evidence["collisions"]],
        }

    def hydral6():
        # compared through its expansion, which does not depend on how the
        # rational function is normalised
        rf = hydral.hydral_series(6)
        return [str(c) for c in series_of(rf, 20).coeffs]

    return [
        ("check_refined_rationality(2,80)", lambda: rationality(2, 80)),
        ("check_refined_rationality(1,50)", lambda: rationality(1, 50)),
        ("check_exponent_divisibility(12)", divisibility),
        ("search_value_collisions(12,10**9)", collisions),
        ("hydral_series(6)", hydral6),
    ]


JOBS = {"frontier": frontier_jobs, "search": search_jobs, "series": series_jobs}
