"""Command-line surface: exact counts, rendered generating functions, and
conjecture checkers.

Exit codes: 0 ok, 1 error, 2 a checked conjecture fails, 3 inconclusive.
Errors print a single machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import cache as cache_mod
from . import hydral, macmahon, mpart
from .lattice import ResourceCeilingError
from .refine import IntegrityError, Resolver, c_degree_bound, c_diagonal_series, y_diagonal_series
from .series import (
    NumeratorFitError,
    RationalFunction,
    format_factored_rational,
    format_polynomial,
    one_minus_t_power,
    parse_polynomial,
    series_of,
)
from .socle import MissingDataError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3


def _fail(kind: str, **payload) -> int:
    print(json.dumps({"error": kind, **payload}, sort_keys=True), file=sys.stderr)
    return EXIT_ERROR


def _cache_store(args) -> cache_mod.CacheStore | None:
    directory = None
    if getattr(args, "cache_dir", None):
        directory = Path(args.cache_dir)
    else:
        directory = cache_mod.default_cache_dir()
    return cache_mod.CacheStore(directory) if directory else None


def _golden_lookup(kind: str, index: tuple[int, ...]) -> int | None:
    for record in cache_mod.load_golden_records():
        if record.kind == kind and record.index == index:
            return record.value
    return None


# --- count -----------------------------------------------------------------------


def _alpha_query(args) -> mpart.AlphaQuery:
    if args.table == "hydral":
        return mpart.AlphaQuery(args.n, args.n, args.m)
    if args.hilbert:
        return mpart.AlphaQuery.from_profile(int(x) for x in args.hilbert.split(","))
    return mpart.AlphaQuery(args.k, args.q, args.m, length=args.length)


def _count_value(args, resolver: Resolver, oracle: bool) -> int:
    """The requested count, from the pipeline or from the brute-force oracle."""
    if args.table == "p":
        return resolver.p_oracle(args.n, args.d) if oracle else resolver.p(args.n, args.d)
    if args.table == "y":
        return resolver.y_oracle(args.k, args.d) if oracle else resolver.y(args.k, args.d)
    if args.table == "c":
        return resolver.c_oracle(args.k, args.e) if oracle else resolver.c(args.k, args.e)
    query = _alpha_query(args)
    if oracle:
        return resolver.alpha_oracle(query)
    if args.table == "hydral":
        trivial = query.trivial_count()
        return hydral.hydral_count(args.n, args.m) if trivial is None else trivial
    log = None
    if args.checkpoint_dir:
        log = cache_mod.CheckpointedAlphaRun(Path(args.checkpoint_dir), query.length)
    return mpart.alpha(
        query, workers=args.workers, node_ceiling=args.node_ceiling, components=log
    )


def cmd_count(args) -> int:
    resolver = Resolver(workers=args.workers, node_ceiling=args.node_ceiling)
    store = _cache_store(args)
    kind_index = {
        "p": ("P", lambda: (args.n, args.d)),
        "y": ("Y", lambda: (args.k, args.d)),
        "c": ("C", lambda: (args.k, args.e)),
        "alpha": ("ALPHA", lambda: (args.k, args.q, args.m)),
        "hydral": ("ALPHA", lambda: (args.n, args.n, args.m)),
    }
    kind, index_of = kind_index[args.table]
    index = index_of()
    simple_query = args.table != "alpha" or (not args.hilbert and args.length is None)
    if simple_query and not args.oracle and not args.verify:
        seeded = _golden_lookup(kind, index)
        if seeded is None and store is not None:
            hit = store.get(kind, index)
            seeded = hit.value if hit else None
        if seeded is not None:
            print(seeded)
            return EXIT_OK
    value = _count_value(args, resolver, args.oracle)
    if args.verify:
        twin = _count_value(args, resolver, True)
        if twin != value:
            return _fail("verification-mismatch", pipeline=str(value), oracle=str(twin))
    if store is not None and simple_query and not args.oracle:
        store.put(kind, index, value, "cli")
    print(value)
    return EXIT_OK


# --- series ----------------------------------------------------------------------


def _print_expansion(series_coeffs):
    print("coefficients:", " ".join(str(c) for c in series_coeffs))


def cmd_series(args) -> int:
    resolver = Resolver(workers=args.workers, node_ceiling=args.node_ceiling)
    if args.family == "H":
        num = resolver.size_numerator(args.d)
        print(f"H[d={args.d}] = ({format_polynomial(num)}) / (1 - t)^{args.d}")
        if args.expand:
            _print_expansion(resolver.size_series(args.d, args.expand - 1).coeffs)
        return EXIT_OK
    if args.family == "Y":
        rf = y_diagonal_series(args.e, resolver.y_diagonal_seed(args.e))
        print(f"Y[e={args.e}] = {format_factored_rational(rf)}")
        if args.expand:
            _print_expansion(series_of(rf, args.expand - 1).coeffs)
        return EXIT_OK
    if args.family == "C":
        bound = c_degree_bound(args.x)
        golden = args.golden_seeds and args.x == 6
        if golden:
            (num_text,), diag = cache_mod.load_golden_c6()
        else:
            diag = resolver.c_diagonal(args.x, bound + 3 if args.x else 3)
        num, exponent = c_diagonal_series(args.x, diag)
        # the shipped diagonal has no value past the degree bound: the shipped
        # numerator is its check
        if golden and num != parse_polynomial(num_text):
            raise IntegrityError("golden x = 6 diagonal disagrees with the golden numerator")
        print(f"C[x={args.x}] = ({format_polynomial(num)}) / (1 - 2*t)^({exponent})")
        if args.expand:
            from .series import HalfPower, expand_half_power

            _print_expansion(
                expand_half_power(HalfPower(-exponent), args.expand - 1, num).coeffs
            )
        return EXIT_OK
    if args.family == "hydral":
        rf = hydral.hydral_series(args.n, order=args.expand - 1 if args.expand else 8)
        print(f"hydral[n={args.n}] = {format_factored_rational(rf)}")
        if args.expand:
            _print_expansion(series_of(rf, args.expand - 1).coeffs)
        return EXIT_OK
    if args.family == "phi":
        series = hydral.head_block_series(args.n, args.order)
        closed = hydral.head_block_closed(args.n)
        print(f"phi[n={args.n}] = {format_factored_rational(closed)}")
        _print_expansion(series.coeffs)
        return EXIT_OK
    if args.family == "psi":
        parts = tuple(int(x) for x in args.parts.split(","))
        series = hydral.profile_series_from_weights(parts, args.order)
        rf = RationalFunction(one_minus_t_power(0))
        for p in parts:
            rf = rf * hydral.head_block_closed(p)
        print(f"psi[{args.parts}] = {format_factored_rational(rf)}")
        _print_expansion(series.coeffs)
        return EXIT_OK
    if args.family == "pi":
        series = macmahon.product_series(args.n, args.order)
        print(f"pi[n={args.n}] up to order {args.order}")
        _print_expansion(int(c) for c in series.coeffs)
        return EXIT_OK
    raise ValueError(args.family)


# --- conjecture -------------------------------------------------------------------


def cmd_conjecture(args) -> int:
    resolver = Resolver(workers=args.workers, node_ceiling=args.node_ceiling)
    if args.which == "andrews":
        report = macmahon.check_refined_rationality(args.k, args.order)
    elif args.which == "epsilon":
        report = macmahon.check_exponent_divisibility(
            args.m, resolver, extra_points=args.extra_points
        )
    elif args.which == "sparsity":
        report = macmahon.search_value_collisions(
            args.dmax, args.bound, resolver, low_dim_extension=not args.no_low_dim
        )
    else:
        raise ValueError(args.which)
    print(f"conjecture: {report.conjecture}")
    print(f"range: {report.range_descriptor}")
    print(f"verdict: {report.verdict}")
    machine = {
        "conjecture": report.conjecture,
        "range": report.range_descriptor,
        "verdict": report.verdict,
        "evidence": report.evidence,
        "witness": report.witness,
    }
    print(json.dumps(machine, sort_keys=True, default=str))
    return report.exit_code()


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpart",
        description="Exact enumeration of higher-dimensional partitions and "
        "their refined generating functions.",
    )
    parser.add_argument("--workers", type=int, default=1, help="parallelism degree")
    parser.add_argument(
        "--node-ceiling", type=int, default=mpart.DEFAULT_NODE_CEILING,
        help="node budget of a command's searches, and of each oracle count",
    )
    parser.add_argument("--cache-dir", default=None, help="cache directory (or $HDPART_CACHE_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one exact count")
    count.add_argument("table", choices=["p", "y", "c", "alpha", "hydral"])
    count.add_argument("--n", type=int)
    count.add_argument("--d", type=int)
    count.add_argument("--k", type=int)
    count.add_argument("--e", type=int)
    count.add_argument("--q", type=int)
    count.add_argument("--m", type=int)
    count.add_argument("--length", type=int, default=None)
    count.add_argument("--hilbert", default=None, help="comma-separated layer profile")
    count.add_argument("--oracle", action="store_true", help="brute force only")
    count.add_argument("--verify", action="store_true", help="pipeline and oracle must agree")
    count.add_argument("--checkpoint-dir", default=None)
    count.set_defaults(func=cmd_count)

    series = sub.add_parser("series", help="print a generating function")
    series.add_argument("family", choices=["H", "Y", "C", "hydral", "phi", "psi", "pi"])
    series.add_argument("--d", type=int)
    series.add_argument("--e", type=int)
    series.add_argument("--x", type=int)
    series.add_argument("--n", type=int)
    series.add_argument("--parts", default=None)
    series.add_argument("--order", type=int, default=12)
    series.add_argument("--expand", type=int, default=None, help="also print N coefficients")
    series.add_argument("--golden-seeds", action="store_true")
    series.set_defaults(func=cmd_series)

    conj = sub.add_parser("conjecture", help="run a conjecture checker")
    conj.add_argument("which", choices=["andrews", "epsilon", "sparsity"])
    conj.add_argument("--k", type=int)
    conj.add_argument("--order", type=int, default=50)
    conj.add_argument("--m", type=int)
    conj.add_argument("--extra-points", type=int, default=0)
    conj.add_argument("--dmax", type=int)
    conj.add_argument("--bound", type=int)
    conj.add_argument("--no-low-dim", action="store_true")
    conj.set_defaults(func=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    # Everything imported so far (modules, classes, functions) lives until exit.
    # Moved to the permanent generation, it is walked by no later collection,
    # neither during the command nor at interpreter shutdown. The freeze sits
    # here, not at import, so importing hdpart leaves a host's collector alone.
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCeilingError as exc:
        return _fail("resource-ceiling", detail=str(exc))
    except MissingDataError as exc:
        return _fail("missing-data", detail=str(exc))
    except NumeratorFitError as exc:
        return _fail("fit-failure", index=exc.index, value=str(exc.value))
    except IntegrityError as exc:
        return _fail("integrity", detail=str(exc))
    except (ValueError, TypeError) as exc:
        return _fail("bad-request", detail=str(exc))
    except OSError as exc:
        return _fail("io", detail=str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
