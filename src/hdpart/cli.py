"""Command-line surface: exact counts, rendered generating functions, and
conjecture checkers.

Exit codes: 0 ok, 1 error, 2 a checked conjecture fails, 3 inconclusive.
Errors print a single machine-readable JSON object on stderr; a usage error is
"bad-request" with exit 1. Arguments are read from one table of commands and
flags (`_COMMANDS`, `_GLOBAL_FLAGS`), which also gives the --help text: global
flags go before the command, a value follows its flag or joins it with "=",
the last of a repeated flag wins, and no flag is abbreviated. The table
replaces an argparse tree, which every command paid to build (README, "Cost
of one command").
"""

from __future__ import annotations

import gc
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import cache as cache_mod
from . import hydral, macmahon, mpart
from .lattice import ResourceCeilingError
from .refine import (
    IntegrityError,
    Resolver,
    c_degree_bound,
    c_diagonal_series,
    y_diagonal_series,
)
from .series import (
    ONE,
    HalfPower,
    NumeratorFitError,
    RationalFunction,
    expand_half_power,
    format_factored_rational,
    format_polynomial,
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
    directory = Path(args.cache_dir) if args.cache_dir else cache_mod.default_cache_dir()
    return cache_mod.CacheStore(directory) if directory else None


def _golden_lookup(kind: str, index: tuple[int, ...]) -> int | None:
    for record in cache_mod.load_golden_records():
        if record.kind == kind and record.index == index:
            return record.value
    return None


# --- count -----------------------------------------------------------------------


# each count choice: the kind of its count and the flags of its index
_COUNTS = {
    "p": ("P", ("n", "d")),
    "y": ("Y", ("k", "d")),
    "c": ("C", ("k", "e")),
    "alpha": ("ALPHA", ("k", "q", "m")),
    "hydral": ("ALPHA", ("n", "n", "m")),
}


def _count_index(args) -> tuple[str, tuple]:
    kind, flags = _COUNTS[args.table]
    return kind, tuple(getattr(args, flag) for flag in flags)


def _count_value(args, resolver: Resolver, oracle: bool) -> int:
    """The requested count, from the pipeline or from the brute-force oracle."""
    kind, index = _count_index(args)
    if kind != "ALPHA":
        # looked up at call time, so a wrapper set on the Resolver class runs
        return getattr(resolver, kind.lower() + ("_oracle" if oracle else ""))(*index)
    if args.hilbert:
        query = mpart.AlphaQuery.from_profile(int(x) for x in args.hilbert.split(","))
    else:
        query = mpart.AlphaQuery(*index, length=args.length)
    if oracle:
        return resolver.alpha_oracle(query)
    if args.table == "hydral":
        return resolver.alpha(*index)
    log = None
    if args.checkpoint_dir:
        log = cache_mod.CheckpointedAlphaRun(Path(args.checkpoint_dir), query.length)
    return mpart.alpha(
        query, workers=args.workers, node_ceiling=args.node_ceiling, components=log
    )


def cmd_count(args) -> int:
    # --verify would check the oracle against itself; the oracle runs no search to checkpoint
    if args.oracle and args.verify:
        raise ValueError(f"count {args.table} --oracle does not take --verify")
    if args.oracle and args.checkpoint_dir is not None:
        raise ValueError(f"count {args.table} --oracle does not take --checkpoint-dir")
    resolver = Resolver(workers=args.workers, node_ceiling=args.node_ceiling)
    store = _cache_store(args)
    kind, index = _count_index(args)
    simple_query = not args.hilbert and args.length is None
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
            raise IntegrityError(f"count {args.table}: {value} (pipeline) != {twin} (oracle)")
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
        if args.golden_seeds and args.x != 6:
            raise ValueError("series C takes --golden-seeds only with --x 6")
        bound = c_degree_bound(args.x)
        if args.golden_seeds:
            (num_text,), diag = cache_mod.load_golden_c6()
        else:
            diag = resolver.c_diagonal(args.x, bound + 3)
        num, exponent = c_diagonal_series(args.x, diag)
        # the shipped diagonal has no value past the degree bound: the shipped
        # numerator is its check
        if args.golden_seeds and num != parse_polynomial(num_text):
            raise IntegrityError("golden x = 6 diagonal disagrees with the golden numerator")
        print(f"C[x={args.x}] = ({format_polynomial(num)}) / (1 - 2*t)^({exponent})")
        if args.expand:
            _print_expansion(
                expand_half_power(HalfPower(-exponent), args.expand - 1, num).coeffs
            )
        return EXIT_OK
    if args.family == "hydral":
        # charged before the term loop, so a small ceiling stops the command there
        resolver.charge_hydral(args.n)
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
        rf = RationalFunction(ONE)
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


# --- arguments ---------------------------------------------------------------------
#
# One table drives parsing and the usage text. A flag maps to its converter
# (int, str, or bool for a bare switch) and its default. A command names its
# positional, and each choice of it the flags it reads: "--a --b" needs both,
# "--a | --b --c" needs --a or both of --b and --c, "--a --b?" may also take --b.
# A flag that some choice names is refused by every other choice, and a flag that
# no choice names (count's --oracle and --verify) is read by all of them.

_GLOBAL_FLAGS = {
    "--workers": (int, 1),
    "--node-ceiling": (int, mpart.DEFAULT_NODE_CEILING),
    "--cache-dir": (str, None),
}

_COMMANDS = {
    "count": (
        "print one exact count",
        "table",
        {
            "p": "--n --d",
            "y": "--k --d",
            "c": "--k --e",
            "alpha": "--hilbert --checkpoint-dir? | --k --q --m --length? --checkpoint-dir?",
            "hydral": "--n --m",
        },
        {
            "--n": (int, None),
            "--d": (int, None),
            "--k": (int, None),
            "--e": (int, None),
            "--q": (int, None),
            "--m": (int, None),
            "--length": (int, None),
            "--hilbert": (str, None),
            "--oracle": (bool, False),
            "--verify": (bool, False),
            "--checkpoint-dir": (str, None),
        },
    ),
    "series": (
        "print a generating function",
        "family",
        {
            "H": "--d --expand?",
            "Y": "--e --expand?",
            "C": "--x --expand? --golden-seeds?",
            "hydral": "--n --expand?",
            "phi": "--n --order?",
            "psi": "--parts --order?",
            "pi": "--n --order?",
        },
        {
            "--d": (int, None),
            "--e": (int, None),
            "--x": (int, None),
            "--n": (int, None),
            "--parts": (str, None),
            "--order": (int, 12),
            "--expand": (int, None),
            "--golden-seeds": (bool, False),
        },
    ),
    "conjecture": (
        "run a conjecture checker",
        "which",
        {
            "andrews": "--k --order?",
            "epsilon": "--m --extra-points?",
            "sparsity": "--dmax --bound --no-low-dim?",
        },
        {
            "--k": (int, None),
            "--order": (int, 50),
            "--m": (int, None),
            "--extra-points": (int, 0),
            "--dmax": (int, None),
            "--bound": (int, None),
            "--no-low-dim": (bool, False),
        },
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _listed(words: list[str]) -> str:
    return " and ".join(filter(None, [", ".join(words[:-1]), words[-1]]))


def _chosen(kind: str, word: str, options: dict) -> str:
    if word not in options:
        raise ValueError(f"unknown {kind} {word!r}; choose from {', '.join(options)}")
    return word


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of one command, None for -h/--help; ValueError on misuse."""
    args = {_dest(flag): default for flag, (_, default) in _GLOBAL_FLAGS.items()}
    flags = _GLOBAL_FLAGS
    given = set()  # a default cannot tell whether its flag was given
    command = None
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if not word.startswith("-"):
            if command is None:
                command = _chosen("command", word, _COMMANDS)
                positional, choices, flags = _COMMANDS[word][1:]
                args["command"] = word
                args.update({_dest(flag): default for flag, (_, default) in flags.items()})
            elif positional not in args:
                args[positional] = _chosen(positional, word, choices)
            else:
                raise ValueError(f"unexpected argument {word!r}")
            continue
        flag, eq, value = word.partition("=")
        if flag not in flags:
            if command and flag in _GLOBAL_FLAGS:
                raise ValueError(f"{flag} goes before the command")
            raise ValueError(f"unknown flag {flag}" + (f" for {command}" if command else ""))
        given.add(flag)
        convert = flags[flag][0]
        if convert is bool:
            if eq:
                raise ValueError(f"{flag} takes no value")
            args[_dest(flag)] = True
            continue
        if not eq:
            value = next(words, "")
        if not value or (not eq and value.startswith("--")):
            raise ValueError(f"{flag} needs a value")
        try:
            args[_dest(flag)] = convert(value)
        except ValueError:
            raise ValueError(f"{flag} needs an integer, not {value!r}") from None
    # an --expand below 1 would print the generating function and then fail
    for flag, least in (("--workers", 1), ("--node-ceiling", 0), ("--expand", 1)):
        value = args.get(_dest(flag))
        if value is not None and value < least:
            raise ValueError(f"{flag} needs at least {least}, not {value}")
    if command is None:
        raise ValueError(f"missing command; choose from {', '.join(_COMMANDS)}")
    if positional not in args:
        raise ValueError(f"{command} needs a {positional}; choose from {', '.join(choices)}")
    choice = args[positional]
    options = [need.split() for need in choices[choice].split(" | ")]
    required = [[flag for flag in need if not flag.endswith("?")] for need in options]
    missing = [[flag for flag in need if flag not in given] for need in required]
    if all(missing):
        wanted = ", or ".join(_listed(need) for need in missing)
        raise ValueError(f"{command} {choice} needs {wanted}")
    chosen = missing.index([])
    named = set(" ".join(choices.values()).replace("?", "").split())
    taken = {flag.rstrip("?") for flag in options[chosen]}
    extra = [flag for flag in flags if flag in given & named - taken]
    if extra:
        beside = f" with {_listed(required[chosen])}" if len(options) > 1 else ""
        raise ValueError(f"{command} {choice} does not take {_listed(extra)}{beside}")
    return SimpleNamespace(**args)


def _usage() -> str:
    def described(flags: dict) -> str:
        out = []
        for flag, (convert, default) in flags.items():
            if convert is not bool:
                flag += " N" if convert is int else " TEXT"
                if default is not None:
                    flag += f" (default {default})"
            out.append(flag)
        return ", ".join(out)

    lines = [
        "usage: hdpart [global flags] COMMAND CHOICE [flags]",
        "",
        "Exact enumeration of higher-dimensional partitions and their refined",
        "generating functions. Global flags go before the command; a value follows",
        "its flag or joins it with '='. A choice lists the flags it needs (FLAG?:",
        "it may take FLAG) and takes no flag that only another choice lists; a",
        "flag that no choice lists goes with every choice.",
        "",
        "global flags: " + described(_GLOBAL_FLAGS),
    ]
    for command, (about, positional, choices, flags) in _COMMANDS.items():
        lines += ["", f"hdpart {command} {positional.upper()}: {about}"]
        lines += [f"  {choice}: {need}" for choice, need in choices.items()]
        lines.append("  flags: " + described(flags))
    return "\n".join(lines)


def main(argv=None) -> int:
    # Everything imported so far (modules, classes, functions) lives until exit.
    # Moved to the permanent generation, it is walked by no later collection,
    # neither during the command nor at interpreter shutdown. The freeze sits
    # here, not at import, so importing hdpart leaves a host's collector alone.
    gc.freeze()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage())
            status = EXIT_OK
        else:
            # looked up at call time, so a wrapper set on the module attribute runs
            status = globals()["cmd_" + args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
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
    except BrokenPipeError:
        # the reader closed the pipe (`hdpart ... | head`): stop quietly, with
        # stdout pointed at devnull so the flush at exit cannot fail again
        # (the SIGPIPE note of the Python `signal` documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except OSError as exc:
        return _fail("io", detail=str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
