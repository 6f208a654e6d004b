"""How fast the CPU runs Python while a benchmark process works.

The shared host the benchmark's baselines come from slows its CPUs by up to
2x, in bursts of a fraction of a second and in spells of minutes, as other
tenants load them; CPU time inflates as much as wall time, so the slowdown is
in the hardware, and a job's time follows it. To report times that move with
the program and not with the host, every benchmark child starts this sampler
first thing. Every INTERVAL_S of wall time a SIGALRM runs a fixed unit of
interpreter work in the main thread, between two bytecodes of whatever runs
there, and records how long the unit took.

Samples come evenly spaced in wall time, so a stretch of T seconds whose
samples have harmonic mean u did T / u units' worth of work; at the reference
speed, one unit per REF_UNIT_S, that work takes T * REF_UNIT_S / u. `scale`
applies that factor.

The unit does the kinds of work the program's hot loops do: integer
arithmetic and a small dict, then tuples built, sorted with a key function
and hashed, as in the orbit enumeration. On the 2-core host, over 26
consecutive frontier reps, a fit of the log of the rep's wall time against
the log of u had slope 0.75 for a unit of the arithmetic alone and 1.0 for
one of the tuple work alone (0.90 and 0.88 in another set); over 20 to 30
reps in each of three sets, scaling cut the coefficient of variation of the
rep time from 0.07 to 0.12 down to 0.05 to 0.08.

The unit runs about 1 % of the time; callers take that time out of a stretch
before they scale it. Pool workers forked by the program inherit the
handler but not the timer, so they take no samples.
"""

from __future__ import annotations

import atexit
import itertools
import signal
import statistics
import time

INTERVAL_S = 0.01
# the unit's time at the reference speed: about its harmonic mean on the
# 2-core host the baselines come from, so scaled times stay close to wall times
REF_UNIT_S = 1.2e-4

samples: list[float] = []

_POINTS = tuple((a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 3)


def _weight_first(p):
    return sum(p), p


def _unit() -> int:
    acc = 0
    for i in range(500):
        acc += (i * 7) % 13
    d = {}
    for i in range(100):
        d[(i & 7, i >> 3)] = i
    seen = set()
    for combo in itertools.islice(itertools.combinations(_POINTS, 3), 20):
        seen.add(tuple(sorted(((p[1], p[0], p[2]) for p in combo), key=_weight_first)))
    return acc + len(d) + len(seen)


def _sample(signum, frame):
    t = time.perf_counter()
    _unit()
    samples.append(time.perf_counter() - t)


def start():
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    # an armed timer would kill the interpreter once it has reset its handlers
    atexit.register(stop)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def scale(seconds: float, units: list[float]) -> float:
    """`seconds` of a stretch whose samples are `units`, at the reference speed."""
    if not units:
        raise ValueError("no speed samples in the stretch")
    return seconds * REF_UNIT_S / statistics.harmonic_mean(units)
