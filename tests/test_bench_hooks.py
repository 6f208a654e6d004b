"""The traced benchmark run wraps hdpart entry points by name; every one must exist."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402


def _lookup(layer: str, target: str):
    owner = importlib.import_module("hdpart." + layer)
    *classes, attr = target.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def test_tracer_wraps_every_target():
    originals = {(layer, target): _lookup(layer, target) for layer, target, _ in tracer.TARGETS}
    t = tracer.Tracer()
    t.install()
    try:
        for (layer, target), orig in originals.items():
            current = _lookup(layer, target)
            assert current is not orig and current.__wrapped__ is orig, f"{layer}.{target}"
    finally:
        t.uninstall()
    for (layer, target), orig in originals.items():
        assert _lookup(layer, target) is orig, f"{layer}.{target} not restored"
