"""Bundled circuits, each defined by one file under ``heisensim/data``.

``fr`` is ``data/fr.qc``: the eight-qubit extended Wigner's-friend
protocol (Frauchiger-Renner).  A preset's file is parsed once per process;
every :func:`get_preset` call returns a fresh :class:`Circuit`.
"""
from __future__ import annotations

import math
from functools import cache
from importlib import resources

from .engine import Circuit
from .lang import parse_circuit

__all__ = ["FR_ANGLE", "preset_fr", "get_preset", "preset_source", "PRESETS"]

#: Rotation angle of the preparation step in ``fr.qc``: the prepared qubit
#: lands on the +1 branch with probability 1/3.
FR_ANGLE = 2.0 * math.asin(math.sqrt(2.0 / 3.0))

PRESETS = ("fr",)


def preset_source(name: str) -> str:
    """The shipped text of a preset."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (available: {', '.join(PRESETS)})")
    return resources.files("heisensim").joinpath(f"data/{name}.qc").read_text()


@cache
def _parsed(name: str) -> Circuit:
    return parse_circuit(preset_source(name))


def get_preset(name: str) -> Circuit:
    """A bundled circuit; each call returns a new one with its own ``labels`` dict."""
    return Circuit(*_parsed(name))


def preset_fr() -> Circuit:
    """Eight-qubit extended Wigner's-friend protocol (Frauchiger-Renner).

    Two labs: Alice's memory A measures R, prepares Bob's qubit S through a
    controlled-Hadamard, and Bob's memory B measures S.  Two outside
    agents then take a Bell-basis measurement of each lab (controlled-not
    followed by a Hadamard) and record the outcomes into U_R, U_A, W_S,
    W_B with final controlled-nots.
    """
    return get_preset("fr")
