"""Bundled circuits, each defined by one file under ``heisensim/data``.

``fr`` is ``data/fr.qc``: the eight-qubit extended Wigner's-friend
protocol (Frauchiger-Renner).  A preset's file is parsed once per process;
every :func:`get_preset` call returns a fresh :class:`Circuit`.
"""
from __future__ import annotations

import math
import os
from functools import cache

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
    # the package's loader reads the file, from a directory or a zip alike, as pkgutil.get_data
    # does; importlib.resources would load inspect, dis and tokenize on Python 3.12 and later
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.qc")
    return __spec__.loader.get_data(path).decode("utf-8")


@cache
def _parsed(name: str) -> Circuit:
    return parse_circuit(preset_source(name))


def get_preset(name: str) -> Circuit:
    """A bundled circuit; each call returns a new one with its own ``labels`` dict."""
    n_qubits, steps, labels = _parsed(name)  # checked once, as the file was parsed
    return Circuit._from_checked(n_qubits, steps, dict(labels or {}))


def preset_fr() -> Circuit:
    """Eight-qubit extended Wigner's-friend protocol (Frauchiger-Renner).

    Two labs: Alice's memory A measures R, prepares Bob's qubit S through a
    controlled-Hadamard, and Bob's memory B measures S.  Two outside
    agents then take a Bell-basis measurement of each lab (controlled-not
    followed by a Hadamard) and record the outcomes into U_R, U_A, W_S,
    W_B with final controlled-nots.
    """
    return get_preset("fr")
