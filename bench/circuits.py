"""Seeded random circuits for the ``random-propagate`` workload.

This is the benchmark's own copy of the gate-mix generator used by the
test suite (``ry``/``h``/``cx``/``ch`` weighted 35/20/30/15, one gate per
slot), so that editing a test cannot change the workload.  It writes the
circuit text directly, in the format ``heisensim.serialize_circuit``
emits, and the program under test receives only that text.

The gate *structure* (kinds and qubits) of a circuit comes from its
structure seed; the rotation angles come from the workload seed.  A job's
cost is set by its structure: term counts do not depend on the angles,
but over structure seeds they have a heavy tail (at 20 qubits x 50 gates,
Σ term pairs per job spans 180 to 945 327 over structure seeds 0-199).
A small random draw of structures would therefore give each workload
seed a different cost profile.  The corpus instead fixes one structure per
stratum of that distribution, and the workload seed varies the angles and
the job order.

:func:`final_expectations` is the output check's reference: a dense
state vector evolved from the circuit text by this file alone, without
the program's parser or its dense oracle.
"""
from __future__ import annotations

import math
import random

import numpy as np

N_QUBITS = 20
N_GATES = 50
KINDS = ("ry", "h", "cx", "ch")
WEIGHTS = (35, 20, 30, 15)

#: Structure seeds at the midpoints of 9 equal-count strata of Σ term
#: pairs per job over structure seeds 0-199 (quantiles 1/18, 3/18, ...,
#: 17/18), ordered by that cost.  The count is odd so that the median job
#: is the middle circuit's, not the edge between two circuits.
#: ``python3 bench/circuits.py`` recomputes the choice.
CORPUS = (108, 14, 198, 131, 49, 54, 157, 57, 30)


def circuit_text(structure_seed: int, angle_seed: int) -> str:
    """One circuit as ``.qc`` text; equal seeds give equal text."""
    shape = random.Random(structure_seed)
    angles = random.Random(f"{angle_seed}/{structure_seed}")
    lines = [f"qubits {N_QUBITS}"]
    for slot in range(N_GATES):
        kind = shape.choices(KINDS, weights=WEIGHTS)[0]
        if kind == "ry":
            lines.append(f"@{slot} ry {shape.randrange(N_QUBITS)} {angles.uniform(0, 6.283)!r}")
        elif kind == "h":
            lines.append(f"@{slot} h {shape.randrange(N_QUBITS)}")
        else:
            control, target = shape.sample(range(N_QUBITS), 2)
            lines.append(f"@{slot} {kind} {control} {target}")
    return "\n".join(lines) + "\n"


def corpus_texts(seed: int) -> list[str]:
    """The workload's circuits for one workload seed, in :data:`CORPUS` order."""
    return [circuit_text(s, seed) for s in CORPUS]


def final_expectations(text: str) -> list[float]:
    """<X_q>, <Y_q>, <Z_q> for q = 0, 1, ... on the circuit's final state.

    The state starts at all zeros.  Basis index bit k holds qubit k, as in
    ``heisensim.oracle``; ``ry(a)`` is ``[[cos a/2, -sin a/2], [sin a/2,
    cos a/2]]``, and ``cx``/``ch`` apply X/H to the target where the
    control is 1.  The state is real, so every <Y_q> is 0.
    """
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    # Every gate of the mix is a real matrix, so the state stays real.
    psi = np.zeros((2,) * n)
    psi[(0,) * n] = 1.0
    root_half = math.sqrt(0.5)

    def axis(qubit):  # C-order axis of qubit k in the (2,)*n reshape
        return n - 1 - qubit

    def rotate(view, c, s):  # [[c, -s], [s, c]] on view[0], view[1], the gate qubit's two values
        low = view[0].copy()
        view[0] *= c
        view[0] -= s * view[1]
        view[1] *= c
        view[1] += s * low

    def hadamard(view):
        low = view[0].copy()
        view[0] += view[1]
        view[1] -= low
        view[1] *= -1
        view[0] *= root_half
        view[1] *= root_half

    for line in lines[1:]:
        _, kind, *args = line.split()
        if kind == "ry":
            angle = float(args[1]) / 2
            rotate(np.moveaxis(psi, axis(int(args[0])), 0), math.cos(angle), math.sin(angle))
        elif kind == "h":
            hadamard(np.moveaxis(psi, axis(int(args[0])), 0))
        else:
            control, target = int(args[0]), int(args[1])
            view = np.moveaxis(psi, (axis(control), axis(target)), (0, 1))[1]
            if kind == "cx":
                view[[0, 1]] = view[[1, 0]]
            else:
                hadamard(view)
    out = []
    for q in range(n):
        view = np.moveaxis(psi, axis(q), 0)
        out += [2 * float(np.vdot(view[0], view[1])), 0.0, float(np.vdot(view[0], view[0]) - np.vdot(view[1], view[1]))]
    return out


def _rank_structures(count: int = 200, strata: int = 9) -> tuple[int, ...]:
    """Recompute :data:`CORPUS`: rank structures by Σ term pairs, pick midpoints."""
    import heisensim as hs
    from tracing import Tracer

    costs = []
    for s in range(count):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_job(0)
            hs.run_circuit(hs.parse_circuit(circuit_text(s, 0)))
            tracer.end_job()
        finally:
            tracer.uninstall()
        costs.append((tracer.layer_metrics()["pauli.term_pairs"][0], s))
    costs.sort()
    return tuple(costs[(2 * k + 1) * count // (2 * strata)][1] for k in range(strata))


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(_rank_structures())
