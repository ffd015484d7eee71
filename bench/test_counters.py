"""Exact layer counters repeat between two traced runs on one seed, and the
random-propagate reference agrees with the program's dense oracle.

Run with ``python3 -m pytest bench/test_counters.py`` (about a minute).
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"

EXACT = (
    "pauli.term_pairs",
    "pauli.matmul_calls",
    "foliation.sharp_calls",
    "oracle.kron_calls",
    "engine.terms_max",
)


def traced_counters(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    line = json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=170).stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    return {name: line["metrics"][name]["value"] for name in EXACT}


@pytest.mark.parametrize("workload", ["fr-report", "fr-check", "random-propagate"])
def test_exact_counters_repeat(workload):
    first = traced_counters(workload, seed=3)
    assert first == traced_counters(workload, seed=3)
    assert first["pauli.term_pairs"] > 0 and first["engine.terms_max"] > 0


def test_reference_matches_oracle():
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    from circuits import corpus_texts, final_expectations
    from heisensim import parse_circuit
    from heisensim.oracle import evolve_state, state_expectation

    text = corpus_texts(3)[4]
    circuit = parse_circuit(text)
    psi = evolve_state(circuit, cap=circuit.n_qubits)[-1]
    oracle = [state_expectation(psi, q, letter) for q in range(circuit.n_qubits) for letter in "XYZ"]
    assert final_expectations(text) == pytest.approx(oracle, abs=1e-12)
