"""Command-line driver tests, run in-process via cli.main."""
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heisensim
from heisensim.cli import TOLERANCE_ENV, main, render_table
from heisensim.oracle import SIZE_CAP

from conftest import random_circuit


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_report_table_has_twelve_data_rows(capsys):
    code, out = run_cli(capsys, "run", "--preset", "fr", "--report", "table")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0].split() == ["Time", "Parties", "Gate", "Foliations", "Projections"]
    assert len(lines) == 14  # header + rule + 12 rows
    cells = [line.split() for line in lines[2:]]
    assert ["(1,2)", "R,A", "Controlled-not", "Sharp", "1/3,", "2/3"] in cells
    assert ["(6,7)", "A,U_A", "Controlled-not", "Sharp", "1,", "0"] in cells


def test_report_json_bytes_pinned_on_large_operators(tmp_path, capsys):
    # the indented layout the CLI prints, on operators of up to 1620 terms that
    # many boundaries share; the digest is json.dumps(trace_json_doc(...), indent=2) + "\n"
    path = tmp_path / "random4.qc"
    path.write_text(heisensim.serialize_circuit(random_circuit(random.Random(4), 8, 40)))
    code, out = run_cli(capsys, "run", "--circuit", str(path), "--report", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "110c0e0b191fdb13ca389c0226e6b2a95ec5c479cb29909c3f8382f60a13c39a"


def test_report_json_is_trace_document(capsys):
    code, out = run_cli(capsys, "run", "--preset", "fr", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["labels"]["0"] == "R"
    assert len(doc["slots"]) == 8


def test_check_passes_on_preset(capsys):
    code, out = run_cli(capsys, "run", "--preset", "fr", "--check")
    assert code == 0
    assert "OK" in out
    assert "max expectation deviation" in out


def test_check_stdout_matches_golden(capsys):
    # the deviations, the worst site and the verdict, byte for byte
    code, out = run_cli(capsys, "run", "--preset", "fr", "--check")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "golden" / "fr_check.txt").read_bytes()


def test_check_output_same_with_every_product_vectorised(capsys, monkeypatch):
    from heisensim import pauli

    expected = run_cli(capsys, "run", "--preset", "fr", "--check")
    monkeypatch.setattr(pauli, "_CROSSOVER", 0)
    assert run_cli(capsys, "run", "--preset", "fr", "--check") == expected


def test_tree_dot_for_empty_circuit(tmp_path, capsys):
    source = tmp_path / "empty.qc"
    source.write_text("qubits 2\n")
    out_path = tmp_path / "tree.dot"
    code, _ = run_cli(capsys, "run", "--circuit", str(source), "--tree", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert '"trunk"' in dot
    assert "->" not in dot  # trunk-only


def test_tree_json_export(tmp_path, capsys):
    out_path = tmp_path / "tree.json"
    code, _ = run_cli(capsys, "run", "--preset", "fr", "--tree", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["nodes"]) == 10
    assert len(doc["edges"]) == 11


def test_outputs_are_byte_stable(tmp_path, capsys):
    outputs = []
    for i in range(2):
        tree = tmp_path / f"tree{i}.dot"
        code, out = run_cli(
            capsys, "run", "--preset", "fr", "--report", "table", "--tree", str(tree)
        )
        assert code == 0
        outputs.append((out, tree.read_bytes()))
    assert outputs[0] == outputs[1]


def test_watch_accepts_labels_and_indices(capsys):
    code, out1 = run_cli(
        capsys, "run", "--preset", "fr", "--report", "table", "--watch", "R,A;S,B"
    )
    assert code == 0
    code, out2 = run_cli(
        capsys, "run", "--preset", "fr", "--report", "table", "--watch", "0,1;2,3"
    )
    assert code == 0
    assert out1 == out2
    assert "R,A" in out1


def test_watch_rejects_unknown_names(capsys):
    with pytest.raises(SystemExit, match="unknown qubit"):
        main(["run", "--preset", "fr", "--watch", "R,NOPE"])
    # a Unicode digit is no qubit index
    with pytest.raises(SystemExit, match="unknown qubit '²' in --watch"):
        main(["run", "--preset", "fr", "--report", "table", "--watch", "²,1"])


@pytest.mark.parametrize(
    "spec, message",
    [
        ("R", "bad watch pair 'R' (expected 'C,T')"),
        ("R,A,S", "bad watch pair 'R,A,S' (expected 'C,T')"),
        ("R,A;A", "bad watch pair 'A' (expected 'C,T')"),
        ("R,R", "watch pair 'R,R' names one qubit twice"),
        ("0,R", "watch pair '0,R' names one qubit twice"),
    ],
)
def test_watch_rejects_malformed_pair(spec, message, capsys):
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["run", "--preset", "fr", "--report", "table", "--watch", spec])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["", ";", " ", " ; "])
def test_watch_rejects_spec_naming_no_pair(spec, capsys, monkeypatch):
    # an empty spec is no request for the default pairs, and no pair is no
    # analysis; the spec is refused before the engine runs
    monkeypatch.setattr(heisensim.cli, "run_circuit", None)
    with pytest.raises(SystemExit, match=rf"--watch '{spec}' names no pair"):
        main(["run", "--preset", "fr", "--report", "table", "--watch", spec])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["R,A;R,A", "R,A;A,R", "0,1;R,A"])
def test_watch_rejects_repeated_pair(spec, capsys):
    repeat = spec.split(";")[1]
    with pytest.raises(SystemExit, match=rf"watch pair '{repeat}' is given twice"):
        main(["run", "--preset", "fr", "--report", "table", "--watch", spec])
    assert capsys.readouterr().out == ""


def test_circuit_file_diagnostics_surface(tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2\ncx 0 0\n")
    with pytest.raises(SystemExit, match="line 2"):
        main(["run", "--circuit", str(bad)])
    bad.write_text("qubits ²\nh 0\n")
    with pytest.raises(SystemExit, match="line 1: expected: qubits <positive integer>"):
        main(["run", "--circuit", str(bad)])


def test_deeply_nested_angle_exits_naming_the_file(tmp_path, capsys):
    deep = tmp_path / "deep.qc"
    deep.write_text("qubits 1\nry 0 " + "-" * 1500 + "1\n")
    with pytest.raises(SystemExit, match=rf"^{re.escape(str(deep))}: line 2: angle expression is nested too deeply$"):
        main(["run", "--circuit", str(deep), "--report", "table"])
    assert capsys.readouterr().out == ""


def test_missing_circuit_file(tmp_path):
    with pytest.raises(SystemExit, match="cannot read"):
        main(["run", "--circuit", str(tmp_path / "nope.qc")])


def test_tree_into_missing_directory(tmp_path):
    tree = tmp_path / "no-such-dir" / "tree.dot"
    with pytest.raises(SystemExit, match=rf"^cannot write {re.escape(str(tree))}: .*No such file or directory"):
        main(["run", "--preset", "fr", "--tree", str(tree)])
    assert not tree.parent.exists()


def test_tree_to_empty_path_fails_like_unwritable_path(capsys):
    # an empty path asks for a tree like any other; it cannot be written, so the run fails
    with pytest.raises(SystemExit, match=r"^cannot write : .*No such file or directory"):
        main(["run", "--preset", "fr", "--tree", ""])
    assert capsys.readouterr().out == ""


def test_circuit_file_with_byte_order_mark(tmp_path, capsys):
    # editors may save UTF-8 with a leading U+FEFF, which is no part of the qubits directive
    path = tmp_path / "bom.qc"
    path.write_bytes(b"\xef\xbb\xbf" + heisensim.serialize_circuit(heisensim.get_preset("fr")).encode("utf-8"))
    code, out = run_cli(capsys, "run", "--circuit", str(path), "--report", "table")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "fr_report.txt").read_text(encoding="utf-8")


def test_circuit_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin.qc"
    bad.write_bytes(b"qubits 2\n\xff h 0\n")
    with pytest.raises(SystemExit, match=rf"cannot read {re.escape(str(bad))}: 'utf-8' codec can't decode byte 0xff"):
        main(["run", "--circuit", str(bad)])
    assert capsys.readouterr().out == ""


def test_tolerance_env_override(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV, "1e-6")
    code, _ = run_cli(capsys, "run", "--preset", "fr", "--check")
    assert code == 0
    monkeypatch.setenv(TOLERANCE_ENV, "not-a-float")
    with pytest.raises(SystemExit, match="HEISENSIM_TOLERANCE"):
        main(["run", "--preset", "fr", "--check"])


def test_tolerance_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV, "not-a-float")
    code, _ = run_cli(capsys, "run", "--preset", "fr", "--tolerance", "1e-9", "--check")
    assert code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_flag_rejects_non_positive_or_non_finite(value, capsys):
    with pytest.raises(SystemExit, match=rf"--tolerance value: '{re.escape(value)}'"):
        main(["run", "--preset", "fr", "--report", "table", "--check", "--tolerance", value])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_env_rejects_non_positive_or_non_finite(value, monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV, value)
    with pytest.raises(SystemExit, match=rf"{TOLERANCE_ENV} value: '{re.escape(value)}'"):
        main(["run", "--preset", "fr", "--report", "table", "--check"])
    assert capsys.readouterr().out == ""


# SHA-256 of the fr table followed by its .dot tree at each --tolerance,
# computed when the fold still read each two-point expectation off the whole
# product a @ b.  The default tolerance is covered by the goldens.
FR_TOLERANCE_DIGESTS = [
    ("1e-30", "46319f7d98eb272fd5dbf168467447ac0dbd7d820d41c8ac06f62b0084e40cca"),
    ("1e-3", "46319f7d98eb272fd5dbf168467447ac0dbd7d820d41c8ac06f62b0084e40cca"),
    ("0.3", "9701cfcffbd56ec70c6a33f5354b40c56bd42d183f73332cf83ec5e071d0a938"),
]


@pytest.mark.parametrize("tolerance, digest", FR_TOLERANCE_DIGESTS)
def test_fr_table_and_tree_pinned_across_tolerances(tolerance, digest, tmp_path, capsys):
    dot = tmp_path / "fr.dot"
    code, out = run_cli(capsys, "run", "--preset", "fr", "--report", "table", "--tolerance", tolerance, "--tree", str(dot))
    assert code == 0
    assert hashlib.sha256((out + dot.read_text()).encode()).hexdigest() == digest


def test_check_fails_beyond_impossible_tolerance(capsys):
    code, out = run_cli(capsys, "run", "--preset", "fr", "--check", "--tolerance", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_check_refuses_circuit_above_dense_cap(tmp_path, capsys):
    big = tmp_path / "big.qc"
    big.write_text(f"qubits {SIZE_CAP + 1}\nh 0\n")
    with pytest.raises(SystemExit, match=rf"capped at {SIZE_CAP} qubits, circuit has {SIZE_CAP + 1}"):
        main(["run", "--circuit", str(big), "--report", "table", "--check"])
    assert capsys.readouterr().out == ""


def test_table_and_tree_share_one_fold(tmp_path, monkeypatch, capsys):
    # one fold over fr: 8 boundaries x 7 pairs, 41 of them with a changed descriptor
    from heisensim import foliation

    calls = []
    original = foliation.sharp_foliation

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(foliation, "sharp_foliation", counted)
    code, _ = run_cli(capsys, "run", "--preset", "fr", "--report", "table", "--tree", str(tmp_path / "t.dot"))
    assert code == 0
    assert len(calls) == 41


def test_render_table_alignment():
    from heisensim.foliation import ReportRow

    rows = [ReportRow((0, 1), "-", "Rotation on R", "-", None)]
    text = render_table(rows)
    header, rule, row = text.rstrip("\n").split("\n")
    assert header.startswith("Time")
    assert set(rule) <= {"-", " "}
    assert row.startswith("(0,1)")


def _src_env():
    """The environment with this checkout's heisensim first on PYTHONPATH, for subprocesses."""
    src = str(Path(heisensim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_cli_import_leaves_numpy_unloaded():
    # only --check needs the dense oracle; the package resolves its names on first use.
    # format_weight needs no Fraction, so decimal's cold start stays off the CLI path too.
    # The records are named tuples and only the JSON outputs import json; a module that
    # the bare interpreter already holds (a site hook's) is not the package's to load
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import heisensim, heisensim.cli\n"
        "assert 'numpy' not in sys.modules, 'importing the CLI loaded numpy'\n"
        "assert not {'fractions', 'decimal'} & set(sys.modules), 'importing the CLI loaded fractions'\n"
        "loaded = {'dataclasses', 'json'} & (set(sys.modules) - bare)\n"
        "assert not loaded, f'importing the CLI loaded {sorted(loaded)}'\n"
        "assert set(heisensim.__all__) <= set(dir(heisensim)), 'dir() misses exported names'\n"
        "from heisensim import oracle\n"
        "for name in ('cross_check', 'evolve_state', 'expand'):\n"
        "    assert getattr(heisensim, name) is getattr(oracle, name), name\n"
        "assert not hasattr(heisensim, 'conjugate_descriptor')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fr_run_leaves_numpy_unloaded():
    # every fr product is far below the vector product's crossover, and a table needs no json
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from heisensim.cli import main\n"
        "assert main(['run', '--preset', 'fr', '--report', 'table']) == 0\n"
        "assert 'numpy' not in sys.modules, 'run --preset fr loaded numpy'\n"
        "assert 'json' not in set(sys.modules) - bare, 'a table run loaded json'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "golden" / "fr_report.txt").read_text()


@pytest.mark.parametrize("mode", [["--report", "table"], ["--check"]], ids=["table", "check"])
def test_coefficient_drift_exits_with_one_line(mode, tmp_path):
    # 200 random gates on 3 qubits drift the engine's coefficients past the
    # Hermiticity guard: the table must say so in one line, not a traceback,
    # and --check reports the drift as deviations and fails
    path = tmp_path / "drift.qc"
    path.write_text(heisensim.serialize_circuit(random_circuit(random.Random(0), 3, 200)), encoding="utf-8")
    argv = [sys.executable, "-m", "heisensim.cli", "run", "--circuit", str(path), *mode]
    proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    if mode == ["--check"]:
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 4 and proc.stdout.endswith("FAIL: tolerance 1e-09\n")
        return
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith("the engine's coefficients drifted: imaginary residue ")
