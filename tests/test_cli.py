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
from heisensim.cli import TOLERANCE_ENV, build_parser, main, render_table

from conftest import chain, random_circuit


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
    # a labelled qubit keeps no default name, and an index past int's parsing limit is out of range too
    for name in ("q0", "8", "0" * 5000 + "8", "1" * 5000, "q" + "1" * 5000):
        with pytest.raises(SystemExit, match=f"^unknown qubit '{name}' in --watch$"):
            main(["run", "--preset", "fr", "--report", "table", "--watch", f"{name},1"])


def test_watch_resolves_default_names_and_zero_padded_indices():
    text = "qubits 12\nlabel 3 C\ncx 3 10\nh 11\n"
    circuit = heisensim.parse_circuit(text)
    assert heisensim.cli._resolve_watch("C,q10;007,q11", circuit) == ((3, 10), (7, 11))


def test_watch_on_a_million_qubits_builds_no_name_table():
    # resolving a name reads the labels and the q<k> rule, never a table over every qubit
    import tracemalloc

    circuit = heisensim.Circuit(10**6, labels={5: "R"})
    tracemalloc.start()
    try:
        assert heisensim.cli._resolve_watch("0,1;R,q999999", circuit) == ((0, 1), (5, 999999))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_check_passes_on_sixteen_qubit_chain(capsys):
    # the back-propagation check has no width cap: chain(4) holds 16 qubits.  The
    # circuit file is committed beside its golden, and it is chain(4) serialized
    golden = Path(__file__).parent / "golden"
    assert (golden / "chain4.qc").read_text(encoding="utf-8") == heisensim.serialize_circuit(chain(4))
    code, out = run_cli(capsys, "run", "--circuit", str(golden / "chain4.qc"), "--check")
    assert code == 0
    assert out.encode() == (golden / "chain4_check.txt").read_bytes()


def test_check_fails_on_a_wrong_engine_rule(monkeypatch, capsys):
    # the check takes its tables from the gate matrices, not from the engine's rules:
    # a Hadamard rule that keeps y instead of negating it must fail it
    from heisensim import engine

    def wrong_hadamard(d):
        return (engine.Descriptor(d.qubit, d.z, d.y, d.x),)

    monkeypatch.setitem(engine._GATES, "h", engine._GATES["h"][:3] + (wrong_hadamard,))
    code, out = run_cli(capsys, "run", "--preset", "fr", "--check")
    assert code == 1
    assert out.endswith("FAIL: tolerance 1e-09\n")


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
    # the package resolves the check's and the dense oracle's names on first use.
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
        "assert 'heisensim.check' not in sys.modules, 'importing the CLI loaded the check'\n"
        "from heisensim import oracle\n"
        "for name in ('cross_check', 'evolve_state', 'expand'):\n"
        "    assert getattr(heisensim, name) is getattr(oracle, name), name\n"
        "assert not hasattr(heisensim, 'conjugate_descriptor')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_reading_a_preset_leaves_inspect_unloaded():
    # the package's loader reads the preset file; importlib.resources would load inspect,
    # dis and tokenize on Python 3.12 and later, for one small text file
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import heisensim, heisensim.cli\n"
        "assert heisensim.get_preset('fr').n_qubits == 8\n"
        "loaded = {'inspect', 'dis', 'tokenize'} & (set(sys.modules) - bare)\n"
        "assert not loaded, f'reading a preset loaded {sorted(loaded)}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fr_run_leaves_numpy_unloaded():
    # every fr product is far below the vector product's crossover, the check
    # back-propagates Paulis without numpy, and neither output needs json
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from heisensim.cli import main\n"
        "assert main(['run', '--preset', 'fr', '--report', 'table']) == 0\n"
        "assert main(['run', '--preset', 'fr', '--check']) == 0\n"
        "assert 'numpy' not in sys.modules, 'run --preset fr loaded numpy'\n"
        "assert 'json' not in set(sys.modules) - bare, 'a table or check run loaded json'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).parent / "golden"
    assert proc.stdout == (golden / "fr_report.txt").read_text() + (golden / "fr_check.txt").read_text()


@pytest.mark.parametrize(
    "text, estimate",
    [
        ("qubits 1000000\nh 0\n", "1000000 qubits over 2 slot boundaries needs about 501552002048"),
        ("qubits 2\n@1000000000 h 0\n", "2 qubits over 1000000002 slot boundaries needs about 1040000005154"),
    ],
    ids=["wide", "deep"],
)
def test_run_past_one_gib_exits_with_one_line(text, estimate, tmp_path):
    # a two-line file is refused before the run allocates; the child caps its own address
    # space at 2 GB, so a refusal that went missing ends in a MemoryError, not a memory kill
    path = tmp_path / "large.qc"
    path.write_text(text, encoding="utf-8")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from heisensim.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = [sys.executable, "-c", code, "run", "--circuit", str(path), "--report", "table"]
    proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"refused: a run of {estimate} bytes, over the 1073741824-byte limit\n"


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
        assert proc.stdout.encode() == (Path(__file__).parent / "golden" / "drift_check.txt").read_bytes()
        return
    assert "Traceback" not in proc.stderr
    # the fold's first error, the same whether each verdict reads its means afresh or once per fold
    assert proc.stderr == "the engine's coefficients drifted: imaginary residue 1.24301e-09 in expectation value\n"


def _as_a_process(capsys, argv):
    """``(status, stdout, stderr)`` of ``main(argv)`` in this process, as the
    interpreter would report them: a string exit code goes to stderr, status 1."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    if isinstance(status, str):
        status, err = 1, err + status + "\n"
    return (0 if status is None else status), out, err


def _fresh_process(argv):
    """``(status, stdout, stderr)`` of ``python -m heisensim.cli argv`` in a fresh interpreter."""
    argv = [sys.executable, "-m", "heisensim.cli", *argv]
    proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # eight calls in one process share its parser: each must print and exit as in its
    # own fresh process, so no option, environment value or output carries over.  Help
    # and usage text wrap to the terminal width, pinned for both sides
    golden = Path(__file__).parent / "golden"
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(TOLERANCE_ENV, raising=False)
    table = ["run", "--preset", "fr", "--report", "table"]
    dot = tmp_path / "fr.dot"

    assert _as_a_process(capsys, [*table, "--tree", str(dot)]) == (0, (golden / "fr_report.txt").read_text(), "")
    assert dot.read_bytes() == (golden / "fr_tree.dot").read_bytes()
    dot.unlink()
    assert _as_a_process(capsys, ["run", "--preset", "fr", "--check"]) == (0, (golden / "fr_check.txt").read_text(), "")

    usage = _as_a_process(capsys, ["run"])
    assert usage[0] == 2 and "error: one of the arguments --preset --circuit is required" in usage[2]
    assert usage == _fresh_process(["run"])
    help_ = _as_a_process(capsys, ["--help"])
    assert help_[0] == 0 and help_[1].startswith("usage: heisensim [-h]")
    assert help_ == _fresh_process(["--help"])

    refusal = (1, "", "bad --tolerance value: 'nan' (need a finite number > 0)\n")
    assert _as_a_process(capsys, [*table, "--tolerance", "nan"]) == refusal

    watched = _as_a_process(capsys, [*table, "--watch", "S,B"])
    assert watched[0] == 0 and watched[1] != (golden / "fr_report.txt").read_text()
    assert watched == _fresh_process([*table, "--watch", "S,B"])

    # the environment is read on the very next call, and the --watch above is gone
    monkeypatch.setenv(TOLERANCE_ENV, "0.7")
    loose = _as_a_process(capsys, table)
    assert loose[0] == 0 and loose[1] not in (watched[1], (golden / "fr_report.txt").read_text())
    assert loose == _fresh_process(table)

    json_run = ["run", "--preset", "fr", "--report", "json"]
    assert _as_a_process(capsys, json_run) == (0, (golden / "fr_trace.json").read_text(), "")
    assert not dot.exists(), "a later call wrote the first call's --tree"


def test_main_builds_one_parser_over_many_calls(tmp_path, monkeypatch, capsys):
    from heisensim import cli

    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (
            ["run", "--preset", "fr", "--report", "table", "--tree", str(tmp_path / "fr.dot")],
            ["run", "--preset", "fr", "--check"],
            ["run", "--preset", "fr", "--report", "json"],
        ):
            assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(["run"])
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser_main_does_not_share(capsys):
    from heisensim import cli

    golden = Path(__file__).parent / "golden"
    first, second = build_parser(), build_parser()
    assert first is not second
    assert main(["run", "--preset", "fr", "--check"]) == 0
    assert cli._parser() not in (first, second)
    first.add_argument("--extra")
    assert first.parse_args(["--extra", "1", "run", "--preset", "fr"]).extra == "1"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "fr", "--check", "--extra", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --extra" in capsys.readouterr().err
    assert run_cli(capsys, "run", "--preset", "fr", "--check") == (0, (golden / "fr_check.txt").read_text())


def test_cli_import_builds_no_parser():
    # importing the CLI must not build its parser (the benchmark's setup time counts
    # the import); main builds it on its first call, the run subparser with it, and
    # never again
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import heisensim.cli\n"
        "assert made == [], f'importing the CLI built {made}'\n"
        "for _ in range(3):\n"
        "    assert heisensim.cli.main(['run', '--preset', 'fr', '--check']) == 0\n"
        "assert made == ['heisensim', 'heisensim run'], f'three main() calls built {made}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == 3 * (Path(__file__).parent / "golden" / "fr_check.txt").read_text()


def test_threads_parse_with_the_shared_parser():
    # more threads than cores parse distinct argv with the one parser main uses, with a
    # short switch interval: each must get its own options back, none of another's
    import threading

    from heisensim import cli

    def argv(k):
        return ["run", "--circuit", f"c{k}.qc", "--watch", f"{k},{k + 1}", "--tolerance", str(k)]

    wrong = []

    def parse(k):
        for _ in range(200):
            args = cli._parser().parse_args(argv(k))
            if (args.circuit, args.watch, args.tolerance, args.preset) != (f"c{k}.qc", f"{k},{k + 1}", str(k), None):
                wrong.append((k, vars(args)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
