"""Spans around the calls into heisensim's layers, recorded from outside.

The tracer replaces public functions of the ``heisensim`` modules with
wrappers that record one span per call: kind, start, end, parent span and
job id, plus up to two work counts taken from the arguments and result.
Nothing under ``src/`` is edited.  A function that another module binds
with ``from ... import`` is replaced under every name that refers to it,
so ``cli.run_circuit`` and ``foliation.vacuum_expectation`` are traced as
well as ``engine.run_circuit`` and ``pauli.vacuum_expectation``.

Spans stay in memory, in flat arrays, until :meth:`Tracer.layer_metrics`
folds them into per-job layer metrics and :meth:`Tracer.save` writes them.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


def _matmul_work(tracer, args, result):
    a, b = args
    return len(a) * len(b), len(result)


def _expand_work(tracer, args, result):
    op = args[0]
    return len(op) * op.n_qubits, 0


def _run_work(tracer, args, result):
    tracer.traces.append(result)  # term counts are taken when the job ends
    return len(args[0].steps), 0


# (span kind, module, attribute, work counter).  A dotted attribute is a
# method of a class in that module.
TARGETS = (
    ("cli.main", "heisensim.cli", "main", None),
    ("lang.parse", "heisensim.lang", "parse_circuit", None),
    ("engine.run", "heisensim.engine", "run_circuit", _run_work),
    ("pauli.matmul", "heisensim.pauli", "PauliSum.__matmul__", _matmul_work),
    ("pauli.linear", "heisensim.pauli", "PauliSum.__add__", None),
    ("pauli.linear", "heisensim.pauli", "PauliSum.__sub__", None),
    ("pauli.linear", "heisensim.pauli", "PauliSum.__neg__", None),
    ("pauli.linear", "heisensim.pauli", "PauliSum.__mul__", None),
    ("pauli.linear", "heisensim.pauli", "PauliSum.__rmul__", None),
    ("pauli.linear", "heisensim.pauli", "PauliSum.__truediv__", None),
    ("pauli.vacuum", "heisensim.pauli", "vacuum_expectation", None),
    ("foliation.sharp", "heisensim.foliation", "sharp_foliation", None),
    ("foliation.timeline", "heisensim.foliation", "foliation_timeline", None),
    ("foliation.entangled", "heisensim.foliation", "entangled", None),
    ("foliation.report_rows", "heisensim.foliation", "report_rows", None),
    ("foliation.tree", "heisensim.foliation", "build_branch_tree", None),
    ("oracle.cross_check", "heisensim.oracle", "cross_check", None),
    ("oracle.conjugate", "heisensim.oracle", "conjugate_descriptor", None),
    ("oracle.expand", "heisensim.oracle", "expand", _expand_work),
    ("oracle.evolve", "heisensim.oracle", "evolve_state", None),
)

KINDS = tuple(dict.fromkeys(kind for kind, *_ in TARGETS))

# Upper bounds (exclusive) of the term-pair buckets of matmul self time.
PAIR_BUCKETS = ((100, "pairs_lt_1e2"), (1000, "pairs_lt_1e3"), (10000, "pairs_lt_1e4"), (None, "pairs_ge_1e4"))

PER_JOB_UNIT = {"s": "s/job", "count": "count/job"}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.kind = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("q")
        self.work_b = array("q")
        self.current = -1
        self.job_id = -1
        self.jobs = 0
        self.traces = []
        self.terms_max = 0
        self.terms_final = 0
        self._undo = []

    # -- installing ----------------------------------------------------------

    def _wrap(self, code, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job_id < 0:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.kind.append(code)
            tracer.parent.append(tracer.current)
            tracer.job.append(tracer.job_id)
            tracer.work_a.append(0)
            tracer.work_b.append(0)
            tracer.end.append(0.0)
            tracer.current = sid
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer.current = tracer.parent[sid]
            if work is not None:
                tracer.work_a[sid], tracer.work_b[sid] = work(tracer, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target under every ``heisensim`` name bound to it."""
        targets = [(kind, importlib.import_module(module_name), attr, work) for kind, module_name, attr, work in TARGETS]
        modules = [m for name, m in sys.modules.items() if name == "heisensim" or name.startswith("heisensim.")]
        for kind, module, attr, work in targets:
            code = KINDS.index(kind)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self._wrap(code, original, work))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(code, original, work)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job_id: int):
        self.job_id = job_id

    def end_job(self):
        """Stop recording and fold the job's descriptor traces into term counts."""
        self.job_id = -1
        self.jobs += 1
        for trace in self.traces:
            components = {id(c): len(c) for state in trace for d in state.descriptors for c in d.triple}
            self.terms_max = max(self.terms_max, max(components.values()))
            self.terms_final += sum(len(c) for d in trace[-1].descriptors for c in d.triple)
        self.traces.clear()

    # -- results ---------------------------------------------------------------

    def _columns(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        kind = np.frombuffer(self.kind, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        return kind, duration, duration - children

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-job layer metrics as ``{name: (value, unit)}``."""
        kind, duration, self_time = self._columns()
        work_a = np.frombuffer(self.work_a, dtype=np.int64)
        work_b = np.frombuffer(self.work_b, dtype=np.int64)
        jobs = max(self.jobs, 1)
        out: dict[str, tuple[float, str]] = {}

        def mask(name):
            return kind == KINDS.index(name)

        def put(name, value, unit):
            per_job = unit in PER_JOB_UNIT
            out[name] = (float(value) / jobs if per_job else float(value), PER_JOB_UNIT.get(unit, unit))

        def calls(name):
            return int(np.count_nonzero(mask(name)))

        def self_s(name):
            return self_time[mask(name)].sum()

        def total_s(name):
            return duration[mask(name)].sum()

        mm = mask("pauli.matmul")
        pairs = int(work_a[mm].sum())
        terms_out = int(work_b[mm].sum())
        put("pauli.matmul_calls", calls("pauli.matmul"), "count")
        put("pauli.term_pairs", pairs, "count")
        put("pauli.terms_out", terms_out, "count")
        put("pauli.merge_ratio", terms_out / pairs if pairs else 0.0, "ratio")
        put("pauli.matmul_self_s", self_s("pauli.matmul"), "s")
        low = 0
        for high, label in PAIR_BUCKETS:
            in_bucket = mm & (work_a >= low) & (work_a < high if high else True)
            put(f"pauli.matmul_self_s.{label}", self_time[in_bucket].sum(), "s")
            low = high
        put("pauli.linear_calls", calls("pauli.linear"), "count")
        put("pauli.linear_self_s", self_s("pauli.linear"), "s")
        put("pauli.vacuum_calls", calls("pauli.vacuum"), "count")
        put("pauli.vacuum_self_s", self_s("pauli.vacuum"), "s")

        put("engine.run_calls", calls("engine.run"), "count")
        put("engine.run_self_s", self_s("engine.run"), "s")
        put("engine.gates", work_a[mask("engine.run")].sum(), "count")
        put("engine.terms_max", self.terms_max, "terms")
        put("engine.terms_final", self.terms_final, "count")

        put("lang.parse_calls", calls("lang.parse"), "count")
        put("lang.parse_self_s", self_s("lang.parse"), "s")

        put("foliation.sharp_calls", calls("foliation.sharp"), "count")
        put("foliation.timeline_folds", calls("foliation.timeline"), "count")
        put("foliation.entangled_calls", calls("foliation.entangled"), "count")
        put("foliation.sharp_self_s", self_s("foliation.sharp"), "s")
        put("foliation.report_rows_s", total_s("foliation.report_rows"), "s")
        put("foliation.tree_s", total_s("foliation.tree"), "s")

        put("oracle.cross_check_s", total_s("oracle.cross_check"), "s")
        put("oracle.conjugate_calls", calls("oracle.conjugate"), "count")
        put("oracle.conjugate_self_s", self_s("oracle.conjugate"), "s")
        put("oracle.expand_calls", calls("oracle.expand"), "count")
        put("oracle.expand_self_s", self_s("oracle.expand"), "s")
        put("oracle.kron_calls", work_a[mask("oracle.expand")].sum(), "count")
        put("oracle.evolve_self_s", self_s("oracle.evolve"), "s")

        put("cli.main_calls", calls("cli.main"), "count")
        put("cli.self_s", self_s("cli.main"), "s")
        return out

    def save(self, path):
        """Write every span, with the kind names, as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            kinds=np.array(KINDS),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work_a=np.frombuffer(self.work_a, dtype=np.int64),
            work_b=np.frombuffer(self.work_b, dtype=np.int64),
        )
