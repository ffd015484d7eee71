"""Closed-loop benchmark of heisensim, one workload per process.

    python3 bench/run.py --workload fr-report --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced

One client drives heisensim through its public API: the next job starts
when the previous one returns.  Every job's output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.

A job's time is the CPU time the process spends on it, scaled by the
host's speed at that moment.  A fixed calibration kernel runs between
every two jobs, and a job's time is divided by the mean time of the
kernel runs on either side of it, then multiplied by the kernel's
reference time in CALIBRATION_S.
README.md gives the reasons.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread in every process the benchmark starts: a job's CPU time is then
# its wall-clock time without steal.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH / "out"

TOLERANCE = 1e-9
SETUP_SAMPLES = 11
TAIL_BEYOND = 10
#: Job times are reported as on a host where one run of each calibration
#: kernel takes this long: its median on the 2-vCPU Xeon the baseline came from.
CALIBRATION_S = {"python": 0.009, "dense": 0.017}
DENSE_PRODUCTS = 2


# -- workloads ------------------------------------------------------------------


class FrReport:
    """``heisensim run --preset fr --report table --tree <file>.dot``."""

    name = "fr-report"
    kernel = "python"

    def __init__(self, seed: int):
        self.tree = OUT / f"{self.name}-seed{seed}-{os.getpid()}.dot"
        self.argv = ["run", "--preset", "fr", "--report", "table", "--tree", str(self.tree)]
        self.golden_report = (GOLDEN / "fr_report.txt").read_bytes()
        self.golden_tree = (GOLDEN / "fr_tree.dot").read_bytes()

    setup_code = "import heisensim, heisensim.cli; heisensim.get_preset('fr')"

    def one_pass(self, rng):
        return [None]

    def run(self, job):
        import heisensim.cli

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = heisensim.cli.main(self.argv)
        return code, stdout.getvalue()

    def check(self, job, result) -> bool:
        code, stdout = result
        return code == 0 and stdout.encode() == self.golden_report and self.tree.read_bytes() == self.golden_tree

    def verify(self) -> int:
        self.tree.unlink(missing_ok=True)
        return 0


class FrCheck(FrReport):
    """``heisensim run --preset fr --check``: engine against the dense oracle."""

    name = "fr-check"
    kernel = "dense"

    def __init__(self, seed: int):
        self.argv = ["run", "--preset", "fr", "--check"]

    def check(self, job, result) -> bool:
        code, stdout = result
        fields = dict(line.split(":", 1) for line in stdout.splitlines() if ":" in line)
        deviations = [float(fields[key]) for key in ("max expectation deviation", "max matrix deviation")]
        return code == 0 and "OK" in fields and all(d <= TOLERANCE for d in deviations)

    def verify(self) -> int:
        return 0


class RandomPropagate:
    """``parse_circuit`` then ``run_circuit`` on the seeded 20-qubit corpus.

    The output check compares every job's final-slot single-component
    vacuum expectations with the benchmark's own dense state vector.  The
    reference runs once per circuit after the timed loops and after peak
    memory is read.
    """

    name = "random-propagate"
    kernel = "python"

    def __init__(self, seed: int):
        from circuits import corpus_texts

        self.texts = corpus_texts(seed)
        self.outputs: list[tuple[int, list[float]]] = []
        self.setup_code = (
            f"import heisensim; from circuits import corpus_texts; "
            f"heisensim.parse_circuit(corpus_texts({seed})[0])"
        )

    def one_pass(self, rng):
        order = list(range(len(self.texts)))
        rng.shuffle(order)
        return order

    def run(self, job):
        import heisensim

        return heisensim.run_circuit(heisensim.parse_circuit(self.texts[job]))

    def check(self, job, trace) -> bool:
        from heisensim.pauli import vacuum_expectation

        final = trace[-1].descriptors
        self.outputs.append((job, [vacuum_expectation(c) for d in final for c in d.triple]))
        return True

    def verify(self) -> int:
        from circuits import final_expectations

        reference = {job: final_expectations(self.texts[job]) for job in sorted({job for job, _ in self.outputs})}
        return sum(
            not all(abs(a - b) <= TOLERANCE for a, b in zip(values, reference[job], strict=True))
            for job, values in self.outputs
        )


WORKLOADS = {w.name: w for w in (FrReport, FrCheck, RandomPropagate)}


# -- measurement ------------------------------------------------------------------


class Calibration:
    """A fixed kernel whose CPU time tracks the host's speed for one kind of job.

    ``python`` multiplies two fixed sparse maps of 4-element index tuples,
    the way a Pauli product merges terms, so it leans on the interpreter
    paths of the sparse engine.  ``dense`` does what the dense oracle does
    on eight qubits: Kronecker products of 2 x 2 matrices and products of
    256 x 256 complex matrices.  Neither uses heisensim code, so a change
    to the program cannot change them.
    """

    def __init__(self, kind: str):
        if kind == "python":
            rng = random.Random(7)
            self.terms = [(tuple(sorted(rng.sample(range(24), 4))), complex(rng.random(), rng.random())) for _ in range(60)]
        else:
            phase = np.arange(256 * 256).reshape(256, 256)
            self.matrix = np.exp(1j * phase) / 16
            self.x, self.identity = np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2, dtype=complex)
        self.kernel = {"python": self._python, "dense": self._dense}[kind]
        self.reference_s = CALIBRATION_S[kind]
        self.result = self.kernel()

    def _python(self):
        out = {}
        for key_a, value_a in self.terms:
            for key_b, value_b in self.terms:
                key = tuple(sorted(set(key_a) ^ set(key_b)))
                out[key] = out.get(key, 0) + value_a * value_b
        return len(out)

    def _dense(self):
        out = np.zeros((256, 256), dtype=complex)
        for k in range(DENSE_PRODUCTS):
            sigma = np.ones((1, 1), dtype=complex)
            for q in range(8):
                sigma = np.kron(self.x if q == k else self.identity, sigma)
            out += self.matrix.conj().T @ sigma @ self.matrix
        return round(float(np.trace(out).real), 6)

    def __call__(self) -> float:
        # No collection inside the kernel: its cost would depend on the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            result = self.kernel()
            elapsed = time.process_time() - start
        finally:
            if enabled:
                gc.enable()
        if result != self.result:
            raise RuntimeError("calibration kernel gave a different result")
        return elapsed


class Loop:
    """Closed loop of whole passes; job times, checks and counts."""

    def __init__(self, workload, rng):
        self.workload = workload
        self.rng = rng
        self.calibrate = Calibration(workload.kernel)
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, tracer=None) -> dict[str, list[list[float]]]:
        """Per pass: scaled job times, job CPU and wall-clock times, calibration times.

        ``calibration[k]`` holds the kernel times before each job of pass k;
        the time after a pass's last job is the first of the next pass, or
        the run's closing calibration.
        """
        runs = {"scaled": [], "cpu": [], "wall": [], "calibration": []}
        deadline = time.perf_counter() + seconds
        before = self.calibrate()
        while True:
            passes = {key: [] for key in runs}
            for job in self.workload.one_pass(self.rng):
                cpu, wall = self._job(job, tracer)
                after = self.calibrate()
                passes["scaled"].append(cpu * self.calibrate.reference_s / ((before + after) / 2))
                passes["cpu"].append(cpu)
                passes["wall"].append(wall)
                passes["calibration"].append(before)
                before = after
            for key, values in passes.items():
                runs[key].append(values)
            if time.perf_counter() >= deadline:
                return runs

    def _job(self, job, tracer) -> tuple[float, float]:
        self.attempted += 1
        if tracer is not None:
            tracer.begin_job(self.attempted)
        result = None
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            result = self.workload.run(job)
        except Exception as exc:  # a failing job is counted, not fatal
            print(f"job {self.attempted} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if tracer is not None:
            tracer.end_job()
        try:
            ok = result is not None and self.workload.check(job, result)
        except Exception as exc:
            print(f"job {self.attempted} output unreadable: {exc}", file=sys.stderr)
            ok = False
        self.failed += not ok
        return cpu, wall


def measure_setup(workload) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: scaled CPU time, and wall clock.

    A probe reports the CPU time it has used, from its start to the first
    job being ready; that is scaled by the Python kernel's runs either
    side, since imports are interpreter work.
    """
    calibrate = Calibration("python")
    code = (
        f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; {workload.setup_code}; "
        "print('ready', time.process_time(), flush=True)"
    )
    scaled, wall = [], []
    before = calibrate()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            word, _, cpu = proc.stdout.readline().partition(" ")
            wall.append(time.perf_counter() - start)
            if proc.wait(timeout=60) != 0 or word != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = calibrate()
        scaled.append(float(cpu) * calibrate.reference_s / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def tail(times: list[float]) -> tuple[float, float]:
    """The tail latency and its percentile.

    That is the highest percentile with at least TAIL_BEYOND jobs beyond
    it.  A run of TAIL_BEYOND jobs or fewer reports its slowest job, as p100.
    """
    ordered = sorted(times)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(runs: dict[str, list[list[float]]], setup: tuple[float, float]) -> dict:
    times, cpu, wall, calibration = ([t for times in runs[key] for t in times] for key in ("scaled", "cpu", "wall", "calibration"))
    tail_s, percentile = tail(times)
    raw = f"unscaled CPU time {{}}, wall clock {{}}; calibration median {statistics.median(calibration):.4g} s"
    return {
        "latency_p50_s": (statistics.median(times), "s", raw.format(f"{statistics.median(cpu):.6g} s", f"{statistics.median(wall):.6g} s")),
        "latency_tail_s": (tail_s, "s", f"p{percentile:.1f} of {len(times)} jobs; " + raw.format(f"{tail(cpu)[0]:.6g} s", f"{tail(wall)[0]:.6g} s")),
        "throughput_jobs_per_s": (len(times) / sum(times), "1/s", "per second of job time; " + raw.format(f"{len(cpu) / sum(cpu):.6g}", f"{len(wall) / sum(wall):.6g}")),
        "setup_s": (setup[0], "s", f"median of {SETUP_SAMPLES} fresh interpreters; wall clock {setup[1]:.6g} s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "cpu": cpu,
        "nproc": nproc,
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({' '.join(blas.get('openblas configuration', '').split())})",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- entry point ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path[:0] = [str(SRC), str(BENCH)]
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed)
    loop = Loop(workload, random.Random(seed))
    loop.run(0)  # warm-up pass: imports, caches and lazy set-up, checked but not timed

    if trace:
        from tracing import Tracer

        plain = loop.run(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.run(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        untraced_mean, traced_mean = (statistics.fmean(t for times in run["scaled"] for t in times) for run in (plain, traced))
        overhead = traced_mean - untraced_mean
        metrics["trace_overhead"] = (overhead, "s/job", f"{overhead / untraced_mean:+.1%} of the untraced mean job time")
        tracer.save(OUT / f"{name}-seed{seed}.spans.npz")
    else:
        setup = measure_setup(workload)
        plain = loop.run(seconds)
        metrics = end_to_end(plain, setup)
    loop.failed += workload.verify()
    return {"workload": name, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics, "jobs": plain}


def report(result: dict, machine: dict, trace: bool) -> dict:
    """Print the readable lines, write the result file, return the last line's object."""
    name = result["workload"]
    print(f"machine: {json.dumps(machine)}")
    metrics = {}
    for metric, (value, unit, *note) in result["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
        metrics[metric] = {"value": value, "unit": unit}
    failed_ratio = result["failed"] / result["attempted"]
    print(f"{name} failed_ratio = {failed_ratio:.6g} ratio  ({result['failed']} of {result['attempted']} jobs)")
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    record = dict(line, workload=name, trace=trace, machine=machine, notes={m: v[2] for m, v in result["metrics"].items() if len(v) > 2}, jobs=result["jobs"])
    (OUT / f"{name}-seed{machine['seed']}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return line


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heisensim" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"bench: no heisensim sources under {SRC} or goldens under {GOLDEN}", file=sys.stderr)
        return 2
    if args.workload == "all":
        line = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = report(result, machine_record(args.seed), bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
