#!/usr/bin/env python3
"""ovtl benchmark: closed-loop CLI workloads, with a traced per-layer run.

One process, one client: each job is one or two ``ovtl.cli.main(argv)``
calls made in-process, and the next job starts when the previous one ends.
See ``perfbench/README.md`` for the workloads and metrics.

    python3 perfbench/run.py --workload norm-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, untraced and traced
    python3 perfbench/run.py --self-test         # the tracer reaches every alias
    python3 perfbench/run.py --record            # rewrite perfbench/references.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record of
each run goes to ``perfbench/results/``.
"""

import time

_START = time.perf_counter()  # setup_s counts from here: before numpy and ovtl load

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import ROOT_LAYER, Tally, Tracer, self_test  # stdlib only: numpy is not loaded yet

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7           # this process plus six fresh set-up processes
SETUP_KERNEL_SAMPLES = 9    # calibration samples after each set-up
KERNEL_WINDOW = 2           # a job is scaled by the kernel samples of jobs i-2 .. i+2
WALL_LIMIT_S = 150.0        # start no cycle whose run would end after this
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 600         # one workload run started by --all

LAYERS = ("spectral", "opfield", "sqfn", "normsuite", "atomics", "fieldio", "fmult",
          "lattice", "generators", "cli")
NUMPY_LAYERS = ("numpy.fft", "numpy.eig", "numpy.linalg")
COUNTERS = (
    ("spectral.fft_calls", "count"), ("spectral.fft_bytes", "B"),
    ("opfield.gram_calls", "count"), ("opfield.eig_calls", "count"),
    ("opfield.eig_matrices", "count"),
    ("sqfn.levels", "count"), ("sqfn.ball_correlations", "count"),
    ("normsuite.calls", "count"),
    ("atomics.tent_atoms", "count"), ("atomics.smooth_atoms", "count"),
    ("atomics.subatoms", "count"), ("atomics.validations", "count"),
    ("fieldio.bytes_written", "B"), ("fieldio.bytes_read", "B"),
    ("fmult.trials", "count"), ("fmult.hsigma_evals", "count"),
)
# the keys of workloads.WORKLOADS, which cannot be imported before ovtl is
WORKLOAD_NAMES = ("norm-desk", "decompose-roundtrip", "certify")
# A typical time of Calibration.kernel on the host the benchmark was built on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6); it measured 1.5-3.2 ms
# there as the host's speed changed.  Job timings are reported as if the
# kernel had taken this long.
CALIBRATION_REFERENCE_S = 0.0025
# How strongly timings follow the kernel there, fitted on runs with seeds
# 601-605 of every workload (none of the runs that checked the spreads):
# the log of each job's time, less its job kind's mean, moved 0.75 times
# the log of the kernel time next to it (0.75-0.78 per workload, r = 0.8),
# because the kernel is cache-resident and the larger jobs are not.  A
# set-up, measured in a fresh process, moved 0.35 times (0.25-0.54).
HOST_SENSITIVITY = 0.75
SETUP_SENSITIVITY = 0.35
WATCHED_CACHES = (("spectral", "make_lp_family"), ("spectral", "make_hom_lp_family"),
                  ("spectral", "_eta"), ("atomics", "calderon_resolution"))


def _cap_blas_threads() -> tuple:
    """Cap the BLAS thread variables at the cores this process may use;
    must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc, {var: int(os.environ[var]) for var in BLAS_VARS}


def _import_program():
    """Import ovtl from this checkout's ``src``; return ``ovtl.cli``."""
    sys.path.insert(0, str(SRC))
    import ovtl.cli

    if Path(ovtl.cli.__file__).resolve().parent != SRC / "ovtl":
        raise SystemExit(f"imported ovtl from {ovtl.cli.__file__}, not from {SRC}")
    return ovtl.cli


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_rev():
    """HEAD of the checkout's own git repository, if it has one."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, nproc: int, blas_threads: dict) -> dict:
    import numpy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc,
        "blas_threads": blas_threads,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def host_scale(kernel_s: float, sensitivity: float = HOST_SENSITIVITY) -> float:
    """Factor that turns a timing taken while the kernel ran in
    ``kernel_s`` into one at the reference host speed."""
    return (CALIBRATION_REFERENCE_S / kernel_s) ** sensitivity


class Calibration:
    """Times a fixed kernel that does not use ovtl.

    The host this benchmark runs on changes speed from one minute to the
    next, and all code slows with it.  A timing is multiplied by
    :func:`host_scale` of the kernel times measured next to it, which
    removes most of the host's state and none of the program's: the kernel
    does not call ovtl.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.field = rng.normal(size=(16, 16, 16, 2, 2)) + 0j
        g = rng.normal(size=(512, 2, 2)) + 1j * rng.normal(size=(512, 2, 2))
        self.psd = g.conj().swapaxes(-1, -2) @ g

    def kernel(self) -> None:
        """FFTs, batched 2x2 eigenvalues and an interpreter loop: the kinds
        of work the jobs do, on arrays that fit in cache."""
        fft = self.np.fft
        fft.ifftn(fft.fftn(self.field, axes=(0, 1, 2)), axes=(0, 1, 2))
        self.np.linalg.eigvalsh(self.psd)
        total = 0
        for i in range(20000):
            total += i

    def sample(self) -> float:
        self.kernel()  # refill the caches the job before used
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def median(self, samples: int) -> float:
        return statistics.median(self.sample() for _ in range(samples))


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

class Run:
    """The closed loop of one workload in this process."""

    def __init__(self, workload, seed: int, cli, tracer=None):
        self.wl = workload
        self.seed = seed
        self.cli = cli
        self.tracer = tracer
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.jobs = []          # one dict per attempted job
        self.failures = []
        self.gen_errors = {}
        self.probe = None
        self.calibration = None if tracer is not None else Calibration()
        if tracer is not None:
            self.setup_tally = Tally()   # set-up and input generation

    # -- pieces --------------------------------------------------------------

    def main(self, argv) -> int:
        # looked up on each call, so a traced run calls the traced entry point
        return self.cli.main(argv)

    def _traced(self, fn, *args):
        """Run set-up work, traced into the set-up tally when tracing."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.tally = self.setup_tally
        self.tracer.install()
        try:
            return self.tracer.run(fn, *args)[0]
        finally:
            self.tracer.uninstall()

    def generate(self, cycle: list) -> None:
        def gen_all():
            for job in cycle:
                if job.gen is not None:
                    rc = self.main(job.gen)
                    if rc != 0:
                        self.gen_errors[id(job)] = f"gen exited {rc}"

        self._traced(gen_all)

    def set_up(self) -> list:
        self.work.mkdir(parents=True, exist_ok=True)
        cycle = self.wl.cycle(self.seed, 0, self.work)
        self.generate(cycle)
        self._traced(self.wl.warm_caches)
        return cycle

    def _body(self, job):
        rec = None
        for argv in job.calls:
            t0 = time.perf_counter()
            rc = self.main(argv)
            if argv[0] == "reconstruct":
                rec = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"exit {rc}: ovtl {' '.join(argv)}")
        return rec

    def run_job(self, job, label: str, traced: bool) -> dict:
        record = {"kind": job.kind, "label": label, "traced": traced, "reconstruct_s": None}
        self.jobs.append(record)
        error = self.gen_errors.get(id(job.twin_of or job))
        if traced:
            self.tracer.tally = tally = Tally()
            self.tracer.install()
        t0 = time.perf_counter()
        wall = None
        try:
            if traced:
                record["reconstruct_s"], wall = self.tracer.run(self._body, job)
            else:
                record["reconstruct_s"] = self._body(job)
        except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
            error = error or f"{type(exc).__name__}: {exc}"
        record["wall_s"] = wall if wall is not None else time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            record["self_s"], record["counts"] = dict(tally.self_s), dict(tally.counts)
            # covered: time spent below the cli layer, in the layers it calls
            record["covered"] = (record["wall_s"] - tally.self_s["cli"]
                                 - tally.self_s[ROOT_LAYER])
        record["out_bytes"] = sum(p.stat().st_size for p in job.outputs if p.exists())
        record["error"] = error or self._check(job)
        if record["error"]:
            self.failures.append({"job": label, "kind": job.kind, "error": record["error"]})
        return record

    def _check(self, job):
        import workloads

        try:
            if job.twin_of is not None:
                if self._digests(job) != job.twin_of.digests:
                    return "twin outputs differ from the first run's bytes"
                return None
            job.digests = self._digests(job)
            job.check(job)
        except workloads.CheckFailed as exc:
            return f"check failed: {exc}"
        except Exception as exc:  # a check that crashes fails its job
            return f"check raised {type(exc).__name__}: {exc}"
        return None

    @staticmethod
    def _digests(job) -> list:
        files = list(job.outputs) + ([job.source] if job.source else [])
        return [hashlib.sha256(p.read_bytes()).hexdigest() for p in files]

    @staticmethod
    def _clean(job, keep_source: bool) -> None:
        for p in job.outputs:
            p.unlink(missing_ok=True)
        if job.source is not None and not keep_source:
            job.source.unlink(missing_ok=True)

    # -- the loop --------------------------------------------------------------

    def loop(self, first_cycle: list, seconds: float) -> None:
        """Run whole cycles until ``seconds`` of job time and the workload's
        minimum cycle count are both reached.  When tracing, job i of cycle c
        runs traced when i + c is even, so over two cycles every job kind
        runs once traced and once not."""
        measured, c, cycle = 0.0, 0, first_cycle
        while True:
            started = time.perf_counter()
            if c > 0:
                cycle = self.wl.cycle(self.seed, c, self.work)
                self.generate(cycle)
            for i, job in enumerate(cycle):
                traced = self.tracer is not None and (i + c) % 2 == 0
                record = self.run_job(job, f"c{c}-{i}", traced)
                record["cycle"] = c
                measured += record["wall_s"]
                awaited = job.twin_of is None and any(j.twin_of is job for j in cycle)
                self._clean(job, keep_source=awaited)
                if self.probe is not None:
                    record["probe_s"] = self._probe_once()
                if self.calibration is not None:
                    record["kernel_s"] = self.calibration.sample()
            c += 1
            last_cycle_s = time.perf_counter() - started
            if c >= self.wl.min_cycles and measured >= seconds:
                break
            if time.perf_counter() - _START + last_cycle_s > WALL_LIMIT_S:
                self.failures.append({"job": None, "kind": None,
                                      "error": f"stopped after {c} cycles to end in time"})
                break
        self.cycles = c

    def start_probe(self) -> None:
        """For workloads whose jobs never read a blob: decompose one small
        field, so that ``loop`` can time one ``reconstruct`` of it after each
        job, spread over the run like the jobs themselves."""
        import workloads

        src = self.work / "probe.ovtl"
        man, blob, rec = (self.work / f"probe{ext}" for ext in (".manifest", ".blob", ".rebuilt"))
        self.probe = workloads.Job(
            kind="probe", outputs=[man, blob, rec], check=workloads.check_roundtrip,
            source=src, calls=[["reconstruct", "--manifest", str(man), "--blob", str(blob),
                                str(rec)]])
        s = workloads.derive_seed(self.seed, "probe")
        for step in (workloads.gen_argv(1, 256, 2, s, src),
                     ["decompose", str(src), "--target", "h1", "--manifest", str(man),
                      "--blob", str(blob)]):
            if self.main(step) != 0:
                self._probe_failed(f"probe step failed: ovtl {' '.join(step)}")

    def _probe_once(self):
        t0 = time.perf_counter()
        rc = self.main(self.probe.calls[0])
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self._probe_failed(f"probe reconstruct exited {rc}")
        return elapsed

    def finish_probe(self) -> None:
        probe, self.probe = self.probe, None
        if probe is None:
            return
        try:
            probe.check(probe)
        except Exception as exc:  # a wrong rebuild invalidates the run
            self._probe_failed(f"probe check: {exc}")
        self._clean(probe, keep_source=False)

    def _probe_failed(self, message: str) -> None:
        self.failures.append({"job": None, "kind": "probe", "error": message})
        self.probe = None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_quantile(workload) -> float:
    """The highest whole percentile that leaves at least ten jobs beyond it
    at the workload's minimum job count.  It is fixed per workload so that
    runs completing more cycles still compare the same percentile."""
    n_min = workload.min_cycles * len(workload.cycle(0, 0, WORK))
    return math.floor(100 * (n_min - 10) / n_min) / 100


def nearest_rank(values: list, q: float) -> tuple:
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def job_scales(jobs: list) -> list:
    """Host scale of each job, from the median kernel time of the samples
    taken after it and after its ``KERNEL_WINDOW`` neighbours on each side."""
    kernels = [j["kernel_s"] for j in jobs]
    w = KERNEL_WINDOW
    return [host_scale(statistics.median(kernels[max(0, i - w):i + w + 1]))
            for i in range(len(kernels))]


def end_to_end(run: Run, setup: list, peak_rss_mb: float) -> tuple:
    """End-to-end metrics; ``setup`` holds (set-up seconds, kernel seconds)
    of each set-up sample."""
    scales = job_scales(run.jobs)
    walls = [j["wall_s"] for j in run.jobs]
    scaled = [w * s for w, s in zip(walls, scales)]
    q = tail_quantile(run.wl)
    tail, beyond = nearest_rank(scaled, q)
    recs = [(j.get("reconstruct_s") or j.get("probe_s"), s) for j, s in zip(run.jobs, scales)]
    recs = [(r, s) for r, s in recs if r is not None]
    metrics = {
        "setup_s": (statistics.median(t * host_scale(k, SETUP_SENSITIVITY)
                                      for t, k in setup), "s"),
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "job_s.p50": (statistics.median(scaled), "s"),
        "job_s.tail": (tail, "s"),
        "reconstruct_s.p50": (statistics.median(r * s for r, s in recs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "out_bytes_per_job": (sum(j["out_bytes"] for j in run.jobs) / len(walls), "B"),
    }
    details = {
        "host_scale": statistics.median(scales),
        "calibration_s": statistics.median(j["kernel_s"] for j in run.jobs),
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup),
            "jobs_per_s": len(walls) / sum(walls),
            "job_s.p50": statistics.median(walls),
            "job_s.tail": nearest_rank(walls, q)[0],
            "reconstruct_s.p50": statistics.median(r for r, _ in recs),
        },
        "tail": {"percentile": round(100 * q), "samples": len(walls), "beyond": beyond},
        "reconstruct_source": ("jobs" if any(j["reconstruct_s"] is not None for j in run.jobs)
                               else f"probe ({len(recs)} calls)"),
        "setup_samples": [{"setup_s": t, "kernel_s": k} for t, k in setup],
        "fail_ratio": sum(bool(j["error"]) for j in run.jobs) / len(walls),
    }
    return metrics, details


def per_layer(run: Run) -> tuple:
    """Layer metrics per job of the cycle's mix: each job kind's mean over
    its traced jobs, weighted by how often the kind occurs in a cycle, so
    the value does not depend on which jobs happened to be traced; plus
    set-up and input generation spread over all jobs."""
    traced = [j for j in run.jobs if j["traced"]]
    by_kind = {}
    for j in traced:
        by_kind.setdefault(j["kind"], []).append(j)
    mix = {}
    for job in run.wl.cycle(0, 0, WORK):
        mix[job.kind] = mix.get(job.kind, 0) + 1
    weight = sum(n for kind, n in mix.items() if kind in by_kind)
    setup, n_all = run.setup_tally, max(len(run.jobs), 1)

    def mix_mean(field, key):
        return sum(mix[kind] * statistics.fmean(j[field].get(key, 0.0) for j in js)
                   for kind, js in by_kind.items()) / max(weight, 1)

    def self_s(layer):
        return mix_mean("self_s", layer) + setup.self_s[layer] / n_all

    def count(name):
        return mix_mean("counts", name) + setup.counts[name] / n_all

    metrics = {f"{layer}.self_s": (self_s(layer), "s") for layer in LAYERS}
    for layer in NUMPY_LAYERS:
        metrics[f"{layer}_s"] = (self_s(layer), "s")
    for name, unit in COUNTERS:
        metrics[name] = (count(name), unit)
    tents = count("atomics.tent_atoms")
    metrics["atomics.kept_ratio"] = (count("atomics.kept_high_atoms") / tents if tents else 0.0, "1")

    # overhead: traced over untraced wall time, per job kind, summed over
    # the kinds that ran both ways
    walls = {}
    for j in run.jobs:
        walls.setdefault(j["kind"], ([], []))[0 if j["traced"] else 1].append(j["wall_s"])
    pairs = [(statistics.fmean(t), statistics.fmean(u)) for t, u in walls.values() if t and u]
    overhead = sum(t for t, _ in pairs) / sum(u for _, u in pairs) if pairs else 0.0
    coverage = (sum(j["covered"] for j in traced) / sum(j["wall_s"] for j in traced)
                if traced else 0.0)
    metrics["trace.overhead_ratio"] = (overhead, "1")
    metrics["trace.coverage"] = (coverage, "1")
    details = {
        "traced_jobs": len(traced),
        "traced_kinds": f"{len(by_kind)} of {len(mix)}",
        "untraced_jobs": len(run.jobs) - len(traced),
        "overhead_kinds": len(pairs),
        "min_job_coverage": min((j["covered"] / j["wall_s"] for j in traced), default=0.0),
        "cli_self_share": (sum(j["self_s"].get("cli", 0.0) for j in traced)
                           / max(sum(j["wall_s"] for j in traced), 1e-12)),
    }
    return metrics, details


def _cache_misses() -> dict:
    """Misses so far of the grid-keyed caches (call with the tracer off)."""
    import importlib

    return {f"{mod}.{name}": getattr(importlib.import_module(f"ovtl.{mod}"), name)
            .cache_info().misses for mod, name in WATCHED_CACHES}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _setup_probe(args) -> int:
    cli = _import_program()
    import workloads

    run = Run(workloads.WORKLOADS[args.workload], args.seed, cli)
    try:
        run.set_up()
        elapsed = time.perf_counter() - _START
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    kernel = run.calibration.median(SETUP_KERNEL_SAMPLES)
    print(json.dumps({"setup_s": elapsed, "kernel_s": kernel}))
    return 1 if run.gen_errors else 0


def _measure_setup(args) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((result["setup_s"], result["kernel_s"]))
    return samples


def _run_workload(args) -> int:
    nproc, blas_threads = args.threads
    cli = _import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer, problems = None, []
    if args.trace:
        tracer = Tracer()
        problems = self_test(tracer)
    run = Run(wl, args.seed, cli, tracer)
    try:
        first = run.set_up()
        setup = [time.perf_counter() - _START]
        if not args.trace:
            setup = [(setup[0], run.calibration.median(SETUP_KERNEL_SAMPLES))]
            setup += _measure_setup(args)
        if not args.trace and not any(argv[0] == "reconstruct"
                                      for job in first for argv in job.calls):
            run.start_probe()
        misses_before_jobs = _cache_misses()
        run.loop(first, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        misses = _cache_misses()
        run.finish_probe()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if args.trace:
        metrics, details = per_layer(run)
        if metrics["trace.coverage"][0] < 0.9:
            problems.append(f"trace coverage {metrics['trace.coverage'][0]:.3f} < 0.9")
    else:
        metrics, details = end_to_end(run, setup, peak_rss_mb)
    failed = sum(bool(j["error"]) for j in run.jobs)
    correct = failed == 0 and not problems and not any(f["job"] is None for f in run.failures)

    env = environment(args.seed, nproc, blas_threads)
    record = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "correct": correct, "attempted": len(run.jobs),
        "failed": failed, "cycles": run.cycles,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details, "problems": problems, "failures": run.failures[:50],
        "cache_misses_during_jobs": {k: misses[k] - misses_before_jobs[k] for k in misses},
        "jobs": run.jobs,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for key, value in env.items():
        print(f"# {key} = {value}")
    print(f"# workload = {wl.name}  trace = {args.trace}  cycles = {run.cycles}  "
          f"jobs = {len(run.jobs)}  failed = {failed}")
    for key, value in details.items():
        if not isinstance(value, (dict, list)) or key == "tail":
            print(f"# {key} = {value}")
    for problem in problems + [f["error"] for f in run.failures[:10]]:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(run.jobs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process; writes
    ``perfbench/results/all-seed<seed>.json``."""
    summary, ok = {}, True
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            summary[f"{name} trace={trace}"] = result
            ok &= bool(result and result["correct"])
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# all workloads: {'correct' if ok else 'FAILED'}; "
          f"results in {RESULTS.relative_to(ROOT)}/all-seed{args.seed}.json")
    return 0 if ok else 1


def _record(args) -> int:
    """Run every pool cycle of the workloads with recorded references and
    write their reports' result lines to ``perfbench/references.json``."""
    cli = _import_program()
    import workloads

    nproc, blas_threads = args.threads
    jobs = {}
    work = WORK / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("norm-desk", "certify"):
            wl, entries = workloads.WORKLOADS[name], {}
            for index in range(workloads.POOL):
                for job in wl.cycle(index, 0, work):
                    if job.twin_of is not None:
                        continue
                    for argv in ([job.gen] if job.gen else []) + job.calls:
                        if cli.main(argv) != 0:
                            raise SystemExit(f"ovtl {' '.join(argv)} failed")
                    entries[str(job.ref[1])] = {
                        "kind": job.kind,
                        "report": workloads.report_pairs(job.outputs[0].read_text())}
                    Run._clean(job, keep_source=False)
                print(f"# recorded {name} pool entry {index}", flush=True)
            jobs[name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(None, nproc, blas_threads)
    lines = ['{', f' "recorded_from": {json.dumps({k: env[k] for k in ("git_rev", "src_sha256")})},',
             f' "pool": {workloads.POOL},', ' "jobs": {']
    for n, (name, entries) in enumerate(jobs.items()):
        lines.append(f'  {json.dumps(name)}: {{')
        items = [f'   {json.dumps(seed)}: {json.dumps(entry)}' for seed, entry in entries.items()]
        lines.append(",\n".join(items))
        lines.append("  }" + ("," if n + 1 < len(jobs) else ""))
    lines += [' }', '}']
    workloads.REFERENCES.write_text("\n".join(lines) + "\n")
    print(f"# wrote {sum(len(e) for e in jobs.values())} references to "
          f"{workloads.REFERENCES.relative_to(ROOT)}")
    return 0


def _self_test() -> int:
    _import_program()
    tracer = Tracer()
    problems = self_test(tracer)
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {len(tracer._bindings)} bindings checked, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--self-test", action="store_true", help="check the tracer's rebinding")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the recorded references from the program in src/")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.threads = _cap_blas_threads()
    if not (SRC / "ovtl" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ovtl sources under {SRC}; run from a checkout\n")
        return 2
    if args.seconds is None:
        try:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 10
    if args.self_test:
        return _self_test()
    if args.record:
        return _record(args)
    if args.all:
        return _run_all(args)
    if args.workload not in WORKLOAD_NAMES:
        ap.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    if args.setup_probe:
        return _setup_probe(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
