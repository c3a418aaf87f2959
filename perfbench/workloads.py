"""Workloads of the ovtl benchmark: job cycles, cache warm-up and output checks.

A workload is a cycle of jobs repeated until the run has measured long
enough.  Every cycle has the same job kinds in the same order, so runs that
complete the same number of cycles run the same mix.  Each job but the last
reads its own input file, generated by ``ovtl gen``.  The last job of a
cycle is the twin of the first: the same command on the same input, whose
outputs must be byte-identical to the first job's.

The reports of norm-desk and certify jobs are compared with values recorded
from the program in ``references.json`` (``run.py --record``).  Their job
seeds come from a fixed pool of ``POOL`` cycles, so that every seed a run
uses has a recorded reference; the run seed picks where in the pool a run
starts.  decompose-roundtrip jobs are checked against their own input file,
so their seeds are derived from the run seed directly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ovtl import atomics, spectral
from ovtl.lattice import Grid

ALPHA, P = 0.5, 1.0
REL_TOL = 1e-9
RESIDUAL_TOL = 1e-9
POOL = 10                  # recorded cycles per workload with references
REFERENCES = Path(__file__).resolve().parent / "references.json"
# report lines that echo a job's inputs rather than compute anything
INPUT_KEYS = frozenset(("d", "N", "n", "seed", "alpha", "p", "kernel", "mode", "shape",
                        "poisson_k", "trials", "sigma", "margin", "window"))


class CheckFailed(Exception):
    """A job's output does not match its reference."""


@dataclass
class Job:
    """One job.  ``check`` raises :class:`CheckFailed` if its outputs are wrong."""

    kind: str
    calls: list                          # argv lists for ovtl.cli.main, in order
    outputs: list                        # files the calls write
    check: Optional[Callable[["Job"], None]] = None
    source: Optional[Path] = None        # input field file
    gen: Optional[list] = None           # argv that writes ``source``
    ref: Optional[tuple] = None          # (workload, job seed) of the recorded reference
    twin_of: Optional["Job"] = None
    digests: Optional[list] = None      # sha256 of outputs and input, once checked


def derive_seed(*parts) -> int:
    """A 62-bit seed fixed by ``parts``."""
    text = "/".join(str(x) for x in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 2


def pool_seed(seed: int, cycle: int, slot: int) -> int:
    """Seed of job ``slot`` in ``cycle``: cycle c of a run with seed s uses
    pool entry (s + c) mod ``POOL``."""
    return derive_seed("pool", (seed + cycle) % POOL, slot)


def gen_argv(d, N, n, seed, path) -> list:
    return ["--grid", str(N), "--dim", str(d), "--matrix", str(n), "--seed", str(seed),
            "gen", "--kind", "band-limited-random", str(path)]


def _twin(first: Job) -> Job:
    return Job(kind=first.kind + "+twin", calls=first.calls, outputs=first.outputs,
               source=first.source, twin_of=first)


# ---------------------------------------------------------------------------
# recorded references
# ---------------------------------------------------------------------------

def report_pairs(text: str) -> list:
    """The ``[key, value]`` lines of a report that carry a result, in order."""
    out = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() not in INPUT_KEYS:
            out.append([key.strip(), value.strip()])
    return out


def _numbers(value: str):
    try:
        return [float(x) for x in value.strip("()").split(",")]
    except ValueError:
        return None


def _printed_tol(value: str) -> float:
    """``REL_TOL``, or one unit in the last digit of ``value`` relative to
    its leading digit if that is coarser (``verify cz`` prints 7 digits, its
    ratios 5).  Integers and zeros compare exactly."""
    value = value.strip().lstrip("+-").lower()
    if "." not in value and "e" not in value:
        return 0.0
    digits = len(value.split("e")[0].replace(".", "").lstrip("0"))
    return max(REL_TOL, 10.0 ** (1 - digits)) if digits else 0.0


def compare_reports(got: str, want: list) -> None:
    """Every recorded ``[key, value]`` must appear in ``got`` (the k-th
    occurrence of a key matching the k-th); numbers to relative ``REL_TOL``
    or their printed precision, other values exactly.  Lines added to
    reports later are ignored."""
    seen = {}
    got_pairs = report_pairs(got)
    for key, value in want:
        k = seen.get(key, 0)
        seen[key] = k + 1
        matches = [v for kk, v in got_pairs if kk == key]
        if len(matches) <= k:
            raise CheckFailed(f"report lacks {key!r} (occurrence {k + 1})")
        have = matches[k]
        a, b = _numbers(have), _numbers(value)
        if a is None or b is None or len(a) != len(b):
            if have != value:
                raise CheckFailed(f"{key} = {have!r}, recorded {value!r}")
            continue
        tols = [_printed_tol(x) for x in value.strip("()").split(",")]
        for x, y, tol in zip(a, b, tols):
            if not (x == y or math.isclose(x, y, rel_tol=tol)):
                raise CheckFailed(f"{key} = {x!r}, recorded {y!r}")


@functools.lru_cache(maxsize=None)
def references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_report(job: Job) -> None:
    workload, seed = job.ref
    entry = references()["jobs"].get(workload, {}).get(str(seed))
    if entry is None:
        raise CheckFailed(f"no recorded reference for {workload} seed {seed}")
    if entry["kind"] != job.kind:
        raise CheckFailed(f"reference for seed {seed} is a {entry['kind']} job")
    compare_reports(Path(job.outputs[0]).read_text(), entry["report"])


# ---------------------------------------------------------------------------
# norm-desk
# ---------------------------------------------------------------------------

NORMS = ("F_col", "F_mix", "hardy", "bmo", "F_infty")
DESK_SCALES = ((2, 128), (3, 32), (1, 1024))
DESK_NS = (2, 4, 1)


def norm_desk_cycle(seed: int, cycle: int, work: Path) -> list:
    jobs = []
    for which in NORMS:
        for d, N in DESK_SCALES:
            for n in DESK_NS:
                i = len(jobs)
                s = pool_seed(seed, cycle, i)
                src, rep = work / f"c{cycle}-{i}.ovtl", work / f"c{cycle}-{i}.report"
                jobs.append(Job(
                    kind=f"{which}/d{d}-N{N}-n{n}",
                    calls=[["--alpha", str(ALPHA), "--p", str(P), "--seed", str(s),
                            "norm", str(src), "--which", which, "--report", str(rep)]],
                    outputs=[rep], check=check_report, source=src,
                    gen=gen_argv(d, N, n, s, src), ref=("norm-desk", s)))
    return jobs + [_twin(jobs[0])]


# ---------------------------------------------------------------------------
# decompose-roundtrip
# ---------------------------------------------------------------------------

# (target, d, N): tl at alpha = 0.5 dominates; one job in the cycle is d=1
# N=1024 tl, which takes about half the cycle's time.
DECOMPOSE_KINDS = (
    ("tl", 1, 256), ("tl", 1, 1024), ("h1", 2, 32), ("tl", 2, 32), ("h1", 1, 256),
    ("tl", 1, 256), ("h1", 1, 1024), ("tl", 1, 256), ("h1", 2, 32), ("tl", 1, 256),
)
DECOMPOSE_N = 2


def read_field_array(path) -> np.ndarray:
    """Payload of an OVTL field file, read without ovtl.fieldio: after the
    22-byte header (magic, u16 version, four u32) come complex128 entries."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"OVTL" or (len(raw) - 22) % 16:
        raise CheckFailed(f"{path}: not an OVTL field file")
    return np.frombuffer(raw, dtype="<c16", offset=22)


def check_roundtrip(job: Job) -> None:
    manifest, _, rebuilt = job.outputs
    src = read_field_array(job.source)
    rec = read_field_array(rebuilt)
    if src.shape != rec.shape:
        raise CheckFailed(f"rebuilt field has {rec.size} entries, source {src.size}")
    residual = float(np.linalg.norm(rec - src) / np.linalg.norm(src))
    if not residual <= RESIDUAL_TOL:
        raise CheckFailed(f"reconstruction residual {residual:.3e} > {RESIDUAL_TOL:g}")
    pairs = report_pairs(Path(manifest).read_text())
    declared = [int(v) for k, v in pairs if k == "atoms"]
    valid = [v for k, v in pairs if k == "valid"]
    if not declared or declared[0] < 1 or len(valid) != declared[0]:
        raise CheckFailed(f"manifest declares {declared} atoms, lists {len(valid)}")
    bad = sum(v != "True" for v in valid)
    if bad:
        raise CheckFailed(f"{bad} of {len(valid)} manifest atoms are not valid")


def decompose_cycle(seed: int, cycle: int, work: Path) -> list:
    jobs = []
    for i, (target, d, N) in enumerate(DECOMPOSE_KINDS):
        s = derive_seed(seed, cycle, i)
        stem = work / f"c{cycle}-{i}"
        src, man, blob, rec = (Path(f"{stem}{ext}") for ext in
                               (".ovtl", ".manifest", ".blob", ".rebuilt.ovtl"))
        jobs.append(Job(
            kind=f"{target}/d{d}-N{N}",
            calls=[["--alpha", str(ALPHA), "decompose", str(src), "--target", target,
                    "--manifest", str(man), "--blob", str(blob)],
                   ["reconstruct", "--manifest", str(man), "--blob", str(blob), str(rec)]],
            outputs=[man, blob, rec], check=check_roundtrip, source=src,
            gen=gen_argv(d, N, DECOMPOSE_N, s, src)))
    return jobs + [_twin(jobs[0])]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

CERTIFY_GRIDS = ((1, 1024), (2, 64))
CERTIFY_N = 2
CERTIFY_KINDS = (
    ("multiplier-check", "bessel", False), ("multiplier-check", "identity", False),
    ("multiplier-check", "bessel", True), ("multiplier-check", "identity", True),
    ("verify", "cz", False), ("verify", "multiplier", False),
)


def certify_cycle(seed: int, cycle: int, work: Path) -> list:
    jobs = []
    for command, name, conic in CERTIFY_KINDS:
        for d, N in CERTIFY_GRIDS:
            i = len(jobs)
            s = pool_seed(seed, cycle, i)
            rep = work / f"c{cycle}-{i}.report"
            head = ["--grid", str(N), "--dim", str(d), "--matrix", str(CERTIFY_N),
                    "--seed", str(s)]
            if command == "multiplier-check":
                argv = head + ["--alpha", str(ALPHA), "--p", str(P), command,
                               "--family", name] + (["--conic"] if conic else [])
                kind = f"{name}{'-conic' if conic else ''}/d{d}-N{N}"
            else:
                argv = head + [command, name]
                kind = f"verify-{name}/d{d}-N{N}"
            jobs.append(Job(kind=kind, calls=[argv + ["--report", str(rep)]],
                            outputs=[rep], check=check_report, ref=("certify", s)))
    return jobs + [_twin(jobs[0])]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, Path], list]
    grids: tuple            # (d, N) pairs the jobs run on
    calderon: bool          # the jobs decompose, so the Calderon system is built
    min_cycles: int         # cycles every run completes, whatever its length

    def warm_caches(self) -> None:
        """First builds of the grid-keyed caches the jobs use, called the
        way the library calls them so the jobs hit the same cache keys."""
        for d, N in self.grids:
            grid = Grid(d, N)
            spectral.make_lp_family(grid)
            if self.calderon:
                atomics.calderon_resolution(grid, n_pow=2)


# min_cycles also fixes the tail percentile (run.tail_quantile); it is
# chosen so that the percentile falls inside one job kind's share of the
# sorted job times, not on the edge between two kinds.
WORKLOADS = {
    "norm-desk": Workload("norm-desk", norm_desk_cycle, DESK_SCALES, False, 2),
    "decompose-roundtrip": Workload("decompose-roundtrip", decompose_cycle,
                                    ((1, 256), (1, 1024), (2, 32)), True, 4),
    "certify": Workload("certify", certify_cycle, CERTIFY_GRIDS, False, 5),
}
