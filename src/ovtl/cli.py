"""Command-line surface tying the modules into reproducible experiments.

Subcommands: gen | norm | verify | decompose | reconstruct | multiplier-check.
Reports are structured text with stable field ordering and explicit
parameter echoes; identical (config, seed) runs produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import generators
from .atomics import smooth_decompose_h1, smooth_decompose_tl, validate_atoms
from .errors import HypothesisError, OvtlError, ParameterError
from .fieldio import (
    Config,
    load_config,
    read_decomposition_blob,
    read_field,
    write_decomposition,
    write_field,
)
from .fmult import (
    SymbolSequence,
    bessel_dilate_sequence,
    cz_kernel_estimates,
    empirical_conic_bound,
    empirical_square_bound,
    identity_sequence,
    lp_sequence,
)
from .lattice import cone_index
from .opfield import check_p
from .normsuite import (
    bmo_norm,
    hardy_norm,
    homogeneous_equiv_report,
    tl_infty_norm,
    tl_norm_column,
    tl_norm_mixture,
    tl_norm_row,
)
from .spectral import (
    Profile,
    annulus_leak,
    apply_symbol,
    bessel_symbol,
    constant_profile,
    make_hom_lp_family,
    make_lp_family,
)


@functools.cache  # built once per process: parse_args keeps no state between calls
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ovtl", description=__doc__)
    ap.add_argument("--config", type=Path, default=None, help="config file path")
    ap.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    ap.add_argument("--grid", type=int, default=None, help="lattice points per axis N")
    ap.add_argument("--dim", type=int, default=None, help="spatial dimension d")
    ap.add_argument("--matrix", type=int, default=None, help="matrix dimension n")
    ap.add_argument("--alpha", type=float, default=None, help="smoothness index")
    ap.add_argument("--p", type=float, default=None, help="integrability index")
    ap.add_argument("--sigma", type=float, default=None, help="multiplier smoothness")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a field file")
    g.add_argument("--kind", required=True,
                   choices=("single-mode", "band-limited-random", "bump", "haar"))
    g.add_argument("--mode", type=str, default=None,
                   help="comma-separated frequency for single-mode")
    g.add_argument("--band", type=str, default=None,
                   help="rmin,rmax annulus for band-limited-random")
    g.add_argument("output", type=Path)

    n = sub.add_parser("norm", help="compute norms of a field file")
    n.add_argument("field", type=Path)
    n.add_argument("--which", type=str, default="F_col",
                   help=f"comma list from {tuple(_NORMS)}")
    n.add_argument("--report", type=Path, default=None)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=("lp-family", "multiplier", "cz", "lifting",
                                     "equivalence", "atoms"))
    v.add_argument("--violate-support", action="store_true",
                   help="multiplier suite only: run a support-violating "
                        "sequence so the hypothesis error surfaces")
    v.add_argument("--report", type=Path, default=None)

    d = sub.add_parser("decompose", help="smooth atomic decomposition")
    d.add_argument("field", type=Path)
    d.add_argument("--target", choices=("h1", "tl"), default="h1")
    d.add_argument("--manifest", type=Path, required=True)
    d.add_argument("--blob", type=Path, required=True)

    r = sub.add_parser("reconstruct", help="rebuild a field from manifest + blob")
    r.add_argument("--manifest", type=Path, required=True)
    r.add_argument("--blob", type=Path, required=True)
    r.add_argument("output", type=Path)

    m = sub.add_parser("multiplier-check", help="empirical multiplier certificates")
    m.add_argument("--family", choices=("identity", "bessel"), default="bessel")
    m.add_argument("--beta", type=float, default=None,
                   help="bessel family only: the order beta (default 1.0)")
    m.add_argument("--conic", action="store_true")
    m.add_argument("--report", type=Path, default=None)
    return ap


# (global flag, Config key) of each flag that overrides the config; a flag
# setting a tuple of values (--alpha, --p) sets the one-element tuple
_FLAG_KEYS = (("dim", "d"), ("grid", "N"), ("matrix", "n"), ("seed", "seed"),
              ("sigma", "sigma"), ("alpha", "alphas"), ("p", "ps"))


def _load_cfg(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    for flag, key in _FLAG_KEYS:
        if (value := getattr(args, flag)) is not None:
            setattr(cfg, key, (value,) if isinstance(getattr(cfg, key), tuple) else value)
    if cfg.n < 1:
        raise ParameterError(f"matrix dimension n must be >= 1, got {cfg.n}")
    if cfg.trials < 1:
        raise ParameterError(f"[run] trials must be >= 1, got {cfg.trials}")
    if not 0 <= cfg.seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2^64), got {cfg.seed}")
    for p in cfg.ps:  # every norm and certificate reads p; bmo and F_infty ignore it
        check_p(p)
    if not all(map(math.isfinite, cfg.alphas)):
        raise ParameterError(f"alpha must be finite, got {', '.join(map(str, cfg.alphas))}")
    if cfg.sigma is not None and not math.isfinite(cfg.sigma):
        raise ParameterError(f"sigma must be finite, got {cfg.sigma}")
    if not 0 < cfg.multiplier_margin < math.inf:
        raise ParameterError(f"multiplier_margin must be finite and positive, "
                             f"got {cfg.multiplier_margin}")
    return cfg


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _numbers(raw: str, convert, flag: str, want: str, counts) -> tuple:
    """The comma-separated numbers of a command-line value, as many as one
    of ``counts``."""
    try:
        values = tuple(convert(x) for x in raw.split(","))
    except ValueError:
        values = ()
    if len(values) not in counts:
        raise ParameterError(f"{flag} needs {want}, got {raw!r}")
    return values


def cmd_gen(cfg: Config, args) -> int:
    grid = cfg.grid()
    kind = args.kind
    for flag, value, reader in (("--mode", args.mode, "single-mode"),
                                ("--band", args.band, "band-limited-random")):
        if value is not None and kind != reader:
            raise ParameterError(f"{flag} applies only to --kind {reader}, not {kind}")
    if kind == "single-mode":
        k = _numbers(args.mode or "4", int, "--mode",
                     f"at most one integer per axis (d = {grid.d})", range(1, grid.d + 1))
        f = generators.single_mode(grid, cfg.n, k + (0,) * (grid.d - len(k)))
    elif kind == "band-limited-random":
        r_min, r_max = (_numbers(args.band, float, "--band", "two numbers rmin,rmax", (2,))
                        if args.band else (0.0, None))
        if args.band and not 0 <= r_min <= r_max < math.inf:
            raise ParameterError(f"--band needs finite 0 <= rmin <= rmax, got {args.band!r}")
        f = generators.band_limited_random(grid, cfg.n, cfg.seed, r_min=r_min,
                                           r_max=r_max)
    elif kind == "bump":
        f = generators.bump(grid, cfg.n, seed=cfg.seed)
    else:  # haar, the last of the parser's choices
        f = generators.haar(grid, cfg.n)
    write_field(args.output, f)
    return 0


# name: (report for (f, alpha, p, family, cfg), takes alpha, takes p)
_NORMS = {
    "F_col": (lambda f, a, p, fam, cfg: tl_norm_column(f, a, p, fam), True, True),
    "F_row": (lambda f, a, p, fam, cfg: tl_norm_row(f, a, p, fam), True, True),
    "F_mix": (lambda f, a, p, fam, cfg: tl_norm_mixture(f, a, p, fam), True, True),
    "hardy": (lambda f, a, p, fam, cfg: hardy_norm(f, p, fam, mode=cfg.kernel_mode), False, True),
    "bmo": (lambda f, a, p, fam, cfg: bmo_norm(f), False, False),
    "F_infty": (lambda f, a, p, fam, cfg: tl_infty_norm(f, a, fam), True, False),
}


def cmd_norm(cfg: Config, args) -> int:
    f = read_field(args.field)
    fam = make_lp_family(f.grid)
    which = [w.strip() for w in args.which.split(",")]
    if unknown := [name for name in which if name not in _NORMS]:
        raise OvtlError(f"unknown norm name {unknown[0]!r}")
    reports = []
    for name in which:  # one report per value of each parameter the norm takes
        norm, takes_alpha, takes_p = _NORMS[name]
        for alpha in cfg.alphas if takes_alpha else (None,):
            for p in cfg.ps if takes_p else (None,):
                reports.append(norm(f, alpha, p, fam, cfg))
                reports[-1].seed = cfg.seed
    _emit("\n".join(r.to_text() for r in reports), args.report)
    return 0


def _suite_lp_family(cfg: Config, lines: list) -> bool:
    grid = cfg.grid()
    ok = True
    for kind in ("default", "poly"):
        fam = make_lp_family(grid, kind)
        part = fam.partition_sum()
        cov = fam.covered_mask()
        err = float(np.max(np.abs(part[cov] - 1.0)))
        lines.append(f"partition_defect[{kind}] = {err:.3e}")
        ok &= err <= 1e-13
        rng_ok = all(
            float(fam.values(j).real.min()) >= -1e-15
            and float(fam.values(j).real.max()) <= 1.0 + 1e-12
            for j in range(fam.j_max + 1)
        )
        lines.append(f"range_ok[{kind}] = {rng_ok}")
        ok &= rng_ok
        supp_ok = all(annulus_leak(fam.values(j), grid, j) == 0.0
                      for j in range(1, fam.j_max + 1))
        lines.append(f"support_ok[{kind}] = {supp_ok}")
        ok &= supp_ok
    return ok


def _certificates(cfg: Config, seqs, alphas, ps, conic: bool) -> tuple:
    """(report texts, all passed) of the multiplier certificates of each
    sequence at each alpha and p, in that order, on one trial-spectrum
    generator and, if ``conic``, one cone."""
    grid = cfg.grid()
    bound = empirical_square_bound
    if conic:
        bound = functools.partial(empirical_conic_bound,
                                  cone=cone_index(grid, make_lp_family(grid).j_max))

    def gen(t):
        return generators.band_limited_spectrum(grid, cfg.n, cfg.seed + t)

    certs = [bound(seq, gen, alpha=alpha, p=p, trials=cfg.trials, sigma=cfg.sigma_value(),
                   margin=cfg.multiplier_margin)
             for seq, alpha, p in itertools.product(seqs, alphas, ps)]
    return [cert.to_text() for cert in certs], all(cert.passed for cert in certs)


def _suite_multiplier(cfg: Config, lines: list, violate_support: bool) -> bool:
    grid = cfg.grid()
    if violate_support:
        gauss = Profile(lambda xi: np.exp(-np.sum(xi**2, axis=-1)) + 0j)
        rho = tuple(gauss for _ in range(4))
        bad = SymbolSequence(grid, tuple(constant_profile() for _ in rho), rho,
                             name="support-violating")
        _certificates(cfg, (bad,), (0.0,), (2.0,), conic=False)
        lines.append("support_violation_undetected = True")
        return False  # reaching here means the violation went unnoticed
    texts, ok = _certificates(cfg, (identity_sequence(grid), bessel_dilate_sequence(grid, 1.0)),
                              (0.0,), (2.0,), conic=False)
    lines.extend(texts)
    return ok


def _suite_cz(cfg: Config, lines: list) -> bool:
    grid = cfg.grid()
    sigma = cfg.sigma_value()
    est = cz_kernel_estimates(lp_sequence(grid), grid, sigma)
    r1, r2, r3 = est.ratios()
    lines.append(f"E1 = {est.e1:.6e}")
    lines.append(f"E2 = {est.e2:.6e}")
    lines.append(f"E3 = {est.e3:.6e}")
    lines.append(f"phi_2_sigma = {est.phi_2_sigma:.6e}")
    lines.append(f"ratios = {r1:.4f}, {r2:.4f}, {r3:.4f}")
    lines.append(f"e3_max_shift = {est.e3_max_shift}")
    return all(np.isfinite(x) for x in (est.e1, est.e2, est.e3, est.phi_2_sigma))


def _suite_lifting(cfg: Config, lines: list) -> bool:
    grid = cfg.grid()
    fam = make_lp_family(grid)
    ok = True
    for t in range(cfg.trials):
        f = generators.band_limited_random(grid, cfg.n, cfg.seed + t)
        beta = 1.0
        jf = apply_symbol(bessel_symbol(grid, beta), f)
        back = apply_symbol(bessel_symbol(grid, -beta), jf)
        err = float(np.max(np.abs(back.data - f.data)) / np.max(np.abs(f.data)))
        ok &= err <= 1e-11
        for alpha in cfg.alphas:
            num = tl_norm_column(jf, alpha - beta, cfg.ps[0], fam).value
            den = tl_norm_column(f, alpha, cfg.ps[0], fam).value
            lines.append(f"lifting_ratio[trial={t},alpha={alpha}] = {num / den:.6f}")
    lines.append(f"roundtrip_ok = {ok}")
    return ok


def _suite_equivalence(cfg: Config, lines: list) -> bool:
    grid = cfg.grid()
    fam_a = make_lp_family(grid, "default")
    fam_b = make_lp_family(grid, "poly")
    hom = make_hom_lp_family(grid)
    ok = True
    for t in range(cfg.trials):
        f = generators.band_limited_random(grid, cfg.n, cfg.seed + t)
        for alpha in cfg.alphas:
            for p in cfg.ps:
                a = tl_norm_column(f, alpha, p, fam_a).value
                b = tl_norm_column(f, alpha, p, fam_b).value
                lines.append(f"phi_independence[t={t},alpha={alpha},p={p}] = {a / b:.6f}")
                if alpha > 0:
                    rep = homogeneous_equiv_report(f, alpha, p, fam_a, hom)
                    lines.append(
                        f"homogeneous[t={t},alpha={alpha},p={p}] = "
                        f"{rep.terms['ratio_phi0_form']:.6f}"
                    )
                ok &= np.isfinite(a / b) and a / b > 0
    return ok


def _suite_atoms(cfg: Config, lines: list) -> bool:
    grid = cfg.grid()
    alpha = next((a for a in cfg.alphas if a > 0), 0.5)
    ok = True
    for t in range(max(1, cfg.trials // 2)):
        f = generators.band_limited_random(grid, cfg.n, cfg.seed + t)
        for label, dec in ((f"h1[t={t}]", smooth_decompose_h1(f, K=cfg.K)),
                           (f"tl[t={t},alpha={alpha}]",
                            smooth_decompose_tl(f, alpha, cfg.K, cfg.L))):
            atoms = dec.low_pairs + dec.high_pairs
            valid = all(rep.passed for rep in validate_atoms([a for _, a in atoms]))
            lines.append(f"{label}: atoms = {len(atoms)} residual = {dec.residual:.3e} "
                         f"mass_ratio = {dec.mass_ratio:.4f} valid = {valid}")
            ok &= valid and dec.residual <= 1e-9
    return ok


def cmd_verify(cfg: Config, args) -> int:
    lines = [f"[verify:{args.suite}]",
             f"d = {cfg.d}", f"N = {cfg.N}", f"n = {cfg.n}", f"seed = {cfg.seed}"]
    suites = {
        "lp-family": _suite_lp_family,
        "multiplier": functools.partial(_suite_multiplier,
                                        violate_support=args.violate_support),
        "cz": _suite_cz,
        "lifting": _suite_lifting,
        "equivalence": _suite_equivalence,
        "atoms": _suite_atoms,
    }
    try:
        ok = suites[args.suite](cfg, lines)
    except HypothesisError as exc:
        lines.append(f"hypothesis_error = {exc}")
        ok = False
    lines.append(f"passed = {ok}")
    _emit("\n".join(lines) + "\n", args.report)
    return 0 if ok else 1


def cmd_decompose(cfg: Config, args) -> int:
    f = read_field(args.field)
    if args.target == "h1":
        dec = smooth_decompose_h1(f, K=cfg.K)
    else:
        alpha = cfg.alphas[0]
        dec = smooth_decompose_tl(f, alpha, cfg.K, cfg.L)
    write_decomposition(args.manifest, args.blob, dec)
    return 0


def cmd_reconstruct(cfg: Config, args) -> int:
    f, meta, atoms = read_decomposition_blob(args.blob, args.manifest)
    write_field(args.output, f)
    return 0


def cmd_multiplier_check(cfg: Config, args) -> int:
    grid = cfg.grid()
    if args.family == "identity" and args.beta is not None:
        raise ParameterError("--beta applies only to --family bessel")
    seq = (identity_sequence(grid) if args.family == "identity"
           else bessel_dilate_sequence(grid, 1.0 if args.beta is None else args.beta))
    texts, ok = _certificates(cfg, (seq,), cfg.alphas, cfg.ps, args.conic)
    _emit("\n".join(texts), args.report)
    return 0 if ok else 1


# glibc mallopt parameters (malloc.h) and the values main sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_ABOVE = 1 << 25  # 32 MiB, glibc's own 64-bit ceiling: 4-8 MB planes come from the heap
_TRIM_ABOVE = 1 << 30  # 1 GiB: a job's freed planes stay mapped for the next job, not re-faulted


@functools.cache  # looked up once: opening the C library takes about 0.1 ms a call
def _mallopt():
    """The C library's mallopt, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt (macOS); no process handle (Windows)
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def _keep_freed_memory():
    """Keep freed blocks in the process heap (glibc); return mallopt's two
    answers (1 where taken), or None where the C library has no mallopt."""
    mallopt = _mallopt()
    if mallopt is None:
        return None
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_ABOVE), mallopt(_M_TRIM_THRESHOLD, _TRIM_ABOVE)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _parser().parse_args(argv)
    commands = {
        "gen": cmd_gen,
        "norm": cmd_norm,
        "verify": cmd_verify,
        "decompose": cmd_decompose,
        "reconstruct": cmd_reconstruct,
        "multiplier-check": cmd_multiplier_check,
    }
    try:
        return commands[args.command](_load_cfg(args), args)
    except HypothesisError as exc:
        sys.stderr.write(f"hypothesis error: {exc}\n")
        return 2
    except (OvtlError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
