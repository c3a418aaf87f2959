import ctypes
import dataclasses
import math
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ovtl
from ovtl import cli, generators
from ovtl.atomics import smooth_decompose_h1, smooth_decompose_tl, validate_atoms
from ovtl.cli import main
from ovtl.errors import ConfigError, FormatError, OvtlError
from ovtl.fieldio import (
    _CONFIG_KEYS,
    _HEADER,
    Config,
    config_to_text,
    parse_config,
    read_field,
    write_field,
)
from ovtl.lattice import Grid
from ovtl.opfield import OperatorField
from ovtl.generators import band_limited_random, bump, haar
from helpers import fft_forward, random_strip, write_strip_file, zero_field


def test_field_file_roundtrip(tmp_path, grid64):
    f = band_limited_random(grid64, 2, 1)
    path = tmp_path / "f.ovtl"
    write_field(path, f)
    g = read_field(path)
    assert isinstance(g, OperatorField)
    assert np.array_equal(g.data, f.data)


def test_strip_file_rejected(tmp_path, grid64):
    path = tmp_path / "F.ovtl"
    write_strip_file(path, random_strip(grid64, 3, 4, 2))
    with pytest.raises(FormatError, match="j_count = 4: expected a plain field"):
        read_field(path)


def test_field_file_bad_magic(tmp_path):
    path = tmp_path / "junk.ovtl"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_field(path)


def test_config_roundtrip():
    cfg = Config(d=2, N=64, n=4, sigma=1.75, alphas=(0.0, 0.5, 1.0),
                 ps=(1.0, 3.0), K=2, L=1, seed=99, trials=7)
    text = config_to_text(cfg)
    back = parse_config(text)
    assert back == cfg
    assert config_to_text(back) == text


def test_config_text_golden():
    # a format that changes but still round-trips (another key order, "1" for
    # "1.0") passes the round trip above, not this
    cfg = Config(d=3, N=32, n=4, sigma=0.1 + 0.2, alphas=(0.0, -1.5, 2.25),
                 ps=(1.0, math.inf), kernel_mode="poisson", K=3, L=-1,
                 multiplier_margin=2.5, seed=2**64 - 1, trials=3)
    assert config_to_text(cfg) == (
        "[grid]\nd = 3\nN = 32\n"
        "[algebra]\nn = 4\n"
        "[spectral]\nsigma = 0.30000000000000004\n"
        "[norms]\nalphas = 0.0,-1.5,2.25\nps = 1.0,inf\nkernel_mode = poisson\n"
        "[decomposition]\nK = 3\nL = -1\nmultiplier_margin = 2.5\n"
        "[run]\nseed = 18446744073709551615\ntrials = 3\n")


def test_config_keys_name_every_field_once():
    keys = [key for _, key, _, _ in _CONFIG_KEYS]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(Config))
    assert len(set(keys)) == len(keys)


def test_config_auto_fields():
    cfg = parse_config(config_to_text(Config()))
    assert cfg.sigma is None
    assert cfg.sigma_value() == 1.0  # d/2 + 1/2 at d = 1


def test_config_unknown_kernel_mode_rejected(tmp_path, capsys):
    text = config_to_text(Config()).replace("kernel_mode = lp", "kernel_mode = bogus")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert isinstance(info.value, OvtlError)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    code = main(["--config", str(cfg), "--grid", "64", "norm", str(field), "--which", "hardy"])
    assert code != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kernel_mode" in err and "bogus" in err


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("[run]\n", "[run]\nout = results\n"),
    lambda text: text + "[extra]\nkey = 1\n",
    lambda text: "[DEFAULT]\nwindow = 3\n" + text,
])
def test_config_unknown_key_rejected(tmp_path, capsys, edit):
    text = edit(config_to_text(Config()))
    with pytest.raises(ConfigError):
        parse_config(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main(["--config", str(cfg), "--grid", "64", "norm", str(field)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit,section,key", [
    (lambda text: text.replace("d = 1\n", "d = x\n"), "[grid]", "d"),
    (lambda text: text.replace("ps = 1.0,2.0\n", "ps = 1,a\n"), "[norms]", "ps"),
    (lambda text: text.replace("sigma = auto\n", "sigma = wide\n"), "[spectral]", "sigma"),
    (lambda text: text.replace("trials = 10\n", "trials = 2.5\n"), "[run]", "trials"),
    (lambda text: text.replace("multiplier_margin = 100.0\n", "multiplier_margin = \n"),
     "[decomposition]", "multiplier_margin"),
    (lambda text: "junk\n", "line 1", "junk"),
    (lambda text: text + "[run]\nseed = 3\n", "malformed config", "run"),
    (lambda text: text.replace("N = 256\n", "n = 64\n"), "[grid]", "'n'"),
    (lambda text: text.replace("N = 256\n", "N = 64\nn = 2\n"), "[grid]", "'n'"),
    (lambda text: text.replace("K = 1\n", "k = 1\n"), "[decomposition]", "'k'"),
])
def test_config_malformed_value_rejected(tmp_path, capsys, edit, section, key):
    text = edit(config_to_text(Config()))
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert section in str(info.value) and key in str(info.value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main(["--config", str(cfg), "--grid", "64", "norm", str(field)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and section in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_config_matrix_dimension_rejected(tmp_path, capsys, n):
    # [algebra] n meets the same check as --matrix
    cfg = tmp_path / "n.cfg"
    cfg.write_text(config_to_text(Config()).replace("[algebra]\nn = 2\n", f"[algebra]\nn = {n}\n"))
    out = tmp_path / "out.ovtl"
    capsys.readouterr()
    assert main(["--config", str(cfg), "gen", "--kind", "haar", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "n must be >= 1" in err
    assert not out.exists()


H1_DECOMPOSE = ["decompose", "{field}", "--target", "h1", "--manifest", "{out}.m",
                "--blob", "{out}.b"]


@pytest.mark.parametrize("old,new,argv,needle", [
    ("trials = 10\n", "trials = -3\n", ["multiplier-check", "--report", "{out}"],
     "trials must be >= 1"),
    ("trials = 10\n", "trials = 0\n", ["multiplier-check", "--conic", "--report", "{out}"],
     "trials must be >= 1"),
    ("K = 1\n", "K = -1\n", H1_DECOMPOSE, "K must be >= 1"),
    ("K = 1\n", "K = 0\n", H1_DECOMPOSE, "K must be >= 1"),
    ("seed = 0\n", "seed = -1\n", ["gen", "--kind", "band-limited-random", "{out}"],
     "seed must lie in [0, 2^64)"),
    ("multiplier_margin = 100.0\n", "multiplier_margin = nan\n",
     ["multiplier-check", "--report", "{out}"], "multiplier_margin must be finite and positive"),
    ("multiplier_margin = 100.0\n", "multiplier_margin = inf\n",
     ["verify", "multiplier", "--report", "{out}"],
     "multiplier_margin must be finite and positive"),
    ("multiplier_margin = 100.0\n", "multiplier_margin = 0.0\n",
     ["multiplier-check", "--conic", "--report", "{out}"],
     "multiplier_margin must be finite and positive"),
    ("alphas = 0.0,0.5\n", "alphas = 0.0,nan\n", ["norm", "{field}", "--report", "{out}"],
     "alpha must be finite"),
    ("sigma = auto\n", "sigma = nan\n", ["multiplier-check", "--report", "{out}"],
     "sigma must be finite"),
    # p is checked once the config is loaded, also for commands and norms that never read it
    ("ps = 1.0,2.0\n", "ps = 1.0,nan\n", ["norm", "{field}", "--which", "bmo", "--report",
                                           "{out}"], "p must be"),
    ("ps = 1.0,2.0\n", "ps = 0.5,2.0\n", ["norm", "{field}", "--which", "F_infty", "--report",
                                           "{out}"], "p must be"),
    ("ps = 1.0,2.0\n", "ps = 1.0,-inf\n", ["gen", "--kind", "band-limited-random", "{out}"],
     "p must be"),
])
def test_config_value_out_of_range_rejected(tmp_path, capsys, old, new, argv, needle):
    cfg, field, out = tmp_path / "v.cfg", tmp_path / "f.ovtl", tmp_path / "out"
    cfg.write_text(config_to_text(Config(N=64)).replace(old, new))
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main(["--config", str(cfg)] + [a.format(field=field, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert not any(tmp_path.glob("out*"))


def test_config_poisson_kernel_mode_honoured(tmp_path, capsys):
    cfg = tmp_path / "poisson.cfg"
    cfg.write_text(config_to_text(Config(kernel_mode="poisson")))
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    assert main(["--config", str(cfg), "--grid", "64", "--p", "1", "--alpha", "0",
                 "norm", str(field), "--which", "hardy"]) == 0
    assert "mode = poisson" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_accepted(tmp_path, seed):
    out = tmp_path / "x.ovtl"
    assert main(["--grid", "64", "--seed", str(seed), "gen", "--kind",
                 "band-limited-random", str(out)]) == 0
    assert out.exists()


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.ovtl", tmp_path / "b.ovtl"
    args = ["--grid", "64", "--dim", "1", "--matrix", "2", "--seed", "5",
            "gen", "--kind", "band-limited-random"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_single_mode_support(tmp_path):
    out = tmp_path / "m.ovtl"
    assert main(["--grid", "64", "--matrix", "2", "gen", "--kind", "single-mode",
                 "--mode", "4", str(out)]) == 0
    f = read_field(out)
    fh = fft_forward(f).data
    assert abs(fh[4, 0, 0] - 1.0) < 1e-12
    mask = np.ones(64, dtype=bool)
    mask[4] = False
    assert np.max(np.abs(fh[mask])) < 1e-12


def test_gen_band_annulus(tmp_path):
    out = tmp_path / "b.ovtl"
    assert main(["--grid", "64", "--matrix", "1", "--seed", "3", "gen",
                 "--kind", "band-limited-random", "--band", "2,8", str(out)]) == 0
    f = read_field(out)
    fh = fft_forward(f).data
    r = f.grid.freq_norm
    outside = (r < 2.0) | (r > 8.0)
    assert np.max(np.abs(fh[outside])) < 1e-12


def test_norm_zero_field(tmp_path, capsys):
    out = tmp_path / "z.ovtl"
    write_field(out, zero_field(Grid(1, 64), 2))
    assert main(["--grid", "64", "norm", str(out), "--which", "F_col,bmo"]) == 0
    text = capsys.readouterr().out
    assert "value = 0.000000000000000e+00" in text


def test_norm_mixture_upper_bound_flag(tmp_path, capsys):
    out = tmp_path / "f.ovtl"
    write_field(out, band_limited_random(Grid(1, 64), 2, 4))
    assert main(["--grid", "64", "--p", "1", "norm", str(out), "--which", "F_mix"]) == 0
    text = capsys.readouterr().out
    assert "upper_bound = True" in text


def test_norm_calls_share_no_parser_state(tmp_path, capsys):
    # the parser is built once per process: a --which of one call is not the
    # default of the next
    out = tmp_path / "f.ovtl"
    write_field(out, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main(["--grid", "64", "--p", "1", "norm", str(out), "--which", "F_mix"]) == 0
    assert "name = F_alpha_mixture" in capsys.readouterr().out
    assert main(["--grid", "64", "norm", str(out)]) == 0
    names = [line for line in capsys.readouterr().out.splitlines() if line.startswith("name =")]
    assert names == ["name = F_alpha_column"] * 4


def test_norm_unknown_name(tmp_path):
    out = tmp_path / "f.ovtl"
    write_field(out, band_limited_random(Grid(1, 64), 2, 4))
    assert main(["--grid", "64", "norm", str(out), "--which", "nope"]) == 1


def test_norm_one_report_per_parameter_taken(tmp_path, capsys):
    # default alphas (0, 0.5) and ps (1, 2): F_col takes both, hardy only p,
    # F_infty only alpha and bmo neither, so no two reports repeat
    out = tmp_path / "f.ovtl"
    write_field(out, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main(["--grid", "64", "norm", str(out), "--which", "F_col,hardy,F_infty,bmo"]) == 0
    reports = capsys.readouterr().out.split("[report]\n")[1:]
    names = [r.splitlines()[0] for r in reports]
    assert [names.count(f"name = {k}") for k in ("F_alpha_column", "hardy", "F_alpha_infty",
                                                 "bmo")] == [4, 2, 2, 1]
    assert len(set(reports)) == len(reports) == 9


def test_verify_suites_pass(tmp_path):
    base = ["--grid", "64", "--matrix", "2", "--seed", "11"]
    assert main(base + ["verify", "lp-family"]) == 0
    assert main(base + ["--sigma", "1.0", "verify", "cz",
                        "--report", str(tmp_path / "cz.txt")]) == 0
    assert main(base + ["verify", "lifting", "--report", str(tmp_path / "l.txt")]) == 0


def test_verify_atoms_suite(tmp_path):
    rep = tmp_path / "atoms.txt"
    code = main(["--grid", "64", "--matrix", "1", "--seed", "13", "verify", "atoms",
                 "--report", str(rep)])
    assert code == 0
    assert "passed = True" in rep.read_text()


@pytest.mark.parametrize("d,N,L", [(1, 64, 1), (1, 64, 2), (2, 32, 1)])
def test_atoms_with_moments_validate(tmp_path, d, N, L):
    # moments are taken about each subatom's center over the half-open cell
    # [-1/2, 1/2): the lattice point opposite the center sits at -1/2, where
    # the piece's support puts it
    f = band_limited_random(Grid(d, N), 1, 14)
    dec = smooth_decompose_tl(f, 0.5, 1, L)
    assert all(r.passed for r in validate_atoms([a for _, a in dec.low_pairs + dec.high_pairs]))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_to_text(Config(d=d, N=N, n=1, L=L, trials=2)))
    rep = tmp_path / "atoms.txt"
    assert main(["--config", str(cfg), "verify", "atoms", "--report", str(rep)]) == 0
    assert rep.read_text().endswith("passed = True\n")


def test_verify_atoms_uses_config_k_for_h1(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_to_text(Config(N=64, n=1, K=2, seed=5, trials=2)))
    rep = tmp_path / "atoms.txt"
    assert main(["--config", str(cfg), "verify", "atoms", "--report", str(rep)]) == 0
    f = band_limited_random(Grid(1, 64), 1, 5)
    k1, k2 = (f"mass_ratio = {smooth_decompose_h1(f, K=K).mass_ratio:.4f} " for K in (1, 2))
    assert k1 != k2
    h1_line = next(line for line in rep.read_text().splitlines() if line.startswith("h1[t=0]"))
    assert k2 in h1_line


def test_decompose_reconstruct_roundtrip(tmp_path):
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 21))
    man, blob = tmp_path / "man.txt", tmp_path / "blob.bin"
    assert main(["--grid", "64", "--alpha", "0.5", "decompose", str(field),
                 "--target", "tl", "--manifest", str(man), "--blob", str(blob)]) == 0
    rec = tmp_path / "rec.ovtl"
    assert main(["reconstruct", "--manifest", str(man), "--blob", str(blob),
                 str(rec)]) == 0
    a, b = read_field(field), read_field(rec)
    scale = np.max(np.abs(a.data))
    assert np.max(np.abs(a.data - b.data)) <= 1e-9 * scale
    text = man.read_text()
    assert "kind = alpha_q" in text
    assert "valid = True" in text and "valid = False" not in text
    # byte-identical manifests across re-runs (determinism contract)
    man2, blob2 = tmp_path / "man2.txt", tmp_path / "blob2.bin"
    main(["--grid", "64", "--alpha", "0.5", "decompose", str(field),
          "--target", "tl", "--manifest", str(man2), "--blob", str(blob2)])
    assert man.read_bytes() == man2.read_bytes()
    assert blob.read_bytes() == blob2.read_bytes()


@pytest.mark.parametrize("target", ["tl", "h1"])
def test_decompose_round_trip_at_d3(tmp_path, target):
    # no benchmark workload decomposes at d = 3, where storing each atom on
    # its projected support rather than on 2Q trims the most: gen, the
    # decomposition and reconstruct on the command line rebuild the source
    # to residual <= 1e-9 with every manifest atom valid
    field, man, blob, rec = (tmp_path / name for name in ("f.ovtl", "m.txt", "b.bin", "r.ovtl"))
    grid = ["--dim", "3", "--grid", "16", "--matrix", "2"]
    assert main(grid + ["--seed", "7", "gen", "--kind", "band-limited-random", str(field)]) == 0
    assert main(grid + ["--alpha", "0.5", "decompose", str(field), "--target", target,
                        "--manifest", str(man), "--blob", str(blob)]) == 0
    assert main(["reconstruct", "--manifest", str(man), "--blob", str(blob), str(rec)]) == 0
    src, back = read_field(field).data, read_field(rec).data
    assert np.linalg.norm(back - src) / np.linalg.norm(src) <= 1e-9
    valid = [line for line in man.read_text().splitlines() if line.startswith("valid = ")]
    assert valid and all(line == "valid = True" for line in valid)


@pytest.mark.parametrize("conic", [False, True])
@pytest.mark.parametrize("family", ["identity", "bessel"])
def test_certificates_at_d3_n3(tmp_path, family, conic):
    # no certify job runs d = 3 or an odd n: the four certificates (default
    # alphas 0, 0.5 and ps 1, 2), drawn as spectra at d = 3 N = 16 n = 3, all
    # pass (exit code 0) and a second run gives the same bytes
    reports = []
    for run in (1, 2):
        rep = tmp_path / f"{run}.txt"
        assert main(["--dim", "3", "--grid", "16", "--matrix", "3", "--seed", "5",
                     "multiplier-check", "--family", family, "--report", str(rep)]
                    + (["--conic"] if conic else [])) == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    assert reports[0].count(b"[certificate]") == reports[0].count(b"passed = True") == 4


def _decompose_cli(tmp_path, stem, grid):
    field = tmp_path / f"{stem}.ovtl"
    write_field(field, band_limited_random(Grid(1, grid), 2, 23))
    man, blob = tmp_path / f"{stem}.txt", tmp_path / f"{stem}.bin"
    assert main(["--grid", str(grid), "--alpha", "0.5", "decompose", str(field),
                 "--target", "tl", "--manifest", str(man), "--blob", str(blob)]) == 0
    return man, blob


def _reconstruct_error(capsys, tmp_path, man, blob):
    capsys.readouterr()
    code = main(["reconstruct", "--manifest", str(man), "--blob", str(blob),
                 str(tmp_path / "rec.ovtl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_reconstruct_truncated_blob(tmp_path, capsys):
    man, blob = _decompose_cli(tmp_path, "a", 64)
    blob.write_bytes(blob.read_bytes()[:-100])
    assert "payload" in _reconstruct_error(capsys, tmp_path, man, blob)


def test_reconstruct_mismatched_blob(tmp_path, capsys):
    man, _ = _decompose_cli(tmp_path, "a", 64)
    _, other = _decompose_cli(tmp_path, "b", 32)
    assert "the manifest" in _reconstruct_error(capsys, tmp_path, man, other)


def test_reconstruct_missing_manifest(tmp_path, capsys):
    _, blob = _decompose_cli(tmp_path, "a", 64)
    assert "No such file" in _reconstruct_error(capsys, tmp_path, tmp_path / "none.txt", blob)


def test_reconstruct_missing_blob(tmp_path, capsys):
    man, _ = _decompose_cli(tmp_path, "a", 64)
    assert "No such file" in _reconstruct_error(capsys, tmp_path, man, tmp_path / "none.bin")


def test_reconstruct_zero_box_side(tmp_path, capsys):
    # a record whose box side is 0 holds no data; read as an empty block it
    # would rebuild a field far from the source without a word
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 16), 2, 24))
    man, blob = tmp_path / "m.txt", tmp_path / "b.bin"
    assert main(["--grid", "16", "decompose", str(field), "--target", "h1",
                 "--manifest", str(man), "--blob", str(blob)]) == 0
    off = int(re.findall(r"^blob_offset = (\d+)$", man.read_text(), re.M)[-1])
    raw = blob.read_bytes()
    pos = off + _HEADER.size + 4  # the side after the one start (d = 1)
    blob.write_bytes(raw[:pos] + struct.pack("<I", 0) + raw[pos + 4:])
    err = _reconstruct_error(capsys, tmp_path, man, blob)
    assert f"record at {off}" in err and "sides (0,)" in err


def test_norm_field_header_past_file_size(tmp_path, capsys):
    # n = 2^31 in the header: N n^2 wraps to 0 in int64, but not in the exact size
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 16), 2, 4))
    raw = field.read_bytes()
    field.write_bytes(raw[:14] + struct.pack("<I", 2**31) + raw[18:])
    code = main(["norm", str(field), "--which", "F_col"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "header needs" in err


def test_norm_missing_field_file(tmp_path, capsys):
    code = main(["--grid", "64", "norm", str(tmp_path / "none.ovtl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "none.ovtl" in err


def test_verify_multiplier_violation_surfaces(tmp_path):
    rep = tmp_path / "viol.txt"
    code = main(["--grid", "64", "--matrix", "1", "--sigma", "1.0", "verify",
                 "multiplier", "--violate-support", "--report", str(rep)])
    assert code != 0
    assert "hypothesis_error" in rep.read_text()


def test_decompose_h1_bump_has_low_atom(tmp_path):
    field = tmp_path / "f.ovtl"
    from ovtl.generators import bump

    write_field(field, bump(Grid(1, 64), 2, width=0.07, seed=5))
    man, blob = tmp_path / "man.txt", tmp_path / "blob.bin"
    assert main(["--grid", "64", "decompose", str(field), "--target", "h1",
                 "--manifest", str(man), "--blob", str(blob)]) == 0
    assert "[atom.low.0]" in man.read_text()


def test_multiplier_check_report(tmp_path):
    rep = tmp_path / "cert.txt"
    code = main(["--grid", "64", "--matrix", "2", "--seed", "17", "--alpha", "0.0",
                 "--p", "2", "multiplier-check", "--family", "identity",
                 "--report", str(rep)])
    assert code == 0
    assert "passed = True" in rep.read_text()


@pytest.mark.parametrize("conic", [False, True])
def test_multiplier_check_one_certificate_per_pair(tmp_path, conic):
    # default alphas (0, 0.5) and ps (1, 2): four certificates, alpha outer
    rep = tmp_path / "cert.txt"
    assert main(["--grid", "64", "--matrix", "2", "--seed", "3", "multiplier-check",
                 "--report", str(rep)] + (["--conic"] if conic else [])) == 0
    certs = [dict(line.split(" = ", 1) for line in c.splitlines() if line)
             for c in rep.read_text().split("[certificate]\n")[1:]]
    assert [(c["alpha"], c["p"]) for c in certs] == [("0.0", "1.0"), ("0.0", "2.0"),
                                                     ("0.5", "1.0"), ("0.5", "2.0")]
    kind = "conic" if conic else "square"
    assert all(c["name"] == f"{kind}[bessel_dilate(1.0)]" for c in certs)


def test_reports_deterministic(tmp_path):
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 31))
    reps = []
    for name in ("r1.txt", "r2.txt"):
        rep = tmp_path / name
        main(["--grid", "64", "--seed", "31", "norm", str(field),
              "--which", "F_col,hardy", "--report", str(rep)])
        reps.append(rep.read_bytes())
    assert reps[0] == reps[1]


@pytest.mark.parametrize("argv,needle", [
    (["--grid", "48", "gen", "--kind", "band-limited-random", "{out}"], "N must be"),
    (["--dim", "7", "gen", "--kind", "band-limited-random", "{out}"], "dimension must be"),
    (["--p", "0.5", "norm", "{field}"], "p must be"),
    (["--alpha", "-3", "decompose", "{field}", "--target", "tl",
      "--manifest", "{out}.m", "--blob", "{out}.b"], "L must be"),
    (["--grid", "64", "gen", "--kind", "single-mode", "--mode", "1,2", "{out}"], "--mode needs"),
    (["--grid", "64", "gen", "--kind", "single-mode", "--mode", "x", "{out}"], "--mode needs"),
    (["--grid", "64", "gen", "--kind", "band-limited-random", "--band", "5", "{out}"],
     "--band needs"),
    (["--matrix", "-1", "gen", "--kind", "band-limited-random", "{out}"], "n must be >= 1"),
    (["--matrix", "0", "gen", "--kind", "band-limited-random", "{out}"], "n must be >= 1"),
    (["--grid", "64", "--sigma", "0.2", "multiplier-check", "--report", "{out}"],
     "sigma must exceed"),
    (["--grid", "64", "--sigma", "0.2", "verify", "cz", "--report", "{out}"],
     "sigma must exceed"),
    (["--grid", "64", "--p", "0.5", "multiplier-check", "--report", "{out}"], "p must be"),
    (["--grid", "64", "--p", "0.5", "multiplier-check", "--conic", "--report", "{out}"],
     "p must be"),
    (["--grid", "64", "--seed", "-1", "gen", "--kind", "band-limited-random", "{out}"],
     "seed must lie in [0, 2^64)"),
    (["--grid", "64", "--seed", str(2**64), "multiplier-check", "--report", "{out}"],
     "seed must lie in [0, 2^64)"),
    (["--grid", "64", "multiplier-check", "--beta", "nan", "--report", "{out}"],
     "beta must be finite"),
    (["--grid", "64", "multiplier-check", "--beta", "inf", "--conic", "--report", "{out}"],
     "beta must be finite"),
    (["--grid", "64", "--matrix", "1", "multiplier-check", "--beta", "700", "--report", "{out}"],
     "past 2^1023"),
    (["--grid", "64", "--matrix", "1", "multiplier-check", "--beta", "-2000",
      "--report", "{out}"], "past 2^1023"),
    (["--p", "nan", "norm", "{field}", "--which", "F_col", "--report", "{out}"], "p must be"),
    (["--grid", "64", "--p", "nan", "multiplier-check", "--report", "{out}"], "p must be"),
    (["--alpha", "nan", "norm", "{field}", "--report", "{out}"], "alpha must be finite"),
    (["--alpha", "inf", "norm", "{field}", "--which", "F_infty", "--report", "{out}"],
     "alpha must be finite"),
    (["--alpha", "nan", "decompose", "{field}", "--target", "tl",
      "--manifest", "{out}.m", "--blob", "{out}.b"], "alpha must be finite"),
    (["--alpha", "inf", "decompose", "{field}", "--target", "tl",
      "--manifest", "{out}.m", "--blob", "{out}.b"], "alpha must be finite"),
    (["--grid", "64", "--sigma", "nan", "multiplier-check", "--report", "{out}"],
     "sigma must be finite"),
    (["--grid", "64", "--sigma", "inf", "verify", "cz", "--report", "{out}"],
     "sigma must be finite"),
    (["--grid", "64", "gen", "--kind", "band-limited-random", "--band", "5,2", "{out}"],
     "--band needs finite 0 <= rmin <= rmax"),
    (["--grid", "64", "gen", "--kind", "band-limited-random", "--band", "nan,8", "{out}"],
     "--band needs finite 0 <= rmin <= rmax"),
    (["--grid", "64", "gen", "--kind", "band-limited-random", "--band=-1,8", "{out}"],
     "--band needs finite 0 <= rmin <= rmax"),
    (["--grid", "64", "gen", "--kind", "band-limited-random", "--band", "2,inf", "{out}"],
     "--band needs finite 0 <= rmin <= rmax"),
    # j_max = 4 on N = 64, so the weights 4^(j alpha) pass 2^1000 once alpha > 125
    (["--alpha", "200", "norm", "{field}", "--report", "{out}"], "past 2^1000"),
    (["--alpha", "200", "norm", "{field}", "--which", "F_infty", "--report", "{out}"],
     "past 2^1000"),
    (["--grid", "64", "--alpha", "200", "multiplier-check", "--report", "{out}"],
     "past 2^1000"),
    (["--grid", "64", "--alpha", "200", "multiplier-check", "--conic", "--report", "{out}"],
     "past 2^1000"),
    (["--grid", "64", "--alpha", "200", "verify", "equivalence", "--report", "{out}"],
     "past 2^1000"),
    (["--grid", "64", "gen", "--kind", "bump", "--mode", "3", "{out}"],
     "--mode applies only to --kind single-mode"),
    (["--grid", "64", "gen", "--kind", "single-mode", "--band", "0,8", "{out}"],
     "--band applies only to --kind band-limited-random"),
    (["--grid", "64", "multiplier-check", "--family", "identity", "--beta", "2", "--report",
      "{out}"], "--beta applies only to --family bessel"),
    (["--grid", "64", "multiplier-check", "--family", "identity", "--beta", "1", "--conic",
      "--report", "{out}"], "--beta applies only to --family bessel"),
    # no lattice frequency of d = 1, N = 64 reaches |xi| = 100: the field would be 0
    (["--grid", "64", "gen", "--kind", "band-limited-random", "--band", "100,200", "{out}"],
     "band 100 <= |xi| <= 200 holds no lattice frequency"),
    # bmo and F_infty take no p, and neither do gen, decompose or verify cz: a bad
    # --p still ends there, as a bad --alpha does
    (["--p", "nan", "norm", "{field}", "--which", "bmo", "--report", "{out}"], "p must be"),
    (["--p", "0.5", "norm", "{field}", "--which", "F_infty", "--report", "{out}"], "p must be"),
    (["--grid", "64", "--p", "0.5", "gen", "--kind", "band-limited-random", "{out}"],
     "p must be"),
    (["--p=-inf", "decompose", "{field}", "--target", "h1",
      "--manifest", "{out}.m", "--blob", "{out}.b"], "p must be"),
    (["--grid", "64", "--p", "nan", "verify", "cz", "--report", "{out}"], "p must be"),
])
def test_invalid_parameter_rejected(tmp_path, capsys, argv, needle):
    field, out = tmp_path / "f.ovtl", tmp_path / "out.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main([a.format(field=field, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array", ""])
def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(generators, "bump", exhausted)
    assert main(["--grid", "64", "gen", "--kind", "bump", str(tmp_path / "f.ovtl")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message or 'out of memory'}\n"


GLIBC = platform.libc_ver()[0] == "glibc"

# four norm jobs in one fresh process, so the allocator setting stays out of
# the test process; prints each job's minor page faults
_REPEATED_NORMS = """
import resource, sys
from ovtl.cli import main
field, report = sys.argv[1:]
assert main(["--dim", "2", "--grid", "64", "--matrix", "4", "--seed", "5",
             "gen", "--kind", "band-limited-random", field]) == 0
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["--alpha", "0.5", "--p", "1.0", "norm", field,
                 "--which", "F_col", "--report", report]) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the heap thresholds are glibc's mallopt settings")
def test_repeated_norm_jobs_reuse_the_heap(tmp_path):
    # the n = 4 planes of one job are freed into the heap and reused by the
    # next: without the setting each job maps and zeroes them afresh (about
    # 1,800 minor faults a job at d=2 N=64)
    src = str(Path(ovtl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", _REPEATED_NORMS, str(tmp_path / "f.ovtl"),
                          str(tmp_path / "r.txt")], env=env, capture_output=True, text=True,
                         check=True)
    faults = [int(line) for line in run.stdout.split()]
    assert len(faults) == 4 and max(faults[1:]) <= 16, faults


@pytest.mark.skipif(not GLIBC, reason="the heap thresholds are glibc's mallopt settings")
def test_glibc_takes_both_heap_thresholds():
    # glibc answers 0 to a value it refuses, which would leave its defaults in place
    assert cli._keep_freed_memory() == (1, 1)


def test_main_runs_without_mallopt(tmp_path, monkeypatch):
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 33))
    argv = ["--grid", "64", "norm", str(field), "--which", "F_col", "--report"]
    assert main(argv + [str(tmp_path / "with.txt")]) == 0
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())  # no mallopt
    cli._mallopt.cache_clear()
    try:
        assert cli._keep_freed_memory() is None
        assert main(argv + [str(tmp_path / "without.txt")]) == 0
    finally:
        cli._mallopt.cache_clear()  # the next call looks the real library up again
    assert (tmp_path / "with.txt").read_bytes() == (tmp_path / "without.txt").read_bytes()


def test_alpha_at_weight_bound_accepted(tmp_path, capsys):
    # j alpha = 4 * 125 = 500 at the top scale: the largest weight, 2^1000, is allowed
    field = tmp_path / "f.ovtl"
    write_field(field, band_limited_random(Grid(1, 64), 2, 4))
    capsys.readouterr()
    assert main(["--alpha", "125", "norm", str(field)]) == 0
    values = [float(line.split(" = ")[1]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("value = ")]
    assert len(values) == 2 and all(math.isfinite(v) and v > 0 for v in values)


def test_config_not_utf8_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[grid]\nd = 1\xff\n")
    capsys.readouterr()
    assert main(["--config", str(cfg), "--grid", "64", "verify", "lp-family"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err and err.count(str(cfg)) == 1


def test_reconstruct_manifest_not_utf8(tmp_path, capsys):
    man, blob = _decompose_cli(tmp_path, "a", 64)
    man.write_bytes(man.read_bytes().replace(b"kind", b"k\xffnd", 1))
    err = _reconstruct_error(capsys, tmp_path, man, blob)
    assert "UTF-8" in err and err.count(str(man)) == 1


def test_verify_equivalence_suite(tmp_path):
    # default trials 10, alphas (0, 0.5), ps (1, 2); homogeneous only at alpha > 0
    rep = tmp_path / "eq.txt"
    assert main(["--grid", "64", "verify", "equivalence", "--report", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    assert "passed = True" in lines
    for prefix, count in (("phi_independence[", 40), ("homogeneous[", 20)):
        values = [float(line.split(" = ")[1]) for line in lines if line.startswith(prefix)]
        assert len(values) == count
        assert all(math.isfinite(v) and v > 0 for v in values)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("kind", ["bump", "haar"])
def test_gen_bump_and_haar_match_generators(tmp_path, d, N, kind):
    a, b = tmp_path / "a.ovtl", tmp_path / "b.ovtl"
    args = ["--dim", str(d), "--grid", str(N), "--matrix", "2", "--seed", "9",
            "gen", "--kind", kind]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    grid = Grid(d, N)
    want = bump(grid, 2, seed=9) if kind == "bump" else haar(grid, 2)
    assert np.array_equal(read_field(a).data, want.data)


@pytest.mark.parametrize("d,N", [(1, 256), (2, 32)])
@pytest.mark.parametrize("p", ["1", "2", "3"])
def test_norm_row_is_column_of_adjoint(tmp_path, capsys, d, N, p):
    f = band_limited_random(Grid(d, N), 2, 17)
    field, adjoint = tmp_path / "f.ovtl", tmp_path / "fstar.ovtl"
    write_field(field, f)
    write_field(adjoint, OperatorField(f.grid, np.conj(np.swapaxes(f.data, -1, -2))))
    values = {}
    for path, which in ((field, "F_row"), (adjoint, "F_col")):
        capsys.readouterr()
        assert main(["--alpha", "0.5", "--p", p, "norm", str(path), "--which", which]) == 0
        [line] = [x for x in capsys.readouterr().out.splitlines() if x.startswith("value = ")]
        values[which] = float(line.split(" = ")[1])
    assert values["F_col"] > 0
    assert values["F_row"] == pytest.approx(values["F_col"], rel=1e-12)


@pytest.mark.parametrize("command", [
    ["norm", "{field}"],
    ["decompose", "{field}", "--manifest", "{out}.txt", "--blob", "{out}.bin"],
])
def test_strip_field_rejected(tmp_path, capsys, command):
    field, out = tmp_path / "F.ovtl", tmp_path / "out"
    write_strip_file(field, random_strip(Grid(1, 64), 2, 4, 2))
    capsys.readouterr()
    assert main([a.format(field=field, out=out) for a in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "plain field" in err
