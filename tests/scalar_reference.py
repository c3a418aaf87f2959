"""Independent scalar (n = 1) reference implementation of every norm.

Written against the defining formulas with deliberately different code
paths from the package: plain |.| instead of matrix moduli, explicit
roll-based ball sums instead of FFT correlation, and per-cube python loops
for the sup-type norms.  Shares only raw inputs (field arrays and symbol
value tables) with the implementation under test.  :func:`psd_root` is the
one matrix oracle: the root field S^(1/2) of an accumulator, by
eigendecomposition, which the package itself never forms.
"""

import math

import numpy as np

LOG2 = math.log(2.0)


def lp_norm(values: np.ndarray, p: float, h_d: float) -> float:
    """(sum h^d |v|^p)^(1/p); sup for p = inf."""
    mags = np.abs(values)
    if p == np.inf:
        return float(mags.max()) if mags.size else 0.0
    return float((np.sum(mags**p) * h_d) ** (1.0 / p))


def convolve(f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(f) * symbol)


def square_function_radial(f: np.ndarray, symbols: list, weights: list) -> np.ndarray:
    total = np.zeros(f.shape, dtype=float)
    for sym, w in zip(symbols, weights):
        total += w * np.abs(convolve(f, sym)) ** 2
    return np.sqrt(total)


def tl_column(f: np.ndarray, alpha: float, p: float, symbols: list, h_d: float) -> float:
    weights = [1.0] + [4.0 ** (j * alpha) for j in range(1, len(symbols))]
    return lp_norm(square_function_radial(f, symbols, weights), p, h_d)


def tl_row(f: np.ndarray, alpha: float, p: float, symbols: list, h_d: float) -> float:
    return tl_column(np.conj(f), alpha, p, symbols, h_d)


def tl_mixture(f: np.ndarray, alpha: float, p: float, symbols: list, h_d: float) -> float:
    col = tl_column(f, alpha, p, symbols, h_d)
    row = tl_row(f, alpha, p, symbols, h_d)
    return max(col, row) if p > 2 else min(col, row)


def ball_offsets(d: int, N: int, j: int) -> list:
    radius = N / 2**j
    r_int = int(math.ceil(radius)) - 1
    offs = []
    rng = range(-r_int, r_int + 1)
    if d == 1:
        cand = [(m,) for m in rng]
    elif d == 2:
        cand = [(a, b) for a in rng for b in rng]
    else:
        cand = [(a, b, c) for a in rng for b in rng for c in rng]
    for m in cand:
        if sum(x * x for x in m) < radius**2:
            offs.append(m)
    return offs


def conic_square_function(f: np.ndarray, symbols_1up: list, weights: list,
                          d: int, N: int) -> np.ndarray:
    """sqrt(sum_j w_j sum_{t in B_j} h^d |conv_j(s+t)|^2) via explicit rolls."""
    h_d = (1.0 / N) ** d
    total = np.zeros(f.shape, dtype=float)
    for j, (sym, w) in enumerate(zip(symbols_1up, weights), start=1):
        conv_sq = np.abs(convolve(f, sym)) ** 2
        ball = np.zeros_like(conv_sq)
        for off in ball_offsets(d, N, j):
            ball += np.roll(conv_sq, tuple(-o for o in off), axis=tuple(range(d)))
        total += w * h_d * ball
    return np.sqrt(total)


def hardy_lp_radial(f: np.ndarray, p: float, symbols: list, h_d: float) -> float:
    return tl_column(f, 0.0, p, symbols, h_d)


def hardy_lp_conic(f: np.ndarray, p: float, symbols: list, d: int, N: int) -> float:
    h_d = (1.0 / N) ** d
    weights = [2.0 ** (j * d) for j in range(1, len(symbols))]
    sq = conic_square_function(f, symbols[1:], weights, d, N)
    low = np.abs(convolve(f, symbols[0]))
    return lp_norm(sq, p, h_d) + lp_norm(low, p, h_d)


def poisson_symbols(freq_norm: np.ndarray, j_max: int, k: int = 1) -> list:
    out = []
    for j in range(1, j_max + 1):
        eps = 2.0**-j
        out.append((-2.0 * math.pi * freq_norm) ** k * np.exp(-2.0 * math.pi * eps * freq_norm))
    return out


def hardy_poisson_radial(f: np.ndarray, p: float, freq_norm: np.ndarray,
                         j_max: int, h_d: float) -> float:
    total = np.zeros(f.shape, dtype=float)
    for j, sym in enumerate(poisson_symbols(freq_norm, j_max), start=1):
        total += LOG2 * 4.0**-j * np.abs(convolve(f, sym)) ** 2
    low = np.abs(convolve(f, np.exp(-2.0 * math.pi * freq_norm)))
    return lp_norm(np.sqrt(total), p, h_d) + lp_norm(low, p, h_d)


def cube_point_indices(d: int, N: int, level: int, index: tuple) -> tuple:
    side = N >> level
    half = side // 2
    axes = []
    for li in index:
        c = (li * side) % N
        axes.append(np.arange(c - half, c - half + side) % N)
    return np.ix_(*axes)


def all_cubes(d: int, level: int):
    n_per = 1 << level
    if d == 1:
        return [(i,) for i in range(n_per)]
    if d == 2:
        return [(i, j) for i in range(n_per) for j in range(n_per)]
    return [(i, j, k) for i in range(n_per) for j in range(n_per) for k in range(n_per)]


def bmo(f: np.ndarray, d: int, N: int) -> float:
    best = math.sqrt(float(np.mean(np.abs(f) ** 2)))  # |Q| = 1 term
    max_level = N.bit_length() - 2
    for level in range(1, max_level + 1):
        for idx in all_cubes(d, level):
            block = f[cube_point_indices(d, N, level, idx)]
            mean = block.mean()
            osc = math.sqrt(float(np.mean(np.abs(block - mean) ** 2)))
            best = max(best, osc)
    return best


def tl_infty_terms(f: np.ndarray, alpha: float, symbols: list, d: int, N: int) -> tuple:
    """(||phi_0 * f||_sup, Carleson sup over the cubes at levels 1..min(max level, j_max))."""
    low = float(np.max(np.abs(convolve(f, symbols[0]))))
    j_max = len(symbols) - 1
    conv_sq = [np.abs(convolve(f, symbols[j])) ** 2 * 4.0 ** (j * alpha)
               for j in range(1, j_max + 1)]
    best = 0.0
    top_level = min(N.bit_length() - 2, j_max)
    for level in range(1, top_level + 1):
        tail = np.zeros(f.shape, dtype=float)
        for j in range(level, j_max + 1):
            tail += conv_sq[j - 1]
        for idx in all_cubes(d, level):
            block = tail[cube_point_indices(d, N, level, idx)]
            best = max(best, math.sqrt(float(np.mean(block))))
    return low, best


def tl_infty(f: np.ndarray, alpha: float, symbols: list, d: int, N: int) -> float:
    return sum(tl_infty_terms(f, alpha, symbols, d, N))


def tent_norm(F: np.ndarray, p: float, d: int, N: int) -> float:
    """F shaped (j_max, *shape); explicit roll-based cone aggregation."""
    h_d = (1.0 / N) ** d
    j_max = F.shape[0]
    total = np.zeros(F.shape[1:], dtype=float)
    for j in range(1, j_max + 1):
        sq = np.abs(F[j - 1]) ** 2
        ball = np.zeros_like(total)
        for off in ball_offsets(d, N, j):
            ball += np.roll(sq, tuple(-o for o in off), axis=tuple(range(d)))
        total += LOG2 * 2.0 ** (j * d) * h_d * ball
    return lp_norm(np.sqrt(total), p, h_d)


def homogeneous_ratio(f: np.ndarray, alpha: float, p: float, symbols: list,
                      hom_symbols: dict, h_d: float) -> float:
    inhom = tl_column(f, alpha, p, symbols, h_d)
    total = np.zeros(f.shape, dtype=float)
    for j, sym in hom_symbols.items():
        total += 4.0 ** (j * alpha) * np.abs(convolve(f, sym)) ** 2
    low = lp_norm(np.abs(convolve(f, symbols[0])), p, h_d)
    return inhom / (low + lp_norm(np.sqrt(total), p, h_d))


def psd_root(S: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of each trailing n x n block of S, from
    ``eigh`` of (S + S*)/2 with the eigenvalues clipped at 0."""
    S = np.asarray(S)
    w, v = np.linalg.eigh(0.5 * (S + np.conj(np.swapaxes(S, -1, -2))))
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
