"""Matrix-valued fields on the lattice and on the dyadic strip.

An :class:`OperatorField` assigns an n x n complex matrix to every lattice
point; a :class:`StripField` assigns one to every (point, dyadic scale)
pair.  Both share one field base, which checks the square blocks against
the grid (behind the scale axis, for a strip), rejects non-finite entries,
freezes the data and scales it.  The module also provides the
operator-algebra primitives used throughout: adjoints, pointwise PSD
accumulation and trace L_p norms.

The batched small-matrix kernels every other module goes through live
here: :func:`gram` (x*x, one entrywise sum for every n in cache-sized row
blocks, exactly Hermitian), :func:`psd_eigvalsh` (LAPACK for n >= 2),
:func:`psd_root_norm`, the trace L_p norm of S^(1/2) behind every square
function (its p = inf sup solves only the blocks that a Frobenius bound
cannot rule out), and :func:`l1l2_sizes`, the L_1(M; L_2^c) size behind
every atom size.  Singular values are never computed by SVD: sigma(x)^2 are
the eigenvalues of x*x, and blocks with a singular value near 0 take theirs
from the Hermitian dilation of x (of its triangular QR factor, for the
stacked factors of a size).  At p = 1 and n = 2 no eigenvalue is needed:
tr S^(1/2) = sqrt(tr S + 2 sqrt(det S)) and tr|x| = sqrt(||x||_HS^2 + 2 |det x|);
at n = 3, 4 the blocks :func:`_root_traces` solves need none either.

All public operations are pure; field data is marked read-only after
construction, and every reduction uses a fixed summation order so results
are reproducible.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError, ValidationError
from .lattice import Grid


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _Field:
    """Read-only n x n complex blocks ``data`` of shape (*lead, *grid.shape, n, n),
    with ``_lead`` leading axes; ``_what`` names the field in error messages."""

    grid: Grid
    data: np.ndarray
    _lead = 0
    _what = "field"

    def __post_init__(self):
        data = np.asarray(self.data)
        lead, shape = self._lead, self.grid.shape
        if data.ndim != lead + self.grid.d + 2 or data.shape[lead:lead + self.grid.d] != shape:
            raise ValueError(f"{self._what} data shape {data.shape} does not match grid {shape}")
        if 0 in data.shape[:lead]:  # a strip of no scales has no level to read
            raise ValueError(f"{self._what} needs at least one scale")
        if data.shape[-1] != data.shape[-2]:
            raise ValueError("matrix blocks must be square")
        if not np.all(np.isfinite(data)):
            raise ValidationError(f"{self._what} contains non-finite entries")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n(self) -> int:
        return self.data.shape[-1]

    def pow2_exponent(self) -> int:
        """e such that max |data| 2^-e lies in [1/2, 1) (0 for zero data): the
        data scaled by 2^-e, which is exact, squares without over- or underflow."""
        return int(_pow2_exponent(self.data).item())


class OperatorField(_Field):
    """Map from lattice points to n x n complex matrices.

    ``data`` has shape (*grid.shape, n, n).
    """


class StripField(_Field):
    """Map from (lattice point, dyadic scale 2^-j) to n x n matrices.

    ``data`` has shape (j_max, *grid.shape, n, n); axis 0 holds scales
    j = 1 .. j_max (index j-1).
    """

    _lead = 1
    _what = "strip field"

    @property
    def j_max(self) -> int:
        return self.data.shape[0]

    def level(self, j: int) -> np.ndarray:
        """Data at scale 2^-j (1-based j)."""
        if not 1 <= j <= self.j_max:
            raise ValueError(f"scale index {j} outside 1..{self.j_max}")
        return self.data[j - 1]


# ---------------------------------------------------------------------------
# matrix primitives
# ---------------------------------------------------------------------------

def herm(x: np.ndarray) -> np.ndarray:
    """Adjoint of the trailing matrix axes."""
    return np.conj(np.swapaxes(x, -1, -2))


_GRAM_ROWS = 4096  # rows per Gram block: 64 KiB per-entry temporaries stay in cache


def _gram_into(out: np.ndarray, x: np.ndarray, weight: float | None = None) -> np.ndarray:
    """Write x* x of each (rows, n, n) block into ``out`` (add weight * x* x with ``weight``)
    and return it, _GRAM_ROWS rows at a time read in (n, n, rows) order: entry a <= b sums
    conj(x_ka) x_kb over k in order (|x_ka|^2 on the diagonal), (b, a) takes its conjugate."""
    n = x.shape[-1]
    for rows in (slice(lo, lo + _GRAM_ROWS) for lo in range(0, len(x), _GRAM_ROWS)):
        xb, ob = x[rows].transpose(1, 2, 0), out[rows]
        xb = xb.copy() if n > 2 else xb  # n > 2 reads each entry n times: contiguous pays
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            terms = (xb[k, a].real ** 2 + xb[k, a].imag ** 2 if a == b
                     else np.conj(xb[k, a]) * xb[k, b] for k in range(n))
            total = sum(terms, next(terms))
            if weight is None:
                ob[:, a, b] = total
                if b > a:
                    ob[:, b, a] = np.conj(total)
            else:
                ob[:, a, b] += total * weight
                if b > a:
                    ob[:, b, a] += np.conj(total) * weight
    return out


def gram(x: np.ndarray) -> np.ndarray:
    """Column Gram x* x on the trailing matrix axes, exactly Hermitian (:func:`_gram_into`)."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x.dtype, np.complex128))
    _gram_into(out.reshape(-1, *x.shape[-2:]), x.reshape(-1, *x.shape[-2:]))
    return out


def psd_eigvalsh(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian PSD blocks, clipped at 0; shape (..., n).

    n = 1 (and an empty stack) reads off the real entry; n >= 2 symmetrizes
    and calls LAPACK.
    """
    S = np.asarray(S)
    if S.shape[-1] == 1 or S.size == 0:
        w = S[..., 0].real
    else:
        w = np.linalg.eigvalsh(0.5 * (S + herm(S)))
    return np.clip(w, 0.0, None)


# the one helper thread that sums a PSDAccumulator's large Grams, in call order, while the
# caller runs the next level's inverse FFT (pocketfft releases the GIL); it starts on first use
_HELPER = ThreadPoolExecutor(max_workers=1)


@dataclass(eq=False)  # two accumulators are equal only as one object
class PSDAccumulator:
    """Pointwise accumulator for sums  S(s) = sum_k w_k g_k(s)* g_k(s).

    Weights must be nonnegative; S stays Hermitian PSD up to round-off.
    Accumulation order is the call order, fixed by the caller.  At most one
    Gram is pending on the helper thread; every read of ``S`` and the next
    :meth:`add_gram` wait for it and raise what it raised.
    """

    grid: Grid
    n: int

    def __post_init__(self):
        self._S = np.zeros(self.grid.shape + (self.n, self.n), dtype=np.complex128)
        self._pending = None  # Future of the queued Gram

    def _wait(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    @property
    def S(self) -> np.ndarray:
        self._wait()
        return self._S

    @S.setter
    def S(self, value: np.ndarray) -> None:
        self._wait()
        self._S = value

    def add_gram(self, g: np.ndarray, weight: float = 1.0,
                 row: bool = False) -> "PSDAccumulator":
        """Accumulate weight * g(s)* g(s), or weight * g(s) g(s)* with ``row``.

        A stack of more than _GRAM_ROWS blocks is summed on the helper thread
        and the call returns at once; ``g`` is read until ``S`` is next read
        (or the next ``add_gram``), so it must not change before then.
        Smaller stacks are summed inline, where a handoff costs more than it
        saves.  Either way S is the same in-order sum, bitwise.
        """
        if weight < 0:
            raise ValueError("weights must be nonnegative")
        if np.shape(g) != self._S.shape:
            raise GridMismatchError(f"blocks of shape {np.shape(g)} added to {self._S.shape}")
        x = g.reshape(-1, self.n, self.n)
        axes = (0, 2, 1) if row else (0, 1, 2)  # g g* = gram(g^T)^T: read g and S transposed
        self._wait()
        args = (self._S.reshape(-1, self.n, self.n).transpose(axes), x.transpose(axes), weight)
        if len(x) > _GRAM_ROWS:
            self._pending = _HELPER.submit(_gram_into, *args)
        else:
            _gram_into(*args)
        return self

    def add_psd(self, P: np.ndarray) -> "PSDAccumulator":
        """Accumulate an already-PSD pointwise block."""
        self.S += P
        return self

    def eigenvalues(self) -> np.ndarray:
        """Pointwise eigenvalues of S, clipped at 0; shape (*grid.shape, n)."""
        return psd_eigvalsh(self.S)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

# (sigma_min / sigma_max)^2 below which the eigenvalues of x*x are too coarse
# for sigma^p with p < 2 (they resolve sigma^2 only to eps * sigma_max^2)
_COARSE_SQ = 1e-4
_ROOT_STEPS = 7  # Laguerre steps: blocks that pass the guard reach round-off by step 6
_SUP_DIRECT = 64  # stacks of at most this many blocks are solved whole


def _pow2_exponent(x: np.ndarray, axes=None, step: int = 1) -> np.ndarray:
    """e with 2^e the least power of 2^step that brings max |x| over ``axes``
    (all of x when None) into [2^-step, 1), so that x* x scaled by 2^-2e
    neither overflows nor underflows; e keeps the reduced axes with length 1."""
    peak = np.max(np.abs(x), axis=axes, keepdims=True, initial=0.0)
    return -(-np.maximum(np.frexp(peak)[1], -1000) // step) * step


def _pow2_rescaled(x: np.ndarray, axes=None, step: int = 1) -> tuple:
    """(x * 2^-e, e) with e from :func:`_pow2_exponent`."""
    exp = _pow2_exponent(x, axes, step)
    return x * np.ldexp(1.0, -exp), exp


def trace_lp_norm(f: OperatorField, p: float) -> float:
    """Noncommutative L_p norm (sum_s h^d tr|f(s)|^p)^(1/p); operator-sup for p = inf.

    The trace is the standard (unnormalized) matrix trace.  The singular
    values enter without an SVD, as sigma^2 = lambda(x* x) of f rescaled by
    an exact power of two.  Those eigenvalues are accurate to
    eps * sigma_max^2, which for p < 2 would cost half the digits of a sigma
    near 0; blocks with sigma_min < 1e-2 sigma_max (rank-deficient ones
    among them) take their singular values instead from the eigenvalues
    +-sigma of the Hermitian dilation [[0, x], [x*, 0]], accurate to
    eps * sigma_max.  At p = 1 and n = 2, tr|x| = sqrt(||x||_HS^2 + 2 |det x|)
    is exact to round-off even at rank one and needs neither; at n = 3, 4,
    the blocks of x* x that :func:`_root_traces` leaves go straight to the
    dilation, one eigenvalue call in all.
    """
    x, exp = _pow2_rescaled(f.data)
    n = x.shape[-1]
    if p == 1 and n == 2:
        det = x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
        hs = np.sum(x.real**2 + x.imag**2, axis=(-2, -1))
        total = float(np.sum(np.sqrt(hs + 2.0 * np.abs(det)))) * f.grid.cell_volume
        return float(np.ldexp(total, exp.item()))
    if p == np.inf:
        return float(np.ldexp(psd_root_norm(gram(x), p, 1.0), exp.item()))
    if p == 1 and n in (3, 4):
        solved, rest = _root_traces(gram(x))
        total = solved + float(np.sum(_dilation_singular_values(x[rest])))
        return float(np.ldexp(total * f.grid.cell_volume, exp.item()))
    sq = psd_eigvalsh(gram(x))
    if p < 2 and n > 1:
        coarse = sq[..., 0] < _COARSE_SQ * sq[..., -1]
        if np.any(coarse):
            sq[coarse] = _dilation_singular_values(x[coarse]) ** 2
    return float(np.ldexp(lp_norm_from_psd_eigs(sq, p, f.grid.cell_volume), exp.item()))


def psd_root_norm(S: np.ndarray, p: float, cell_volume: float) -> float:
    """Trace L_p norm (sum_s cell_volume tr S(s)^(p/2))^(1/p) of the root field
    of PSD blocks S from :func:`psd_eigvalsh`; for p = inf the operator sup.

    At p = 1 and n = 2, tr S^(1/2) = sqrt(tr S + 2 sqrt(det S)) on the
    symmetrized entries of S rescaled by an exact power of four: the root
    rescales by an exact power of two and det S cannot over- or underflow.
    At p = 1 and n = 3, 4, only the blocks :func:`_root_traces` leaves go to
    :func:`psd_eigvalsh`.
    """
    if p == np.inf:
        return float(np.sqrt(_max_eigenvalue(S)))
    if p == 1 and S.shape[-1] in (3, 4):
        solved, rest = _root_traces(S)
        return (solved + float(np.sum(np.sqrt(psd_eigvalsh(S[rest]))))) * cell_volume
    if p != 1 or S.shape[-1] != 2:
        return lp_norm_from_psd_eigs(psd_eigvalsh(S), p, cell_volume)
    S, exp = _pow2_rescaled(S, step=2)
    a, c = S[..., 0, 0].real, S[..., 1, 1].real
    b = 0.5 * (S[..., 0, 1] + np.conj(S[..., 1, 0]))
    det = np.maximum(a * c - (b.real**2 + b.imag**2), 0.0)
    roots = np.sqrt(np.maximum(a + c + 2.0 * np.sqrt(det), 0.0))
    return float(np.ldexp(float(np.sum(roots)) * cell_volume, exp.item() // 2))


def _minor_sums(a: list) -> list:
    """[1, e_1, ..., e_m]: e_k sums the k x k principal minors of the Hermitian
    m x m matrix whose entries a[i][j], j >= i, are arrays over blocks (real on
    the diagonal; a[i][j] is None for j < i).

    The minors through a_00 are a_00 times those of its Schur complement, so
    e_k(a) = e_k(a without row and column 0) + a_00 e_(k-1)(complement).  Each
    e_k is thus a sum of products of Cholesky pivots, and cancels only where
    a Cholesky step does: as accurate as LAPACK's eigenvalues on PSD blocks.
    """
    m, row = len(a), a[0]
    if m == 1:
        return [1.0, row[0]]

    def complement(i, j):  # entry (i, j), 1 <= i <= j, of a - a[:, 0] a[0, :] / a_00
        outer = row[i].real**2 + row[i].imag**2 if i == j else np.conj(row[i]) * row[j]
        return a[i][j] - outer / row[0]

    inner = _minor_sums([[None] * (i - 1) + [complement(i, j) for j in range(i, m)]
                         for i in range(1, m)])
    rest = _minor_sums([r[1:] for r in a[1:]]) + [0.0]
    return [1.0] + [rest[k] + row[0] * inner[k - 1] for k in range(1, m + 1)]


def _root_traces(S: np.ndarray) -> tuple:
    """(sum of tr S^(1/2) over the blocks it solves, mask of the others) for
    a stack of Hermitian PSD blocks S of shape (..., n, n), n = 3 or 4,
    without eigenvalues; the mask has shape S.shape[:-2].

    The roots' elementary symmetric functions s_k and the sums e_k of the
    principal minors of S (:func:`_minor_sums`) satisfy s_1^2 = e_1 + 2 s_2,
    s_2^2 = e_2 + 2 s_1 s_3 - 2 s_4, s_3^2 = e_3 + 2 s_2 s_4 and s_4 = sqrt(e_4)
    (s_4 = 0 at n = 3).  Eliminating s_2 and s_3 leaves a quartic G in
    y = s_1^2 whose roots are the squares of the signed root sums, all real;
    s_1^2 is the largest.  _ROOT_STEPS Laguerre steps from the upper bound
    y = n e_1 descend to it monotonically (Newton crawls there, by a factor
    of about 0.8 a step across the cluster the four roots form when one
    eigenvalue dominates), and the fixed count keeps the result
    deterministic.  A block is solved when e_1, e_(n-1) > 0 and
    e_n >= 1e-4 e_1 e_(n-1), which proves
    lambda_min >= e_n / e_(n-1) >= 1e-4 e_1 >= 1e-4 lambda_max and so
    separates s_1^2 from the other roots, and when its last step is at
    round-off.  Blocks are read _GRAM_ROWS rows at a time, each row block's
    symmetrized entries rescaled by the power of four that brings its largest
    diagonal entry under 1.
    """
    shape, n = S.shape[:-2], S.shape[-1]
    S = S.reshape(-1, n, n)
    roots, solved = np.empty(len(S)), np.empty(len(S), dtype=bool)
    for rows in (slice(lo, lo + _GRAM_ROWS) for lo in range(0, len(S), _GRAM_ROWS)):
        blk = S[rows]
        exp = int(_pow2_exponent(np.diagonal(blk, axis1=-2, axis2=-1).real, step=2).item())
        scale = np.ldexp(1.0, -exp)
        a = [[None] * i + [blk[:, i, i].real * scale]
             + [(0.5 * scale) * (blk[:, i, j] + np.conj(blk[:, j, i])) for j in range(i + 1, n)]
             for i in range(n)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = _minor_sums(a) + [0.0]  # e_4 = 0 at n = 3
            s4, y = np.sqrt(e[4]), n * e[1]
            for _ in range(_ROOT_STEPS):
                u = 0.5 * (y - e[1])  # s_2
                v = u * u - e[2] + 2.0 * s4  # 2 s_1 s_3
                g = v * v - 4.0 * y * (e[3] + 2.0 * u * s4)
                g1 = 2.0 * v * u - 4.0 * e[3] - 8.0 * u * s4 - 4.0 * y * s4
                g2 = 2.0 * u * u + v - 8.0 * s4
                step = 4.0 * g / (g1 + np.sqrt(np.maximum(9.0 * g1 * g1 - 12.0 * g * g2, 0.0)))
                y = y - step
            solved[rows] = ((e[n] >= _COARSE_SQ * e[1] * e[n - 1]) & (e[1] > 0) & (e[n - 1] > 0)
                            & (np.abs(step) <= 1e-14 * y))
            roots[rows] = np.ldexp(np.sqrt(y), exp // 2)
    return float(np.sum(roots[solved])), ~solved.reshape(shape)


def _max_eigenvalue(S: np.ndarray) -> float:
    """np.max(psd_eigvalsh(S)) over a stack of Hermitian blocks S, bitwise:
    LAPACK sees only blocks whose ||S||_F reaches the largest lower bound
    Re(w* S w) / w* w - 1e-10 ||S||_F, w = S e_k with w* w > 2^-600, taken on
    S times a power of two (all blocks if it is below 2^-400).  These bound
    lambda_max of (S + S*) / 2, so blocks PSD only up to round-off are safe."""
    S = S.reshape(-1, *S.shape[-2:])
    if S.shape[-1] > 1 and len(S) > _SUP_DIRECT:
        scale = np.ldexp(1.0, -_pow2_exponent(S).item())
        upper, lower = np.empty((2, len(S)))
        for lo in range(0, len(S), _GRAM_ROWS):  # a block of rows at a time, like the Gram
            x = S[lo:lo + _GRAM_ROWS] * scale
            T = _gram_into(np.empty_like(x), x)  # x* x: Re(w* S w) = Re sum_i conj(x_ik) T_ik
            den = np.diagonal(T, axis1=-2, axis2=-1).real
            num = np.sum(x.real * T.real + x.imag * T.imag, axis=-2)
            ray = np.divide(num, den, out=np.full_like(num, -np.inf), where=den > 2.0**-600)
            up = upper[lo:lo + _GRAM_ROWS] = np.sqrt(np.sum(den, axis=-1))
            lower[lo:lo + _GRAM_ROWS] = np.max(ray, axis=-1) - 1e-10 * up
        if (floor := np.max(lower)) > 2.0**-400:
            S = S[upper * (1 + 1e-10) >= floor]
    return float(np.max(psd_eigvalsh(S)))


def l1l2_sizes(x: np.ndarray, volume: float, weights: np.ndarray | None = None) -> np.ndarray:
    """Atom sizes tau((volume * sum_s w_k(s) x(s)* x(s))^(1/2)), the L_1(M; L_2^c)
    norm: ``volume`` is h^d on spatial data, h^(2d) on its transform.

    ``x`` has shape (*batch, points, n, n); each row w_k >= 0 of ``weights``
    (rows, points) gives one size, shape (*batch, rows), or (*batch,) with
    w = 1.  One Gram of x rescaled by an exact power of two, one sum (or one
    (rows, points) @ (points, n^2) product) and one batched eigenvalue call
    give every size.  Blocks with lambda_min < 1e-4 lambda_max take theirs
    as the singular values of [sqrt(w_k(s)) x(s)]_s, read off its
    triangular QR factor by dilation.  Each batch entry is rescaled by its
    own power of two, so stacking never changes an entry's size.
    """
    x, exp = _pow2_rescaled(x, (-3, -2, -1))
    n = x.shape[-1]
    G = gram(x)
    if weights is None:
        M = np.sum(G, axis=-3)
    else:
        G = G.reshape(G.shape[:-2] + (n * n,))
        M = (weights @ G.view(np.float64)).view(np.complex128)
        M = M.reshape(M.shape[:-1] + (n, n))
    lam = psd_eigvalsh(M * volume)
    sizes = np.asarray(np.sqrt(lam).sum(axis=-1))
    if n > 1 and np.count_nonzero(near := lam[..., 0] < _COARSE_SQ * lam[..., -1]):
        if weights is None:
            factor = x[near]
        else:
            pos = np.nonzero(near)
            factor = np.sqrt(weights[pos[-1]])[..., None, None] * x[pos[:-1]]
        R = np.linalg.qr(factor.reshape(len(factor), -1, n), mode="r")
        sizes[near] = math.sqrt(volume) * np.sum(_dilation_singular_values(R), axis=-1)
    return np.ldexp(sizes, exp[..., 0, 0, 0] if weights is None else exp[..., 0, 0])


def _dilation_singular_values(x: np.ndarray) -> np.ndarray:
    """Ascending singular values of (m, n, n) blocks, as the top n eigenvalues
    of [[0, x], [x*, 0]]."""
    n = x.shape[-1]
    H = np.zeros(x.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
    H[..., :n, n:] = x
    H[..., n:, :n] = herm(x)
    return psd_eigvalsh(H)[..., n:]


def check_p(p: float) -> None:
    """Reject an integrability index outside [1, inf] (NaN too) with a ParameterError."""
    if p != np.inf and not p >= 1:
        raise ParameterError(f"p must be >= 1 or inf, got {p}")


def lp_norm_from_psd_eigs(eigs: np.ndarray, p: float, cell_volume: float) -> float:
    """Trace L_p norm of the PSD root field given eigenvalues of S = root^2."""
    check_p(p)
    if p == np.inf:
        return float(np.sqrt(np.max(eigs))) if eigs.size else 0.0
    total = float(np.sum(eigs ** (p / 2.0))) * cell_volume
    return total ** (1.0 / p)

