"""Dense complex linear-algebra kernel.

Validated null spaces, pseudo-inverses and orthonormal draws, plus the
package's single source of randomness: every random draw anywhere in the
package flows through `generator`, which derives decorrelated child streams
from one integer seed via numpy's splittable SeedSequence. Stream tags keep
channel draws, precoder draws, and test symbols statistically independent
even when a caller reuses the same seed for all of them.

The kernels behind `null_space_basis` and `random_orthonormal` take matrices
with leading (trial) axes, so a stack of independent trials goes through one
batched LAPACK call; each matrix of a stack gets the bits it would alone.

The private shim `_svdvals`, `_svd_full`, `_solve`, `_qr` and `_slogdet` calls
numpy's LAPACK gufuncs with the signature and errstate numpy.linalg gives them:
the same bits and the same LinAlgError. Other dtypes than complex128 (float64
too for singular values), or a numpy without the gufuncs, go to the public ones.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, integer

__all__ = ["null_space_basis", "pseudo_inverse", "random_gaussian"]

_EPS = float(np.finfo(np.float64).eps)
_SQRT2 = np.sqrt(2.0)  # a CN(0,1) draw is (re + 1j * im) / _SQRT2
_C128 = np.dtype(np.complex128)

try:  # numpy.linalg's LAPACK gufuncs, each under the errstate its wrapper enters
    from numpy.linalg import _linalg as _npl, _umath_linalg as _LAPACK

    def _raising(gufunc: str, hook: str):
        state = dict(invalid="call", over="ignore", divide="ignore", under="ignore")
        return np.errstate(call=getattr(_npl, "_raise_linalgerror_" + hook), **state)(getattr(_LAPACK, gufunc))

    _SVD_VALUES, _SVD_FULL = _raising("svd", "svd_nonconvergence"), _raising("svd_f", "svd_nonconvergence")
    _SOLVE, _QR_RAW, _QR_Q = _raising("solve", "singular"), _raising("qr_r_raw", "qr"), _raising("qr_reduced", "qr")
    _SLOGDET = _LAPACK.slogdet
except (ImportError, AttributeError):
    _LAPACK = None

# Most entries complex_gaussian draws at once (64 MB as complex128): a square
# precoder for the 2,000 antennas draw_channels allows needs 2,000 x 2,000.
_MAX_DRAW_ENTRIES = 4_000_000

# spawn-key tags for the independent child streams of one seed
CHANNEL_STREAM = 0
PRECODER_STREAM = 1
SYMBOL_STREAM = 2
TRIAL_STREAM = 3
ABLATION_STREAM = 4


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce `a` to a 2-D complex128 array, rejecting non-numeric or non-finite entries."""
    try:
        arr = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} must be a numeric matrix, got {type(a).__name__}") from None
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _svdvals(a: np.ndarray) -> np.ndarray:
    """`np.linalg.svd(a, compute_uv=False)`, bit for bit."""
    bare = _LAPACK is not None and a.dtype.char in "Dd"
    return _SVD_VALUES(a, signature=a.dtype.char + "->d") if bare else np.linalg.svd(a, compute_uv=False)


def _svd_full(a: np.ndarray):
    """`np.linalg.svd(a)` as (u, s, vh), bit for bit."""
    return np.linalg.svd(a) if _LAPACK is None or a.dtype != _C128 else _SVD_FULL(a, signature="D->DdD")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.solve(a, b)` for a (..., n, k) `b`, bit for bit."""
    bare = _LAPACK is not None and a.dtype == b.dtype == _C128
    return _SOLVE(a, b, signature="DD->D") if bare else np.linalg.solve(a, b)


def _qr(a: np.ndarray):
    """Q and the diagonal of R of `np.linalg.qr(a)`, bit for bit; `a` may be
    overwritten with LAPACK's packed factor, whose diagonal is R's."""
    if _LAPACK is None or a.dtype != _C128:
        q, a = np.linalg.qr(a)
    else:
        q = _QR_Q(a, _QR_RAW(a, signature="D->D"), signature="DD->D")
    return q, np.diagonal(a, axis1=-2, axis2=-1)


def _slogdet(a: np.ndarray):
    """`np.linalg.slogdet(a)` as (sign, logabsdet), bit for bit."""
    return np.linalg.slogdet(a) if _LAPACK is None or a.dtype != _C128 else _SLOGDET(a, signature="D->Dd")


class _MixedRank(Exception):
    """The matrices of a stack differ in rank, so their null spaces differ in
    size and do not stack."""


def null_space_basis(a) -> np.ndarray:
    """Orthonormal basis N of the (right) null space of `a`.

    Columns of N span {x : a @ x = 0}; cols(N) = cols(a) - rank(a), counting
    the singular values above max(rows, cols) * eps * smax (numpy's
    `matrix_rank` rule). An empty-row matrix has a full null space, so N is
    then an identity basis.
    """
    return _null_basis(as_matrix(a))


def _null_basis(a: np.ndarray) -> np.ndarray:
    """`null_space_basis` of each matrix in a (..., rows, cols) stack, in one
    full SVD; raises _MixedRank unless every matrix has the same rank."""
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    if cols == 0:
        return np.zeros(lead + (0, 0), dtype=np.complex128)
    if rows == 0:
        return np.tile(np.eye(cols, dtype=np.complex128), lead + (1, 1))
    _, s, vh = _svd_full(a)
    tol = max(rows, cols) * _EPS
    ranks = {sum(v > tol * sv[0] for v in sv) for sv in s.reshape(-1, s.shape[-1]).tolist()}
    if len(ranks) > 1:
        raise _MixedRank
    (r,) = ranks
    return vh[..., r:, :].conj().mT


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse (SVD based, rank-truncated)."""
    a = as_matrix(a)
    if a.size == 0:
        raise InvalidInputError("pseudo_inverse needs a non-empty matrix")
    return np.linalg.pinv(a, rcond=max(a.shape) * _EPS)


def check_seed(seed) -> int:
    """The package's one seed rule: a nonnegative integer, never a bool or a
    float (1.0 and 1.5 alike), returned as a plain int."""
    return integer(seed, "seed")


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Seeded Generator for one child stream of `seed`.

    Distinct `stream` tags (and tag tuples) give statistically independent
    streams; the same (seed, stream) pair always reproduces the same draws.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(check_seed(seed), spawn_key=tuple(stream))))


def _draw_dims(rows, cols) -> tuple[int, int]:
    """Matrix dimensions as ints: refused unless they are integers >= 0 with
    at most _MAX_DRAW_ENTRIES entries in all."""
    rows, cols = integer(rows, "rows", 0, _MAX_DRAW_ENTRIES), integer(cols, "cols", 0, _MAX_DRAW_ENTRIES)
    if rows * cols > _MAX_DRAW_ENTRIES:
        raise InvalidInputError(f"a {rows}x{cols} draw has over {_MAX_DRAW_ENTRIES} entries")
    return rows, cols


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """CN(0,1) i.i.d. matrix: real and imaginary parts each N(0, 1/2)."""
    rows, cols = _draw_dims(rows, cols)
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / _SQRT2


def random_gaussian(rows: int, cols: int, seed: int) -> np.ndarray:
    """Deterministic rows x cols CN(0,1) draw for `seed`."""
    return complex_gaussian(generator(seed), rows, cols)


def random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix with orthonormal columns, Haar-like via QR of a Gaussian draw."""
    rows, cols = _draw_dims(rows, cols)
    if cols > rows:
        raise InvalidInputError(f"cannot fit {cols} orthonormal columns in C^{rows}")
    return _random_orthonormal([rng], rows, cols, ())


def _random_orthonormal(rngs, rows: int, cols: int, lead: tuple[int, ...]) -> np.ndarray:
    """A `random_orthonormal` draw from each generator in `rngs`, as one
    lead + (rows, cols) stack: one QR over the stacked Gaussian draws."""
    if cols == 0:
        return np.zeros(lead + (rows, 0), dtype=np.complex128)
    draws = np.array([complex_gaussian(rng, rows, cols) for rng in rngs]).reshape(lead + (rows, cols))
    q, d = _qr(draws)
    # fix the phase so the factorization (hence the draw) is unambiguous
    d = np.where(d == 0, 1.0, d)
    return q * (d / np.abs(d))[..., None, :]
