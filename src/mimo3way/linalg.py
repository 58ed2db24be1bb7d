"""Dense complex linear-algebra kernel.

Validated null spaces, pseudo-inverses and orthonormal draws, plus the
package's single source of randomness: every seeded stream is numpy's
PCG64(SeedSequence(seed, spawn_key=stream)), bit for bit, its state words
derived by `_states` from a pool kept per seed (`_pool`): one seed word by
word, a block of seeds a word array at a time, from one pool stack per seed
list (`_pools`). Stream tags keep channel draws, precoder draws, and test
symbols independent even when a caller reuses one seed.

The kernels behind `null_space_basis` and `random_orthonormal` take matrices
with leading (trial) axes, so a stack of independent trials goes through one
batched LAPACK call; each matrix of a stack gets the bits it would alone.

The private shim `_svdvals`, `_svd_full`, `_solve` and `_qr` calls
numpy's LAPACK gufuncs with the signature and errstate numpy.linalg gives them:
the same bits and the same LinAlgError. Other dtypes than complex128 (float64
too for singular values), or a numpy without the gufuncs, go to the public ones.
"""

from __future__ import annotations

import functools

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
# numpy's SeedSequence hash and mix constants, on 32-bit words, and each state word's (pool word, hash, next hash)
_MASK, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_B = [(i % 4, _INIT_B * _MULT_B**i & _MASK, _INIT_B * _MULT_B ** (i + 1) & _MASK) for i in range(8)]
_POWERS_A = np.array([[_MULT_A**k & _MASK] for k in range(5)], dtype=np.uint64)  # on lanes: _MULT_A**k, k = 0..4
_HASHES_B = np.array(_HASH_B, dtype=np.uint64).T[1:, :, None]  # on lanes: state words' hashes, next hashes
_POOLS = 256  # seeds `_pool` keeps


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
    ranks = set(map(sum, (s > max(rows, cols) * _EPS * s[..., :1]).reshape(-1, s.shape[-1]).tolist()))
    if 0 in ranks and not np.isfinite(s[..., 0]).all():  # rank 0: a zero matrix, or smax overflowed
        raise InvalidInputError("a matrix's singular values overflow float64, so its rank is unknown")
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


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Seeded Generator for one child stream of `seed`, PCG64(SeedSequence(seed, spawn_key=stream)): distinct
    `stream` tags (and tag tuples), each in [0, 2**32 - 1], give statistically independent streams, and the same
    (seed, stream) pair always reproduces the same draws."""
    return np.random.default_rng(_states([seed], stream)[0])


@functools.lru_cache(maxsize=_POOLS)  # a seed's streams, and a block's trial seeds, share one pool
def _pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence(seed).pool, and the hash constant its mixing ends on (4 hashes a word, of >= 4 words)."""
    np.random.bit_generator.ISeedSequence.register(_Row)  # here, not on import, which loads no numpy.random
    words = max(4, -(-seed.bit_length() // 32))
    return tuple(np.random.SeedSequence(seed).pool.tolist()), _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK


@functools.lru_cache(maxsize=1)  # a block's channel, precoder and symbol streams spawn from one seed list
def _pools(seeds: tuple) -> tuple[np.ndarray, np.ndarray]:
    """`_pool` of each seed as a read-only (4, seeds) uint64 stack, a lane a seed, and the seeds' hash constants."""
    pool, h = (np.array(words, dtype=np.uint64) for words in zip(*(_pool(integer(seed, "seed")) for seed in seeds)))
    pool.flags.writeable = h.flags.writeable = False
    return pool.T, h


def _hashed(x, h, h_next):  # numpy's SeedSequence hashmix of 32-bit words x on hash constant h, then on h_next
    v = (x ^ h) * h_next & _MASK
    return v ^ v >> 16


def _mixed(x, y):  # numpy's SeedSequence mix of pool words x with hashed words y
    r = (_MIX_L * x - _MIX_R * y) & _MASK
    return r ^ r >> 16


def _states(seeds, stream) -> np.ndarray:
    """SeedSequence(seed, spawn_key=stream).generate_state(4, np.uint64), a C-ordered row a seed: numpy mixes each
    spawn-key word (a tag, or an array of one tag a seed) into `_pool(seed)` and hashes 8 words out. One seed runs
    word by word on Python ints, a block on uint64 lanes a word array at a time ((5, n) hash constants, a (4, n)
    pool, (8, n) state words), in the same `_hashed` and `_mixed`: each product of 32-bit words fits in 64 bits."""
    pool, h = _pools(tuple(seeds)) if (lanes := len(seeds) > 1) else _pool(integer(seeds[0], "seed"))
    for tag in stream:
        tag = (tag if lanes else tag.item()) if isinstance(tag, np.ndarray) else integer(tag, "stream tag", 0, _MASK)
        if lanes:  # the constants h * _MULT_A**k of every lane, shared or (past 2**128, by word count) per lane
            hs = _POWERS_A * h & _MASK
            pool, h = _mixed(pool, _hashed(tag, hs[:4], hs[1:])), hs[4]
        else:
            pool = [_mixed(x, _hashed(tag, h, h := h * _MULT_A & _MASK)) for x in pool]
    if lanes:
        w = _hashed(np.concatenate((pool, pool)), *_HASHES_B)  # state word i hashes pool word i % 4
        return np.ascontiguousarray((w[0::2] | w[1::2] << 32).T).view(_Row)
    w = [_hashed(pool[i], a, b) for i, a, b in _HASH_B]
    rows = [w[0] | w[1] << 32, w[2] | w[3] << 32, w[4] | w[5] << 32, w[6] | w[7] << 32]
    return np.array([rows], dtype=np.uint64).view(_Row)


class _Row(np.ndarray):  # a `_states` row as numpy's ISeedSequence: PCG64 asks it once for its 4 uint64 words
    def generate_state(self, _n_words, _dtype) -> np.ndarray:
        return self


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


def _gaussians(seeds, stream: int, sizes) -> list[np.ndarray]:
    """CN(0,1) blocks of `sizes` entries per seed, as `complex_gaussian` draws
    them one after another (real then imaginary parts), from one normal draw
    of generator(seed, stream): a (seeds, size) array per block."""
    at, re, im = _gaussian_layout(tuple(sizes))
    rows = _states(seeds, (stream,))  # indexed: iterating an ndarray costs more, 10 against 4 us for 20 rows
    z = np.array([np.random.default_rng(rows[k]).standard_normal(2 * at[-1]) for k in range(len(rows))])
    c = (z.take(re, axis=1) + 1j * z.take(im, axis=1)) / _SQRT2
    return [c[:, a:b] for a, b in zip(at, at[1:])]


@functools.lru_cache(maxsize=256)  # memoized: one layout per split's links, messages or precoders
def _gaussian_layout(sizes: tuple[int, ...]):
    """`_gaussians`' block bounds, and where its blocks' real and imaginary parts sit in its draw."""
    at = [0, *np.cumsum(sizes).tolist()]
    re = np.array([k for a, b in zip(at, at[1:]) for k in range(2 * a, a + b)], dtype=np.intp)
    return at, re, re + np.repeat(np.array(sizes, dtype=np.intp), sizes)


def random_gaussian(rows: int, cols: int, seed: int) -> np.ndarray:
    """Deterministic rows x cols CN(0,1) draw for `seed`."""
    return complex_gaussian(generator(seed), rows, cols)


def random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix with orthonormal columns, Haar-like via QR of a Gaussian draw."""
    rows, cols = _draw_dims(rows, cols)
    if cols > rows:
        raise InvalidInputError(f"cannot fit {cols} orthonormal columns in C^{rows}")
    return _orthonormal(complex_gaussian(rng, rows, cols))


def _orthonormal(draws: np.ndarray) -> np.ndarray:
    """`random_orthonormal` of each CN(0,1) draw in a (..., rows, cols)
    stack, which it may overwrite: one QR over the stack."""
    q, d = _qr(draws)
    # fix the phase so the factorization (hence the draw) is unambiguous
    d = np.where(d == 0, 1.0, d)
    return q * (d / np.abs(d))[..., None, :]
