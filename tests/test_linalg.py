"""Kernel contracts: null spaces, pseudo-inverses, seeded generators (numpy's
SeedSequence streams, bit for bit), and the LAPACK shim's parity with the
public numpy.linalg functions."""

import numpy as np
import pytest

from mimo3way import InvalidInputError, linalg, null_space_basis, pseudo_inverse, random_gaussian
from mimo3way.linalg import complex_gaussian, generator, random_orthonormal


def test_null_space_rejects_nonfinite():
    a = np.eye(2, dtype=complex)
    a[0, 1] = np.nan
    with pytest.raises(InvalidInputError):
        null_space_basis(a)
    a[0, 1] = np.inf
    with pytest.raises(InvalidInputError):
        null_space_basis(a)


def test_null_space_refuses_a_matrix_whose_singular_values_overflow():
    # finite entries, rank 1, but smax is about 4.2e308: the rank test would
    # read rank 0 and return all 3 columns where 2 are right
    with pytest.raises(InvalidInputError, match="singular values overflow float64"):
        null_space_basis(np.full((2, 3), 1.7e308))
    assert null_space_basis(np.full((2, 3), 1e307)).shape == (3, 2)


def test_null_space_of_zero_map():
    n = null_space_basis(np.zeros((2, 3)))
    assert n.shape == (3, 3)
    np.testing.assert_allclose(n.conj().T @ n, np.eye(3), atol=1e-12)


def test_null_space_of_identity_is_trivial():
    assert null_space_basis(np.eye(3)).shape == (3, 0)


def test_null_space_random_wide():
    rng = generator(7)
    a = complex_gaussian(rng, 2, 3)
    n = null_space_basis(a)
    assert n.shape == (3, 1)
    assert np.linalg.norm(a @ n) <= 1e-10 * np.linalg.norm(a, 2)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_null_space_invariants_random_shapes():
    # rank-nullity plus residual and orthonormality bounds, >= 100 shapes
    rng = generator(11)
    shapes = [(int(r), int(c)) for r in range(0, 11) for c in range(0, 11)]
    assert len(shapes) >= 100
    for rows, cols in shapes:
        a = complex_gaussian(rng, rows, cols)
        n = null_space_basis(a)
        r = np.linalg.matrix_rank(a)
        assert r + n.shape[1] == cols
        if a.size and n.size:
            assert np.linalg.norm(a @ n, 2) <= 1e-10 * np.linalg.norm(a, 2)
        if n.size:
            gram = n.conj().T @ n
            assert np.linalg.norm(gram - np.eye(n.shape[1]), 2) <= 1e-10


def test_pinv_identity():
    np.testing.assert_allclose(pseudo_inverse(np.eye(2)), np.eye(2), atol=1e-14)


def test_pinv_diagonal():
    got = pseudo_inverse(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_tall_left_inverse():
    rng = generator(13)
    a = complex_gaussian(rng, 4, 2)
    np.testing.assert_allclose(pseudo_inverse(a) @ a, np.eye(2), atol=1e-10)


def test_pinv_rejects_empty():
    with pytest.raises(InvalidInputError):
        pseudo_inverse(np.zeros((0, 2)))


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 5), (5, 2), (4, 4), (7, 3), (3, 7), (6, 6)])
def test_penrose_identities(rows, cols):
    rng = generator(17)
    for _ in range(20):
        a = complex_gaussian(rng, rows, cols)
        p = pseudo_inverse(a)
        scale = np.linalg.norm(a, 2)
        assert np.linalg.norm(a @ p @ a - a, 2) <= 1e-10 * scale
        assert np.linalg.norm(p @ a @ p - p, 2) <= 1e-10 * np.linalg.norm(p, 2)
        ap = a @ p
        pa = p @ a
        assert np.linalg.norm(ap - ap.conj().T, 2) <= 1e-10 * max(1.0, np.linalg.norm(ap, 2))
        assert np.linalg.norm(pa - pa.conj().T, 2) <= 1e-10 * max(1.0, np.linalg.norm(pa, 2))


def test_random_gaussian_empty():
    assert random_gaussian(0, 3, seed=1).shape == (0, 3)


def test_random_gaussian_moments():
    a = random_gaussian(1000, 1, seed=7)
    assert abs(a.mean()) <= 0.1
    v = np.mean(np.abs(a - a.mean()) ** 2)
    assert 0.9 <= v <= 1.1
    # circular symmetry: each part carries half the variance
    assert 0.4 <= np.var(a.real) <= 0.6
    assert 0.4 <= np.var(a.imag) <= 0.6


def test_random_gaussian_deterministic():
    a = random_gaussian(6, 4, seed=123)
    b = random_gaussian(6, 4, seed=123)
    assert a.tobytes() == b.tobytes()
    c = random_gaussian(6, 4, seed=124)
    assert a.tobytes() != c.tobytes()


def test_generator_streams_are_decorrelated():
    a = complex_gaussian(generator(5, 0), 4, 4)
    b = complex_gaussian(generator(5, 1), 4, 4)
    assert not np.allclose(a, b)


def test_generator_rejects_bad_seeds():
    with pytest.raises(InvalidInputError):
        generator(-1)
    for bad in (1.5, 1.0, "a", True, None):
        with pytest.raises(InvalidInputError):
            generator(bad)
    assert generator(np.int64(3)).integers(1 << 30) == generator(3).integers(1 << 30)


# seeds at the word boundaries of numpy's entropy, past its 4-word pool too,
# and 50 seeded 63-bit ones; stream tags as the package spawns them
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**200 + 12345,
          *np.random.default_rng(2024).integers(0, 2**63, 50).tolist()]
_STREAMS = [(), (0,), (1,), (2,), (3,), (4,), (3, 0), (3, 99999)]


@pytest.mark.parametrize("seed", _SEEDS)
def test_generator_draws_numpys_seed_sequence_streams_bit_for_bit(seed):
    for stream in _STREAMS:
        numpy_ss = np.random.SeedSequence(seed, spawn_key=stream)
        want = np.random.Generator(np.random.PCG64(numpy_ss))
        got = generator(seed, *stream)
        assert np.array_equal(got.standard_normal(16), want.standard_normal(16))
        assert got.integers(2**64, dtype=np.uint64) == want.integers(2**64, dtype=np.uint64)
        # PCG64 reads 4 uint64 state words from its seed sequence
        assert np.array_equal(linalg._states([seed], stream)[0], numpy_ss.generate_state(4, np.uint64))
    for k in (0, 1, 19, 99999):
        want = np.random.SeedSequence(seed, spawn_key=(linalg.TRIAL_STREAM, k)).generate_state(1, np.uint64)[0]
        assert linalg._states([seed], (linalg.TRIAL_STREAM, k))[0, 0] == want
        # a trial block's tags, one a seed, as estimate_dof passes them
        assert linalg._states([seed], (linalg.TRIAL_STREAM, np.array([k], dtype=np.uint64)))[0, 0] == want


def _numpy_states(seeds, stream):
    """numpy's own SeedSequence state words, a row a seed; a stream word that
    is a sequence holds one tag a seed."""
    keys = [[w if np.ndim(w) == 0 else w[i] for w in stream] for i in range(len(seeds))]
    return np.array([np.random.SeedSequence(s, spawn_key=key).generate_state(4, np.uint64)
                     for s, key in zip(seeds, keys)])


def test_states_of_a_block_are_numpys_row_for_row():
    # one call over every seed above mixes hash constants: 2**128 and
    # 2**200 + 12345 hold more than four 32-bit words
    for stream in [*_STREAMS, (2**32 - 1,)]:
        got = linalg._states(_SEEDS, stream)
        assert got.dtype == np.uint64 and np.array_equal(got, _numpy_states(_SEEDS, stream))
        # PCG64 reads a row's memory as it lies, so every row must be C-contiguous
        assert got.flags.c_contiguous and all(row.flags.c_contiguous for row in got)
    # one tag a seed: a block's trial seeds, and tags spread over mixed seeds
    tags = np.arange(len(_SEEDS), dtype=np.uint64) * 65537
    for seeds, stream in [([5] * 300, (linalg.TRIAL_STREAM, np.arange(300, dtype=np.uint64))),
                          (_SEEDS, (linalg.TRIAL_STREAM, tags)), (_SEEDS, (tags, 2**32 - 1, tags[::-1].copy()))]:
        assert np.array_equal(linalg._states(seeds, stream), _numpy_states(seeds, stream))


def test_gaussians_of_a_block_are_each_seeds_own():
    sizes = [9, 1, 4, 0, 12]
    for stream in (linalg.CHANNEL_STREAM, linalg.ABLATION_STREAM):
        block = linalg._gaussians(_SEEDS, stream, sizes)
        for k, seed in enumerate(_SEEDS):
            alone = linalg._gaussians([seed], stream, sizes)
            assert all(b[k].tobytes() == a[0].tobytes() for b, a in zip(block, alone))
        # and as complex_gaussian draws them, one after another
        rng = generator(_SEEDS[-1], stream)
        assert all(b[-1].tobytes() == complex_gaussian(rng, 1, n).tobytes() for b, n in zip(block, sizes))


def test_generator_refuses_stream_tags_past_one_spawn_key_word():
    for bad in (-1, 2**32, 2**64, 1.0, True, "0"):
        with pytest.raises(InvalidInputError, match="stream tag must be an integer in"):
            generator(5, bad)
        with pytest.raises(InvalidInputError, match="stream tag"):
            generator(5, 3, bad)
    assert generator(5, np.uint32(2**32 - 1)).integers(1 << 30) == generator(5, 2**32 - 1).integers(1 << 30)


def test_complex_gaussian_refuses_a_draw_over_its_entry_budget():
    # 3000 x 3000 is 9M entries, over the 4M cap, though each side is under it
    with pytest.raises(InvalidInputError, match="a 3000x3000 draw has over 4000000 entries"):
        complex_gaussian(np.random.default_rng(0), 3000, 3000)


def test_random_orthonormal():
    rng = generator(19)
    q = random_orthonormal(rng, 5, 3)
    assert q.shape == (5, 3)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    with pytest.raises(InvalidInputError):
        random_orthonormal(rng, 2, 3)


def test_random_orthonormal_deterministic():
    a = random_orthonormal(generator(3, 1), 4, 4)
    b = random_orthonormal(generator(3, 1), 4, 4)
    assert a.tobytes() == b.tobytes()


# the shim against the public functions: every shape the package forms (up
# to 7 antennas a side), alone, as a one-trial stack and as a 20-trial stack
_LEADS = [(), (1,), (20,)]
_SHAPES = [(rows, cols) for rows in range(8) for cols in range(8)]


def _stack(seed, lead, rows, cols):
    return complex_gaussian(generator(seed), int(np.prod(lead + (rows,))), cols).reshape(lead + (rows, cols))


def _same(got, want):
    """Equal bits and dtypes, output by output."""
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def test_shim_takes_the_gufuncs_on_this_numpy():
    assert linalg._LAPACK is not None


@pytest.mark.parametrize("lead", _LEADS)
def test_shim_svd_matches_numpy_bit_for_bit(lead):
    for k, (rows, cols) in enumerate(_SHAPES):
        a = _stack(k, lead, rows, cols)
        _same(linalg._svdvals(a), np.linalg.svd(a, compute_uv=False))
        _same(linalg._svdvals(a.real.copy()), np.linalg.svd(a.real, compute_uv=False))
        _same(linalg._svd_full(a), np.linalg.svd(a))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_largest_singular_value_lies_within_the_entry_bounds(scale):
    # schemes._verify settles a block's verdicts on max|x| <= smax(X) <=
    # sqrt(rows cols) max|x| (Golub & Van Loan, 2.3) with a factor 2 to spare
    # over at most three computed values: a factor 2**(1/3) each, which a
    # LAPACK build must keep, as its error bound says (LAPACK Users' Guide, 4.9)
    spare = 2 ** (1 / 3)
    for k, (rows, cols) in enumerate([(1, 1), (1, 6), (6, 1), (7, 3), (3, 7), (5, 5)]):
        a = _stack(k, (20,), rows, cols)
        u, v = _stack(10 + k, (20,), rows, 1), _stack(20 + k, (20,), 1, cols)
        for x in (a, a.real.copy(), u @ v, u.real @ v.real):  # full rank, then rank 1
            x = x * scale
            top, s = np.abs(x).max(axis=(-2, -1)), linalg._svdvals(x)[..., 0]
            assert (top <= spare * s).all() and (s <= spare * np.sqrt(rows * cols) * top).all(), (rows, cols, x.dtype)


@pytest.mark.parametrize("lead", _LEADS)
def test_shim_solve_and_slogdet_match_numpy_bit_for_bit(lead):
    for n in range(1, 8):
        a, b = _stack(n, lead, n, n), _stack(100 + n, lead, n, 1)
        _same(linalg._solve(a, b), np.linalg.solve(a, b))
        _same(linalg._slogdet(a), np.linalg.slogdet(a))
        gram = np.eye(n) + a @ a.conj().mT  # the positive-definite kind rates takes
        _same(linalg._slogdet(gram), np.linalg.slogdet(gram))


@pytest.mark.parametrize("lead", _LEADS)
def test_shim_qr_matches_numpy_bit_for_bit(lead):
    for k, (rows, cols) in enumerate(_SHAPES):
        a = _stack(k, lead, rows, cols)
        q, r = np.linalg.qr(a)
        _same(linalg._qr(a.copy()), (q, np.diagonal(r, axis1=-2, axis2=-1)))


def test_random_orthonormal_stack_matches_public_qr():
    # the phase-fixed Q of each draw, as numpy.linalg.qr and its R give it
    draws = np.array([complex_gaussian(generator(5, k), 6, 4) for k in range(20)])
    got = linalg._orthonormal(draws.copy())
    assert all(np.array_equal(got[k], random_orthonormal(generator(5, k), 6, 4)) for k in range(20))
    q, r = np.linalg.qr(draws)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    assert np.array_equal(got, q * (d / np.abs(d))[..., None, :])


@pytest.mark.parametrize("quiet", [False, True])
def test_shim_raises_what_numpy_raises(quiet):
    # _verify calls the shim inside np.errstate(over="ignore", invalid="ignore")
    bad = _stack(1, (3,), 4, 4)
    bad[1, 2, 2] = np.nan
    singular = _stack(2, (3,), 3, 3)
    singular[2] = 0.0
    before = np.geterr()
    with np.errstate(over="ignore", invalid="ignore") if quiet else np.errstate():
        inside = np.geterr()
        for call in (linalg._svdvals, linalg._svd_full, lambda a: linalg._svdvals(a.real.copy())):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                call(bad)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            linalg._solve(singular, _stack(3, (3,), 3, 1))
        assert np.geterr() == inside
    assert np.geterr() == before


def _falls_back(monkeypatch, a, b):
    """Each shim entry on `a` (and `b`) gives the public function's result,
    through that function; returns the public calls made, by name."""
    calls = []
    for name in ("svd", "solve", "qr", "slogdet"):

        def recording(*args, real=getattr(np.linalg, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    q, r = np.linalg.qr(a)
    _same(linalg._svdvals(a), np.linalg.svd(a, compute_uv=False))
    _same(linalg._svd_full(a), np.linalg.svd(a))
    _same(linalg._solve(a, b), np.linalg.solve(a, b))
    _same(linalg._qr(a.copy()), (q, np.diagonal(r, axis1=-2, axis2=-1)))
    _same(linalg._slogdet(a), np.linalg.slogdet(a))
    # each public function once for the shim and once for the reference
    assert sorted(calls) == ["qr", "qr", "slogdet", "slogdet", "solve", "solve", "svd", "svd", "svd", "svd"]
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
def test_shim_gives_other_dtypes_to_numpy(dtype, monkeypatch):
    z = _stack(7, (5,), 4, 4) * 10
    a = (z if np.dtype(dtype).kind == "c" else z.real).astype(dtype)
    _falls_back(monkeypatch, a, z[..., :1].real.astype(dtype))


def test_shim_without_the_gufuncs_gives_everything_to_numpy(monkeypatch):
    monkeypatch.setattr(linalg, "_LAPACK", None)
    a = _stack(8, (5,), 4, 4)
    calls = _falls_back(monkeypatch, a, _stack(9, (5,), 4, 1))
    done = len(calls)
    assert null_space_basis(a[0, :2]).shape == (4, 2) and calls[done:] == ["svd"]
