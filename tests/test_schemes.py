"""Zero-forcing scheme construction and verification tests."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mimo3way import (
    AntennaConfig,
    AntennaSplit,
    ChannelSet,
    InvalidInputError,
    PAIR_ORDER,
    RegimeError,
    SchemeMessage,
    SchemeTag,
    build_scheme,
    draw_channels,
    genie_bound_unicast,
    receive,
    cutset_bound_broadcast,
    scheme_split,
    verify_scheme,
)
from mimo3way import channel as channel_mod
from mimo3way import schemes as schemes_mod
from mimo3way.linalg import PRECODER_STREAM, SYMBOL_STREAM, complex_gaussian, generator, random_orthonormal


def _built(m, tag, seed=0):
    cfg = AntennaConfig(*m)
    split, ext = scheme_split(cfg, tag)
    ch = draw_channels(split, seed)
    return cfg, split, ext, ch, build_scheme(cfg, tag, ch, seed)


def test_uni_a_dims_unextended():
    _, split, ext, _, s = _built((3, 3, 3), SchemeTag.UNI_A)
    assert ext == 1
    assert split == AntennaSplit((3, 1, 1), (0, 2, 2))
    assert {m.key: m.dim for m in s.messages} == {"u12": 1, "u13": 1, "u23": 1, "u32": 1}
    assert s.claimed_dof() == 4


def test_uni_a_dims_extended_symmetric():
    _, split, ext, _, s = _built((4, 4, 4), SchemeTag.UNI_A)
    assert ext == 3
    assert split.totals == (12, 12, 12)
    assert sum(m.dim for m in s.messages) == 16
    assert s.claimed_dof() == Fraction(16, 3)


def test_uni_a_dims_extended_asymmetric():
    _, split, ext, _, s = _built((5, 4, 2), SchemeTag.UNI_A)
    assert ext == 3
    assert split.totals == (15, 12, 6)
    assert sum(m.dim for m in s.messages) == 16
    assert s.claimed_dof() == Fraction(16, 3)


@pytest.mark.parametrize(
    "m,streams,dof",
    [((4, 2, 1), (2, 1), 3), ((6, 3, 3), (3, 3), 6), ((2, 1, 1), (1, 1), 2)],
)
def test_uni_b_dims(m, streams, dof):
    _, split, ext, _, s = _built(m, SchemeTag.UNI_B)
    assert ext == 1
    assert tuple(msg.dim for msg in s.messages) == streams
    assert s.claimed_dof() == dof
    # node 1 only listens
    assert s.tx_streams(1) == 0
    assert int(split.rx_of(1)) == m[1] + m[2]


@pytest.mark.parametrize(
    "m,dims,dof",
    [((5, 3, 2), (1, 2), 5), ((3, 3, 3), (0, 3), 6), ((2, 1, 1), (0, 1), 2)],
)
def test_bcast_dims(m, dims, dof):
    _, _, ext, _, s = _built(m, SchemeTag.BCAST)
    assert ext == 1
    assert tuple(msg.dim for msg in s.messages) == dims
    assert s.claimed_dof() == dof
    bc = next(msg for msg in s.messages if msg.key == "u3bc")
    assert bc.receivers == (1, 2) and bc.weight == 2


def test_uni_a_rejects_small_integral_config():
    # (2,1,1) splits integrally, so no extension lifts it past the floor
    with pytest.raises(RegimeError, match="3 antennas"):
        scheme_split(AntennaConfig(2, 1, 1), SchemeTag.UNI_A)


def test_uni_a_accepts_small_config_with_extension():
    # (2,2,1) is fractional, extension 3 raises every node above the floor
    split, ext = scheme_split(AntennaConfig(2, 2, 1), SchemeTag.UNI_A)
    assert ext == 3
    assert split.totals == (6, 6, 3)


def test_regime_rejections():
    with pytest.raises(RegimeError, match="m1 <= m2"):
        scheme_split(AntennaConfig(4, 2, 1), SchemeTag.UNI_A)
    with pytest.raises(RegimeError, match="m1 >= m2"):
        scheme_split(AntennaConfig(3, 3, 3), SchemeTag.UNI_B)
    with pytest.raises(RegimeError, match="one antenna"):
        scheme_split(AntennaConfig(3, 1, 0), SchemeTag.BCAST)
    with pytest.raises(InvalidInputError):
        scheme_split(AntennaConfig(3, 3, 3), "uni-a")


def test_channels_must_match_scheme_split():
    cfg = AntennaConfig(4, 4, 4)
    wrong = draw_channels(AntennaSplit((4, 1, 1), (0, 3, 3)), seed=0)
    with pytest.raises(InvalidInputError, match="extended split"):
        build_scheme(cfg, SchemeTag.UNI_A, wrong, seed=0)


def test_precoder_and_projector_shapes():
    _, split, _, ch, s = _built((5, 4, 3), SchemeTag.UNI_A, seed=2)
    (t1, t2, t3), (r1, r2, r3) = split.integer_pairs()
    for m in s.messages:
        pre = s.precoders[m.key]
        assert pre.shape == (int(split.tx_of(m.tx)), m.dim)
        assert np.linalg.matrix_rank(pre) == m.dim  # full column rank
        for r in m.receivers:
            q = s.projectors[(m.key, r)]
            assert q.shape[0] == int(split.rx_of(r))
            gram = q.conj().T @ q
            assert np.linalg.norm(gram - np.eye(q.shape[1]), 2) <= 1e-10


@pytest.mark.parametrize(
    "m, tag",
    [((3, 3, 3), SchemeTag.UNI_A), ((5, 4, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B),
     ((5, 3, 2), SchemeTag.BCAST)],
)
def test_built_scheme_matrices_readonly(m, tag):
    *_, s = _built(m, tag)
    for mat in [*s.precoders.values(), *s.projectors.values()]:
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0
    with pytest.raises(TypeError):
        s.precoders[s.messages[0].key] = np.zeros((1, 1))
    with pytest.raises(TypeError):
        s.projectors[next(iter(s.projectors))] = np.zeros((1, 1))
    with pytest.raises(TypeError):
        del s.precoders[s.messages[0].key]


def test_null_space_precoder_dimension_matches_rank_deficit():
    # cols(T_12) = tx1 - rank(H_13) = tx1 - rx3 for generic draws
    for seed in range(5):
        _, split, _, ch, s = _built((6, 5, 4), SchemeTag.UNI_A, seed=seed)
        (t1, _, _), (_, r2, r3) = split.integer_pairs()
        assert s.precoders["u12"].shape[1] == t1 - np.linalg.matrix_rank(ch.h(1, 3))
        assert s.precoders["u12"].shape[1] == t1 - r3
        assert s.precoders["u13"].shape[1] == t1 - r2


def test_stream_totals_weighted_by_receivers():
    _, _, ext, _, s = _built((5, 3, 2), SchemeTag.BCAST)
    weighted = sum(m.dim * m.weight for m in s.messages)
    assert Fraction(weighted, ext) == s.claimed_dof()


@pytest.mark.parametrize(
    "m,tag,want",
    [
        ((3, 3, 3), SchemeTag.UNI_A, Fraction(4)),
        ((5, 4, 2), SchemeTag.UNI_A, Fraction(16, 3)),
        ((4, 2, 1), SchemeTag.UNI_B, Fraction(3)),
        ((2, 1, 1), SchemeTag.UNI_B, Fraction(2)),
        ((5, 3, 2), SchemeTag.BCAST, Fraction(5)),
        ((3, 3, 3), SchemeTag.BCAST, Fraction(6)),
    ],
)
def test_verify_valid_with_exact_dof(m, tag, want):
    for seed in (0, 1, 2):
        cfg, split, ext, ch, s = _built(m, tag, seed=seed)
        rep = verify_scheme(s, ch, seed=seed + 50)
        assert rep.valid, rep.failures
        assert rep.achieved_dof == rep.claimed_dof == want
        assert all(c.passed for c in rep.checks)
        assert rep.failures == ()


def test_scheme_split_is_computed_once_per_config_and_tag():
    # builders ask again for the split their caller drew channels at
    cfg = AntennaConfig(5, 3, 2)
    assert scheme_split(AntennaConfig(5, 3, 2), SchemeTag.BCAST) is scheme_split(cfg, SchemeTag.BCAST)
    assert scheme_split(cfg, SchemeTag.UNI_B) != scheme_split(cfg, SchemeTag.BCAST)
    for _ in range(2):  # a refused config is refused again, not cached
        with pytest.raises(RegimeError, match="at least 3 antennas"):
            scheme_split(AntennaConfig(2, 1, 1), SchemeTag.UNI_A)


def _effective(scheme, channels, m, r, q):
    """Q^H H T of message `m` at receiver `r` under projector `q`, and
    (other, Q^H H' T') for each interferer: every other message with streams
    whose transmitter is not `r`, in message order."""
    qh = q.conj().T
    leaks = [
        (other, qh @ channels.h(other.tx, r) @ scheme.precoders[other.key])
        for other in scheme.messages
        if other.key != m.key and other.dim > 0 and other.tx != r
    ]
    return qh @ channels.h(m.tx, r) @ scheme.precoders[m.key], leaks


def test_verify_takes_one_svd_per_shape_and_each_link_and_precoder_once(monkeypatch):
    _, _, _, ch, s = _built((5, 4, 3), SchemeTag.UNI_A, seed=2)
    assert s.extension_factor == 3
    shared = {x.tobytes() for x in [ch.h(i, j) for i, j in PAIR_ORDER] + list(s.precoders.values())}
    # every shape verify reads: leaks with the links and precoders under
    # them, and each square effective matrix with its anchors and projector
    shapes = set()
    for m in s.messages:
        for r in m.receivers:
            g, leaks = _effective(s, ch, m, r, s.projectors[(m.key, r)])
            for other, leak in leaks:
                shapes |= {leak.shape, ch.h(other.tx, r).shape, s.precoders[other.key].shape}
            if m.dim and g.shape[0] == g.shape[1]:
                shapes |= {g.shape, ch.h(m.tx, r).shape, s.precoders[m.key].shape, s.projectors[(m.key, r)].shape}
    stacks = []

    def recording(a, real=schemes_mod._svdvals):
        stacks.append(np.array(a))
        return real(a)

    # the package's SVD entry as schemes binds it
    monkeypatch.setattr(schemes_mod, "_svdvals", recording)
    assert verify_scheme(s, ch, seed=2).valid
    hits = [mat.tobytes() for stack in stacks for mat in stack if mat.tobytes() in shared]
    assert hits and len(hits) == len(set(hits))
    assert len(stacks) == len(shapes) == len({stack.shape[1:] for stack in stacks})


def _spectral_ref(mat):
    return 0.0 if mat.size == 0 else float(np.linalg.norm(mat, 2))


def _verify_ref(scheme, channels, seed):
    """verify_scheme's checks as a per-matrix loop, one norm(., 2) per leak,
    link, precoder and projector: (checks as field tuples, failures, achieved)."""
    rng = generator(seed, SYMBOL_STREAM)
    symbols = {m.key: complex_gaussian(rng, m.dim, 1) for m in scheme.messages}
    x = []
    for node in (1, 2, 3):
        xi = np.zeros((int(scheme.split.tx_of(node)), 1), dtype=np.complex128)
        for m in scheme.messages:
            if m.tx == node and m.dim > 0:
                xi = xi + scheme.precoders[m.key] @ symbols[m.key]
        x.append(xi)
    noise = [np.zeros((int(scheme.split.rx_of(node)), 1), dtype=np.complex128) for node in (1, 2, 3)]
    y = receive(channels, x, noise)
    checks, failures, achieved = [], [], Fraction(0)
    for m in scheme.messages:
        for r in m.receivers:
            q = scheme.projectors[(m.key, r)]
            g, leaks = _effective(scheme, channels, m, r, q)
            fails = []
            worst = 0.0
            for other, leak in leaks:
                denom = _spectral_ref(channels.h(other.tx, r)) * _spectral_ref(scheme.precoders[other.key])
                if denom > 0:
                    worst = max(worst, _spectral_ref(leak) / denom)
            if worst > 1e-10:
                fails.append("interference")
            cond, rt = 0.0, float("nan")
            if m.dim > 0:
                if g.shape[0] != g.shape[1]:
                    fails.append("effective-matrix-not-square")
                else:
                    sv = np.linalg.svd(g, compute_uv=False)
                    smax, smin = float(sv[0]), float(sv[-1])
                    scale = _spectral_ref(channels.h(m.tx, r)) * _spectral_ref(scheme.precoders[m.key]) * _spectral_ref(q)
                    cond = smin / smax if smax > 0 else 0.0
                    if smax <= 1e-8 * scale:
                        fails.append("rank-deficient")
                    elif smin <= 1e-8 * smax:
                        fails.append("ill-conditioned")
                    else:
                        decoded = np.linalg.solve(g, q.conj().T @ y[r - 1])
                        u = symbols[m.key]
                        rt = float(np.linalg.norm(decoded - u) / np.linalg.norm(u))
                        if rt > 1e-8:
                            fails.append("roundtrip")
            if fails:
                failures.extend(f"{m.key}@{r}:{f}" for f in fails)
            else:
                achieved += Fraction(m.dim, scheme.extension_factor)
            checks.append((m.key, r, worst, cond, rt, not fails, tuple(fails)))
    return checks, failures, achieved


def _rigged(m, tag, seed):
    # projectors knocked out, so every failure path runs
    _, _, _, ch, s = _built(m, tag, seed=seed)
    rng = generator(0)
    return ch, replace(s, projectors={key: random_orthonormal(rng, *q.shape) for key, q in s.projectors.items()})


def _real_parts(m, tag, seed):
    # float64 precoders and projectors, which one SVD stack must not share
    # with complex matrices of the same shape
    _, _, _, ch, s = _built(m, tag, seed=seed)
    real = {table: {key: mat.real for key, mat in getattr(s, table).items()} for table in ("precoders", "projectors")}
    return ch, replace(s, **real)


@pytest.mark.parametrize(
    "m, tag, rigged",
    [
        ((3, 3, 3), SchemeTag.UNI_A, False),
        ((5, 4, 3), SchemeTag.UNI_A, False),  # extension factor 3
        ((4, 2, 1), SchemeTag.UNI_B, False),  # t2 != t3
        ((5, 3, 2), SchemeTag.BCAST, False),
        ((5, 3, 3), SchemeTag.BCAST, False),  # dim-0 u21
        ((4, 2, 1), SchemeTag.UNI_B, True),
        ((3, 3, 3), SchemeTag.UNI_A, "real"),
        ((5, 4, 3), SchemeTag.UNI_A, "real"),
        ((7, 6, 5), SchemeTag.UNI_A, "real"),
        ((4, 2, 1), SchemeTag.UNI_B, "real"),
        ((8, 5, 3), SchemeTag.UNI_B, "real"),
        ((5, 3, 2), SchemeTag.BCAST, "real"),
    ],
)
def test_batched_verify_equals_per_matrix_loop(m, tag, rigged):
    for seed in (0, 1, 3):
        if rigged == "real":
            ch, s = _real_parts(m, tag, seed)
        else:
            ch, s = _rigged(m, tag, seed) if rigged else _built(m, tag, seed=seed)[3:]
        rep = verify_scheme(s, ch, seed=seed + 50)
        checks, failures, achieved = _verify_ref(s, ch, seed + 50)
        assert rep.valid is (not rigged) and rep.valid == (not failures)
        assert rep.failures == tuple(failures)
        assert rep.achieved_dof == achieved
        assert rep.claimed_dof == sum((Fraction(m.dim * m.weight, s.extension_factor) for m in s.messages), Fraction(0))
        assert len(rep.checks) == len(checks)
        for got, want in zip(rep.checks, checks):
            fields = (got.message, got.receiver, got.interference_residual, got.condition_ratio,
                      got.roundtrip_error, got.passed, got.failures)
            for a, b in zip(fields, want):
                assert a == b or (a != a and b != b), (got, want)


def test_achieved_never_exceeds_converse():
    # a valid scheme's DoF is capped by the matching combined bound
    for m, tag in [((3, 3, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B)]:
        cfg, split, ext, ch, s = _built(m, tag)
        rep = verify_scheme(s, ch)
        bound = genie_bound_unicast(split).combined / ext
        assert rep.achieved_dof <= bound

    cfg, split, ext, ch, s = _built((5, 3, 2), SchemeTag.BCAST)
    rep = verify_scheme(s, ch)
    assert rep.achieved_dof <= cutset_bound_broadcast(split).combined


def test_adversarial_identical_links_invalidate():
    # H_13 = H_12 collapses node 1's two null-space precoders into the same
    # subspace; both effective matrices lose rank
    cfg = AntennaConfig(3, 3, 3)
    split, _ = scheme_split(cfg, SchemeTag.UNI_A)
    ch = draw_channels(split, seed=3)
    mats = [ch.h(i, j) for (i, j) in PAIR_ORDER]
    mats[PAIR_ORDER.index((1, 3))] = ch.h(1, 2).copy()
    bad = ChannelSet(split, tuple(mats))
    rep = verify_scheme(build_scheme(cfg, SchemeTag.UNI_A, bad, seed=3), bad, seed=5)
    assert not rep.valid
    assert any("rank-deficient" in f for f in rep.failures)
    assert rep.achieved_dof < rep.claimed_dof


def test_verify_report_json():
    _, _, _, ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=7)
    j = verify_scheme(s, ch).to_json()
    assert j["valid"] is True
    assert j["achieved_dof"] == "3"
    assert j["claimed_dof"] == "3"
    assert len(j["checks"]) == 2
    for c in j["checks"]:
        assert c["passed"] is True
        assert isinstance(c["interference_residual"], float)


@pytest.mark.parametrize("name", ["residual_tol", "condition_tol", "roundtrip_tol"])
def test_verify_takes_no_tolerance_option(name):
    # the tolerances are fixed: an option that set them could pass any scheme
    _, _, _, ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=3)
    with pytest.raises(TypeError, match=name):
        verify_scheme(s, ch, **{name: 1.0})


@pytest.mark.parametrize(
    "m, tag", [((3, 3, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B), ((5, 3, 2), SchemeTag.BCAST)],
)
def test_verify_checks_interference_at_the_fixed_tolerance(m, tag):
    # projectors nudged off their null spaces by t, so residuals of about t
    # fall on both sides of 1e-10; a pair fails on interference exactly when
    # its residual exceeds it
    _, _, _, ch, s = _built(m, tag, seed=3)
    rng = generator(0)
    noise = {key: random_orthonormal(rng, *q.shape) for key, q in s.projectors.items()}
    residuals = []
    for t in (0.0, 3e-11, 3e-10, 1e-9, 1.0):
        rep = verify_scheme(replace(s, projectors={key: q + t * noise[key] for key, q in s.projectors.items()}), ch)
        for c in rep.checks:
            assert ("interference" in c.failures) == (c.interference_residual > 1e-10)
            residuals.append(c.interference_residual)
        assert rep.valid is (t < 1e-10)
    assert min(r for r in residuals if r > 1e-10) < 1e-9 and max(r for r in residuals if r <= 1e-10) > 1e-11


def _with(s, table, key, value):
    mats = dict(getattr(s, table))
    if value is None:
        del mats[key]
    else:
        mats[key] = value
    return replace(s, **{table: mats})


@pytest.mark.parametrize(
    "m, tag", [((4, 2, 1), SchemeTag.UNI_B), ((5, 4, 3), SchemeTag.UNI_A), ((5, 3, 3), SchemeTag.BCAST)]
)
def test_verify_refuses_malformed_scheme_matrices(m, tag):
    _, _, _, ch, s = _built(m, tag, seed=1)
    assert verify_scheme(s, ch).valid
    bad = [replace(s, projectors={}), replace(s, precoders={})]
    for key, q in s.projectors.items():
        for value in (None, np.eye(q.shape[0] + 2), q.astype(object), q[None]):
            bad.append(_with(s, "projectors", key, value))
    for key, t in s.precoders.items():
        rows, cols = t.shape
        for value in (None, np.ones((rows + 1, cols)), np.ones((rows, cols + 1)), t.tolist()):
            bad.append(_with(s, "precoders", key, value))
    for table in ("projectors", "precoders"):
        for key, mat in getattr(s, table).items():
            for value in (math.nan, math.inf, -math.inf, complex(0, math.nan)):
                if mat.size:
                    broken = mat.copy()
                    broken[-1, 0] = value
                    bad.append(_with(s, table, key, broken))
    for scheme in bad:
        with pytest.raises(InvalidInputError):
            verify_scheme(scheme, ch)


def test_verify_refuses_the_found_malformed_schemes():
    # (4,2,1) uni-b: an empty projector dict, 5x5 projectors, NaN precoders
    _, _, _, ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=1)
    wrong_shape = replace(s, projectors={key: np.eye(5, dtype=complex) for key in s.projectors})
    nan = replace(s, precoders={key: np.full_like(t, np.nan) for key, t in s.precoders.items()})
    # numpy.linalg refuses float16: the SVDs of the checks would raise TypeError
    half = replace(s, precoders={key: t.real.astype(np.float16) for key, t in s.precoders.items()})
    for scheme, match in [
        (replace(s, projectors={}), "no projector"),
        (wrong_shape, "must be a numeric array of shape"),
        (nan, "non-finite"),
        (half, "must be a numeric array of shape"),
    ]:
        with pytest.raises(InvalidInputError, match=match):
            verify_scheme(scheme, ch)


@pytest.mark.parametrize(
    "messages, match",
    [((SchemeMessage("u11", 1, (1,), 1),), "message 'u11' is received at its own transmitter, node 1"),
     (("u21",), "scheme messages must be SchemeMessages"),
     ((["u21", 2, (1,), 2],), "scheme messages must be SchemeMessages")],
    ids=["own transmitter", "str", "unhashable"],
)
def test_verify_refuses_messages_no_plan_can_hold(messages, match):
    _, _, _, ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=1)
    with pytest.raises(InvalidInputError, match=match):
        verify_scheme(replace(s, messages=messages), ch)


def test_verify_rejects_foreign_channels():
    cfg, split, _, ch, s = _built((3, 3, 3), SchemeTag.UNI_A)
    other = draw_channels(AntennaSplit((1, 1, 1), (2, 2, 2)), seed=0)
    with pytest.raises(InvalidInputError):
        verify_scheme(s, other)
    with pytest.raises(InvalidInputError):
        verify_scheme("not a scheme", ch)


def _huge(m, tag, key, seed=1):
    # links and one precoder scaled by 1e300: the received signal overflows
    cfg = AntennaConfig(*m)
    split, _ = scheme_split(cfg, tag)
    ch = ChannelSet(split, tuple(h * 1e300 for h in draw_channels(split, seed).matrices))
    s = build_scheme(cfg, tag, ch, seed)
    return ch, replace(s, precoders={**s.precoders, key: s.precoders[key] * 1e300})


@pytest.mark.parametrize("key", ["u23", "u12"])
def test_verify_refuses_an_overflowing_received_signal(key):
    # u23 made a report valid with G(u23@3) = [[inf+nanj]] and NaN roundtrips;
    # u12 made a LinAlgError escape from the SVD
    ch, s = _huge((3, 3, 3), SchemeTag.UNI_A, key)
    with pytest.raises(InvalidInputError, match="overflows float64"):
        verify_scheme(s, ch, seed=1)


@pytest.mark.parametrize(
    "m, tag", [((2, 1, 1), SchemeTag.UNI_B), ((3, 3, 3), SchemeTag.UNI_A), ((5, 3, 2), SchemeTag.BCAST)]
)
def test_build_refuses_a_precoded_link_that_overflows(m, tag):
    # links of entries 1.7e308 (1 + 1j), finite as ChannelSet requires: the
    # image of a unit-norm precoder through one overflows, which building
    # refuses as bad input, with no LinAlgError and (by the suite's warning
    # filter) no RuntimeWarning. uni-a's null-space precoders stop first: the
    # largest singular value of such a link overflows, so its rank is unknown
    cfg = AntennaConfig(*m)
    split, _ = scheme_split(cfg, tag)
    ch = ChannelSet(split, tuple(np.full(h.shape, 1.7e308 + 1.7e308j) for h in draw_channels(split, 0).matrices))
    match = "singular values overflow float64" if tag is SchemeTag.UNI_A else "a precoded link overflows float64"
    with pytest.raises(InvalidInputError, match=match):
        build_scheme(cfg, tag, ch, seed=0)


@pytest.mark.parametrize("m, tag", [((3, 3, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B),
                                    ((5, 3, 2), SchemeTag.BCAST), ((7, 6, 5), SchemeTag.UNI_A)])
def test_one_precoder_draw_per_trial_equals_draws_message_by_message(m, tag):
    # each square precoder is random_orthonormal(generator(seed,
    # PRECODER_STREAM), d, d) drawn in message order, in a stack and alone
    cfg = AntennaConfig(*m)
    split, ext = scheme_split(cfg, tag)
    seeds = [21, 22, 23]
    stacked = schemes_mod._build(cfg, tag, ext, channel_mod._draw(split, seeds, (len(seeds),)), seeds)
    drawn = [msg for msg, node in zip(stacked.messages, schemes_mod._rule(tag)[0]) if node is None]
    assert drawn
    for k, seed in enumerate(seeds):
        alone = build_scheme(cfg, tag, draw_channels(split, seed), seed)
        rng = generator(seed, PRECODER_STREAM)
        for msg in drawn:
            want = random_orthonormal(rng, msg.dim, msg.dim).tobytes()
            assert stacked.precoders[msg.key][k].tobytes() == alone.precoders[msg.key].tobytes() == want


def test_stacked_roundtrip_errors_equal_per_trial_norms_bit_for_bit(monkeypatch):
    # (7,6,5) uni-a, 12 trials: each pair's errors, from one vecdot per part
    # over the stack, are the np.linalg.norm ratios of its trials one by one,
    # each trial's symbols drawn message by message as complex_gaussian does
    cfg = AntennaConfig(7, 6, 5)
    split, ext = scheme_split(cfg, SchemeTag.UNI_A)
    seeds = list(range(40, 52))
    ch = channel_mod._draw(split, seeds, (len(seeds),))
    s = schemes_mod._build(cfg, SchemeTag.UNI_A, ext, ch, seeds)
    decoded, solve = [], schemes_mod._solve
    monkeypatch.setattr(schemes_mod, "_solve", lambda g, qy: decoded.append(solve(g, qy)) or decoded[-1])
    pairs = schemes_mod._verify(s, ch, seeds, *schemes_mod._check_scheme_matrices(s, ch, (len(seeds),)))
    sent = []
    for seed in seeds:
        rng = generator(seed, SYMBOL_STREAM)
        sent.append({m.key: complex_gaussian(rng, m.dim, 1) for m in s.messages})
    assert len(pairs) == len(decoded) == 4
    for (m, _, trials), d in zip(pairs, decoded):
        assert d.shape == (len(seeds), m.dim, 1) and not any(fails for *_, fails in trials)
        want = [np.linalg.norm(d[k] - u[m.key]) / np.linalg.norm(u[m.key]) for k, u in enumerate(sent)]
        assert [rt for _, _, rt, _ in trials] == [float(w) for w in want]


def test_plan_caches_stay_within_their_bounds():
    split, _ = scheme_split(AntennaConfig(3, 3, 3), SchemeTag.UNI_A)
    for i in range(schemes_mod._plan.cache_info().maxsize + 10):
        plan = schemes_mod._plan(split, (SchemeMessage(f"m{i}", 1, (2,), 0),))
        plan.layout((0, np.dtype(complex).num, 0, np.dtype(complex).num))
    for cache in (schemes_mod._plan, schemes_mod._Plan.layout):
        info = cache.cache_info()
        assert info.currsize == info.maxsize


@pytest.mark.parametrize(
    "m, tag, edit",
    [
        ((3, 3, 3), SchemeTag.UNI_A, "reversed"),
        ((4, 2, 1), SchemeTag.UNI_B, "reversed"),
        ((5, 3, 2), SchemeTag.BCAST, "reversed"),
        ((5, 3, 2), SchemeTag.BCAST, "one receiver"),
        ((5, 3, 2), SchemeTag.BCAST, "wide projector"),
    ],
)
def test_hand_edited_scheme_gets_its_own_plan(m, tag, edit):
    _, _, _, ch, s = _built(m, tag, seed=4)
    verify_scheme(s, ch, seed=4)
    if edit == "reversed":
        edited = replace(s, messages=s.messages[::-1])
    elif edit == "one receiver":
        edited = replace(s, messages=(s.messages[0], replace(s.messages[1], receivers=(1,))))
    else:  # a projector with an extra column: its pair's G is not square
        q = s.projectors[("u3bc", 1)]
        edited = replace(s, projectors={**s.projectors, ("u3bc", 1): np.hstack([q, q[:, :1]])})
    plans, layouts = schemes_mod._plan.cache_info().misses, schemes_mod._Plan.layout.cache_info().misses
    rep = verify_scheme(edited, ch, seed=4)
    # a new message list is a new plan; a new projector width only a new layout
    new_plan = edit != "wide projector"
    plans_differ = schemes_mod._check_scheme_matrices(edited, ch)[0] is not schemes_mod._check_scheme_matrices(s, ch)[0]
    assert plans_differ is new_plan
    assert schemes_mod._plan.cache_info().misses == plans + new_plan
    assert schemes_mod._Plan.layout.cache_info().misses == layouts + 1
    assert rep.valid is new_plan
    checks, failures, achieved = _verify_ref(edited, ch, 4)
    assert rep.failures == tuple(failures) and rep.achieved_dof == achieved
    assert len(rep.checks) == len(checks)
    for got, want in zip(rep.checks, checks):
        fields = (got.message, got.receiver, got.interference_residual, got.condition_ratio,
                  got.roundtrip_error, got.passed, got.failures)
        for a, b in zip(fields, want):
            assert a == b or (a != a and b != b), (got, want)


def _block(m, tag, seeds):
    cfg = AntennaConfig(*m)
    split, ext = scheme_split(cfg, tag)
    ch = channel_mod._draw(split, seeds, (len(seeds),))
    return split, ch, schemes_mod._build(cfg, tag, ext, ch, seeds)


def _verify_each(split, ch, s, seeds):
    """verify_scheme on each trial of a block alone: one report per trial."""
    reports = []
    for k, seed in enumerate(seeds):
        trial = replace(
            s,
            precoders={key: t[k] for key, t in s.precoders.items()},
            projectors={key: q[k] for key, q in s.projectors.items()},
        )
        reports.append(verify_scheme(trial, ChannelSet._drawn(split, tuple(h[k] for h in ch.matrices)), seed=seed))
    return reports


@pytest.mark.parametrize(
    "m, tag", [((3, 3, 3), SchemeTag.UNI_A), ((5, 3, 2), SchemeTag.BCAST), ((4, 2, 1), SchemeTag.UNI_B)]
)
def test_passed_on_a_mixed_block_equals_verify_per_trial(m, tag):
    seeds = [11, 12, 13, 14, 15]
    split, ch, s = _block(m, tag, seeds)
    rng = generator(0)
    projectors = {}
    for key, q in s.projectors.items():  # knock out trials 1 and 3
        q = q.copy()
        for k in (1, 3):
            q[k] = random_orthonormal(rng, *q.shape[1:])
        projectors[key] = q
    s = replace(s, projectors=projectors)
    got = schemes_mod._passed(s, ch, seeds)
    want = [rep.valid for rep in _verify_each(split, ch, s, seeds)]
    assert got.tolist() == want == [True, False, True, False, True]


# the mc-slope configs, then criterion 3's: uni-a with m3 >= 3 and m1 <= m2 + m3, uni-b with m1 >= m2 + m3 up to 8
# antennas, and every bcast config, each m1 <= 7
_GRID7 = [(a, b, c) for a in range(1, 8) for b in range(1, a + 1) for c in range(1, b + 1)]
_BLOCK_CASES = (
    [((3, 3, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B), ((5, 3, 2), SchemeTag.BCAST),
     ((7, 6, 5), SchemeTag.UNI_A)]
    + [(m, SchemeTag.UNI_A) for m in _GRID7 if m[2] >= 3 and m[0] <= m[1] + m[2]]
    + [((a, b, c), SchemeTag.UNI_B) for c in range(1, 9) for b in range(c, 9) for a in range(b + c, 9)]
    + [(m, SchemeTag.BCAST) for m in _GRID7]
)


def test_passed_on_blocks_equals_verify_per_trial():
    # the block's verdicts, settled by bounds or checked exactly, are the
    # one-trial verdicts at every config the benchmark and criterion 3 run
    assert len(_BLOCK_CASES) == 4 + 168
    for i, (m, tag) in enumerate(_BLOCK_CASES):
        seeds = [1000 * i + k for k in range(4)]
        split, ch, s = _block(m, tag, seeds)
        want = [rep.valid for rep in _verify_each(split, ch, s, seeds)]
        assert schemes_mod._passed(s, ch, seeds).tolist() == want, (m, tag)


def _recording(monkeypatch):
    """Record each stack schemes hands to _svdvals, and each _verify call's mode."""
    stacks, modes = [], []
    svdvals, verify = schemes_mod._svdvals, schemes_mod._verify
    monkeypatch.setattr(schemes_mod, "_svdvals", lambda a: stacks.append(np.array(a)) or svdvals(a))
    monkeypatch.setattr(schemes_mod, "_verify",
                        lambda *a, **kw: modes.append(kw.get("verdicts", False)) or verify(*a, **kw))
    return stacks, modes


def _gs(s, ch):
    """Each pair's effective matrix G = Q^H H T over a block, where it is square."""
    gs = []
    for m in s.messages:
        for r in m.receivers:
            q = s.projectors[m.key, r]
            if m.dim and q.shape[-1] == m.dim:
                gs.append(q.conj().mT @ ch.matrices[PAIR_ORDER.index((m.tx, r))] @ s.precoders[m.key])
    return gs


@pytest.mark.parametrize("m, tag", _BLOCK_CASES[:4] + [((5, 4, 3), SchemeTag.UNI_A), ((5, 3, 3), SchemeTag.BCAST)])
def test_a_settled_block_takes_the_svds_of_its_effective_matrices_alone(monkeypatch, m, tag):
    seeds = list(range(300, 320))
    split, ch, s = _block(m, tag, seeds)
    gs = _gs(s, ch)
    stacks, modes = _recording(monkeypatch)
    assert schemes_mod._passed(s, ch, seeds).all()
    assert modes == [True]  # no exact rerun
    svd = [mat for stack in stacks for mat in stack]
    assert len(svd) == len(gs) and stacks
    for g in gs:
        assert sum(mat.shape == g.shape and np.allclose(mat, g, rtol=1e-12, atol=0) for mat in svd) == 1


def _leak_at(s, ch, k, ratio):
    """`s` with trial k's projector bent so that one leak that the projector
    (not a precoder) removes is `ratio` of its link's and precoder's scale."""
    plan, leaks = s._checks, []
    for (key, r), pair in plan.leaks.items():
        for o, _ in pair:
            other = plan.messages[o]
            h, t = ch.h(other.tx, r)[k], s.precoders[other.key][k]
            leaks.append((np.linalg.norm(h @ t, 2), key, r, h, t))
    _, key, r, h, t = max(leaks, key=lambda leak: leak[0])
    u, sv, _ = np.linalg.svd(h @ t)  # the projector's columns are orthogonal to range(H' T')
    q = s.projectors[key, r].copy()
    q[k, :, 0] += ratio * np.linalg.norm(h, 2) * np.linalg.norm(t, 2) / sv[0] * u[:, 0]
    return replace(s, projectors={**s.projectors, (key, r): q}), (key, r)


@pytest.mark.parametrize("m, tag", [((3, 3, 3), SchemeTag.UNI_A), ((7, 6, 5), SchemeTag.UNI_A),
                                    ((5, 3, 2), SchemeTag.BCAST)])
@pytest.mark.parametrize("ratio, valid", [(0.7e-10, True), (1.3e-10, False)])
def test_a_leak_the_bounds_cannot_settle_is_checked_exactly(monkeypatch, m, tag, ratio, valid):
    # a leak of 0.7e-10 passes the exact check, but no max-entry bound can
    # settle it (2 hi(leak) >= 2 smax(leak) > 1e-10 smax(link) smax(pre) >=
    # 1e-10 lo(link) lo(pre)); one of 1.3e-10 fails it
    seeds = [21, 22, 23, 24, 25]
    split, ch, s = _block(m, tag, seeds)
    s, (key, r) = _leak_at(s, ch, 2, ratio)
    reports = _verify_each(split, ch, s, seeds)
    (check,) = [c for c in reports[2].checks if (c.message, c.receiver) == (key, r)]
    assert 0.99 * ratio < check.interference_residual < 1.01 * ratio
    assert [rep.valid for rep in reports] == [True, True, valid, True, True]
    stacks, modes = _recording(monkeypatch)
    assert schemes_mod._passed(s, ch, seeds).tolist() == [rep.valid for rep in reports]
    assert modes == [True, False]  # the bounds, then the exact checks
    assert any(np.array_equal(mat, h) for stack in stacks for mat in stack for h in ch.matrices)  # a link's SVD


def test_verify_scheme_svd_stacks_are_pinned(monkeypatch):
    # the shape, dtype and bytes of every stack verify_scheme hands to
    # _svdvals over 7 configs x 2 seeds x (built, knocked-out projectors,
    # real precoders): its residuals are exact, so only blocks may bound them
    stacks, _ = _recording(monkeypatch)
    digest = hashlib.sha256()
    for m, tag in [((3, 3, 3), SchemeTag.UNI_A), ((5, 4, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B),
                   ((5, 3, 2), SchemeTag.BCAST), ((5, 3, 3), SchemeTag.BCAST), ((7, 6, 5), SchemeTag.UNI_A),
                   ((8, 5, 3), SchemeTag.UNI_B)]:
        for seed in (0, 1):
            _, _, _, ch, s = _built(m, tag, seed=seed)
            rng = generator(0)
            for v in (s, replace(s, projectors={k: random_orthonormal(rng, *q.shape) for k, q in s.projectors.items()}),
                      replace(s, precoders={k: t.real for k, t in s.precoders.items()})):
                verify_scheme(v, ch, seed=seed + 50)
    for stack in stacks:
        digest.update(repr((stack.shape, stack.dtype.str)).encode())
        digest.update(stack.tobytes())
    assert len(stacks) == 362
    assert digest.hexdigest() == "fee4d99e36586b9a9d70e4ed5de4f3aacb4882f779abd5dd3fe590b9dc62a18f"
