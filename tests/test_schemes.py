"""Zero-forcing scheme construction and verification tests."""

from fractions import Fraction

import numpy as np
import pytest

import mimo3way.schemes as schemes_mod
from mimo3way import (
    AntennaConfig,
    AntennaSplit,
    ChannelSet,
    InvalidInputError,
    PAIR_ORDER,
    RegimeError,
    SchemeTag,
    build_scheme,
    build_uni_a,
    draw_channels,
    genie_bound_unicast,
    cutset_bound_broadcast,
    numerical_rank,
    scheme_split,
    verify_scheme,
)


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
    bc = s.message("u3bc")
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
        build_uni_a(cfg, wrong, seed=0)


def test_precoder_and_projector_shapes():
    _, split, _, ch, s = _built((5, 4, 3), SchemeTag.UNI_A, seed=2)
    (t1, t2, t3), (r1, r2, r3) = split.integer_pairs()
    for m in s.messages:
        pre = s.precoders[m.key]
        assert pre.shape == (int(split.tx_of(m.tx)), m.dim)
        assert numerical_rank(pre) == m.dim  # full column rank
        for r in m.receivers:
            q = s.projectors[(m.key, r)]
            assert q.shape[0] == int(split.rx_of(r))
            gram = q.conj().T @ q
            assert np.linalg.norm(gram - np.eye(q.shape[1]), 2) <= 1e-10


def test_null_space_precoder_dimension_matches_rank_deficit():
    # cols(T_12) = tx1 - rank(H_13) = tx1 - rx3 for generic draws
    for seed in range(5):
        _, split, _, ch, s = _built((6, 5, 4), SchemeTag.UNI_A, seed=seed)
        (t1, _, _), (_, r2, r3) = split.integer_pairs()
        assert s.precoders["u12"].shape[1] == t1 - numerical_rank(ch.h(1, 3))
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


def test_verify_takes_each_link_and_precoder_norm_once(monkeypatch):
    _, _, _, ch, s = _built((5, 4, 3), SchemeTag.UNI_A, seed=2)
    shared = [ch.h(i, j) for i, j in PAIR_ORDER] + list(s.precoders.values())
    seen = []

    def counting(mat, real=schemes_mod._spectral):
        seen.extend(k for k, x in enumerate(shared) if x is mat)
        return real(mat)

    monkeypatch.setattr(schemes_mod, "_spectral", counting)
    assert verify_scheme(s, ch, seed=2).valid
    assert seen and len(seen) == len(set(seen))


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


def test_verify_rejects_foreign_channels():
    cfg, split, _, ch, s = _built((3, 3, 3), SchemeTag.UNI_A)
    other = draw_channels(AntennaSplit((1, 1, 1), (2, 2, 2)), seed=0)
    with pytest.raises(InvalidInputError):
        verify_scheme(s, other)
    with pytest.raises(InvalidInputError):
        verify_scheme("not a scheme", ch)


def test_message_lookup():
    _, _, _, _, s = _built((3, 3, 3), SchemeTag.UNI_A)
    assert s.message("u12").receivers == (2,)
    with pytest.raises(InvalidInputError):
        s.message("u99")
