"""Every name a module exports through `__all__` exists, once, and every public
value type compares and hashes without a ValueError."""

import importlib
import pkgutil

import pytest

import mimo3way

MODULES = ["mimo3way"] + [f"mimo3way.{info.name}" for info in pkgutil.iter_modules(mimo3way.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_exporting_modules_found():
    # the package and its ten submodules that declare __all__
    assert len(EXPORTING) == 11


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), sorted({n for n in exported if exported.count(n) > 1})
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _values():
    """Each public value type by name, made twice from the same inputs."""
    cfg, tag = mimo3way.AntennaConfig(5, 4, 3), mimo3way.SchemeTag.UNI_A
    split, _ = mimo3way.scheme_split(cfg, tag)
    channels = mimo3way.draw_channels(split, seed=1)
    scheme = mimo3way.build_scheme(cfg, tag, channels, seed=2)
    report = mimo3way.verify_scheme(scheme, channels)
    enumerated = mimo3way.optimal_unicast_enumerated(cfg)
    lp = enumerated.certificate.lp
    bounds = mimo3way.genie_bound_unicast(split)
    return {
        "AntennaConfig": cfg,
        "AntennaSplit": split,
        "ChannelSet": channels,
        "BoundTerm": bounds.partial_terms[0],
        "BoundReport": bounds,
        "AllocationResult": enumerated,
        "DualityPairCertificate": enumerated.certificate,
        "ClosedFormCertificate": mimo3way.optimal_unicast_closed_form(cfg).certificate,
        "TransmitSumBand": mimo3way.optimal_broadcast(cfg).broadcast_band,
        "Regime": enumerated.regime,
        "LinearProgram": lp,
        "LPSolution": mimo3way.solve_inequality_min(lp),
        "DualityCertificate": mimo3way.verify_duality(lp, enumerated.certificate.v, enumerated.certificate.lam),
        "DualityStatus": mimo3way.DualityStatus.OPTIMAL,
        "SchemeTag": tag,
        "SchemeInstance": scheme,
        "SchemeMessage": scheme.messages[0],
        "VerificationReport": report,
        "MessageCheck": report.checks[0],
        "SlopeEstimate": mimo3way.estimate_dof(cfg, tag, trials=2, seed=3),
    }


def test_equality_and_hash_never_raise_value_error():
    # `==` and `hash()` on every public value type either work or raise
    # TypeError; the two that hold arrays compare and hash by identity
    first, second = _values(), _values()
    public = {name for name in mimo3way.__all__ if isinstance(getattr(mimo3way, name), type)}
    assert set(first) == {name for name in public if not issubclass(getattr(mimo3way, name), Exception)}
    for name, a in first.items():
        b = second[name]
        assert type(a) is type(b) is getattr(mimo3way, name), name
        assert a == a, name
        assert (a == b) is (name not in ("ChannelSet", "SchemeInstance")), name
        try:
            assert hash(a) == hash(a)
        except TypeError:
            pass
    for name in ("ChannelSet", "SchemeInstance"):
        assert {first[name]: 1, second[name]: 2}[first[name]] == 1
