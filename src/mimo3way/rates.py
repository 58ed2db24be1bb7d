"""Monte-Carlo sum-rate simulation and DoF slope estimation.

At high SNR the sum rate of a valid zero-forcing scheme grows like
(achieved DoF) * log2(snr), so the slope of mean sum rate against log2(snr)
between the top grid points estimates the DoF. Per-message transmit power is
the node budget split evenly over its streams; the broadcast message counts
once per receiver (decoding must succeed at both, so its rate is the minimum
over receivers); rates are divided by the symbol-extension factor to land in
bits per channel use. Each draw's rates are evaluated over the whole SNR
grid at once, with one batched slogdet per (message, receiver) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import AntennaConfig, ChannelSet, draw_channels
from .errors import InternalError, InvalidInputError
from .linalg import ABLATION_STREAM, TRIAL_STREAM, generator, random_orthonormal
from .rational import frac_str
from .schemes import SchemeInstance, SchemeTag, build_scheme, pair_matrices, scheme_split, verify_scheme

__all__ = ["SlopeEstimate", "sum_rate", "ablated_sum_rate", "estimate_dof"]

_LN2 = math.log(2.0)


def _log2det(grams: np.ndarray, snrs: np.ndarray) -> np.ndarray:
    """log2 det of each positive-definite I + ... in a stack, in bits. grams[k]
    was formed at snrs[k]; a non-finite one means that SNR overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        sign, logdet = np.linalg.slogdet(grams)
    finite = np.isfinite(grams).all(axis=(-2, -1)) & np.isfinite(sign) & np.isfinite(logdet)
    if not finite.all():
        raise InvalidInputError(f"snr_linear {float(snrs[np.argmin(finite)])} overflows the rate Gram matrix")
    if (sign.real <= 0).any():
        raise InternalError("rate Gram matrix is not positive definite")
    return logdet / _LN2


def _stream_rho(scheme: SchemeInstance, snr_linear: float | np.ndarray) -> dict[str, float | np.ndarray]:
    """Per-stream power: each node splits its budget over its own streams."""
    rho = {}
    for m in scheme.messages:
        if m.dim == 0:
            continue
        rho[m.key] = snr_linear / scheme.tx_streams(m.tx)
    return rho


def _sum_rates(scheme: SchemeInstance, channels: ChannelSet, snrs) -> np.ndarray:
    """Zero-forcing sum rate at every SNR of a grid, in bits per channel use.

    Each (message, receiver) contributes log2 det(I + rho * G G^H) with G the
    effective matrix after projection; interference is exactly nulled by
    construction so it does not enter. G G^H is formed once per pair for the
    whole grid. Broadcast rate is min over receivers, weighted by the
    receiver count.
    """
    snrs = np.asarray(snrs, dtype=float)
    if not (snrs > 0).all():
        raise InvalidInputError(f"snr_linear must be > 0, got {float(snrs[np.argmin(snrs > 0)])}")
    rho = _stream_rho(scheme, snrs)
    total = np.zeros(snrs.shape)
    for m in scheme.messages:
        if m.dim == 0:
            continue
        per_rx = []
        for r in m.receivers:
            g, _ = pair_matrices(scheme, channels, m, r)
            with np.errstate(over="ignore", invalid="ignore"):
                grams = np.eye(g.shape[0], dtype=np.complex128) + rho[m.key][:, None, None] * (g @ g.conj().T)
            per_rx.append(_log2det(grams, snrs))
        total += m.weight * np.minimum.reduce(per_rx)
    return total / scheme.extension_factor


def sum_rate(scheme: SchemeInstance, channels: ChannelSet, snr_linear: float) -> float:
    """Zero-forcing sum rate in bits per channel use at one SNR (the grid
    kernel `_sum_rates` on a one-point grid)."""
    return float(_sum_rates(scheme, channels, [snr_linear])[0])


def ablated_sum_rate(
    scheme: SchemeInstance, channels: ChannelSet, snr_linear: float, seed: int = 0
) -> float:
    """Sum rate with the zero-forcing projectors knocked out.

    Replaces every projector by a random orthonormal basis of the same shape
    and treats the now-unsuppressed cross-talk as noise, i.e. each pair
    contributes log2 det(I + K + S) - log2 det(I + K) with S the signal and K
    the interference covariance after projection. At high SNR this saturates
    well below the zero-forcing rate whenever interference actually matters.
    """
    if not (snr_linear > 0):
        raise InvalidInputError(f"snr_linear must be > 0, got {snr_linear}")
    rng = generator(seed, ABLATION_STREAM)
    rho = _stream_rho(scheme, snr_linear)
    random_proj = {
        key: random_orthonormal(rng, q.shape[0], q.shape[1]) for key, q in sorted(scheme.projectors.items())
    }
    total = 0.0
    for m in scheme.messages:
        if m.dim == 0:
            continue
        per_rx = []
        for r in m.receivers:
            g, leaks = pair_matrices(scheme, channels, m, r, random_proj[(m.key, r)])
            with np.errstate(over="ignore", invalid="ignore"):
                signal = rho[m.key] * (g @ g.conj().T)
                noise = np.eye(g.shape[0], dtype=np.complex128)
                for other, leak in leaks:
                    noise = noise + rho[other.key] * (leak @ leak.conj().T)
            with_signal, without = _log2det(np.stack([noise + signal, noise]), np.full(2, snr_linear))
            per_rx.append(float(with_signal - without))
        total += m.weight * min(per_rx)
    return total / scheme.extension_factor


@dataclass(frozen=True)
class SlopeEstimate:
    """Monte-Carlo DoF estimate from the high-SNR rate slope."""

    scheme: SchemeTag
    snr_db: tuple[float, ...]
    mean_rates: tuple[float, ...]
    slope: float
    theoretical_dof: Fraction
    abs_error: float
    trials: int
    invalid_trials: int
    fit: str

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "snr_db": list(self.snr_db),
            "mean_rates": list(self.mean_rates),
            "slope": self.slope,
            "theoretical_dof": frac_str(self.theoretical_dof),
            "abs_error": self.abs_error,
            "trials": self.trials,
            "invalid_trials": self.invalid_trials,
            "fit": self.fit,
        }

    def to_csv(self) -> str:
        lines = ["snr_db,mean_rate"]
        lines += [f"{db:g},{rate!r}" for db, rate in zip(self.snr_db, self.mean_rates)]
        return "\n".join(lines) + "\n"


def _trial_seed(seed: int, k: int) -> int:
    ss = np.random.SeedSequence(int(seed), spawn_key=(TRIAL_STREAM, int(k)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def estimate_dof(
    config: AntennaConfig,
    tag: SchemeTag,
    snr_grid_db=(30.0, 50.0),
    trials: int = 50,
    seed: int = 0,
    fit: str = "two-point",
) -> SlopeEstimate:
    """Estimate achieved DoF of a scheme by simulation.

    Draws `trials` independent channels, builds and verifies the scheme on
    each (invalid draws are counted and skipped), averages sum rates over the
    SNR grid, and differences the top two grid points ("two-point", default)
    or least-squares fits the top half ("lsq-top-half"). The grid should top
    out at 30 dB or more for the slope to be in the DoF regime.
    """
    grid = tuple(float(s) for s in snr_grid_db)
    if len(grid) < 2:
        raise InvalidInputError("snr grid needs at least two points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError(f"snr grid must be strictly increasing, got {grid}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise InvalidInputError(f"trials must be a positive integer, got {trials!r}")
    if fit not in ("two-point", "lsq-top-half"):
        raise InvalidInputError(f"fit must be 'two-point' or 'lsq-top-half', got {fit!r}")
    try:
        snr_linear = [10.0 ** (db / 10.0) for db in grid]
    except OverflowError:
        snr_linear = [math.inf]
    if not all(math.isfinite(s) and s > 0 for s in snr_linear):
        raise InvalidInputError(f"snr grid {grid} dB has a point with no finite positive linear value")

    split, _ = scheme_split(config, tag)
    rates = np.zeros((trials, len(grid)))
    valid = np.zeros(trials, dtype=bool)
    theoretical: Fraction | None = None
    for k in range(trials):
        ts = _trial_seed(seed, k)
        channels = draw_channels(split, ts)
        scheme = build_scheme(config, tag, channels, ts)
        theoretical = scheme.claimed_dof()
        if not verify_scheme(scheme, channels, seed=ts).valid:
            continue
        valid[k] = True
        rates[k] = _sum_rates(scheme, channels, snr_linear)
    if not valid.any():
        raise InternalError(
            f"all {trials} channel draws produced invalid schemes for {tag.value} on {config.totals}"
        )
    mean_rates = rates[valid].mean(axis=0)

    log2_snr = np.array([db / 10.0 * math.log2(10.0) for db in grid])
    if fit == "two-point":
        slope = float((mean_rates[-1] - mean_rates[-2]) / (log2_snr[-1] - log2_snr[-2]))
    else:
        top = max(2, math.ceil(len(grid) / 2))
        slope = float(np.polyfit(log2_snr[-top:], mean_rates[-top:], 1)[0])

    return SlopeEstimate(
        scheme=tag,
        snr_db=grid,
        mean_rates=tuple(float(r) for r in mean_rates),
        slope=slope,
        theoretical_dof=theoretical,
        abs_error=abs(slope - float(theoretical)),
        trials=trials,
        invalid_trials=int(trials - valid.sum()),
        fit=fit,
    )
