"""Finite-SNR rate evaluation for treat-interference-as-noise operation.

Exponents arrive as exact rationals and are converted to binary64 at this
boundary only; logarithms are base 2 throughout. SINRs are evaluated in the
log2 domain (max-factored sums), so large strength levels cannot overflow;
levels whose bit count log2(P) * level leaves the float range are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .channel import validate
from .power import achieved_gdof
from .rationals import power_exponents

_LN2 = math.log(2.0)


def _log2_1p_exp2(x: float) -> float:
    """log2(1 + 2**x), stable for any float x."""
    if x > 0:
        return x + math.log1p(2.0 ** -x) / _LN2
    return math.log1p(2.0 ** x) / _LN2


def _log2_sum_exp2(exponents: Sequence[float]) -> float:
    """log2 of a sum of powers of two, max-factored."""
    top = max(exponents)
    return top + math.log2(sum(2.0 ** (e - top) for e in exponents))


def _state_rate(vec, r, k, log2p: float) -> float:
    """User k's rate at one receiver state; ``OverflowError`` when a level
    times log2 P leaves the float range."""
    num_bits = float(vec[k] + r[k]) * log2p
    noise_terms = [0.0] + [
        float(vec[j] + r[j]) * log2p for j in range(len(r)) if j != k]
    sinr_bits = num_bits - _log2_sum_exp2(noise_terms)
    if not math.isfinite(sinr_bits):
        raise OverflowError("rate exponent out of float range")
    return _log2_1p_exp2(sinr_bits)


@dataclass(frozen=True)
class RateReport:
    """Rates in bits per channel use at one nominal power.

    ``total_power`` is the summed linear transmit power (each user spends at
    most 1), and ``efficiency`` is sum rate divided by that total.
    """

    P: float
    rates: tuple[float, ...]
    sum_rate: float
    min_rate: float
    total_power: float
    efficiency: float


def rates(channel, r, P: float) -> RateReport:
    """Achievable per-user rates under the given power exponents.

    Each user's rate is limited by its worst state; interference powers are
    summed (not maxed) in the SINR denominator. Raises ``ValueError`` when
    P is not finite, or when a strength level is too large for the rates
    to be finite floats.
    """
    validate(channel)
    r = power_exponents(r, channel.K)
    P = float(P)
    if not 1 < P < math.inf:
        raise ValueError("nominal power P must be finite and exceed 1")
    log2p = math.log2(P)

    try:
        per_user = [
            min(_state_rate(vec, r, k, log2p) for vec in states)
            for k, states in enumerate(channel.receivers)]
        total_power = sum(2.0 ** (float(x) * log2p) for x in r)
    except OverflowError:
        raise ValueError(
            f"strength levels too large for finite rates at P={P:g}") from None
    sum_rate = sum(per_user)
    return RateReport(
        P=P,
        rates=tuple(per_user),
        sum_rate=sum_rate,
        min_rate=min(per_user),
        total_power=total_power,
        efficiency=sum_rate / total_power,
    )


def sweep(channel, allocations, P_list) -> list[tuple[str, RateReport]]:
    """Rate table for named allocations at each P, plus a full-power baseline.

    ``allocations`` is a sequence of (name, exponent vector) pairs. Rows are
    sorted by (allocation name, P).
    """
    validate(channel)
    rows = []
    named = list(allocations) + [("full_power", (Fraction(0),) * channel.K)]
    for name, r in named:
        for P in P_list:
            rows.append((name, rates(channel, r, P)))
    rows.sort(key=lambda item: (item[0], item[1].P))
    return rows


@dataclass(frozen=True)
class GdofLimitResult:
    """Normalized rates R_k / log2(P) along an increasing power sweep, plus
    the exact high-power limit they approach."""

    P_list: tuple[float, ...]
    normalized: tuple[tuple[float, ...], ...]
    achieved: tuple[Fraction, ...]


def gdof_limit_check(channel, r, P_list) -> GdofLimitResult:
    """Normalized-rate sequences for an increasing list of powers."""
    powers = [float(p) for p in P_list]
    if not all(1 < p < math.inf for p in powers):
        raise ValueError("all powers must be finite and exceed 1")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise ValueError("P_list must be strictly increasing")
    normalized = []
    for P in powers:
        report = rates(channel, r, P)
        scale = math.log2(P)
        normalized.append(tuple(x / scale for x in report.rates))
    return GdofLimitResult(tuple(powers), tuple(normalized), achieved_gdof(channel, r))
