"""Finite-SNR rate evaluation for treat-interference-as-noise operation.

Exponents arrive as exact rationals and are converted to binary64 at this
boundary only; logarithms are base 2 throughout. SINRs are evaluated in the
log2 domain (max-factored sums), so large strength levels cannot overflow;
levels whose bit count log2(P) * level leaves the float range are refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .channel import receiver_levels
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


def _levels(channel, r):
    """Per receiver k and state, the levels ``vec[j] + r[j]`` as floats, and
    ``r`` as floats; None when one leaves the float range. Each level is its
    int from :func:`receiver_levels` over the lattice scale, which rounds
    the same rational as ``float`` of the Fraction."""
    try:
        levels = [[[x / scale for x in row] for row in rows]
                  for scale, rows in receiver_levels(channel, r)]
        return levels, [float(y) for y in r]
    except OverflowError:
        return None


def _state_rate(row, k, log2p: float) -> float:
    """User k's rate at one receiver state with levels ``row``;
    ``OverflowError`` when the SINR leaves the float range."""
    num_bits = row[k] * log2p
    noise_terms = [0.0] + [row[j] * log2p for j in range(len(row)) if j != k]
    sinr_bits = num_bits - _log2_sum_exp2(noise_terms)
    if not math.isfinite(sinr_bits):
        raise OverflowError("rate exponent out of float range")
    return _log2_1p_exp2(sinr_bits)


class RateReport(NamedTuple):
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
    P is not finite, when a strength level is too large for the rates
    to be finite floats, or when the total transmit power underflows to 0.
    """
    return _report(_levels(channel, power_exponents(r, channel.K)), P)


def _report(levels, P) -> RateReport:
    """:func:`rates` from an allocation's :func:`_levels`."""
    P = float(P)
    if not 1 < P < math.inf:
        raise ValueError("nominal power P must be finite and exceed 1")
    log2p = math.log2(P)

    try:
        if levels is None:  # a level left the float range
            raise OverflowError
        per_state, exponents = levels
        per_user = [
            min(_state_rate(row, k, log2p) for row in rows)
            for k, rows in enumerate(per_state)]
        total_power = sum(2.0 ** (x * log2p) for x in exponents)
    except OverflowError:
        raise ValueError(
            f"strength levels too large for finite rates at P={P:g}") from None
    if total_power == 0.0:
        raise ValueError(
            f"total transmit power underflows to 0 at P={P:g}; "
            "exponents too negative for a finite efficiency")
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
    sorted by (allocation name, P). Each allocation's levels are computed
    once, for every P.
    """
    rows = []
    named = list(allocations) + [("full_power", (Fraction(0),) * channel.K)]
    for name, r in named:
        levels = _levels(channel, power_exponents(r, channel.K))
        for P in P_list:
            rows.append((name, _report(levels, P)))
    rows.sort(key=lambda item: (item[0], item[1].P))
    return rows
