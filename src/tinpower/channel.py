"""Channel data model for K-user interference networks with receiver-side
state uncertainty.

Link strengths are dimensionless exponents of a nominal power P (dB scale
relative to log P), stored as exact rationals. Channels are immutable values
and every operation here is pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ChannelValidationError
from .rationals import (
    lcm_scaled,
    one_lattice,
    parse_rational,
    rational_parser,
    render_rational,
)

StateVector = tuple[Fraction, ...]
StateSet = tuple[StateVector, ...]


class _ChannelFields(NamedTuple):
    K: int
    receivers: tuple[StateSet, ...]


class CompoundChannel(_ChannelFields):
    """K-user channel where each receiver has a finite set of possible states.

    ``receivers[k][l][i]`` is the strength level of the link from transmitter
    ``i`` to receiver ``k`` in state ``l`` (all indices 0-based). Building one
    checks it (:func:`validate`), so every channel a function is given has
    passed that check once; ``_make`` and ``_replace`` build through the
    check too.
    """

    __slots__ = ()

    def __new__(cls, K, receivers) -> "CompoundChannel":
        channel = super().__new__(cls, K, receivers)
        validate(channel)
        return channel

    @classmethod
    def _make(cls, iterable) -> "CompoundChannel":
        return cls(*iterable)

    @classmethod
    def _unchecked(cls, K, receivers) -> "CompoundChannel":
        """A channel built without the check, so that a file's errors can be
        reported rather than raised (``load_channel_file(...,
        validate_channel=False)``, the ``validate`` command)."""
        return tuple.__new__(cls, (K, receivers))

    @classmethod
    def from_lists(cls, receivers) -> "CompoundChannel":
        """Build a channel from one list of literal states per receiver
        (:func:`parse_receivers`); K is the number of receivers."""
        parsed = parse_receivers(receivers)
        return cls(len(parsed), parsed)

    @property
    def state_counts(self) -> tuple[int, ...]:
        return tuple(len(states) for states in self.receivers)


def parse_receivers(receivers) -> tuple[StateSet, ...]:
    """Each receiver's states, lists or tuples of literals in a list or
    tuple, as exact vectors: each distinct literal parsed once
    (:func:`rational_parser`), exact duplicate states dropped
    (:func:`_distinct`). A refusal is a ``ValueError`` naming the receiver."""
    parse = rational_parser()
    out = []
    for k, states in enumerate(receivers, 1):
        if not isinstance(states, (list, tuple)):
            raise ValueError(f'receiver {k}: "states" must be an array')
        vecs = []
        for state in states:
            if not isinstance(state, (list, tuple)):
                raise ValueError(f"receiver {k} has a non-array state")
            try:
                vecs.append(tuple(map(parse, state)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"receiver {k}: {exc}") from None
        out.append(_distinct(vecs))
    return tuple(out)


def _distinct(states) -> StateSet:
    """The state vectors with exact duplicates dropped, first occurrences
    kept in order. A vector is keyed on its entries' (numerator,
    denominator) pairs: equal values share them however they were written,
    and ints hash far faster than ``Fraction``s."""
    first: dict[tuple, StateVector] = {}
    for vec in states:
        first.setdefault(tuple([x.as_integer_ratio() for x in vec]), vec)
    return tuple(first.values())


class RegularChannel(CompoundChannel):
    """Single-state channel, such as a regular counterpart: a
    ``CompoundChannel`` with one state per receiver, which building one
    checks, so :attr:`matrix` reads each receiver's only state."""

    __slots__ = ()

    def __new__(cls, K, receivers) -> "RegularChannel":
        channel = super().__new__(cls, K, receivers)
        if not is_regular(channel):
            raise ChannelValidationError("a regular channel has one state per receiver")
        return channel

    @classmethod
    def from_matrix(cls, matrix) -> "RegularChannel":
        return cls.from_lists([[row] for row in matrix])

    @property
    def matrix(self) -> tuple[StateVector, ...]:
        return tuple(states[0] for states in self.receivers)

    @property
    def channel(self) -> "RegularChannel":
        """The channel itself: a regular channel is its own channel."""
        return self


def validate(channel: CompoundChannel) -> None:
    """Check the structural invariants, raising ``ChannelValidationError``
    (with the offending receiver/state index) on the first violation.

    Negative strengths are rejected rather than clipped: clipping to zero is
    the modeler's job upstream, and doing it silently here would hide data
    errors.
    """
    if isinstance(channel.K, bool) or not isinstance(channel.K, int) or channel.K < 1:
        raise ChannelValidationError("user count must be a positive integer")
    if len(channel.receivers) != channel.K:
        raise ChannelValidationError(
            f"expected {channel.K} receivers, got {len(channel.receivers)}")
    for k, states in enumerate(channel.receivers):
        if len(states) == 0:
            raise ChannelValidationError(
                f"receiver {k} has an empty state set", receiver=k)
        for l, vec in enumerate(states):
            if len(vec) != channel.K:
                raise ChannelValidationError(
                    f"receiver {k} state {l} has {len(vec)} entries, "
                    f"expected {channel.K}", receiver=k, state=l)
            for entry in vec:
                # a rational's sign is its numerator's (the denominator is
                # positive), which compares far faster than ``Fraction``s do
                if getattr(entry, "numerator", entry) < 0:
                    raise ChannelValidationError(
                        f"receiver {k} state {l} has negative strength "
                        f"{render_rational(parse_rational(entry))}", receiver=k, state=l)


def is_regular(channel: CompoundChannel) -> bool:
    return all(n == 1 for n in channel.state_counts)


class TinViolation(NamedTuple):
    """Witness of a failed weak-interference condition (0-based indices).

    For user ``user`` in state ``state``: the direct link is smaller than the
    strongest interference its transmitter causes (at receiver ``in_user`` in
    state ``in_state``) plus the strongest interference its receiver gets
    (from transmitter ``out_user``).
    """

    user: int
    state: int
    in_user: int
    in_state: int
    out_user: int


def tin_optimal(channel: CompoundChannel) -> tuple[bool, TinViolation | None]:
    """Weak-interference test: for every user, in every state combination, the
    direct link must carry at least the strongest interference caused by its
    transmitter plus the strongest interference arriving at its receiver.

    Returns ``(True, None)`` or ``(False, witness)`` with one violating
    combination.
    """
    K = channel.K
    if K == 1:
        return True, None
    for i in range(K):
        caused, c_user, c_state = None, -1, -1
        for j in range(K):
            if j == i:
                continue
            for lj, vec in enumerate(channel.receivers[j]):
                if caused is None or vec[i] > caused:
                    caused, c_user, c_state = vec[i], j, lj
        for li, vec in enumerate(channel.receivers[i]):
            received, r_user = None, -1
            for k in range(K):
                if k == i:
                    continue
                if received is None or vec[k] > received:
                    received, r_user = vec[k], k
            if vec[i] < caused + received:
                return False, TinViolation(i, li, c_user, c_state, r_user)
    return True, None


def regular_counterpart(channel: CompoundChannel) -> RegularChannel:
    """Collapse a multi-state channel to its single-state equivalent.

    Each direct link takes the user's weakest direct strength over its states;
    each cross link preserves the pair's minimum power-level gain (direct
    minus cross). The two minima may come from different states, so the result
    is generally none of the original network realizations. This is the
    ``Fraction`` reading of :func:`counterpart_lattice`, each row read on its
    receiver's lattice. A :class:`RegularChannel` is returned as it is.
    """
    if isinstance(channel, RegularChannel):
        return channel
    rows = tuple((tuple(Fraction(x, scale) for x in row),)
                 for scale, (row,) in _counterpart_rows(channel))
    return RegularChannel(channel.K, rows)


def counterpart_lattice(channel) -> tuple[int, list[list[int]]]:
    """The regular counterpart's matrix as ints on one lattice: ``(scale,
    rows)`` (:func:`one_lattice`), which decisions, bounds and optima read."""
    return one_lattice(_counterpart_rows(channel))


def _counterpart_rows(channel):
    """Per receiver k: the lcm lattice of its states (:func:`lcm_scaled`)
    and, alone in a list, row k of the counterpart as ints on it."""
    for k, states in enumerate(channel.receivers):
        scale, vecs = lcm_scaled(*states)
        direct = min(vec[k] for vec in vecs)
        # Entry j is direct minus the least gain vec[k] - vec[j] over the
        # states: the direct link itself at j = k (gain 0), and >= 0 across,
        # since the gain in the weakest-direct state is at most its direct.
        least_gain = map(min, zip(*([vec[k] - x for x in vec] for vec in vecs)))
        yield scale, [[direct - g for g in least_gain]]


def receiver_levels(channel, r):
    """Per receiver: the lcm lattice ``scale`` of its states and the
    exponents ``r`` (:func:`lcm_scaled`, with ``r``'s own lattice found
    once), and per state the int levels ``vec[j] + r[j]`` on it, each
    standing for the level over ``scale``."""
    r_scale, (r_ints,) = lcm_scaled(r)
    for states in channel.receivers:
        scale, rows = lcm_scaled(*states, scale=r_scale)
        up = scale // r_scale
        yield scale, [[g + y * up for g, y in zip(row, r_ints)] for row in rows]


def from_joint_set(matrices) -> CompoundChannel:
    """Per-receiver projection of a joint uncertainty set, given as a
    nonempty list of K x K strength matrices.

    Receivers cannot cooperate, so only the row marginals matter: receiver k's
    state set is the k-th row of each joint matrix, duplicates removed.
    """
    if not matrices:
        raise ChannelValidationError("joint state set must be nonempty")
    K = len(matrices[0])
    for idx, m in enumerate(matrices):
        if len(m) != K:
            raise ChannelValidationError(
                f"joint state {idx} has {len(m)} rows, expected {K}", state=idx)
    return CompoundChannel.from_lists(zip(*matrices))


def from_entrywise_sets(grid) -> RegularChannel:
    """Worst case of independent per-link uncertainty, given as a K x K grid
    of finite sets: weakest possible direct links, strongest crosses.

    Each row and each cell must be a list or tuple, so a string is refused
    rather than read by character. Every entry is checked here, since a
    cell's max would hide a negative one.
    """
    matrix = []
    for i, row in enumerate(grid):
        if not isinstance(row, (list, tuple)):
            raise ChannelValidationError(f"row {i} must be a list or tuple", receiver=i)
        matrix.append([])
        for j, cell in enumerate(row):
            if not isinstance(cell, (list, tuple)):
                raise ChannelValidationError(
                    f"entry ({i},{j}) must be a list or tuple", receiver=i)
            try:
                values = [parse_rational(x) for x in cell]
            except (ValueError, TypeError) as exc:
                raise ChannelValidationError(
                    f"entry ({i},{j}): {exc}", receiver=i) from None
            if not values:
                raise ChannelValidationError(
                    f"entry ({i},{j}) has an empty set", receiver=i)
            low = min(values)
            if low < 0:
                raise ChannelValidationError(
                    f"entry ({i},{j}) has negative strength {render_rational(low)}",
                    receiver=i)
            matrix[-1].append(low if i == j else max(values))
    return RegularChannel.from_matrix(matrix)


def subnetwork(channel: CompoundChannel, keep: Sequence[int]) -> CompoundChannel:
    """Restrict the channel to the given users, dropping everyone else.

    States that coincide after projection are merged.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("subnetwork needs at least one user")
    if kept[0] < 0 or kept[-1] >= channel.K:
        raise ValueError(f"user indices out of range: {keep}")
    receivers = tuple(
        _distinct(tuple(vec[j] for j in kept) for vec in channel.receivers[k])
        for k in kept)
    return CompoundChannel(len(kept), receivers)
