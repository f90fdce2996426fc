"""Channel data model for K-user interference networks with receiver-side
state uncertainty.

Link strengths are dimensionless exponents of a nominal power P (dB scale
relative to log P), stored as exact rationals. Channels are immutable values
and every operation here is pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ChannelValidationError
from .rationals import parse_rational

StateVector = tuple[Fraction, ...]
StateSet = tuple[StateVector, ...]


@dataclass(frozen=True)
class CompoundChannel:
    """K-user channel where each receiver has a finite set of possible states.

    ``receivers[k][l][i]`` is the strength level of the link from transmitter
    ``i`` to receiver ``k`` in state ``l`` (all indices 0-based).
    """

    K: int
    receivers: tuple[StateSet, ...]

    @classmethod
    def from_lists(cls, receivers, K: int | None = None) -> "CompoundChannel":
        """Build a channel from nested lists of decimals/numbers.

        Exact duplicate states within a receiver are dropped (they are
        mathematically inert and only inflate graph sizes); the result is
        validated before being returned.
        """
        parsed = tuple(
            _distinct(tuple(parse_rational(x) for x in state) for state in states)
            for states in receivers)
        channel = cls(len(parsed) if K is None else K, parsed)
        validate(channel)
        return channel

    @property
    def state_counts(self) -> tuple[int, ...]:
        return tuple(len(states) for states in self.receivers)


def _distinct(states) -> StateSet:
    """The state vectors with exact duplicates dropped, first occurrences
    kept in order."""
    return tuple(dict.fromkeys(states))


@dataclass(frozen=True)
class RegularChannel:
    """Single-state channel: a thin view exposing the K x K strength matrix.

    It reads as the channel it wraps, so it can be passed wherever a
    ``CompoundChannel`` is accepted.
    """

    channel: CompoundChannel

    @classmethod
    def of(cls, channel: CompoundChannel) -> "RegularChannel":
        validate(channel)
        if any(n != 1 for n in channel.state_counts):
            raise ChannelValidationError(
                "regular channel requires exactly one state per receiver")
        return cls(channel)

    @classmethod
    def from_matrix(cls, matrix) -> "RegularChannel":
        return cls.of(CompoundChannel.from_lists([[row] for row in matrix]))

    @property
    def K(self) -> int:
        return self.channel.K

    @property
    def receivers(self) -> tuple[StateSet, ...]:
        return self.channel.receivers

    @property
    def state_counts(self) -> tuple[int, ...]:
        return self.channel.state_counts

    @property
    def matrix(self) -> tuple[StateVector, ...]:
        return tuple(states[0] for states in self.channel.receivers)


def validate(channel: CompoundChannel) -> None:
    """Check the structural invariants, raising ``ChannelValidationError``
    (with the offending receiver/state index) on the first violation.

    Negative strengths are rejected rather than clipped: clipping to zero is
    the modeler's job upstream, and doing it silently here would hide data
    errors.
    """
    if not isinstance(channel.K, int) or channel.K < 1:
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
                if entry < 0:
                    raise ChannelValidationError(
                        f"receiver {k} state {l} has negative strength {entry}",
                        receiver=k, state=l)


def is_regular(channel: CompoundChannel) -> bool:
    return all(n == 1 for n in channel.state_counts)


@dataclass(frozen=True)
class TinViolation:
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
    validate(channel)
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
    is generally none of the original network realizations.
    """
    validate(channel)
    K = channel.K
    rows = []
    for k, states in enumerate(channel.receivers):
        direct = min(vec[k] for vec in states)
        # Cross links come out >= 0: the gain in the weakest-direct state is
        # at most that state's direct strength.
        rows.append(tuple(
            direct if j == k else direct - min(vec[k] - vec[j] for vec in states)
            for j in range(K)))
    return RegularChannel(CompoundChannel(K, tuple((row,) for row in rows)))


@dataclass(frozen=True)
class JointStateSet:
    """Global uncertainty: a finite set of whole K x K strength matrices."""

    K: int
    states: tuple[tuple[StateVector, ...], ...]

    @classmethod
    def from_lists(cls, matrices, K: int | None = None) -> "JointStateSet":
        parsed = tuple(
            tuple(tuple(parse_rational(x) for x in row) for row in m)
            for m in matrices)
        if not parsed:
            raise ChannelValidationError("joint state set must be nonempty")
        n = len(parsed[0]) if K is None else K
        for idx, m in enumerate(parsed):
            if len(m) != n or any(len(row) != n for row in m):
                raise ChannelValidationError(
                    f"joint state {idx} is not a {n}x{n} matrix", state=idx)
            for row in m:
                for entry in row:
                    if entry < 0:
                        raise ChannelValidationError(
                            f"joint state {idx} has negative strength {entry}",
                            state=idx)
        return cls(n, parsed)


def from_joint_set(joint: JointStateSet) -> CompoundChannel:
    """Per-receiver projection of a joint uncertainty set.

    Receivers cannot cooperate, so only the row marginals matter: receiver k's
    state set is the k-th row of each joint matrix, duplicates removed.
    """
    rows_per_receiver = [
        [m[k] for m in joint.states] for k in range(joint.K)]
    return CompoundChannel.from_lists(rows_per_receiver, K=joint.K)


@dataclass(frozen=True)
class EntrywiseSets:
    """Independent per-link uncertainty: one finite set per matrix entry."""

    K: int
    sets: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @classmethod
    def from_lists(cls, grid, K: int | None = None) -> "EntrywiseSets":
        parsed = tuple(
            tuple(tuple(parse_rational(x) for x in cell) for cell in row)
            for row in grid)
        n = len(parsed) if K is None else K
        if len(parsed) != n or any(len(row) != n for row in parsed):
            raise ChannelValidationError(f"expected a {n}x{n} grid of sets")
        for i, row in enumerate(parsed):
            for j, cell in enumerate(row):
                if not cell:
                    raise ChannelValidationError(
                        f"entry ({i},{j}) has an empty set", receiver=i)
                for entry in cell:
                    if entry < 0:
                        raise ChannelValidationError(
                            f"entry ({i},{j}) has negative strength {entry}",
                            receiver=i)
        return cls(n, parsed)


def from_entrywise_sets(sets: EntrywiseSets) -> RegularChannel:
    """Worst case per link: weakest possible direct links, strongest crosses."""
    matrix = []
    for i in range(sets.K):
        row = []
        for j in range(sets.K):
            cell = sets.sets[i][j]
            row.append(min(cell) if i == j else max(cell))
        matrix.append(tuple(row))
    return RegularChannel(CompoundChannel(sets.K, tuple((row,) for row in matrix)))


def subnetwork(channel: CompoundChannel, keep: Sequence[int]) -> CompoundChannel:
    """Restrict the channel to the given users, dropping everyone else.

    States that coincide after projection are merged.
    """
    validate(channel)
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("subnetwork needs at least one user")
    if kept[0] < 0 or kept[-1] >= channel.K:
        raise ValueError(f"user indices out of range: {keep}")
    receivers = tuple(
        _distinct(tuple(vec[j] for j in kept) for vec in channel.receivers[k])
        for k in kept)
    return CompoundChannel(len(kept), receivers)
