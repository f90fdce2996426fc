"""The benchmark's own exact model of a TIN channel.

Everything the output checker needs is computed here from the definitions,
without importing tinpower: the single-state counterpart, the TIN GDoF of an
allocation, cyclic-sequence bounds, shortest paths on the potential graph,
the componentwise-minimal allocation and finite-SNR rates. Hot loops run on
integers scaled by the lcm of the denominators, so K = 100 stays cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

ZERO = Fraction(0)


def frac(text) -> Fraction:
    """Parse a decimal or "p/q" string (or int) exactly."""
    return Fraction(str(text).strip())


def render(x: Fraction) -> str:
    """Exact decimal when the value terminates, else "p/q"."""
    den = x.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = 0
    while (x * 10**digits).denominator != 1:
        digits += 1
    scaled = abs(x.numerator * 10**digits // x.denominator)
    sign = "-" if x < 0 else ""
    if digits == 0:
        return f"{sign}{scaled}"
    body = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _scale_of(values) -> int:
    return lcm(1, *(v.denominator for v in values))


def _ints(values, scale: int) -> list[int]:
    out = []
    for v in values:
        s = v * scale
        if s.denominator != 1:
            raise ValueError("value off the scaling lattice")
        out.append(s.numerator)
    return out


class Channel:
    """K users; ``receivers[k][l][i]`` is the strength from transmitter i at
    receiver k in state l. Exact duplicate states are merged, as a channel
    file loader must do."""

    def __init__(self, receivers):
        self.receivers = []
        for states in receivers:
            kept = []
            for vec in states:
                vec = tuple(frac(x) for x in vec)
                if vec not in kept:
                    kept.append(vec)
            self.receivers.append(kept)
        self.K = len(self.receivers)
        self.scale = _scale_of(
            x for states in self.receivers for vec in states for x in vec)
        self._counterpart = None
        self._scaled = {}

    def scaled(self, scale: int) -> list[list[list[int]]]:
        """Strengths times ``scale`` as integers, cached per scale."""
        if scale not in self._scaled:
            self._scaled[scale] = [[_ints(vec, scale) for vec in states]
                                   for states in self.receivers]
        return self._scaled[scale]

    @classmethod
    def from_doc(cls, doc) -> "Channel":
        return cls([rx["states"] for rx in doc["receivers"]])

    @property
    def state_counts(self) -> list[int]:
        return [len(s) for s in self.receivers]

    def sub(self, keep) -> "Channel":
        """Channel restricted to the users in ``keep`` (silent users removed)."""
        return Channel([[tuple(vec[j] for j in keep) for vec in self.receivers[k]]
                        for k in keep])

    def counterpart(self) -> list[list[Fraction]]:
        """Single-state counterpart matrix: weakest direct link per user and,
        per pair, the minimum over states of direct minus cross."""
        if self._counterpart is None:
            a = []
            for k, states in enumerate(self.receivers):
                direct = min(vec[k] for vec in states)
                a.append([direct if j == k else
                          direct - min(vec[k] - vec[j] for vec in states)
                          for j in range(self.K)])
            self._counterpart = a
        return self._counterpart


# ---- TIN GDoF of an allocation ------------------------------------------

def achieved(ch: Channel, r) -> list[Fraction]:
    """Per-user GDoF under TIN, worst state, clamped at zero."""
    scale = lcm(ch.scale, _scale_of(r))
    ri = _ints(r, scale)
    out = []
    for k, states in enumerate(ch.scaled(scale)):
        worst = None
        for vi in states:
            noise = max([0] + [vi[j] + ri[j] for j in range(ch.K) if j != k])
            value = vi[k] + ri[k] - noise
            worst = value if worst is None else min(worst, value)
        out.append(Fraction(max(worst, 0), scale))
    return out


def unilateral(ch: Channel, r, d) -> list[Fraction]:
    """Each user's smallest exponent meeting its target against the others'
    current powers (the fixed-point map of synchronous power control)."""
    scale = lcm(ch.scale, _scale_of(r), _scale_of(d))
    ri, di = _ints(r, scale), _ints(d, scale)
    out = []
    for k, states in enumerate(ch.scaled(scale)):
        best = None
        for vi in states:
            noise = max([0] + [vi[j] + ri[j] for j in range(ch.K) if j != k])
            value = vi[k] - noise
            best = value if best is None else min(best, value)
        out.append(Fraction(di[k] - best, scale))
    return out


# ---- region inequalities --------------------------------------------------

def cycles(K: int):
    """Every cyclic order of every user subset of size >= 2, written from
    its smallest member (0-based)."""
    for m in range(2, K + 1):
        for subset in combinations(range(K), m):
            for rest in permutations(subset[1:]):
                yield (subset[0],) + rest


def cycle_count(K: int) -> int:
    return sum(math.comb(K, m) * math.factorial(m - 1) for m in range(2, K + 1))


def cycle_rhs(a, cyc) -> Fraction:
    m = len(cyc)
    return sum((a[cyc[i]][cyc[i]] - a[cyc[i]][cyc[(i + 1) % m]] for i in range(m)),
               start=ZERO)


class Region:
    """The region's distinct inequalities sum(d[users]) <= rhs: one per
    user and one per cyclic sequence, on the counterpart. Right-hand sides
    are kept as integers times ``scale`` so K = 8 stays cheap."""

    def __init__(self, ch: Channel):
        a = ch.counterpart()
        K = self.K = ch.K
        self.scale = _scale_of(x for row in a for x in row)
        ai = [_ints(row, self.scale) for row in a]
        gain = [[ai[i][i] - ai[i][j] for j in range(K)] for i in range(K)]
        rows = {((k,), ai[k][k]) for k in range(K)}
        for cyc in cycles(K):
            m = len(cyc)
            rows.add((tuple(sorted(cyc)),
                      sum(gain[cyc[i]][cyc[(i + 1) % m]] for i in range(m))))
        self.rows = sorted(rows)
        self._bounds = None

    def bounds(self) -> set[tuple[tuple[int, ...], Fraction]]:
        if self._bounds is None:
            self._bounds = {(users, Fraction(rhs, self.scale)) for users, rhs in self.rows}
        return self._bounds

    def _slacks(self, d):
        """(users, slack times a common scale) for every inequality."""
        s = _scale_of(d)
        di = _ints(d, s)
        return [(users, rhs * s - sum(di[i] for i in users) * self.scale)
                for users, rhs in self.rows]

    def contains(self, d) -> bool:
        return all(slack >= 0 for _, slack in self._slacks(d))

    def tight_users(self, d) -> set[int]:
        return {k for users, slack in self._slacks(d) if slack == 0 for k in users}

    def boundary(self, v) -> Fraction:
        """Largest t with t * v inside the region."""
        return min(Fraction(rhs, self.scale) / sum((v[i] for i in users), start=ZERO)
                   for users, rhs in self.rows)

    def push_to_frontier(self, d, order) -> tuple[Fraction, ...]:
        """Raise each user in turn by its smallest slack: a Pareto point."""
        d = list(d)
        for k in order:
            s = _scale_of(d)
            slack = min(sl for users, sl in self._slacks(d) if k in users)
            d[k] += Fraction(slack, s * self.scale)
        return tuple(d)

    def sum_optimal(self, x) -> bool:
        """True when the all-ones objective lies in the cone of the
        inequalities active at ``x`` (a KKT certificate that x maximizes
        the GDoF sum)."""
        K = len(x)
        normals = [[1 if i in users else 0 for i in range(K)]
                   for users, slack in self._slacks(x) if slack == 0]
        normals += [[-1 if i == k else 0 for i in range(K)] for k in range(K) if x[k] == 0]
        for combo in combinations(normals, K):
            cols = [[combo[c][i] for c in range(K)] for i in range(K)]
            y = solve(cols, [1] * K)
            if y is not None and all(v >= 0 for v in y):
                return True
        return False


def solve(rows, rhs):
    """Solve a square rational system; None when singular."""
    n = len(rows)
    m = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


# ---- potential graph on the counterpart ----------------------------------

def edge_length(a, d, src, dst) -> Fraction:
    """Length of one edge of the reduced potential graph. Vertices are "u"
    or a 0-based user; raises KeyError for a pair that is not an edge."""
    if src == "u" and dst != "u":
        return ZERO
    if src != "u" and dst == "u":
        return a[src][src] - d[src]
    if src != "u" and dst != "u" and src != dst:
        return a[src][src] - a[src][dst] - d[src]
    raise KeyError((src, dst))


def shortest_paths(ch: Channel, d):
    """Bellman-Ford from u on the counterpart graph.

    Returns the per-user distances (the shortest-path allocation) or None
    when some circuit is negative.
    """
    a = ch.counterpart()
    K = ch.K
    scale = lcm(ch.scale, _scale_of(d))
    ai = [_ints(row, scale) for row in a]
    di = _ints(d, scale)
    out_w = [[ai[k][k] - ai[k][j] - di[k] for j in range(K)] for k in range(K)]
    to_u = [ai[k][k] - di[k] for k in range(K)]
    dist = [0] * K
    du = 0
    for _ in range(K + 2):
        changed = False
        new_u = min([du] + [dist[k] + to_u[k] for k in range(K)])
        if new_u < du:
            du, changed = new_u, True
        for j in range(K):
            best = min([dist[j], du] + [dist[k] + out_w[k][j] for k in range(K) if k != j])
            if best < dist[j]:
                dist[j], changed = best, True
        if not changed:
            return [Fraction(x, scale) for x in dist]
    return None


def minimal_allocation(ch: Channel, d):
    """Componentwise-minimal allocation meeting ``d``: the least fixed point
    of r_k = d_k - a_kk + max(0, max_j a_kj + r_j), reached from below in at
    most K rounds when ``d`` is feasible. None when it does not settle."""
    a = ch.counterpart()
    K = ch.K
    scale = lcm(ch.scale, _scale_of(d))
    ai = [_ints(row, scale) for row in a]
    di = _ints(d, scale)
    r = [di[k] - ai[k][k] for k in range(K)]
    for _ in range(K + 2):
        nxt = [di[k] - ai[k][k] + max([0] + [ai[k][j] + r[j] for j in range(K) if j != k])
               for k in range(K)]
        if nxt == r:
            return [Fraction(x, scale) for x in r]
        r = nxt
    return None


# ---- finite-SNR rates -------------------------------------------------------

def rate_row(ch: Channel, r, P: float):
    """(rates, sum, min, total power, efficiency) in bits per channel use."""
    L = math.log2(P)
    rates = []
    for k, states in enumerate(ch.receivers):
        worst = None
        for vec in states:
            signal = 2.0 ** (float(vec[k] + r[k]) * L)
            noise = 1.0 + sum(2.0 ** (float(vec[j] + r[j]) * L)
                              for j in range(ch.K) if j != k)
            rate = math.log2(1.0 + signal / noise)
            worst = rate if worst is None else min(worst, rate)
        rates.append(worst)
    total = sum(2.0 ** (float(x) * L) for x in r)
    return rates, sum(rates), min(rates), total, sum(rates) / total
