"""Seeded inputs for the four benchmark workloads.

A workload is one round of CLI calls, each with the channel file it reads
and the verdict the benchmark's own model expects. The same seed always
gives the same files and the same round. Targets are placed with the model
in ``model.py`` (never with tinpower), so the expected verdicts are
independent of the program under test.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import model

ALGORITHMS = ("sp", "gsfpc", "ggpc", "ggpc-c")
SAMPLE_FILES = ("asym3", "comp2", "mix3", "sym4")
RATE_POWERS = (10.0, 100.0, 1000.0)
CONTROL_CHANNELS = ((20, 2), (40, 2), (60, 1), (100, 1))   # (K, channels)
RATES_K = (20, 40)        # control_large sizes that also run rates
CONTROL_FACTOR = Fraction(4, 5)  # control_large targets: this far to the boundary

# Call counts per size are weighted so that the median and the tail call of a
# run each fall inside a group of similar calls rather than on the gap
# between two groups, where seed-to-seed changes would move them most.
REGION_MID_CHANNELS = ((4, 1), (5, 1), (6, 1), (7, 3), (8, 2))   # (K, channels)
# (K, channels, targets per channel); targets alternate inside and outside
SCREEN_CHANNELS = ((20, 1, 4), (40, 1, 4), (60, 2, 8))

# Rounds per run are round(seconds / nominal round time), at least one, so a
# run holds a fixed number of whole rounds: the same mix of calls and the
# same sample count on every seed. Nominal times are from a 2-core x86 host.
NOMINAL_ROUND_S = {"cli_small": 25.0, "region_mid": 22.0, "control_large": 32.0,
                   "screen_large": 17.0}

STEP = Fraction(1, 100)        # strength grid
TARGET_STEP = Fraction(1, 10**4)


@dataclass
class Call:
    """One CLI invocation and what its output must show."""

    command: str
    channel: str                       # path relative to the checkout root
    target: tuple[Fraction, ...] | None = None
    alg: str | None = None
    powers: tuple[float, ...] | None = None
    expect: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        out = [self.command, "--channel", self.channel]
        if self.target is not None:
            out += ["--target", ",".join(model.render(x) for x in self.target)]
        if self.alg is not None:
            out += ["--alg", self.alg]
        if self.powers is not None:
            out += ["--P", ",".join(f"{p:g}" for p in self.powers)]
        if self.command != "rates":
            out.append("--json")
        return out


@dataclass
class Inputs:
    workload: str
    seed: int
    channels: dict[str, model.Channel]  # by path
    docs: dict[str, dict]               # file contents to write, by path
    calls: list[Call]                   # one round

    def write(self, root: Path) -> None:
        for path, doc in self.docs.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(doc))

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / NOMINAL_ROUND_S[self.workload]))

    def histogram(self) -> dict:
        ks = Counter(ch.K for ch in self.channels.values())
        states = Counter(n for ch in self.channels.values() for n in ch.state_counts)
        cmds = Counter(c.command if c.alg is None or c.command != "power"
                       else f"power.{c.alg}" for c in self.calls)
        return {"K": {str(k): ks[k] for k in sorted(ks)},
                "states_per_receiver": {str(n): states[n] for n in sorted(states)},
                "calls_per_round": dict(sorted(cmds.items()))}


def _grid(rng: random.Random, lo, hi, step=STEP) -> Fraction:
    lo, hi = Fraction(lo), Fraction(hi)
    return lo + rng.randint(0, int((hi - lo) / step)) * step


def random_channel(rng, K, states, cross_max="0.5", direct=("1", "2")) -> list:
    """Receivers on a 0.01 grid. The defaults satisfy the weak-interference
    condition (cross <= 0.5, direct >= 1), like the test suite's
    ``random_tin_optimal``; ``cross_max`` up to 1 keeps every cyclic bound
    non-negative but lets the condition fail. State counts cycle through
    the range ``states`` in a shuffled order, so every channel of one size
    carries the same number of states."""
    lo, hi = states
    counts = [lo + k % (hi - lo + 1) for k in range(K)]
    rng.shuffle(counts)
    receivers = []
    for k in range(K):
        rx = []
        for _ in range(counts[k]):
            vec = [_grid(rng, 0, cross_max) for _ in range(K)]
            vec[k] = _grid(rng, *direct)
            rx.append(vec)
        receivers.append(rx)
    return receivers


def channel_doc(name, receivers) -> dict:
    return {"name": name, "K": len(receivers),
            "receivers": [{"states": [[model.render(x) for x in vec] for vec in rx]}
                          for rx in receivers]}


def direction(rng, K) -> list[Fraction]:
    return [_grid(rng, "0.5", "1", Fraction(1, 20)) for _ in range(K)]


def _round_to(values, up: bool) -> tuple[Fraction, ...]:
    out = []
    for x in values:
        n = x / TARGET_STEP
        n = -(-n.numerator // n.denominator) if up else n.numerator // n.denominator
        out.append(n * TARGET_STEP)
    return tuple(out)


def ray_point(t_star, v, factor) -> tuple[Fraction, ...]:
    """``factor`` times the boundary point along v, rounded away from the
    boundary onto the 1e-4 target grid."""
    return _round_to([Fraction(factor) * t_star * x for x in v], up=factor > 1)


def float_boundary(ch: model.Channel, v) -> Fraction:
    """Boundary along v for large K, by bisection on a float Bellman-Ford.

    Only places targets; every verdict the checker relies on is recomputed
    exactly by ``model.shortest_paths``.
    """
    import numpy as np

    a = np.array([[float(x) for x in row] for row in ch.counterpart()])
    vv = np.array([float(x) for x in v])
    K = ch.K
    gain = np.diag(a)[:, None] - a

    def negative_circuit(t):
        w = np.full((K + 1, K + 1), np.inf)
        w[:K, :K] = gain - t * vv[:, None]
        np.fill_diagonal(w, np.inf)
        w[:K, K] = np.diag(a) - t * vv
        w[K, :K] = 0.0
        dist = np.zeros(K + 1)
        for _ in range(K + 1):
            nxt = np.minimum(dist, (dist[:, None] + w).min(axis=0))
            if np.array_equal(nxt, dist):
                return False
            dist = nxt
        return True

    lo, hi = 0.0, float(min(np.diag(a) / vv))
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if negative_circuit(mid) else (mid, hi)
    return Fraction(lo)


class _Builder:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.channels: dict[str, model.Channel] = {}
        self.docs: dict[str, dict] = {}
        self.calls: list[Call] = []
        self.prefix = f".bench_work/{workload}-{seed}"

    def add_generated(self, name, receivers) -> tuple[str, model.Channel]:
        path = f"{self.prefix}/{name}.json"
        self.docs[path] = channel_doc(name, receivers)
        self.channels[path] = model.Channel(receivers)
        return path, self.channels[path]

    def add_sample(self, root: Path, name) -> tuple[str, model.Channel]:
        path = f"channels/{name}.json"
        self.channels[path] = model.Channel.from_doc(json.loads((root / path).read_text()))
        return path, self.channels[path]

    def call(self, command, path, **kw) -> None:
        self.calls.append(Call(command, path, **kw))


def _small_targets(rng, ch: model.Channel):
    """Inside, outside and Pareto targets from the exact inequality list."""
    region = model.Region(ch)
    v = direction(rng, ch.K)
    t_star = region.boundary(v)
    inside = ray_point(t_star, v, Fraction(rng.randint(90, 99), 100))
    outside = ray_point(t_star, v, Fraction(rng.randint(101, 110), 100))
    order = list(range(ch.K))
    rng.shuffle(order)
    return region, inside, outside, region.push_to_frontier(inside, order)


def build_cli_small(b: _Builder, root: Path) -> None:
    rng = b.rng
    entries = []
    for name in SAMPLE_FILES:
        path, ch = b.add_sample(root, name)
        entries.append((path, ch, _small_targets(rng, ch)))
    for idx, (K, cross_max) in enumerate([(2, "0.5"), (2, "1"), (3, "0.5"), (3, "1")]):
        while True:
            receivers = random_channel(rng, K, (1, 3), cross_max=cross_max)
            targets = _small_targets(rng, model.Channel(receivers))
            if min(targets[1]) > 0:  # rates needs strictly positive targets
                break
        path, ch = b.add_generated(f"small{idx}", receivers)
        entries.append((path, ch, targets))
    bad = random_channel(rng, 3, (1, 2))
    k, i = rng.randrange(3), rng.randrange(3)
    bad[k][0][i] = -Fraction(rng.randint(1, 50), 100)
    path = f"{b.prefix}/invalid.json"
    b.docs[path] = channel_doc("invalid", bad)
    b.call("validate", path, expect={"valid": False, "receiver": k, "state": 0})

    for n, (path, ch, (region, inside, outside, pareto)) in enumerate(entries):
        exp = {"region": region}
        if path.startswith(b.prefix):
            b.call("validate", path, expect={"valid": True})
        b.call("tin-check", path)
        b.call("counterpart", path)
        b.call("feasible", path, target=inside, expect=exp)
        b.call("feasible", path, target=outside, expect=exp)
        b.call("pareto", path, target=pareto, expect=exp)
        for alg in ALGORITHMS:
            b.call("power", path, target=inside, alg=alg)
        if n % 2:
            silent = list(inside)
            silent[rng.randrange(ch.K)] = Fraction(0)
            b.call("power", path, target=tuple(silent), alg="ggpc-c")
        else:
            b.call("power", path, target=outside, alg="sp")
        b.call("rates", path, target=inside, alg="sp,ggpc", powers=RATE_POWERS)
        if ch.K <= 3:
            b.call("region", path, expect=exp)


def build_region_mid(b: _Builder, root: Path) -> None:
    rng = b.rng
    for K, copies in REGION_MID_CHANNELS:
        for n in range(copies):
            path, ch = b.add_generated(f"mid{K}-{n}", random_channel(rng, K, (1, 3)))
            region, inside, outside, pareto = _small_targets(rng, ch)
            exp = {"region": region}
            b.call("feasible", path, target=inside, expect=exp)
            b.call("feasible", path, target=outside, expect=exp)
            b.call("pareto", path, target=pareto, expect=exp)
            b.call("region", path, expect=exp)


def build_control_large(b: _Builder, root: Path) -> None:
    rng = b.rng
    for K, copies in CONTROL_CHANNELS:
        for n in range(copies):
            path, ch = b.add_generated(f"control{K}-{n}", random_channel(rng, K, (1, 3)))
            v = direction(rng, K)
            target = ray_point(float_boundary(ch, v), v, CONTROL_FACTOR)
            for alg in ALGORITHMS:
                b.call("power", path, target=target, alg=alg)
            if n == 0 and K in RATES_K:
                b.call("rates", path, target=target, alg="sp,ggpc", powers=RATE_POWERS)


def build_screen_large(b: _Builder, root: Path) -> None:
    rng = b.rng
    for K, copies, targets in SCREEN_CHANNELS:
        for n in range(copies):
            path, ch = b.add_generated(f"screen{K}-{n}", random_channel(rng, K, (2, 3)))
            for m in range(targets):
                factor = rng.randint(101, 110) if m % 2 else rng.randint(90, 99)
                v = direction(rng, K)
                target = ray_point(float_boundary(ch, v), v, Fraction(factor, 100))
                b.call("power", path, target=target, alg="sp")


BUILDERS = {
    "cli_small": build_cli_small,
    "region_mid": build_region_mid,
    "control_large": build_control_large,
    "screen_large": build_screen_large,
}


def build(workload: str, seed: int, root: Path) -> Inputs:
    """The workload's channels and one round of calls for ``seed``."""
    b = _Builder(workload, seed)
    BUILDERS[workload](b, root)
    return Inputs(workload, seed, b.channels, b.docs, b.calls)
