"""Traced in-process replay of CLI calls.

``replay`` performs the library calls a ``tinpower <command>`` call makes,
in the order ``tinpower.cli`` makes them, each wrapped in a span. Spans are
timed from here, around the calls into each module's public functions; the
package itself is not patched, so work a public function does internally
(for example the counterpart built inside ``solve_power``) is part of that
function's self time. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import model

LAYERS = ("import", "cli", "channel", "potential", "region", "power", "rates")


class Recorder:
    """Collects spans (name, start, end, parent, op id) and counters."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        except Exception:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time in ms, number of spans). Self time is
        the duration minus the time covered by child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += (end - start - child[i]) / 1e6
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def library_ms_per_op(self) -> dict[int, float]:
        """Per op id: the time covered by the library spans directly under
        the op's root span."""
        roots = {i for i, s in enumerate(self.spans) if s[3] == -1}
        out: dict[int, float] = defaultdict(float)
        for _, start, end, parent, op in self.spans:
            if parent in roots:
                out[op] += (end - start) / 1e6
        return out


class NullRecorder:
    """Same interface, records nothing: the untraced replay."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


def replay(tp, call, rec) -> None:
    """Replay one call's library sequence under ``rec``.

    Expected negative outcomes (infeasible targets, guard refusals, invalid
    channels) are caught here exactly as the CLI catches them.
    """
    cli = tp.cli
    cmd = call.command
    with rec.span(f"op.{cmd}"):
        with rec.span("cli.load_channel_file"):
            cf = cli.load_channel_file(call.channel, validate_channel=cmd != "validate")
        ch = cf.channel
        rec.count("channel.states", sum(ch.state_counts))
        d = call.target
        if cmd == "validate":
            try:
                with rec.span("channel.validate"):
                    tp.validate(ch)
            except tp.ChannelValidationError:
                pass
        elif cmd == "tin-check":
            with rec.span("channel.tin_optimal"):
                tp.tin_optimal(ch)
        elif cmd == "counterpart":
            with rec.span("channel.regular_counterpart"):
                tp.regular_counterpart(ch)
        elif cmd in ("feasible", "pareto", "region"):
            cons = _constraints(tp, ch, rec)
            if cmd == "region":
                _optima(tp, ch, rec)
                return
            with rec.span("region.member"):
                ok, _ = tp.member(ch, d, cons)
            if cmd == "feasible":
                _shortest_paths(tp, ch, d, rec)
            elif ok:
                with rec.span("region.pareto"):
                    tp.pareto(ch, d, cons)
        elif cmd == "power":
            try:
                sol = _solve(tp, ch, d, call.alg, rec)
            except tp.InfeasibleTargetError:
                return
            active = [i for i in range(ch.K) if sol.allocation[i] is not None]
            with rec.span("power.achieved_gdof"):
                tp.achieved_gdof(tp.subnetwork(ch, active), [sol.allocation[i] for i in active])
        elif cmd == "rates":
            named = [(alg, _solve(tp, ch, d, alg, rec).allocation) for alg in call.alg.split(",")]
            with rec.span("rates.sweep"):
                rows = tp.sweep(ch, [(n, r) for n, r in named if any(x != 0 for x in r)],
                                list(call.powers))
            rec.count("rates.rows", len(rows) * ch.K)


def _constraints(tp, ch, rec):
    with rec.span("region.region_constraints"):
        cons = tp.region_constraints(ch)
    raw = ch.K + model.cycle_count(ch.K)
    rec.count("region.cycles_enumerated", raw - ch.K)
    rec.count("region.raw_constraints", raw)
    rec.count("region.constraints_kept", len(cons.constraints))
    return cons


def _optima(tp, ch, rec):
    try:
        with rec.span("region.sum_gdof"):
            tp.sum_gdof(ch)
        with rec.span("region.symmetric_gdof"):
            tp.symmetric_gdof(ch)
    except tp.GuardExceededError:
        rec.count("region.guard_refusals")
    except tp.EmptyRegionError:
        pass


def _bellman_ford_outcome(rec, cycle) -> None:
    rec.count("potential.decisions")
    if cycle is None:
        rec.count("potential.feasible")
    else:
        rec.count("potential.negative_circuits")
        rec.count("potential.circuit_vertices", len(cycle))


def _shortest_paths(tp, ch, d, rec):
    """``shortest_paths(build_reduced(ch, d))`` with the counterpart that
    ``build_reduced`` builds first as a span of its own."""
    with rec.span("channel.regular_counterpart"):
        cp = tp.regular_counterpart(ch)
    with rec.span("potential.build_reduced"):
        graph = tp.build_full(cp.channel, d)
    rec.count("potential.graph_vertices", len(graph.vertices))
    rec.count("potential.graph_edges", len(graph.edges))
    with rec.span("potential.shortest_paths"):
        sp = tp.shortest_paths(graph)
    _bellman_ford_outcome(rec, sp.negative_cycle)
    return sp


def _solve(tp, ch, d, alg, rec):
    """``solve_power(ch, d, alg)``. The sp route is replayed as the public
    calls it consists of (validate, subnetwork, counterpart, reduced graph,
    Bellman-Ford), so its layers show; the other controls are one span,
    whose self time includes their own shortest-path start."""
    if alg == "sp":
        with rec.span("power.solve_power.sp"):
            with rec.span("channel.validate"):
                tp.validate(ch)
            d = tp.gdof_tuple(d, ch.K)
            active = [i for i, x in enumerate(d) if x > 0]
            sub = tp.subnetwork(ch, active) if len(active) < ch.K else ch
            sp = _shortest_paths(tp, sub, [d[i] for i in active], rec)
            if not sp.feasible:
                raise tp.InfeasibleTargetError("infeasible", cycle=sp.negative_cycle,
                                               cycle_length=sp.cycle_length)
        allocation = [None] * ch.K
        for pos, user in enumerate(active):
            allocation[user] = sp.l_dst[pos]
        return tp.PowerSolution("sp", tuple(allocation), (), False, None)
    try:
        with rec.span(f"power.solve_power.{alg}"):
            sol = tp.solve_power(ch, d, alg)
    except tp.InfeasibleTargetError as exc:
        _bellman_ford_outcome(rec, exc.cycle)
        raise
    _bellman_ford_outcome(rec, None)
    trace = sol.trace
    if isinstance(trace, tp.GsfpcTrace):
        rec.count("power.gsfpc_iterations", trace.iterations)
    elif isinstance(trace, tp.GgpcTrace):
        rec.count("power.ggpc_updates", len(trace.updates))
    return sol
