"""Command-line front end: one-shot analysis commands over channel files.

Every invocation loads a JSON channel file, runs one command and prints a
report (human text by default, machine JSON with --json; the two carry the
same numbers). Exit codes: 0 success, 1 negative verdict on a yes/no query,
2 input or parse problems, 3 a verdict whose certificate failed its
independent check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .channel import (
    CompoundChannel,
    TinViolation,
    _distinct,
    regular_counterpart,
    subnetwork,
    tin_optimal,
    validate,
)
from .errors import (
    ChannelValidationError,
    EmptyRegionError,
    GuardExceededError,
    InfeasibleTargetError,
    NonConvergenceError,
)
from .potential import build_full, build_reduced, shortest_paths, vertex_label
from .power import (
    ALGORITHMS,
    GgpcTrace,
    GsfpcTrace,
    PowerSolution,
    achieved_gdof,
    solve_power,
)
from .rates import sweep
from .rationals import gdof_tuple, parse_rational, render_rational
from .region import (
    circuit_bound,
    region_constraints,
    sum_gdof,
    symmetric_gdof,
    tight_users,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CliInputError(Exception):
    """File, schema or flag problem; maps to exit code 2."""


@dataclass
class Report:
    data: dict
    text: str

    def emit(self, as_json: bool) -> None:
        print(json.dumps(self.data, indent=2) if as_json else self.text)


@dataclass
class ChannelFile:
    channel: CompoundChannel
    name: str
    targets: list[tuple[Fraction, ...]]


def _parse_channel_doc(doc) -> CompoundChannel:
    if not isinstance(doc, dict):
        raise CliInputError("channel document must be a JSON object")
    for key in ("K", "receivers"):
        if key not in doc:
            raise CliInputError(f'channel document is missing "{key}"')
    if isinstance(doc["K"], bool) or not isinstance(doc["K"], int):
        raise CliInputError('"K" must be an integer')
    if not isinstance(doc["receivers"], list):
        raise CliInputError('"receivers" must be an array')
    receivers = []
    for idx, rx in enumerate(doc["receivers"]):
        if not isinstance(rx, dict) or "states" not in rx:
            raise CliInputError(f'receiver {idx + 1} must be an object with "states"')
        if not isinstance(rx["states"], list):
            raise CliInputError(f'receiver {idx + 1}: "states" must be an array')
        states = []
        for state in rx["states"]:
            if not isinstance(state, list):
                raise CliInputError(f"receiver {idx + 1} has a non-array state")
            try:
                states.append(tuple(parse_rational(x) for x in state))
            except (ValueError, TypeError) as exc:
                raise CliInputError(f"receiver {idx + 1}: {exc}") from None
        receivers.append(_distinct(states))
    return CompoundChannel(doc["K"], tuple(receivers))


def load_channel_file(path: str, *, validate_channel: bool = True) -> ChannelFile:
    try:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliInputError(
                    f"{path}: JSON parse error at line {exc.lineno}, "
                    f"column {exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise CliInputError(f"{path}: {exc}") from None
    channel = _parse_channel_doc(doc)
    if validate_channel:
        try:
            validate(channel)
        except ChannelValidationError as exc:
            raise CliInputError(f"{path}: invalid channel: {exc}") from None
    raw_targets = doc.get("targets", [])
    if not isinstance(raw_targets, list):
        raise CliInputError(f'{path}: "targets" must be an array')
    targets = []
    for raw in raw_targets:
        if not isinstance(raw, list):
            raise CliInputError(f"{path}: bad target {raw}: not an array")
        try:
            targets.append(gdof_tuple(raw, channel.K))
        except (ValueError, TypeError) as exc:
            raise CliInputError(f"{path}: bad target {raw}: {exc}") from None
    name = doc.get("name") or path
    return ChannelFile(channel, name, targets)


def _parse_target(args, channel) -> tuple[Fraction, ...]:
    if not args.target:
        raise CliInputError("this command needs --target d1,d2,...")
    try:
        return gdof_tuple(args.target.split(","), channel.K)
    except ValueError as exc:
        raise CliInputError(f"bad --target: {exc}") from None


def _render_vec(values) -> list[str]:
    return [render_rational(x) for x in values]


def _users(indices) -> list[int]:
    return [i + 1 for i in indices]


def _witness_data(w: TinViolation) -> dict:
    return {
        "user": w.user + 1,
        "state": w.state + 1,
        "strongest_caused_at": {"user": w.in_user + 1, "state": w.in_state + 1},
        "strongest_received_from": {"user": w.out_user + 1},
    }


def _constraint_data(c, K) -> dict:
    return {
        "users": _users(c.users),
        "rhs": render_rational(c.rhs),
        "cycle": _users(c.cycle) if c.cycle else None,
        "inequality": c.export_line(K),
    }


def _cycle_data(cycle, length) -> dict:
    return {
        "vertices": [vertex_label(v) for v in cycle],
        "length": render_rational(length),
    }


def _dump_graphs(channel, d) -> None:
    print("# reduced potential graph", file=sys.stderr)
    print(build_reduced(channel, d).dump(), file=sys.stderr)
    print("# full potential graph", file=sys.stderr)
    print(build_full(channel, d).dump(), file=sys.stderr)


def cmd_validate(args) -> int:
    cf = load_channel_file(args.channel, validate_channel=False)
    try:
        validate(cf.channel)
    except ChannelValidationError as exc:
        Report(
            data={
                "command": "validate",
                "channel": cf.name,
                "valid": False,
                "error": {
                    "message": str(exc),
                    "receiver": None if exc.receiver is None else exc.receiver + 1,
                    "state": None if exc.state is None else exc.state + 1,
                },
            },
            text=f"invalid channel: {exc}",
        ).emit(args.json)
        return EXIT_NEGATIVE
    Report(
        data={
            "command": "validate",
            "channel": cf.name,
            "valid": True,
            "K": cf.channel.K,
            "states_per_receiver": list(cf.channel.state_counts),
        },
        text=(f"channel OK: K={cf.channel.K}, "
              f"states per receiver {list(cf.channel.state_counts)}"),
    ).emit(args.json)
    return EXIT_OK


def cmd_tin_check(args) -> int:
    cf = load_channel_file(args.channel)
    ok, witness = tin_optimal(cf.channel)
    data = {"command": "tin-check", "channel": cf.name, "tin_optimal": ok}
    if ok:
        text = "TIN-optimal: yes"
    else:
        data["witness"] = _witness_data(witness)
        text = (
            f"TIN-optimal: no — user {witness.user + 1} state {witness.state + 1}: "
            f"direct link is smaller than interference caused at user "
            f"{witness.in_user + 1} (state {witness.in_state + 1}) plus "
            f"interference received from user {witness.out_user + 1}")
    Report(data, text).emit(args.json)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_counterpart(args) -> int:
    cf = load_channel_file(args.channel)
    cp = regular_counterpart(cf.channel)
    doc = {
        "name": f"{cf.name}-counterpart",
        "K": cp.K,
        "receivers": [
            {"states": [_render_vec(row)]} for row in cp.matrix],
    }
    lines = [f"counterpart matrix (row k = receiver k):"]
    lines += ["  [" + ", ".join(_render_vec(row)) + "]" for row in cp.matrix]
    Report(doc, "\n".join(lines)).emit(args.json)
    return EXIT_OK


def _check_failure(message: str) -> int:
    print(f"internal check failure: {message}", file=sys.stderr)
    return EXIT_INTERNAL


def cmd_feasible(args) -> int:
    cf = load_channel_file(args.channel)
    d = _parse_target(args, cf.channel)
    sp = shortest_paths(build_reduced(cf.channel, d))
    if args.debug_graph:
        _dump_graphs(cf.channel, d)
    data = {
        "command": "feasible",
        "channel": cf.name,
        "target": _render_vec(d),
        "feasible": sp.feasible,
    }
    if sp.feasible:
        if any(a < t for a, t in zip(achieved_gdof(cf.channel, sp.l_dst), d)):
            return _check_failure(
                "the shortest-path allocation does not achieve the target")
        data["l_dst"] = _render_vec(sp.l_dst)
        text = (
            f"target ({', '.join(_render_vec(d))}): feasible; "
            f"shortest-path allocation ({', '.join(_render_vec(sp.l_dst))})")
    else:
        # the circuit names the cycle; its bound is evaluated on the
        # counterpart matrix, independently of the graph's edge lengths
        violated = circuit_bound(cf.channel, sp.negative_cycle)
        if violated.holds(d):
            return _check_failure(
                f"the target satisfies the circuit's bound "
                f"{violated.export_line(cf.channel.K)}")
        data["violated_constraint"] = _constraint_data(violated, cf.channel.K)
        data["negative_cycle"] = _cycle_data(sp.negative_cycle, sp.cycle_length)
        text = (
            f"target ({', '.join(_render_vec(d))}): infeasible; "
            f"violated {violated.export_line(cf.channel.K)}; "
            f"negative circuit {' -> '.join(vertex_label(v) for v in sp.negative_cycle)} "
            f"of length {render_rational(sp.cycle_length)}")
    Report(data, text).emit(args.json)
    return EXIT_OK if sp.feasible else EXIT_NEGATIVE


def cmd_region(args) -> int:
    cf = load_channel_file(args.channel)
    cons = region_constraints(cf.channel)
    data = {
        "command": "region",
        "channel": cf.name,
        "constraints": [_constraint_data(c, cons.K) for c in cons.constraints],
    }
    lines = [c.export_line(cons.K) for c in cons.constraints]
    try:
        total, maximizer = sum_gdof(cf.channel)
        symmetric = symmetric_gdof(cf.channel)
        data["sum_gdof"] = render_rational(total)
        data["sum_gdof_maximizer"] = _render_vec(maximizer)
        data["symmetric_gdof"] = render_rational(symmetric)
        lines.append(f"# sum GDoF {render_rational(total)} at "
                     f"({', '.join(_render_vec(maximizer))})")
        lines.append(f"# symmetric GDoF {render_rational(symmetric)}")
    except EmptyRegionError:
        data["empty"] = True
        lines.append("# region is empty")
    Report(data, "\n".join(lines)).emit(args.json)
    return EXIT_OK


def cmd_pareto(args) -> int:
    cf = load_channel_file(args.channel)
    d = _parse_target(args, cf.channel)
    K = cf.channel.K
    graph = build_reduced(cf.channel, d)
    sp = shortest_paths(graph)
    data = {
        "command": "pareto",
        "channel": cf.name,
        "target": _render_vec(d),
        "member": sp.feasible,
    }
    if not sp.feasible:
        violated = circuit_bound(cf.channel, sp.negative_cycle)
        data["pareto"] = False
        data["violated_constraint"] = _constraint_data(violated, K)
        Report(data, f"not in the region: violates "
                     f"{violated.export_line(K)}").emit(args.json)
        return EXIT_NEGATIVE
    tight = tight_users(graph, sp)
    is_pareto = len(tight) == K
    data["pareto"] = is_pareto
    if is_pareto:
        text = "member: yes; Pareto-optimal: yes"
    else:
        improvable = [k for k in range(K) if k not in tight]
        data["improvable_users"] = _users(improvable)
        text = (f"member: yes; Pareto-optimal: no — users "
                f"{_users(improvable)} can still be increased")
    Report(data, text).emit(args.json)
    return EXIT_OK if is_pareto else EXIT_NEGATIVE


def _trace_data(trace) -> dict | None:
    if trace is None:
        return None
    if isinstance(trace, GgpcTrace):
        return {
            "initial": _render_vec(trace.r0),
            "updates": [
                {
                    "delta": render_rational(u.delta),
                    "fixed": _users(u.fixed),
                    "allocation": _render_vec(u.r),
                    "achieved": _render_vec(u.achieved),
                }
                for u in trace.updates],
        }
    assert isinstance(trace, GsfpcTrace)
    return {
        "iterates": [_render_vec(it) for it in trace.iterates],
        "converged": trace.converged,
        "iterations": trace.iterations,
    }


def _solution_achieved(channel, sol: PowerSolution) -> tuple[Fraction, ...]:
    active = [i for i in range(channel.K) if sol.allocation[i] is not None]
    out = [Fraction(0)] * channel.K
    if active:
        values = achieved_gdof(
            subnetwork(channel, active), [sol.allocation[i] for i in active])
        for pos, user in enumerate(active):
            out[user] = values[pos]
    return tuple(out)


def cmd_power(args) -> int:
    cf = load_channel_file(args.channel)
    d = _parse_target(args, cf.channel)
    if not args.alg:
        raise CliInputError(f"this command needs --alg, one of {ALGORITHMS}")
    if args.debug_graph:
        _dump_graphs(cf.channel, d)
    try:
        sol = solve_power(cf.channel, d, args.alg)
    except InfeasibleTargetError as exc:
        data = {
            "command": "power",
            "channel": cf.name,
            "target": _render_vec(d),
            "algorithm": args.alg,
            "feasible": False,
            "negative_cycle": _cycle_data(exc.cycle, exc.cycle_length),
        }
        Report(data, f"infeasible target: {exc}").emit(args.json)
        return EXIT_NEGATIVE
    achieved = _solution_achieved(cf.channel, sol)
    rendered = [
        "silent" if x is None else render_rational(x) for x in sol.allocation]
    data = {
        "command": "power",
        "channel": cf.name,
        "target": _render_vec(d),
        "algorithm": sol.algorithm,
        "feasible": True,
        "via_counterpart": sol.via_counterpart,
        "allocation": rendered,
        "silent_users": _users(sol.silent),
        "achieved": _render_vec(achieved),
        "trace": _trace_data(sol.trace),
    }
    lines = [f"allocation ({', '.join(rendered)}) achieves "
             f"({', '.join(_render_vec(achieved))})"]
    if sol.via_counterpart:
        lines.append("note: multi-state input solved through its regular counterpart")
    if sol.silent:
        lines.append(f"silent users: {_users(sol.silent)}")
    Report(data, "\n".join(lines)).emit(args.json)
    return EXIT_OK


def _parse_p_list(args) -> list[float]:
    if not args.P:
        raise CliInputError("this command needs --P p1,p2,...")
    try:
        powers = [float(x) for x in args.P.split(",")]
    except ValueError:
        raise CliInputError(f"bad --P: {args.P!r}") from None
    if any(p <= 1 for p in powers):
        raise CliInputError("all --P values must exceed 1")
    if not all(map(math.isfinite, powers)):
        raise CliInputError("all --P values must be finite")
    return powers


def cmd_rates(args) -> int:
    cf = load_channel_file(args.channel)
    powers = _parse_p_list(args)
    named: list[tuple[str, tuple[Fraction, ...]]] = []
    if args.alloc:
        try:
            r = tuple(parse_rational(x) for x in args.alloc.split(","))
        except ValueError as exc:
            raise CliInputError(f"bad --alloc: {exc}") from None
        named.append(("explicit", r))
    if args.alg:
        if args.target:
            targets = [_parse_target(args, cf.channel)]
        elif cf.targets:
            targets = cf.targets
        else:
            raise CliInputError(
                "--alg needs a target (--target or a targets list in the file)")
        for alg in _distinct(alg.strip() for alg in args.alg.split(",")):
            for d in targets:
                if any(x == 0 for x in d):
                    raise CliInputError(
                        "rate evaluation needs strictly positive targets")
                try:
                    sol = solve_power(cf.channel, d, alg)
                except InfeasibleTargetError as exc:
                    print(f"infeasible target: {exc}")
                    return EXIT_NEGATIVE
                name = alg if len(targets) == 1 else (
                    f"{alg}@{'-'.join(_render_vec(d))}")
                named.append((name, tuple(sol.allocation)))
    if not named:
        raise CliInputError("this command needs --alloc or --alg")
    # the sweep's synthetic baseline stands in for any all-zero allocation
    named = [(name, r) for name, r in named if any(x != 0 for x in r)]
    rows = sweep(cf.channel, named, powers)
    out = ["alloc,P,user,rate,sum_rate,min_rate,total_power,efficiency"]
    for name, report in rows:
        for k, rate in enumerate(report.rates):
            out.append(
                f"{name},{report.P:.10g},{k + 1},{rate:.10g},"
                f"{report.sum_rate:.10g},{report.min_rate:.10g},"
                f"{report.total_power:.10g},{report.efficiency:.10g}")
    print("\n".join(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinpower",
        description="Analyze K-user interference channels under "
                    "treat-interference-as-noise operation.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": (cmd_validate, "check a channel file"),
        "tin-check": (cmd_tin_check, "test the weak-interference condition"),
        "counterpart": (cmd_counterpart, "emit the single-state counterpart"),
        "feasible": (cmd_feasible, "test a GDoF target"),
        "region": (cmd_region, "export the region inequalities"),
        "pareto": (cmd_pareto, "test Pareto optimality of a target"),
        "power": (cmd_power, "compute a power allocation"),
        "rates": (cmd_rates, "finite-SNR rate table (CSV)"),
    }
    for name, (handler, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--channel", required=True, help="channel JSON file")
        p.add_argument("--target", help="GDoF target d1,d2,...")
        p.add_argument("--alg", help="algorithm name(s): sp,gsfpc,ggpc,ggpc-c")
        p.add_argument("--alloc", help="explicit exponents r1,r2,...")
        p.add_argument("--P", help="nominal powers p1,p2,...")
        p.add_argument("--json", action="store_true", help="machine JSON output")
        p.add_argument("--debug-graph", action="store_true",
                       help="dump potential graphs to stderr")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ChannelValidationError, GuardExceededError, EmptyRegionError,
            NonConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
