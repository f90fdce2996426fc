"""Command-line front end: one-shot analysis commands over channel files.

Every invocation loads a JSON channel file, runs one command and prints a
report (human text by default, machine JSON with --json; the two carry the
same numbers). Exit codes: 0 success, 1 negative verdict on a yes/no query,
2 input or parse problems, 3 a verdict whose certificate failed its check
(a ``CertificateError``, raised where the library builds it), 141 stdout
or stderr closed before the report or the error line was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, islice, product, starmap
from typing import NamedTuple, NoReturn

from .channel import (
    CompoundChannel,
    TinViolation,
    parse_receivers,
    regular_counterpart,
    tin_optimal,
    validate,
)
from .errors import (
    CertificateError,
    ChannelValidationError,
    EmptyRegionError,
    InfeasibleTargetError,
    NonConvergenceError,
)
from .potential import build_full, vertex_label
from .power import (
    ALGORITHMS,
    GgpcTrace,
    GsfpcTrace,
    active_subnetwork,
    certify_allocation,
    check_algorithm,
    solve_power,
)
from .rates import sweep
from .rationals import gdof_tuple, power_exponents, render_rational
from .region import (
    bound_lines,
    bounds,
    decide,
    improvable_users,
    sum_gdof,
    symmetric_gdof,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a write to a closed pipe

# region bounds per write: the report streams, so its memory stays bounded
STREAM_CHUNK = 64


def _head(args, cf, d=None) -> dict:
    """The keys every report starts with: the command, the channel's name
    and, when given, the target ``d``."""
    head = {"command": args.command, "channel": cf.name}
    if d is not None:
        head["target"] = _render_vec(d)
    return head


def _emit(args, data: dict, text: str) -> None:
    """Print a report: ``data`` as JSON with --json, else ``text``."""
    print(json.dumps(data, indent=2) if args.json else text)


class ChannelFile(NamedTuple):
    channel: CompoundChannel
    name: str
    targets: list[tuple[Fraction, ...]]


def load_channel_file(path: str, *, validate_channel: bool = True) -> ChannelFile:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: JSON parse error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("channel document must be a JSON object")
    for key in ("K", "receivers"):
        if key not in doc:
            raise ValueError(f'channel document is missing "{key}"')
    if isinstance(doc["K"], bool) or not isinstance(doc["K"], int):
        raise ValueError('"K" must be an integer')
    if not isinstance(doc["receivers"], list):
        raise ValueError('"receivers" must be an array')

    def states():
        # each receiver's shape is checked as the parser reaches it, so a
        # file with several faults reports the first in document order
        for idx, rx in enumerate(doc["receivers"], 1):
            if not isinstance(rx, dict) or "states" not in rx:
                raise ValueError(f'receiver {idx} must be an object with "states"')
            yield rx["states"]

    build = CompoundChannel if validate_channel else CompoundChannel._unchecked
    try:
        channel = build(doc["K"], parse_receivers(states()))
    except ChannelValidationError as exc:
        raise ValueError(f"{path}: invalid channel: {exc}") from None
    raw_targets = doc.get("targets", [])
    if not isinstance(raw_targets, list):
        raise ValueError(f'{path}: "targets" must be an array')
    targets = []
    for raw in raw_targets:
        if not isinstance(raw, list):
            raise ValueError(f"{path}: bad target {raw}: not an array")
        try:
            targets.append(gdof_tuple(raw, channel.K))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: bad target {raw}: {exc}") from None
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f'{path}: "name" must be a string')
    return ChannelFile(channel, name or path, targets)


def _parse_target(args, channel) -> tuple[Fraction, ...]:
    if not args.target:
        raise ValueError("this command needs --target d1,d2,...")
    try:
        return gdof_tuple(args.target.split(","), channel.K)
    except ValueError as exc:
        raise ValueError(f"bad --target: {exc}") from None


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


def _constraint_data(c, line: str) -> dict:
    """JSON form of constraint ``c``, whose rendered inequality is ``line``."""
    return {
        "users": _users(c.users),
        "rhs": render_rational(c.rhs),
        "cycle": _users(c.cycle) if c.cycle else None,
        "inequality": line,
    }


def _cycle_data(cycle, length) -> dict:
    return {
        "vertices": [vertex_label(v) for v in cycle],
        "length": render_rational(length),
    }


def _dump_graphs(reduced, channel, d, users=None) -> None:
    """The reduced graph ``reduced``, that of the channel's regular
    counterpart at the target ``d``, and the channel's full graph there,
    each user ``i`` printed as ``users[i]`` when given."""
    print("# reduced potential graph", file=sys.stderr)
    print(reduced.dump(users), file=sys.stderr)
    print("# full potential graph", file=sys.stderr)
    print(build_full(channel, d).dump(users), file=sys.stderr)


def cmd_validate(args, cf) -> int:
    try:
        validate(cf.channel)
    except ChannelValidationError as exc:
        error = {
            "message": str(exc),
            "receiver": None if exc.receiver is None else exc.receiver + 1,
            "state": None if exc.state is None else exc.state + 1,
        }
        _emit(args, _head(args, cf) | {"valid": False, "error": error},
              f"invalid channel: {exc}")
        return EXIT_NEGATIVE
    counts = list(cf.channel.state_counts)
    _emit(args,
          _head(args, cf) | {"valid": True, "K": cf.channel.K, "states_per_receiver": counts},
          f"channel OK: K={cf.channel.K}, states per receiver {counts}")
    return EXIT_OK


def cmd_tin_check(args, cf) -> int:
    ok, witness = tin_optimal(cf.channel)
    data = _head(args, cf) | {"tin_optimal": ok}
    if ok:
        text = "TIN-optimal: yes"
    else:
        data["witness"] = _witness_data(witness)
        text = (
            f"TIN-optimal: no — user {witness.user + 1} state {witness.state + 1}: "
            f"direct link is smaller than interference caused at user "
            f"{witness.in_user + 1} (state {witness.in_state + 1}) plus "
            f"interference received from user {witness.out_user + 1}")
    _emit(args, data, text)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_counterpart(args, cf) -> int:
    cp = regular_counterpart(cf.channel)
    doc = {
        "name": f"{cf.name}-counterpart",
        "K": cp.K,
        "receivers": [
            {"states": [_render_vec(row)]} for row in cp.matrix],
    }
    lines = [f"counterpart matrix (row k = receiver k):"]
    lines += ["  [" + ", ".join(_render_vec(row)) + "]" for row in cp.matrix]
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_feasible(args, cf) -> int:
    d = _parse_target(args, cf.channel)
    verdict = decide(cf.channel, d)
    sp, violated = verdict.sp, verdict.bound
    if args.debug_graph:
        _dump_graphs(verdict.graph, cf.channel, d)
    data = _head(args, cf, d) | {"feasible": sp.feasible}
    if sp.feasible:
        certify_allocation(cf.channel, sp.l_dst, d)
        data["l_dst"] = _render_vec(sp.l_dst)
        text = (
            f"target ({', '.join(_render_vec(d))}): feasible; "
            f"shortest-path allocation ({', '.join(_render_vec(sp.l_dst))})")
    else:
        line = violated.export_line(cf.channel.K)
        data["violated_constraint"] = _constraint_data(violated, line)
        data["negative_cycle"] = _cycle_data(sp.negative_cycle, sp.cycle_length)
        text = (
            f"target ({', '.join(_render_vec(d))}): infeasible; "
            f"violated {line}; "
            f"negative circuit {' -> '.join(vertex_label(v) for v in sp.negative_cycle)} "
            f"of length {render_rational(sp.cycle_length)}")
    _emit(args, data, text)
    return EXIT_OK if sp.feasible else EXIT_NEGATIVE


def cmd_region(args, cf) -> int:
    """The region's inequality list, then its sum and symmetric optima.

    The K guard is checked and both optima computed before the first byte
    is written, so a refusal or a failed check leaves stdout empty. The
    bounds are then enumerated one user set at a time (:func:`bounds`) and
    stream to stdout, :data:`STREAM_CHUNK` per write: neither the list nor
    the report is ever held whole. Each bound is rendered once, and the JSON
    reads byte for byte as ``json.dumps(indent=2)`` of the whole document.
    """
    found = bounds(cf.channel)
    try:
        total, maximizer = sum_gdof(cf.channel)
        symmetric = symmetric_gdof(cf.channel)
        tail = {
            "sum_gdof": render_rational(total),
            "sum_gdof_maximizer": _render_vec(maximizer),
            "symmetric_gdof": render_rational(symmetric),
        }
        notes = [f"# sum GDoF {tail['sum_gdof']} at "
                 f"({', '.join(tail['sum_gdof_maximizer'])})",
                 f"# symmetric GDoF {tail['symmetric_gdof']}"]
    except EmptyRegionError:
        tail, notes = {"empty": True}, ["# region is empty"]
    lines = bound_lines(cf.channel.K, found)
    if not args.json:
        _stream(chain((line for _, line in lines), notes), "\n")
        sys.stdout.write("\n")
        return EXIT_OK
    # the head and the tail are laid out by json itself, less the braces
    # ("\n}" and "{\n") that the whole document shares
    head = json.dumps(_head(args, cf), indent=2)
    sys.stdout.write(f'{head[:-2]},\n  "constraints": [\n')
    _stream(starmap(_bound_json, lines), ",\n")
    sys.stdout.write(f"\n  ],\n{json.dumps(tail, indent=2)[2:]}\n")
    return EXIT_OK


def _bound_json(c, line: str) -> str:
    """:func:`_constraint_data` of bound ``c`` as ``json.dumps(indent=2)``
    lays it out in the ``region`` report's list; its rhs is the one
    rendered at the end of ``line``."""
    cycle = _json_users(c.cycle) if c.cycle else "null"
    return (f'    {{\n      "users": {_json_users(c.users)},\n'
            f'      "rhs": "{line.rpartition(" <= ")[2]}",\n'
            f'      "cycle": {cycle},\n      "inequality": "{line}"\n    }}')


def _json_users(indices) -> str:
    """``_users(indices)`` as ``json.dumps(indent=2)`` lays out an array
    under a bound's key."""
    return "[\n        " + ",\n        ".join(str(i + 1) for i in indices) + "\n      ]"


def _stream(pieces, sep: str) -> None:
    """Write ``pieces`` to stdout separated by ``sep``, :data:`STREAM_CHUNK`
    of them per write."""
    pieces = iter(pieces)
    sys.stdout.write(next(pieces, ""))
    while batch := list(islice(pieces, STREAM_CHUNK)):
        sys.stdout.write(sep.join(["", *batch]))


def cmd_pareto(args, cf) -> int:
    d = _parse_target(args, cf.channel)
    K = cf.channel.K
    verdict = decide(cf.channel, d)
    data = _head(args, cf, d) | {"member": verdict.sp.feasible}
    if not verdict.sp.feasible:
        line = verdict.bound.export_line(K)
        data["pareto"] = False
        data["violated_constraint"] = _constraint_data(verdict.bound, line)
        _emit(args, data, f"not in the region: violates {line}")
        return EXIT_NEGATIVE
    certify_allocation(cf.channel, verdict.sp.l_dst, d)
    improvable = improvable_users(verdict)
    is_pareto = not improvable
    data["pareto"] = is_pareto
    if is_pareto:
        text = "member: yes; Pareto-optimal: yes"
    else:
        data["improvable_users"] = _users(improvable)
        text = (f"member: yes; Pareto-optimal: no — users "
                f"{_users(improvable)} can still be increased")
    _emit(args, data, text)
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


def cmd_power(args, cf) -> int:
    d = _parse_target(args, cf.channel)
    if not args.alg:
        raise ValueError(f"this command needs --alg, one of {ALGORITHMS}")
    check_algorithm(args.alg)
    if args.debug_graph and any(d):
        # the graphs the control decides on: the active users' subnetwork
        active, sub, d_sub = active_subnetwork(cf.channel, d)
        _dump_graphs(decide(sub, d_sub).graph, sub, d_sub, active)
    head = _head(args, cf, d) | {"algorithm": args.alg}
    try:
        sol = solve_power(cf.channel, d, args.alg)
    except InfeasibleTargetError as exc:
        data = head | {
            "feasible": False,
            "violated_constraint": _constraint_data(
                exc.bound, exc.bound.export_line(cf.channel.K)),
            "negative_cycle": _cycle_data(exc.cycle, exc.cycle_length),
        }
        _emit(args, data, f"infeasible target: {exc}")
        return EXIT_NEGATIVE
    rendered = [
        "silent" if x is None else render_rational(x) for x in sol.allocation]
    data = head | {
        "feasible": True,
        "via_counterpart": sol.via_counterpart,
        "allocation": rendered,
        "silent_users": _users(sol.silent),
        "achieved": _render_vec(sol.achieved),
        "trace": _trace_data(sol.trace),
    }
    lines = [f"allocation ({', '.join(rendered)}) achieves "
             f"({', '.join(_render_vec(sol.achieved))})"]
    if sol.via_counterpart:
        lines.append("note: multi-state input solved through its regular counterpart")
    if sol.silent:
        lines.append(f"silent users: {_users(sol.silent)}")
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def _parse_p_list(args) -> tuple[float, ...]:
    if not args.P:
        raise ValueError("this command needs --P p1,p2,...")
    try:
        powers = [float(x) for x in args.P.split(",")]
    except ValueError:
        raise ValueError(f"bad --P: {args.P!r}") from None
    if any(p <= 1 for p in powers):
        raise ValueError("all --P values must exceed 1")
    if not all(map(math.isfinite, powers)):
        raise ValueError("all --P values must be finite")
    return tuple(dict.fromkeys(powers))


def cmd_rates(args, cf) -> int:
    powers = _parse_p_list(args)
    if args.target and not args.alg:
        raise ValueError("--target is read only with --alg")
    named: list[tuple[str, tuple[Fraction, ...]]] = []
    if args.alloc:
        try:
            r = power_exponents(args.alloc.split(","), cf.channel.K)
        except ValueError as exc:
            raise ValueError(f"bad --alloc: {exc}") from None
        named.append(("explicit", r))
    if args.alg:
        if args.target:
            targets = [_parse_target(args, cf.channel)]
        elif cf.targets:
            targets = cf.targets
        else:
            raise ValueError("--alg needs a target (--target or a targets list in the file)")
        if any(0 in d for d in targets):
            raise ValueError("rate evaluation needs strictly positive targets")
        algs = dict.fromkeys(alg.strip() for alg in args.alg.split(","))
        for alg in algs:
            check_algorithm(alg)
        for alg, d in product(algs, targets):
            try:
                sol = solve_power(cf.channel, d, alg)
            except InfeasibleTargetError as exc:
                print(f"infeasible target: {exc}")
                return EXIT_NEGATIVE
            name = alg if len(targets) == 1 else f"{alg}@{'-'.join(_render_vec(d))}"
            named.append((name, tuple(sol.allocation)))
    if not named:
        raise ValueError("this command needs --alloc or --alg")
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


FLAGS = {
    "--target": {"help": "GDoF target d1,d2,..."},
    "--alg": {"help": "algorithm name(s): sp,gsfpc,ggpc,ggpc-c"},
    "--alloc": {"help": "explicit exponents r1,r2,..."},
    "--P": {"help": "nominal powers p1,p2,..."},
    "--json": {"action": "store_true", "help": "machine JSON output"},
    "--debug-graph": {"action": "store_true", "help": "dump potential graphs to stderr"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinpower",
        description="Analyze K-user interference channels under "
                    "treat-interference-as-noise operation.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command declares exactly the flags its handler reads
    commands = {
        "validate": (cmd_validate, "check a channel file", "--json"),
        "tin-check": (cmd_tin_check, "test the weak-interference condition", "--json"),
        "counterpart": (cmd_counterpart, "emit the single-state counterpart", "--json"),
        "feasible": (cmd_feasible, "test a GDoF target", "--target --json --debug-graph"),
        "region": (cmd_region, "export the region inequalities", "--json"),
        "pareto": (cmd_pareto, "test Pareto optimality of a target", "--target --json"),
        "power": (cmd_power, "compute a power allocation",
                  "--target --alg --json --debug-graph"),
        "rates": (cmd_rates, "finite-SNR rate table (CSV)", "--target --alg --alloc --P"),
    }
    for name, (handler, help_text, declared) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--channel", required=True, help="channel JSON file")
        for flag in declared.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout or stderr left; point both at devnull so that
        # the final flush of what is still buffered (`run_and_exit`'s, or the
        # interpreter's in an embedder) does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return EXIT_CLOSED


def _run(args) -> int:
    """The command's exit code, its handler given the loaded channel file
    (built unchecked for ``validate``, which reports on it); an expected
    failure is reported on stderr."""
    try:
        cf = load_channel_file(args.channel, validate_channel=args.command != "validate")
        return args.handler(args, cf)
    except CertificateError as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NonConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run_and_exit() -> NoReturn:
    """The process entry (``python -m tinpower.cli`` and the ``tinpower``
    script): :func:`main`, then one flush of stdout and stderr and
    ``os._exit``. Nothing is left to do once the report is flushed: no
    thread, no ``atexit`` hook of the package's and no file open for
    writing, so the interpreter's teardown of every module is skipped. An
    exception that escapes ``main`` (argparse's ``SystemExit`` included)
    ends the process the normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
