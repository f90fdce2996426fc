#!/usr/bin/env python3
"""Layered benchmark for the tinpower CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` measures end to end: one client
spawns ``python -m tinpower.cli <command>`` (with ``PYTHONPATH=src``) in a
closed loop, one call in flight and no think time, and every output is
checked by ``checker.py``. ``--trace 1`` replays the same calls in-process,
with spans around each library call, and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CALL_TIMEOUT_S = 60
SETUP_REPEATS = 7
IMPORT_REPEATS = 2
OVERHEAD_MAX_MS = 300
# A run must end within 180 s whatever it is asked to do, so calls are cut at
# a fixed time. Calls cut there are reported as not made, not as failed.
RUN_DEADLINE_S = 150
TAIL_Q = 0.90
MIN_BEYOND = 10


@dataclass
class Child:
    """One finished child process."""

    code: int | None      # None when killed on timeout
    out: str
    err: str
    wall_ms: float
    cpu_ms: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], env: dict, workdir: Path, timeout: float = CALL_TIMEOUT_S) -> Child:
    """Run one child to exit, killing it after ``timeout`` seconds. Wall
    time runs from spawn to exit; CPU time and peak RSS are the child's own,
    from ``wait4``."""
    with tempfile.TemporaryFile(dir=workdir) as fo, tempfile.TemporaryFile(dir=workdir) as fe:
        killed = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return Child(None if killed.is_set() else proc.returncode,
                     fo.read().decode(errors="replace"), fe.read().decode(errors="replace"),
                     wall * 1e3, (usage.ru_utime + usage.ru_stime) * 1e3,
                     usage.ru_maxrss / 1024)


def tail_percentile(samples, q: float = TAIL_Q, min_beyond: int = MIN_BEYOND):
    """The q-quantile, or, when fewer than ``min_beyond`` samples would lie
    beyond it, the highest quantile that keeps ``min_beyond`` beyond.

    Returns (value, quantile used). With n samples the quantile used is
    min(q, 1 - min_beyond / n), so the 0.9 quantile needs n >= 100. Below
    2 * min_beyond samples it is the median.
    """
    xs = sorted(samples)
    n = len(xs)
    used = max(0.5, min(q, 1 - min_beyond / n))
    pos = used * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), used


def provenance(inputs) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "tinpower").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = out.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: v for k, v in os.environ.items()
                     if any(t in k for t in ("BLAS", "OMP", "MKL", "NUMEXPR"))},
        "workload": inputs.workload,
        "seed": inputs.seed,
        "histogram": inputs.histogram(),
    }


def started(child: Child) -> Child:
    """``child``, or an error if the interpreter did not exit cleanly."""
    if child.code != 0:
        raise RuntimeError(f"interpreter start failed: {child.err.strip()[-300:]}")
    return child


def measure_startup(env: dict, workdir: Path) -> dict:
    """The import.* start-up breakdown."""
    py = sys.executable
    bare = [started(spawn([py, "-c", "pass"], env, workdir)) for _ in range(IMPORT_REPEATS)]
    timed = [started(spawn([py, "-X", "importtime", "-c", "import tinpower"], env, workdir))
             for _ in range(IMPORT_REPEATS)]
    return {
        "import.interpreter_ms": statistics.median(c.wall_ms for c in bare),
        "import.numpy_ms": statistics.median(importtime(c.err, "numpy") for c in timed),
        "import.tinpower_ms": statistics.median(importtime(c.err, "tinpower") for c in timed),
    }


def importtime(stderr: str, module: str) -> float:
    """Cumulative import time of a top-level module, in ms, from the output
    of ``python -X importtime``."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    raise RuntimeError(f"no importtime line for {module}")


class Deadline(BaseException):
    """The run deadline passed during a call. Not an ``Exception``, so no
    handler in the package or in the spans mistakes it for a call's error."""


def run_rounds(calls, rounds: int, do_call, deadline: float) -> tuple[float, int]:
    """Make ``rounds`` whole rounds of ``calls`` back to back, starting no
    call after ``deadline`` (a ``time.monotonic`` value); ``do_call``
    raises ``Deadline`` when the deadline cuts its call short. Returns the
    elapsed seconds and the number of calls not made."""
    todo = [call for _ in range(rounds) for call in calls]
    start = time.perf_counter()
    for done, call in enumerate(todo):
        try:
            if time.monotonic() >= deadline:
                raise Deadline
            do_call(call)
        except Deadline:
            return time.perf_counter() - start, len(todo) - done
    return time.perf_counter() - start, 0


class Checked:
    """Counts the calls checked and the checker's reasons for failures."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.reasons: list[str] = []
        self.attempted = self.failed = 0

    def add(self, call, code, out, err) -> None:
        reason = checker.check(call, self.inputs.channels.get(call.channel), code, out, err)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(call.argv())}: {reason}")


def end_to_end(inputs, seconds, env, workdir, checked, deadline) -> tuple[dict, dict]:
    py = sys.executable
    results: list[tuple[object, Child]] = []
    setup: list[Child] = []
    rounds = inputs.rounds(seconds)
    every = max(1, rounds * len(inputs.calls) // SETUP_REPEATS)

    def do_call(call):
        # setup_s is sampled across the run rather than only at its start, so
        # that its median sees the same spells of host load as the calls
        if len(results) % every == 0 and len(setup) < SETUP_REPEATS:
            setup.append(started(spawn([py, "-c", "import tinpower"], env, workdir)))
        left = deadline - time.monotonic()
        child = spawn([py, "-m", "tinpower.cli"] + call.argv(), env, workdir,
                      min(CALL_TIMEOUT_S, max(0.1, left)))
        if child.code is None and left < CALL_TIMEOUT_S:
            raise Deadline   # killed by the run deadline, not by its own timeout
        results.append((call, child))

    elapsed, not_made = run_rounds(inputs.calls, rounds, do_call, deadline)
    if not results:
        raise RuntimeError("no call ended before the run deadline")
    elapsed -= sum(c.wall_ms for c in setup) / 1e3
    for call, child in results:
        checked.add(call, child.code, child.out, child.err)
    walls = [c.wall_ms for _, c in results]
    p90, q = tail_percentile(walls)
    metrics = {
        "setup_s": (statistics.median(c.wall_ms for c in setup) / 1e3, "s"),
        "call_ms_p50": (statistics.median(walls), "ms"),
        "call_ms_p90": (p90, "ms"),
        "calls_per_s": (len(walls) / elapsed, "1/s"),
        "cpu_ms_per_call": (sum(c.cpu_ms for _, c in results) / len(results), "ms"),
        "peak_rss_mb": (max(c.rss_mb for _, c in results), "MB"),
        "fail_ratio": (checked.failed / checked.attempted, "1"),
    }
    info = {"calls": len(walls), "not_made": not_made, "tail_quantile": q,
            "measured_s": elapsed,
            "per_call": [{"argv": call.argv()[:3] + ([call.alg] if call.alg else []),
                          "K": inputs.channels[call.channel].K
                          if call.channel in inputs.channels else None,
                          "code": c.code, "wall_ms": round(c.wall_ms, 3),
                          "cpu_ms": round(c.cpu_ms, 3)} for call, c in results]}
    return metrics, info


def in_process(tp, call) -> tuple[int, str, str, float]:
    """``tinpower.cli.main`` on the call's arguments: exit code, stdout,
    stderr and its wall time in ms."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tp.cli.main(call.argv())
    return code, out.getvalue(), err.getvalue(), (time.perf_counter() - start) * 1e3


def startup_ms(tp, inputs, env, workdir) -> float:
    """Median of call wall time minus in-process ``cli.main`` time, over
    ``validate`` calls on each of the workload's channel files. Start-up
    does not depend on the command, and ``validate`` keeps the probe cheap
    next to a K = 100 control call."""
    py = sys.executable
    diffs = []
    for path in sorted(inputs.channels):
        call = workloads.Call("validate", path)
        for _ in range(IMPORT_REPEATS):
            child = spawn([py, "-m", "tinpower.cli"] + call.argv(), env, workdir)
            diffs.append(child.wall_ms - in_process(tp, call)[3])
    return statistics.median(diffs)


def traced(inputs, seconds, env, workdir, checked, deadline) -> tuple[dict, dict, list]:
    sys.path.insert(0, str(SRC))
    import tinpower as tp
    import tinpower.cli  # noqa: F401  (makes tp.cli available)

    rec = spans.Recorder()
    null = spans.NullRecorder()
    main_ms = []
    paired_ms = {"traced": 0.0, "untraced": 0.0}
    output_bytes = 0
    in_call = False

    def timed_replay(call, recorder) -> float:
        start = time.perf_counter()
        spans.replay(tp, call, recorder)
        return (time.perf_counter() - start) * 1e3

    def do_call(call):
        nonlocal output_bytes, in_call
        gc.collect()
        mark = len(rec.spans), dict(rec.counts)
        in_call = True
        try:
            code, out, err, ms = in_process(tp, call)
            # The tracing overhead is a fixed cost per span, so it is measured
            # on calls up to OVERHEAD_MAX_MS, where it is largest relative to
            # the work, and on every call that is the fastest so far, so that
            # at least one call is paired; the order alternates so neither
            # replay always runs second.
            if ms > max(OVERHEAD_MAX_MS, min(main_ms, default=ms)):
                timed_replay(call, rec)
                pair = (0.0, 0.0)
            elif len(main_ms) % 2:
                untraced = timed_replay(call, null)
                pair = (timed_replay(call, rec), untraced)
            else:
                traced_ms = timed_replay(call, rec)
                pair = (traced_ms, timed_replay(call, null))
            in_call = False
        except Deadline:
            in_call = False
            # the call is not made: drop what it left in the recorder
            del rec.spans[mark[0]:]
            rec.counts.clear()
            rec.counts.update(mark[1])
            raise
        checked.add(call, code, out, err)
        output_bytes += len(out.encode())
        main_ms.append(ms)
        paired_ms["traced"] += pair[0]
        paired_ms["untraced"] += pair[1]
        rec.op += 1

    startup = startup_ms(tp, inputs, env, workdir)
    # keep the benchmark's own objects out of the collector's way, so that
    # in-process timings see the heap a fresh CLI process would
    gc.collect()
    gc.freeze()

    def expire(signum, frame):
        # interrupt only the call and its replays; between calls the loop
        # stops by itself, so try again shortly in case one starts
        if in_call:
            raise Deadline
        signal.setitimer(signal.ITIMER_REAL, 0.01)

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - time.monotonic()))
    try:
        elapsed, not_made = run_rounds(inputs.calls, inputs.rounds(seconds), do_call, deadline)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    gc.unfreeze()
    if not main_ms:
        raise RuntimeError("no call ended before the run deadline")
    selfs = rec.self_times()
    library = rec.library_ms_per_op()
    glue = sum(ms - library[op] for op, ms in enumerate(main_ms))
    main_total = sum(main_ms)
    wall_total = main_total + startup * len(main_ms)
    counts = rec.counts

    def self_ms(name):
        return selfs.get(name, (0.0, 0))[0]

    m = {
        "import.startup_ms": (startup, "ms"),
        "cli.main.ms": (main_total, "ms"),
        "cli.glue_ms": (glue, "ms"),
        "cli.output_bytes": (output_bytes, "B"),
        "trace.overhead_ratio": (paired_ms["traced"] / paired_ms["untraced"], "1"),
    }
    for name in FUNCTIONS:
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
        m[f"{name}.calls"] = (selfs.get(name, (0.0, 0))[1], "count")
    for layer in spans.LAYERS[1:]:
        m[f"{layer}.errors"] = (counts.get(f"{layer}.errors", 0), "count")
    decisions = counts.get("potential.decisions", 0)
    raw = counts.get("region.raw_constraints", 0)
    for name in ("channel.states", "potential.graph_vertices", "potential.graph_edges",
                 "potential.negative_circuits", "potential.circuit_vertices",
                 "region.cycles_enumerated", "region.constraints_kept",
                 "region.guard_refusals", "power.gsfpc_iterations", "power.ggpc_updates",
                 "rates.rows"):
        m[name] = (counts.get(name, 0), "count")
    m["potential.feasible_ratio"] = (
        counts.get("potential.feasible", 0) / decisions if decisions else 0.0, "1")
    m["region.dedup_ratio"] = (
        counts.get("region.constraints_kept", 0) / raw if raw else 0.0, "1")

    # each layer's share of the summed call wall time
    layer_ms = {layer: 0.0 for layer in spans.LAYERS}
    layer_ms["import"] = wall_total - main_total
    layer_ms["cli"] = glue
    for name, (ms, _) in selfs.items():
        layer = name.split(".")[0]
        if layer in layer_ms:
            layer_ms[layer] += ms
    for layer, ms in layer_ms.items():
        m[f"share.{layer}"] = (100 * ms / wall_total, "%")
    info = {"calls": len(main_ms), "not_made": not_made, "measured_s": elapsed}
    span_rows = [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
                 for n, s, e, p, op in rec.spans]
    return m, info, span_rows


FUNCTIONS = (
    "cli.load_channel_file",
    "channel.validate", "channel.tin_optimal", "channel.regular_counterpart",
    "potential.build_reduced", "potential.shortest_paths",
    "region.region_constraints", "region.member", "region.pareto",
    "region.symmetric_gdof", "region.sum_gdof",
    "power.solve_power.sp", "power.solve_power.gsfpc", "power.solve_power.ggpc",
    "power.solve_power.ggpc-c", "power.achieved_gdof",
    "rates.sweep",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # stop (and so kill the running child) on SIGTERM, like on Ctrl-C
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "tinpower" / "cli.py", ROOT / "channels",
                           ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        print(f"error: not a tinpower checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    inputs = workloads.build(args.workload, args.seed, ROOT)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs.write(ROOT)
        env = child_env()
        startup = measure_startup(env, workdir)
        checked = Checked(inputs)
        span_rows = []
        if args.trace:
            metrics, info, span_rows = traced(inputs, args.seconds, env, workdir, checked, deadline)
            for name in ("import.interpreter_ms", "import.numpy_ms", "import.tinpower_ms"):
                metrics[name] = (startup[name], "ms")
        else:
            metrics, info = end_to_end(inputs, args.seconds, env, workdir, checked, deadline)
    finally:
        for path in sorted(workdir.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
        workdir.rmdir()
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    report = {
        "provenance": provenance(inputs),
        "startup": startup,
        "run": info,
        "failures": checked.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": span_rows,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['calls']} calls in {info['measured_s']:.1f} s"
          + (f", {info['not_made']} not made before the run deadline" if info["not_made"] else "")
          + (f", tail quantile {info['tail_quantile']:.3f}" if "tail_quantile" in info else ""))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:14.4f} {unit}")
    for reason in checked.reasons:
        print(f"  FAILED {reason}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
