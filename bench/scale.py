#!/usr/bin/env python3
"""Scaling probe: the largest K each command answers correctly in budget.

    python3 bench/scale.py

Walks every command up a ladder of user counts on seeded weak-interference
channels (1-3 states per receiver, targets 80 % of the way to the region
boundary) and records ``scale.<command>.max_K``: the largest K before the
first call that fails, exits with a guard error or exceeds the per-call
budget of BUDGET_S seconds. Sizes past a failure are still probed, so that
guard refusals show. Outputs are checked by ``checker.py``; inequality-based
verdicts are checked only up to K = 9, where the model can still enumerate
cycles. Writes ``.bench_out/scale.json``. Not a workload: nothing is gated
on it.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import sys
from fractions import Fraction

import checker
import model
import run
import workloads

LADDER = (4, 6, 8, 9, 10, 11, 20, 40, 60, 100)
SEED = 1
BUDGET_S = 10
MODEL_MAX_K = 9
COMMANDS = (
    ("validate", None), ("tin-check", None), ("counterpart", None),
    ("feasible", None), ("pareto", None), ("region", None),
    ("power", "sp"), ("power", "gsfpc"), ("power", "ggpc"), ("power", "ggpc-c"),
    ("rates", "sp,ggpc"),
)
NEEDS_MODEL = ("feasible", "pareto", "region")


def probe_call(command, alg, K, workdir):
    """The probe's call at size K, with its channel model."""
    rng = random.Random(f"scale:{SEED}:{K}")
    receivers = workloads.random_channel(rng, K, (1, 3))
    ch = model.Channel(receivers)
    path = f"{workdir.relative_to(run.ROOT)}/scale{K}.json"
    (run.ROOT / path).write_text(json.dumps(workloads.channel_doc(f"scale{K}", receivers)))
    v = workloads.direction(rng, K)
    target = workloads.ray_point(workloads.float_boundary(ch, v), v, Fraction(4, 5))
    expect = {}
    if command in NEEDS_MODEL and K <= MODEL_MAX_K:
        expect["region"] = model.Region(ch)
    call = workloads.Call(
        command, path,
        target=None if command in ("validate", "tin-check", "counterpart", "region") else target,
        alg=alg, powers=workloads.RATE_POWERS if command == "rates" else None,
        expect=expect if command != "validate" else {"valid": True})
    return call, ch


def main() -> int:
    workdir = run.ROOT / ".bench_work" / "scale"
    workdir.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    results = {}
    try:
        for command, alg in COMMANDS:
            name = command if command != "power" else f"power.{alg}"
            outcomes = {}
            for K in LADDER:
                call, ch = probe_call(command, alg, K, workdir)
                child = run.spawn([sys.executable, "-m", "tinpower.cli"] + call.argv(),
                                  env, workdir, timeout=BUDGET_S)
                reason = checker.check(call, ch, child.code, child.out, child.err)
                if reason is None and command in NEEDS_MODEL and K > MODEL_MAX_K:
                    reason = "answered, but beyond the model's cycle enumeration"
                if reason is None:
                    outcomes[K] = f"ok {child.wall_ms:.0f} ms"
                else:
                    err = child.err.strip().splitlines()
                    outcomes[K] = reason + (f" ({err[-1]})" if err else "")
                print(f"  {name:16s} K={K:3d} {outcomes[K]}", flush=True)
            first_bad = next((K for K in LADDER if not outcomes[K].startswith("ok")), None)
            best = max((K for K in LADDER if first_bad is None or K < first_bad), default=None)
            results[f"scale.{name}.max_K"] = {"value": best, "outcomes": outcomes}
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    out = run.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "scale.json").write_text(json.dumps(
        {"seed": SEED, "budget_s": BUDGET_S, "ladder": LADDER, "results": results}, indent=1))
    print(json.dumps({k: v["value"] for k, v in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
