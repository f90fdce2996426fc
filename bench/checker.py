"""Independent checker for tinpower CLI outputs.

Every verdict is checked against the benchmark's own model (``model.py``),
never against another tinpower route: allocations by recomputing their TIN
GDoF, circuits by adding up their edge lengths from the channel, inequalities
by recomputing their right-hand sides from the model's counterpart and
cycles, optima by feasibility plus a tightness or KKT certificate, and rate
tables by the model's float formula. ``check`` returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import model
from model import ZERO, frac

RATE_HEADER = ["alloc", "P", "user", "rate", "sum_rate", "min_rate",
               "total_power", "efficiency"]
RATE_RTOL = 1e-7


class Mismatch(Exception):
    """The output disagrees with the model."""


def require(cond, message) -> None:
    if not cond:
        raise Mismatch(message)


def vec(values) -> list:
    return [frac(x) for x in values]


def check(call, ch, code: int | None, out: str, err: str) -> str | None:
    """None when the call's exit code and output are right, else why not."""
    if code is None:
        return "timed out"
    if "Traceback" in err:
        return "traceback on stderr"
    try:
        if call.command == "rates":
            _check_rates(call, ch, code, out)
        else:
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                raise Mismatch(f"exit {code} with non-JSON output") from None
            CHECKS[call.command](call, ch, code, doc)
    except Mismatch as exc:
        return f"{call.command}: {exc}"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{call.command}: malformed output ({type(exc).__name__}: {exc})"
    return None


def _validate(call, ch, code, doc):
    if call.expect.get("valid") is False:
        require(code == 1 and doc["valid"] is False, "invalid channel not rejected")
        require(doc["error"]["receiver"] == call.expect["receiver"] + 1
                and doc["error"]["state"] == call.expect["state"] + 1,
                "wrong location for the invalid entry")
        return
    require(code == 0 and doc["valid"] is True, "valid channel rejected")
    require(doc["K"] == ch.K and doc["states_per_receiver"] == ch.state_counts,
            "wrong K or state counts")


def _tin_check(call, ch, code, doc):
    K = ch.K
    caused = [max((ch.receivers[j][l][i] for j in range(K) if j != i
                   for l in range(len(ch.receivers[j]))), default=ZERO)
              for i in range(K)]
    ok = K == 1 or all(
        vec_[i] >= caused[i] + max(vec_[k] for k in range(K) if k != i)
        for i in range(K) for vec_ in ch.receivers[i])
    require(doc["tin_optimal"] is ok and code == (0 if ok else 1),
            f"verdict {doc['tin_optimal']} (exit {code}), model says {ok}")
    if ok:
        return
    w = doc["witness"]
    u, s = w["user"] - 1, w["state"] - 1
    iu, is_ = w["strongest_caused_at"]["user"] - 1, w["strongest_caused_at"]["state"] - 1
    ou = w["strongest_received_from"]["user"] - 1
    require(iu != u and ou != u, "witness names the user itself as interferer")
    own = ch.receivers[u][s]
    c = ch.receivers[iu][is_][u]
    received = own[ou]
    require(c == caused[u], "witness interference caused is not the strongest")
    require(received == max(own[k] for k in range(K) if k != u),
            "witness interference received is not the strongest")
    require(own[u] < c + received, "witness does not violate the condition")


def _counterpart(call, ch, code, doc):
    require(code == 0, f"exit {code}")
    rows = [vec(rx["states"][0]) for rx in doc["receivers"]]
    require(doc["K"] == ch.K and all(len(rx["states"]) == 1 for rx in doc["receivers"]),
            "counterpart is not a single-state K-user channel")
    require(rows == ch.counterpart(), "counterpart matrix differs from the model")


_LABEL = re.compile(r"^v(\d+)\[(\d+)\]$")


def check_circuit(a, d, data) -> None:
    """A reported negative circuit of the reduced potential graph: its edge
    lengths, taken from the model's counterpart, sum to the reported
    (negative) length."""
    verts = []
    for label in data["vertices"]:
        if label == "u":
            verts.append("u")
            continue
        m = _LABEL.match(label)
        require(m and m.group(2) == "1" and 1 <= int(m.group(1)) <= len(a),
                f"bad circuit vertex {label!r}")
        verts.append(int(m.group(1)) - 1)
    require(len(verts) >= 2, "circuit has fewer than two vertices")
    try:
        length = sum((model.edge_length(a, d, verts[i], verts[(i + 1) % len(verts)])
                      for i in range(len(verts))), start=ZERO)
    except KeyError:
        raise Mismatch("circuit uses a pair that is not an edge") from None
    require(length < 0, f"circuit length {length} is not negative")
    require(length == frac(data["length"]), "reported circuit length is wrong")


def check_violated(ch, d, data) -> None:
    """A reported violated inequality: right-hand side recomputed from the
    model's counterpart and cycle, and really violated by ``d``."""
    a = ch.counterpart()
    users = [u - 1 for u in data["users"]]
    rhs = frac(data["rhs"])
    if data["cycle"] is None:
        require(len(users) == 1 and rhs == a[users[0]][users[0]],
                "per-user bound has the wrong right-hand side")
    else:
        cyc = [u - 1 for u in data["cycle"]]
        require(sorted(cyc) == users and len(set(cyc)) == len(cyc),
                "cycle and users disagree")
        require(rhs == model.cycle_rhs(a, cyc), "cycle bound has the wrong right-hand side")
    require(sum((d[i] for i in users), start=ZERO) > rhs, "inequality is not violated")


def _is_feasible(call, ch, d) -> bool:
    region = call.expect.get("region")
    if region is not None:
        return region.contains(d)
    return model.shortest_paths(ch, d) is not None


def _feasible(call, ch, code, doc):
    d = list(call.target)
    ok = _is_feasible(call, ch, d)
    require(doc["feasible"] is ok and code == (0 if ok else 1),
            f"verdict {doc['feasible']} (exit {code}), model says {ok}")
    if ok:
        r = vec(doc["l_dst"])
        require(all(x <= 0 for x in r), "shortest-path allocation has r > 0")
        require(all(x >= t for x, t in zip(model.achieved(ch, r), d)),
                "shortest-path allocation misses the target")
        require(r == model.shortest_paths(ch, d), "shortest-path lengths differ from the model")
        return
    check_violated(ch, d, doc["violated_constraint"])
    check_circuit(ch.counterpart(), d, doc["negative_cycle"])


def _region(call, ch, code, doc):
    require(code == 0, f"exit {code}")
    region = call.expect["region"]
    cons = region.bounds()
    a = ch.counterpart()
    got = set()
    for c in doc["constraints"]:
        users = tuple(u - 1 for u in c["users"])
        rhs = frac(c["rhs"])
        if c["cycle"] is not None:
            cyc = [u - 1 for u in c["cycle"]]
            require(tuple(sorted(cyc)) == users and rhs == model.cycle_rhs(a, cyc),
                    f"exported bound for cycle {c['cycle']} is wrong")
        got.add((users, rhs))
    require(len(got) == len(doc["constraints"]), "exported list has duplicates")
    require(got == cons, f"exported {len(got)} bounds, model has {len(cons)}")
    if any(rhs < 0 for _, rhs in cons):
        require(doc.get("empty") is True, "empty region not reported")
        return
    if "optimization_skipped" in doc:
        require(ch.K >= 5, f"optima refused at K = {ch.K}")
        return
    x = vec(doc["sum_gdof_maximizer"])
    require(all(v >= 0 for v in x) and region.contains(x), "sum maximizer is infeasible")
    require(sum(x, start=ZERO) == frac(doc["sum_gdof"]), "sum GDoF is not the maximizer's sum")
    require(region.sum_optimal(x), "sum maximizer has no optimality certificate")
    sym = min(rhs / len(users) for users, rhs in cons)
    require(frac(doc["symmetric_gdof"]) == sym, "symmetric GDoF is not tight")


def _pareto(call, ch, code, doc):
    d = list(call.target)
    region = call.expect["region"]
    inside = region.contains(d)
    require(doc["member"] is inside, f"membership {doc['member']}, model says {inside}")
    if not inside:
        require(code == 1 and doc["pareto"] is False, "non-member reported Pareto")
        check_violated(ch, d, doc["violated_constraint"])
        return
    tight = region.tight_users(d)
    is_pareto = len(tight) == ch.K
    require(doc["pareto"] is is_pareto and code == (0 if is_pareto else 1),
            f"Pareto {doc['pareto']} (exit {code}), model says {is_pareto}")
    if not is_pareto:
        require(doc["improvable_users"] == [k + 1 for k in range(ch.K) if k not in tight],
                "wrong improvable users")


def _power(call, ch, code, doc):
    d = list(call.target)
    active = [k for k in range(ch.K) if d[k] > 0]
    sub = ch.sub(active) if len(active) < ch.K else ch
    ds = [d[k] for k in active]
    sp = model.shortest_paths(sub, ds)
    require(doc["feasible"] is (sp is not None) and code == (0 if sp is not None else 1),
            f"verdict {doc['feasible']} (exit {code}), model says {sp is not None}")
    if sp is None:
        check_circuit(sub.counterpart(), ds, doc["negative_cycle"])
        return
    alloc = doc["allocation"]
    require([k + 1 for k in range(ch.K) if k not in active] == doc["silent_users"]
            and all((alloc[k] == "silent") == (k not in active) for k in range(ch.K)),
            "wrong silent users")
    r = [frac(alloc[k]) for k in active]
    require(all(x <= 0 for x in r), "allocation has r > 0")
    got = model.achieved(sub, r)
    reported = vec(doc["achieved"])
    require(reported == [got[active.index(k)] if k in active else ZERO for k in range(ch.K)],
            "reported achieved GDoF differs from the model")
    require(all(g >= t for g, t in zip(got, ds)), "allocation misses the target")
    minimal = model.minimal_allocation(sub, ds)
    require(all(a >= b for a, b in zip(sp, minimal)), "model sp below the minimal allocation")
    if call.alg == "sp":
        require(r == sp, "sp allocation differs from the model's shortest paths")
    elif call.alg == "gsfpc":
        _check_gsfpc(sub, ds, r, sp, minimal, doc["trace"])
    else:
        require(r == minimal, f"{call.alg} is not the componentwise-minimal allocation")
        multi = any(n > 1 for n in sub.state_counts)
        require(doc["via_counterpart"] is (call.alg == "ggpc" and multi),
                "wrong via_counterpart flag")
        _check_ggpc_trace(sub, ds, r, sp, doc["trace"])


def _check_gsfpc(ch, d, r, sp, minimal, trace):
    its = [vec(x) for x in trace["iterates"]]
    require(trace["converged"] is True and its[0] == sp and its[-1] == r
            and len(its) >= 2 and its[-2] == its[-1], "gsfpc trace is not a converged run from sp")
    for prev, nxt in zip(its, its[1:]):
        require(all(b <= a for a, b in zip(prev, nxt)), "gsfpc iterates increase")
    for it in its:
        require(all(g >= t for g, t in zip(model.achieved(ch, it), d)),
                "a gsfpc iterate misses the target")
    require(model.unilateral(ch, r, d) == r, "gsfpc result is not a unilateral fixed point")
    require(all(a >= b for a, b in zip(r, minimal)), "gsfpc result below the minimal allocation")


def _check_ggpc_trace(ch, d, r, sp, trace):
    require(vec(trace["initial"]) == sp, "ggpc does not start from sp")
    fixed = set()
    for upd in trace["updates"]:
        alloc = vec(upd["allocation"])
        got = model.achieved(ch, alloc)
        require(got == vec(upd["achieved"]), "trace achieved GDoF differs from the model")
        fixed.update(u - 1 for u in upd["fixed"])
        require(all(got[k] == d[k] for k in fixed), "a frozen user is off its target")
    require(fixed == set(range(ch.K)), "ggpc trace leaves users unfixed")
    require(vec(trace["updates"][-1]["allocation"]) == r, "trace ends off the allocation")


def _check_rates(call, ch, code, out):
    require(code == 0, f"exit {code}")
    rows = list(csv.reader(io.StringIO(out)))
    require(rows and rows[0] == RATE_HEADER, "bad CSV header")
    d = list(call.target)
    allocs = {"full_power": [ZERO] * ch.K}
    for alg in call.alg.split(","):
        allocs[alg] = (model.shortest_paths(ch, d) if alg == "sp"
                       else model.minimal_allocation(ch, d))
    names = sorted(n for n, r in allocs.items() if n == "full_power" or any(r))
    expected = [(n, P, k) for n in names for P in call.powers for k in range(ch.K)]
    body = rows[1:]
    require(len(body) == len(expected), f"{len(body)} rows, expected {len(expected)}")
    cache = {}
    for row, (name, P, k) in zip(body, expected):
        values = [float(x) for x in row[3:]]
        require(all(math.isfinite(v) for v in values), "non-finite value")
        require(row[0] == name and float(row[1]) == P and int(row[2]) == k + 1,
                f"unexpected row {row[:3]}")
        if (name, P) not in cache:
            cache[name, P] = model.rate_row(ch, allocs[name], P)
        rates, total_rate, min_rate, power, eff = cache[name, P]
        for got, want in zip(values, (rates[k], total_rate, min_rate, power, eff)):
            require(math.isclose(got, want, rel_tol=RATE_RTOL, abs_tol=1e-12),
                    f"{name} at P={P:g}: {got} vs model {want}")


CHECKS = {
    "validate": _validate,
    "tin-check": _tin_check,
    "counterpart": _counterpart,
    "feasible": _feasible,
    "region": _region,
    "pareto": _pareto,
    "power": _power,
}
