"""Correctness checks, computed apart from the program where possible.

Scenarios, scenario distances, initial facts and argmins are recomputed here
from the waypoint coordinates and the generated world specs; plans are
replayed through the independent STRIPS simulator in tests/strips_oracle.py.
Each check returns a list of error strings (empty when the output is right).
"""
from __future__ import annotations

import hashlib
import math
import re

UNMATCHED_PENALTY = 3.0
CONTROL_RADIUS = 0.3
TIE_EPS = 1e-9

_EVENT_RE = re.compile(r"t=(\d+\.\d\d) EVENT (\w+) (\S+)(?: (.*))?$")


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def domain_spec(domain):
    return {
        "waypoints": {t: list(w.position) for t, w in domain.waypoints.items()},
        "waypoint_order": list(domain.waypoints),
        "roles": list(domain.roles),
    }


def nearest_token(pos, dom):
    best, best_d = None, None
    for token in sorted(dom["waypoints"]):
        d = dist(pos, dom["waypoints"][token])
        if best_d is None or d < best_d:
            best, best_d = token, d
    return best


def scenario_of(spec, dom):
    """[subject, token] pairs: own roles in domain order, then opponents in
    field order (x, y, id), then BALL."""
    own = {role: (x, y) for _, team, role, x, y in spec["agents"] if team == "OWN"}
    out = [[r, nearest_token(own[r], dom)] for r in dom["roles"] if r in own]
    opps = sorted((x, y, aid) for aid, team, _, x, y in spec["agents"] if team == "OPPONENT")
    out += [[f"OPPONENT_{i + 1}", nearest_token((x, y), dom)] for i, (x, y, _) in enumerate(opps)]
    out.append(["BALL", nearest_token(spec["ball"], dom)])
    return out


def scenario_distance(a, b, dom):
    """Summed in the program's order (a's subjects, then b's unmatched ones),
    so the same inputs give the same float to the last bit."""
    pa = {s: dom["waypoints"][t] for s, t in a}
    pb = {s: dom["waypoints"][t] for s, t in b}
    total = 0.0
    for subject, pos in pa.items():
        total += dist(pos, pb[subject]) if subject in pb else UNMATCHED_PENALTY
    for subject in pb:
        if subject not in pa:
            total += UNMATCHED_PENALTY
    return total


def initial_facts(spec, dom):
    """Oracle facts: own roles at their nearest waypoint; the ball held by the
    nearest own agent within the control radius, else at its waypoint."""
    facts = set()
    holder, holder_d = None, None
    for _, team, role, x, y in spec["agents"]:
        if team != "OWN":
            continue
        facts.add(("at", (role, nearest_token((x, y), dom))))
        d = dist((x, y), spec["ball"])
        if d <= CONTROL_RADIUS and (holder_d is None or d < holder_d):
            holder, holder_d = role, d
    if holder is not None:
        facts.add(("ball_held_by", (holder,)))
    else:
        facts.add(("ball_at", (nearest_token(spec["ball"], dom),)))
    return facts


def oracle_violations(plan, schemas, spec, dom):
    import strips_oracle

    found, _ = strips_oracle.simulate(plan, schemas, initial_facts(spec, dom))
    return found


# --- golden CLI --------------------------------------------------------------

def check_generate(stdout, manifest_bytes, plan_violations):
    errors = []
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("manifest_hash "):
        return ["generate: no manifest_hash line"]
    if lines[0].split()[1] != hashlib.sha256(manifest_bytes).hexdigest():
        errors.append("generate: manifest_hash is not the sha256 of the manifest")
    if plan_violations:
        errors.append(f"generate: plan violates the oracle: {plan_violations}")
    return errors


def check_evaluate(stdout, golden_report):
    if stdout.encode() != golden_report:
        return [f"evaluate: output differs from the golden report: {stdout!r}"]
    return []


# --- matches -------------------------------------------------------------------

def check_match(result, timeout):
    """Trace invariants of one MatchResult."""
    errors = []
    events = []
    for line in result.trace:
        m = _EVENT_RE.match(line)
        if not m:
            return [f"unparseable trace line {line!r}"]
        events.append((float(m.group(1)), m.group(2), m.group(4) or ""))
    times = [t for t, _, _ in events]
    if any(b < a for a, b in zip(times, times[1:])):
        errors.append("trace times decrease")
    if times and times[-1] > timeout:
        errors.append("trace ends after the timeout")
    if result.passes != sum(1 for _, kind, _ in events if kind == "PASS_COMPLETE"):
        errors.append("passes differs from the PASS_COMPLETE count")
    goals = [(t, details) for t, kind, details in events if kind == "GOAL"]
    if result.success != bool(goals):
        errors.append("success disagrees with the GOAL lines")
    for t, details in goals:
        if result.scoring_time is None or f"{result.scoring_time:.2f}" != f"{t:.2f}":
            errors.append("scoring_time differs from the GOAL time")
        xy = dict(kv.split("=") for kv in details.split())
        if not (float(xy["x"]) >= 4.5 and abs(float(xy["y"])) <= 0.75):
            errors.append(f"GOAL outside the goal mouth: {details}")
    return errors


def tick_counts(trace, tick):
    """(ticks run, ticks up to the last event that is not TIMEOUT)."""
    last = useful = 0.0
    for line in trace:
        m = _EVENT_RE.match(line)
        t = float(m.group(1))
        last = t
        if m.group(2) != "TIMEOUT":
            useful = t
    return round(last / tick), round(useful / tick)


# --- plan library ----------------------------------------------------------------

def argmin_record(records, query, dom):
    """Brute-force nearest record: minimal distance, then created_at, then
    frame_id.  Distances are compared exactly, as select_plan compares them."""
    return min((scenario_distance(r[2], query, dom), r[1], r[0]) for r in records)[2]


def check_select(answers, records, queries, dom):
    errors = []
    for i, (got, spec) in enumerate(zip(answers, queries)):
        if got is None:  # the query failed and is counted in `failed`
            continue
        want = argmin_record(records, scenario_of(spec, dom), dom)
        if got != want:
            errors.append(f"query {i}: select_plan gave {got}, brute force gives {want}")
    return errors


def check_clusters(clusters, records, k, dom):
    """clusters: [(medoid frame_id, [member frame_ids])].  Sums may be taken
    in another order than the program's, so they compare within TIE_EPS."""
    errors = []
    scen = {r[0]: r[2] for r in records}
    members = [f for _, ms in clusters for f in ms]
    if len(clusters) != k:
        errors.append(f"{len(clusters)} clusters, want {k}")
    if sorted(members) != sorted(scen):
        errors.append("clusters do not partition the records")
        return errors
    medoids = [m for m, _ in clusters]
    for m, ms in clusters:
        if m not in ms:
            errors.append(f"medoid {m} is not in its own cluster")
        for f in ms:
            own = scenario_distance(scen[f], scen[m], dom)
            if own > min(scenario_distance(scen[f], scen[o], dom) for o in medoids) + TIE_EPS:
                errors.append(f"{f} is nearer another medoid than {m}")
        sums = {c: sum(scenario_distance(scen[c], scen[o], dom) for o in ms) for c in ms}
        if sums[m] > min(sums.values()) + TIE_EPS:
            errors.append(f"medoid {m} does not minimise its cluster's summed distance")
    return errors


def check_stored(records, frames, loaded, serialize_plan, schemas, dom):
    """records: the round's PlanRecords in frame order; loaded: the records
    load_library read back."""
    errors = []
    if len(records) != len(frames):
        return [f"{len(records)} records stored for {len(frames)} frames"]
    for rec, frame in zip(records, frames):
        fid = frame["frame_id"]
        if rec.frame_id != fid or rec.created_at != frame["created_at"]:
            errors.append(f"{fid}: wrong frame id or created_at")
        if [list(a) for a in rec.scenario.assignments] != frame["scenario"]:
            errors.append(f"{fid}: stored scenario differs from the scripted one")
        if serialize_plan(rec.plan) != frame["plan"] + "\n":
            errors.append(f"{fid}: stored plan differs from the scripted one")
        found = oracle_violations(rec.plan, schemas, frame["spec"], dom)
        if found:
            errors.append(f"{fid}: stored plan violates the oracle: {found}")
    stored = [(r.plan.steps, r.scenario, r.frame_id, r.created_at) for r in records]
    back = [(r.plan.steps, r.scenario, r.frame_id, r.created_at) for r in loaded]
    if stored != back:
        errors.append("load_library(save_library(lib)) differs from lib")
    return errors
