"""Independent straight-line plan simulator used as a test oracle.

Deliberately written from the ground rules, without reusing the library's
validator: same semantics, different code.  Violations are reported as
(step_index, kind) pairs.
"""

PRECONDITION = "PRECONDITION"
SELF_JOIN = "SELF_JOIN"
EFFECT_CONFLICT = "EFFECT_CONFLICT"
PASS_CONSTRAINT = "PASS_CONSTRAINT"
UNRUNNABLE = "UNRUNNABLE"


def _ground(pred, action):
    env = {name: value for name, value in action.args}
    env["AGENT"] = action.agent_id
    out = []
    for term in pred.args:
        t = term[1:] if term.startswith("?") else term
        out.append(env[t] if t in env else t)
    return (pred.name, tuple(out))


def _slot_of(fact):
    name, args = fact
    if name == "at":
        return ("at", args[0])
    if name in ("ball_at", "ball_held_by"):
        return ("ball",)
    return (name,) + args


def _apply(facts, adds, deletes):
    facts = set(facts)
    for fact in deletes:
        facts.discard(fact)
    for fact in sorted(adds, key=lambda f: f"{f[0]}({','.join(f[1])})"):
        slot = _slot_of(fact)
        facts = {f for f in facts if _slot_of(f) != slot}
        facts.add(fact)
    return facts


def _restricted(action_id):
    if "receive" in action_id:
        return False
    return "pass" in action_id or "kick" in action_id


def _passed_by_another(action):
    # The robot that runs a pass kicks the ball it holds, so the pass must
    # be its own: SENDER is the acting agent.
    return (action.action_id == "pass_the_ball"
            and dict(action.args)["SENDER"] != action.agent_id)


def _check_action(action, schema, facts, index, found):
    if _passed_by_another(action):
        found.append((index, UNRUNNABLE))
    for pred in schema.preconditions:
        fact = _ground(pred, action)
        present = fact in facts
        if pred.negated == present:
            found.append((index, PRECONDITION))
    if _restricted(action.action_id):
        if ("has_passed", (action.agent_id,)) in facts:
            found.append((index, PASS_CONSTRAINT))


def _effects_of(action, schema):
    adds, deletes = set(), set()
    for pred in schema.effects:
        fact = _ground(pred, action)
        if pred.negated:
            deletes.add(fact)
        else:
            adds.add(fact)
    return adds, deletes


def simulate(plan, schemas, initial_facts):
    """Returns (sorted violation list, final fact set).

    `initial_facts` is a set of (name, args) tuples.
    """
    facts = set(initial_facts)
    found = []
    for index, step in enumerate(plan.steps, start=1):
        if step.kind == "JOIN":
            agents = [a.agent_id for a in step.actions]
            if len(set(agents)) != len(agents):
                found.append((index, SELF_JOIN))
            adds, deletes = set(), set()
            for action in step.actions:
                _check_action(action, schemas[action.action_id], facts, index, found)
                a, d = _effects_of(action, schemas[action.action_id])
                adds |= a
                deletes |= d
            if adds & deletes:
                found.append((index, EFFECT_CONFLICT))
            facts = _apply(facts, adds, deletes)
        else:
            action = step.actions[0]
            _check_action(action, schemas[action.action_id], facts, index, found)
            adds, deletes = _effects_of(action, schemas[action.action_id])
            facts = _apply(facts, adds, deletes)
    return sorted(found), facts
