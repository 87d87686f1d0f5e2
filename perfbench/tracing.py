"""Spans around coachplan's public functions, installed from outside.

`Tracer.install()` replaces each target function wherever a loaded module
holds it (the defining module, the package namespace and every caller that
imported the name), so calls are traced as their callers see them.  Each
call becomes a span [name, start_ns, end_ns, parent, group, attrs]; spans
stay in memory until `dump()` writes them out.  `uninstall()` restores the
originals.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter_ns

import checks

# (module, attribute, span name)
TARGETS = (
    ("coachplan.domain", "parse_world_file", "domain.parse_world"),
    ("coachplan.domain", "scenario_from_world", "domain.scenario_from_world"),
    ("coachplan.domain", "scenario_distance", "domain.scenario_distance"),
    ("coachplan.planlang", "parse_plan", "planlang.parse"),
    ("coachplan.actions", "build_index", "actions.build_index"),
    ("coachplan.actions", "retrieve_actions", "actions.retrieve"),
    ("coachplan.coach", "build_coach_prompt", "coach.build_prompt"),
    ("coachplan.coach", "parse_scenario_block", "coach.parse_response"),
    ("coachplan.coach", "parse_advice_block", "coach.parse_response"),
    ("coachplan.coach", "retrieve_roles", "coach.retrieve_roles"),
    ("coachplan.refine", "build_grounding_prompt", "refine.grounding_prompt"),
    ("coachplan.refine", "build_sync_prompt", "refine.sync_prompt"),
    ("coachplan.refine", "initial_state_from_world", "refine.initial_state"),
    ("coachplan.refine", "validate_plan", "refine.validate"),
    ("coachplan.providers", "ReplayChatProvider.complete", "providers.replay"),
    ("coachplan.providers", "Transcript.load", "providers.transcript_load"),
    ("coachplan.pipeline", "run_generate", "pipeline.generate"),
    ("coachplan.executor", "compile_fsm", "executor.compile_fsm"),
    ("coachplan.executor", "run_match", "executor.run_match"),
    ("coachplan.library", "add", "library.add"),
    ("coachplan.library", "save_library", "library.save"),
    ("coachplan.library", "load_library", "library.load"),
    ("coachplan.library", "select_plan", "library.select"),
    ("coachplan.library", "cluster_scenarios", "library.cluster"),
)


def _match_ticks(args, kwargs, result):
    """Ticks run and useful ticks, read from the match trace."""
    config = args[3] if len(args) > 3 else kwargs["config"]
    return checks.tick_counts(result.trace, config.tick)


class Tracer:
    def __init__(self):
        self.spans = []
        self.group = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = _match_ticks if name == "executor.run_match" else None

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.group, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coachplan" or n.startswith("coachplan.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def uninstall(self):
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def dump(self, path, **meta):
        with open(path, "w") as fh:
            json.dump(dict(meta, spans=self.spans), fh)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans, out=None):
    """name -> {"calls", "self_ns", "ticks", "useful"}, added into `out`."""
    out = {} if out is None else out
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "self_ns": 0, "ticks": 0, "useful": 0})
        row["calls"] += 1
        row["self_ns"] += own
        if span[5] is not None:
            row["ticks"] += span[5][0]
            row["useful"] += span[5][1]
    return out
