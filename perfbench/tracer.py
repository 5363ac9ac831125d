"""Spans around mesonbell's public calls, recorded from outside the package.

``Tracer.install`` replaces each traced function in every loaded mesonbell
module that holds it (``mesonbell.cli.simulate``, ``mesonbell.montecarlo.simulate``,
``mesonbell.simulate`` ...), so a call is traced wherever its caller looks it
up.  Spans stay in memory as [id, name, start, end, parent, attrs] and are
written out once, when the run ends.  Default arguments bound at definition
time (``integrated_ratio``'s providers) are not rewritten, so no span is
recorded per integrand evaluation.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function, and its span name.
TRACED = (
    ("mesonbell.quantum", "qm_like_joint", "quantum.qm_like_joint"),
    ("mesonbell.quantum", "integrated_ratio", "quantum.integrated_ratio"),
    ("mesonbell.lrm", "joint_probabilities", "lrm.joint_probabilities"),
    ("mesonbell.lrm", "lrm_like_joint", "lrm.lrm_like_joint"),
    ("mesonbell.fitting", "fit_constant_weights", "fitting.fit_constant_weights"),
    ("mesonbell.fitting", "evaluate_gap", "fitting.evaluate_gap"),
    ("mesonbell.montecarlo", "simulate", "montecarlo.simulate"),
)


class Tracer:
    def __init__(self, tag: str = ""):
        self.tag = tag
        self.spans: list[list] = []
        self._stack: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span (unless paused); attrs(result) may add attributes."""
        if self.paused:
            return fn(*args, **kwargs)
        span_id = f"{self.tag}{len(self.spans)}"
        record = [span_id, name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, {}]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record[5].update(attrs(result))
        return result

    def _wrap(self, name, fn):
        if name == "quantum.integrated_ratio":
            @functools.wraps(fn)
            def wrapper(params, *args, **kwargs):
                custom = len(args) >= 1 or "like_joint" in kwargs or "unlike_joint" in kwargs
                span = name + ("_custom" if custom else "_default")
                return self.call(span, fn, params, *args, **kwargs)
        elif name == "fitting.fit_constant_weights":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, attrs=lambda r: {"iterations": r.iterations}, **kwargs)
        elif name == "montecarlo.simulate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, attrs=lambda r: {"n_events": r.n_events}, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mesonbell" or key.startswith("mesonbell."))]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        fitting = sys.modules["mesonbell.fitting"]
        tables = fitting.FitProblem.tables

        def traced_tables(problem):
            return self.call("fitting.tables", tables, problem)

        self._patch(fitting.FitProblem, "tables", traced_tables)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()


def summarize(spans) -> dict:
    """Per-name self and total time, per-name call counts and the mc-command breakdown.

    Self time is a span's duration minus its children's (calls are
    sequential, so children never overlap).
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[str, float] = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_s[s[1]] = self_s.get(s[1], 0.0) + (s[3] - s[2]) - child_time.get(s[0], 0.0)
        total_s[s[1]] = total_s.get(s[1], 0.0) + (s[3] - s[2])
        calls[s[1]] = calls.get(s[1], 0) + 1

    def under_mc(s):
        parent = s[4]
        while parent is not None:
            if by_id[parent][1] == "cli.mc":
                return True
            parent = by_id[parent][4]
        return False

    mc_simulations = [s for s in spans if s[1] == "montecarlo.simulate" and under_mc(s)]
    return {
        "self_s": self_s,
        "total_s": total_s,
        "objective_evals": sum(s[5].get("iterations", 0) for s in spans),
        "mc_commands": calls.get("cli.mc", 0),
        "mc_simulate_calls": len(mc_simulations),
        "mc_events": sum(s[5]["n_events"] for s in mc_simulations),
    }
