"""Span tracing at the boundaries of the badapprox modules.

While a Tracer is installed, the public functions listed in TARGETS are
replaced by timing wrappers in every loaded ``badapprox`` module that bound
them, and the policy classes are replaced by factories whose objects wrap
the real policy.  Uninstalling restores every original binding, so the
program's own files are never edited and an untraced pass runs the
original code.

A span is opened when a wrapped call starts and closed when it returns.  Its
self time is its duration minus the durations of the spans it caused.  Spans
are folded into per-name totals as they close, so memory does not grow with
the number of half-moves.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.calls = defaultdict(int)  # span name -> closed spans
        self.counters = defaultdict(int)  # work counts reported by TARGETS
        self._stack: list[list] = []  # open spans: [name, start, child time]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name = frame[0]
        self.total[name] += duration
        self.self_time[name] += duration - frame[2]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sys.modules.items()
            if (name == "badapprox" or name.startswith("badapprox.")) and mod is not None
        ]
        for module_name, attr, span, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span, count))
                else:
                    wrapped = self._wrap(raw, span, count)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            if isinstance(original, type):
                replacement = self._policy_factory(original, span)
            else:
                replacement = self._wrap(original, span, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, replacement)

    def uninstall(self) -> None:
        while self._restore:
            target, key, value = self._restore.pop()
            setattr(target, key, value)

    def _wrap(self, fn, span, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(span(args) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if count is not None:
                for key, value in count(args, result).items():
                    tracer.counters[key] += value
            return result

        return wrapper

    def _policy_factory(self, cls, span: str):
        tracer = self

        def factory(*args, **kwargs):
            return TracedPolicy(tracer, span, cls(*args, **kwargs))

        return factory


class TracedPolicy:
    """Times each call of a policy and forwards everything else to it.

    The engine reads a policy's ``last_note`` after each call and resets it;
    both the read and the reset go to the wrapped policy, so the notes in a
    traced trace are byte-identical to the untraced ones.
    """

    def __init__(self, tracer: Tracer, span: str, inner):
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_inner", inner)

    def __call__(self, state):
        frame = self._tracer.open(self._span)
        try:
            return self._inner(state)
        finally:
            self._tracer.close(frame)

    @property
    def last_note(self):
        return self._inner.last_note

    @last_note.setter
    def last_note(self, value):
        self._inner.last_note = value

    def __getattr__(self, name):
        return getattr(self._inner, name)


# -- work counts -------------------------------------------------------------


def _canonical_box(t: int, n: int) -> int:
    """Nonzero integer vectors of sup-norm <= t, one per +/- pair."""
    return ((2 * t + 1) ** n - 1) // 2


def _records(args, result):
    theta, t_max = args[0], args[1]
    return {
        "resonance.records": len(result),
        "resonance.candidates": _canonical_box(t_max, theta.n),
    }


def _records_cf(args, result):
    return {"resonance.records": len(result)}


def _decay(args, result):
    theta, t_max = args[0], args[2]
    return {"resonance.candidates": _canonical_box(t_max, theta.n)}


def _plane_budget(args, result):
    return {"schedule.plane_budget": result.plane_budget}


def _half_moves(args, result):
    return {"engine.half_moves": len(result.moves)}


def _replayed(args, result):
    return {"engine.replayed_half_moves": len(result.moves)}


def _trace_bytes(args, result):
    return {"engine.trace_bytes": len(result)}


def _selection(args, result):
    return {"escape.candidates": result.candidates_tried}


def _entries(args, result):
    return {"strategy.certificate_entries": len(result.entries)}


def _scan(args, result):
    m = args[0].m
    points = (2 * result.limit + 1) ** m - 1
    return {"certify.points": points, f"certify.points.m{m}": points}


def _by_dimension(prefix):
    return lambda args: f"{prefix}.n{args[3]}"


def _by_rows(prefix):
    return lambda args: f"{prefix}.m{args[0].m}"


#: (owning module, attribute, span name or a function of the call's
#: arguments giving it, work-count function or None).  Spans are named
#: "<layer>.<what>"; the layer is the owning module.
TARGETS = [
    ("badapprox.resonance", "best_approximations", "resonance.records", _records),
    ("badapprox.resonance", "best_approximations_cf", "resonance.records", _records_cf),
    ("badapprox.resonance", "verify_decay_bound", "resonance.decay_check", _decay),
    ("badapprox.resonance", "lacunary_normalize", "resonance.lacunary", None),
    ("badapprox.schedule", "derive_params", _by_dimension("schedule.derive"), _plane_budget),
    ("badapprox.schedule", "block_schedule", "schedule.block_schedule", None),
    ("badapprox.schedule", "dangerous_hyperplanes", "schedule.dangerous_hyperplanes", None),
    ("badapprox.engine", "run_game", "engine.run_game", _half_moves),
    ("badapprox.engine", "replay", "engine.replay", _replayed),
    ("badapprox.engine", "GameTrace.dumps", "engine.dumps", _trace_bytes),
    ("badapprox.engine", "GameTrace.loads", "engine.loads", None),
    ("badapprox.adversaries", "GreedyBlack", "adversaries.greedy", None),
    ("badapprox.adversaries", "RandomBlack", "adversaries.random", None),
    ("badapprox.escape", "select_cap", "escape.select_cap", _selection),
    ("badapprox.escape", "AvoidanceDrive", "escape.drive", None),
    ("badapprox.strategy", "WhiteStrategy", "strategy.white", None),
    ("badapprox.strategy", "gather_block_planes", "strategy.gather", None),
    ("badapprox.strategy", "certificate", "strategy.certificate", _entries),
    ("badapprox.strategy", "build_strategy", "strategy.build", None),
    ("badapprox.strategy", "run_constructed_game", "strategy.run_constructed_game", None),
    ("badapprox.certify", "theorem1_constant", _by_rows("certify.theorem1"), _scan),
    ("badapprox.certify", "jarnik_constant", _by_rows("certify.jarnik"), _scan),
    ("badapprox.certify", "resonance_margin", "certify.margin", None),
    ("badapprox.cli", "main", "cli.main", None),
]

LAYERS = (
    "resonance", "schedule", "engine", "adversaries",
    "escape", "strategy", "certify", "cli",
)
