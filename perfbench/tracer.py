"""Span tracer that measures the fsing layers from outside the package.

`install(tracer)` wraps the public functions of every fsing module and a few
hot class methods, and rebinds each wrapper wherever the original object is
held: the defining module, every module that did `from .x import name`, and
the package namespace.  Class methods are replaced on the class, so calls
through instances and through `self` are traced too.  `uninstall` restores
every original.

A layer is one fsing module.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the duration of the root spans.  Aggregates are folded in when a span ends;
the span records themselves are kept in memory, up to a cap, and written out
by the caller at exit.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

# Called once per monomial comparison or grid step: a span there would cost
# more than the work it measures, so their time stays with the caller.
SKIP = {"polyring.grevlex_key", "rationals.frac_ceil"}

# Class methods traced, by (module, class, method).
METHODS = [
    ("polyring", "Poly", "__add__"),
    ("polyring", "Poly", "__mul__"),
    ("polyring", "Poly", "__neg__"),
    ("polyring", "Poly", "__pow__"),
    ("polyring", "Poly", "scale"),
    ("polyring", "Poly", "term_mul"),
    ("polyring", "Poly", "split_extra"),
    ("polyring", "Poly", "lift_to"),
    ("polyring", "PowerCache", "power"),
    ("modgb", "Submodule", "reduced_basis"),
    ("modgb", "Submodule", "normal_form"),
]

MUL = "polyring.Poly.__mul__"
GROEBNER = "modgb.groebner"  # the first reduced_basis call on a Submodule
BASIS_CACHED = "modgb.Submodule.reduced_basis"  # every later call

SPAN_CAP = 100_000


class Frame:
    __slots__ = ("name", "id", "parent", "start", "child_s", "muls")

    def __init__(self, name, span_id, parent, start):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.start = start
        self.child_s = 0.0
        self.muls = 0


class Tracer:
    """Nested spans with self-time and call-count aggregates.

    `tag` labels the spans of the current problem (its problem class) so that
    shares can be reported per class; `problem` is the problem id stored in
    each span record.
    """

    def __init__(self, clock=time.perf_counter, span_cap=SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.problem = ""
        self.tag = ""
        self.seen_submodules = {}  # id -> weakref of each Submodule whose basis was asked for
        self.calls = defaultdict(int)  # (tag, span name) -> calls
        self.self_s = defaultdict(float)  # (tag, span name) -> self seconds
        self.counters = defaultdict(float)  # counter name -> total
        self.root_s = 0.0  # summed duration of root spans

    def enter(self, name: str) -> Frame:
        parent = self.stack[-1].id if self.stack else -1
        frame = Frame(name, self.next_id, parent, self.clock())
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: Frame) -> None:
        end = self.clock()
        self.stack.pop()
        dur = end - frame.start
        key = (self.tag, frame.name)
        self.calls[key] += 1
        self.self_s[key] += dur - frame.child_s
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += dur
            parent.muls += frame.muls + (frame.name == MUL)
        else:
            self.root_s += dur
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (frame.id, frame.parent, frame.name, frame.start, end, self.problem)
            )
        else:
            self.dropped += 1

    def begin(self, problem: str, tag: str) -> None:
        """Start the spans of a new problem, dropping any frames an
        interrupted solve left open."""
        self.problem, self.tag = problem, tag
        self.stack.clear()
        self.seen_submodules.clear()

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for (_, name), s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def by_tag(self) -> dict:
        """{tag: {span name: self seconds}}."""
        out = defaultdict(lambda: defaultdict(float))
        for (tag, name), s in self.self_s.items():
            out[tag][name] += s
        return out

    def total_calls(self, name: str) -> int:
        return sum(c for (_, n), c in self.calls.items() if n == name)

    def total_self(self, name: str) -> float:
        return sum(s for (_, n), s in self.self_s.items() if n == name)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tproblem\n")
            for rec in self.spans:
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%s\n" % rec)
            if self.dropped:
                fh.write(f"# {self.dropped} further spans not kept\n")


def _terms(vectors) -> int:
    return sum(len(p.terms) for v in vectors for p in v.entries)


def _plain(tracer: Tracer, name: str, fn):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame)

    return wrapper


def _counting(tracer: Tracer, name: str, fn):
    """Wrappers that also count the work a call receives or produces.

    The counts are taken inside the span, so their cost is charged to the
    span that caused it rather than to its caller.
    """
    enter, leave, counters = tracer.enter, tracer.leave, tracer.counters

    if name == MUL:
        def wrapper(a, b):
            frame = enter(name)
            try:
                counters["polyring.mul.term_pairs"] += len(a.terms) * len(b.terms)
                return fn(a, b)
            finally:
                leave(frame)

    elif name == "polyring.Poly.__add__":
        def wrapper(a, b):
            frame = enter(name)
            try:
                counters["polyring.add.terms_in"] += len(a.terms) + len(b.terms)
                return fn(a, b)
            finally:
                leave(frame)

    elif name == "polyring.PowerCache.power":
        def wrapper(cache, n):
            frame = enter(name)
            try:
                result = fn(cache, n)
                if frame.muls == 0:
                    counters["polyring.power.hits"] += 1
                return result
            finally:
                leave(frame)

    elif name == BASIS_CACHED:
        seen = tracer.seen_submodules

        def wrapper(module):
            ref = seen.get(id(module))
            first = ref is None or ref() is not module
            if first:
                seen[id(module)] = weakref.ref(module)
            frame = enter(GROEBNER if first else BASIS_CACHED)
            try:
                basis = fn(module)
                if first:
                    counters["modgb.groebner.basis_terms"] += _terms(basis)
                return basis
            finally:
                leave(frame)

    elif name == "frobenius.frobenius_root":
        def wrapper(N, *args, **kwargs):
            frame = enter(name)
            try:
                counters["frobenius.root.gens_in"] += len(N.generators)
                out = fn(N, *args, **kwargs)
                counters["frobenius.root.gens_out"] += len(out.generators)
                return out
            finally:
                leave(frame)

    elif name == "modgb.prune_generators":
        def wrapper(N):
            frame = enter(name)
            try:
                counters["modgb.prune.gens_in"] += len(N.generators)
                out = fn(N)
                counters["modgb.prune.gens_out"] += len(out.generators)
                return out
            finally:
                leave(frame)

    elif name == "listmod.h_expand":
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                fam = fn(*args, **kwargs)
                counters["listmod.h_expand.terms_out"] += sum(
                    len(p.terms) for mat in fam.table.values() for row in mat for p in row
                )
                return fam
            finally:
                leave(frame)

    else:
        return _plain(tracer, name, fn)
    return functools.wraps(fn)(wrapper)


def fsing_modules() -> dict:
    return {
        name: mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fsing" or name.startswith("fsing."))
    }


def traced_functions() -> dict:
    """{span name: (owner, attribute, original)} for every traced callable."""
    out = {}
    for modname, mod in fsing_modules().items():
        short = modname.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != modname:
                continue  # imported here; traced where it is defined
            name = f"{short}.{attr}"
            if name not in SKIP:
                out[name] = (mod, attr, obj)
    for short, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"fsing.{short}"], cls_name)
        out[f"{short}.{cls_name}.{attr}"] = (cls, attr, vars(cls)[attr])
    return out


class Installation:
    """The bindings replaced by `install`, so that `uninstall` can restore them."""

    def __init__(self):
        self.replaced: list[tuple] = []  # (owner, attribute, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced callable and rebind it at every module that holds it."""
    inst = Installation()
    functions = traced_functions()
    wrappers = {}
    for name, (owner, attr, original) in functions.items():
        wrapper = _counting(tracer, name, original)
        wrappers[id(original)] = (original, wrapper)
        setattr(owner, attr, wrapper)
        inst.replaced.append((owner, attr, original))
    # `from .frobenius import frobenius_root` and the package re-exports hold
    # the original object under their own names: rebind those too.
    for mod in fsing_modules().values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                inst.replaced.append((mod, attr, obj))
    return inst
