"""Spans recorded from outside the package.

The benchmark wraps fcmm's module-level functions and classmethods with
spans while a traced round runs, then puts the originals back. A wrapper
replaces every reference to the original function object that the
``fcmm`` modules hold: module globals (``from .objective import
aggregates`` binds a second name in ``fcmm.solvers``) and dict values
(``fcmm.solvers.SOLVERS``). The program itself is not edited, so the
traced round runs the same arithmetic as the untraced one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Span names are ``<module>.<qualified name>`` inside fcmm; a two-part
# qualified name is a classmethod.
TARGETS = (
    "dataset.load_csv",
    "dataset.make_blobs",
    "dataset.standardize",
    "membership.init_random",
    "membership.to_power",
    "membership.MembershipMatrix.from_values",
    "membership.PowerMembership.from_values",
    "membership.validate",
    "objective.aggregates",
    "objective.phi",
    "objective.compute_centers",
    "solvers.update_membership_mm",
    "solvers.update_membership_classic",
    "solvers.update_membership_irw",
    "solvers.irw_auxiliary",
    "solvers.solve_fcm_mm",
    "solvers.solve_fcm_classic",
    "solvers.solve_irw_fcm",
    "cli.execute",
    "cli.write_trace_csv",
    "cli.cmd_compare",
    "oracle.gram_quad_oracle",
    "oracle.gram_vector_oracle",
    "oracle.finite_diff_gradient",
    "oracle.surrogate_argmin_oracle",
    "oracle.descent_chain_audit",
)

LAYERS = ("dataset", "membership", "objective", "solvers", "cli", "oracle")


def _aggregates_flops(data, G, *_args, **_kwargs):
    """Computed flops of ``G' X``: one multiply and one add per n*d*c term."""
    return 2.0 * data.n * data.d * G.c


# Work counted at the span boundary, by span name.
WORK = {"objective.aggregates": _aggregates_flops}


class Tracer:
    """Spans kept in memory as ``[name, start_ns, end_ns, parent]``.

    ``parent`` is the index of the enclosing span, or -1 at the top. The
    program runs one Python thread, so one stack is enough.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.work = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn):
        count_work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self.clock(), 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
                if count_work is not None:
                    self.work[name] += count_work(*args, **kwargs)

        return wrapper

    def self_ns(self):
        """Per span: its duration minus the time its child spans cover.

        Children of one span never overlap (one thread), so the covered
        time is the sum of the direct children's durations.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """``{name: (calls, self_ns)}`` over every recorded span."""
        out = defaultdict(lambda: [0, 0])
        for (name, *_), own in zip(self.spans, self.self_ns()):
            out[name][0] += 1
            out[name][1] += own
        return {name: tuple(v) for name, v in out.items()}

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def wrapper_cost_ns(calls=20_000):
    """Mean time a span wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    start = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    bare = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter_ns() - start - bare) / calls


def _fcmm_namespaces():
    return [vars(mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fcmm" or name.startswith("fcmm."))]


@contextmanager
def traced(tracer, targets=TARGETS):
    """Install span wrappers for ``targets`` and remove them on exit."""
    undo = []
    try:
        for name in targets:
            module, _, qualname = name.partition(".")
            owner = sys.modules[f"fcmm.{module}"]
            if "." in qualname:
                cls, _, attr = qualname.partition(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                setattr(owner, attr, classmethod(tracer.wrap(name, original.__func__)))
                undo.append((setattr, owner, attr, original))
                continue
            original = getattr(owner, qualname)
            wrapper = tracer.wrap(name, original)
            for namespace in _fcmm_namespaces():
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        undo.append((dict.__setitem__, namespace, key, original))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for inner_key, inner in list(value.items()):
                            if inner is original:
                                value[inner_key] = wrapper
                                undo.append((dict.__setitem__, value, inner_key, original))
        yield tracer
    finally:
        for restore, where, key, original in reversed(undo):
            restore(where, key, original)
