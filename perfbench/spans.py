"""Span recorder for the traced run.

Wraps the public functions of the sixj modules from outside the
program: every module attribute bound to a wrapped function is patched,
so ``core.exact_wigner_d`` and ``uniform.exact_wigner_d`` record into
the same span name.  Calls to ``mpmath.mp.clone`` are counted at the
mpmath boundary; each span records how many contexts were created while
it was open.  Spans stay in memory as compact arrays, each with its
parent and its op, and are written out once the run ends.
"""

import inspect
import json
import time
from array import array

import mpmath

import sixj
from sixj import cli, core, dasym, prasym, sphere, tetra, uniform

MODULES = (core, tetra, prasym, dasym, uniform, sphere, cli)
# The command handlers and the parser are the CLI front end itself: their
# time (argument parsing, payload formatting) is the self time of the
# cli.main span.
_FRONT_END = ("build_parser",)
_FRONT_END_PREFIX = "cmd_"

_FIELDS = (("name", "H"), ("parent", "i"), ("op", "i"),
           ("start_ns", "q"), ("end_ns", "q"), ("contexts", "I"))


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def public_functions():
    """(span name, function) of every wrapped function."""
    for mod in MODULES:
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in _FRONT_END
                    and not attr.startswith(_FRONT_END_PREFIX)):
                yield f"{_short(mod)}.{attr}", fn


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self, observers=None):
        self.names = []
        self.cols = {f: array(code) for f, code in _FIELDS}
        self.stack = [-1]
        self.op = -1
        self.contexts = 0
        self.observers = observers or {}
        self._patches = []
        self._op_names = {}

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid):
        c = self.cols
        i = len(c["name"])
        c["name"].append(nid)
        c["parent"].append(self.stack[-1])
        c["op"].append(self.op)
        c["start_ns"].append(0)
        c["end_ns"].append(0)
        c["contexts"].append(0)
        self.stack.append(i)
        return i

    def _close(self, i, t0, t1, contexts0):
        self.stack.pop()
        c = self.cols
        c["start_ns"][i] = t0
        c["end_ns"][i] = t1
        c["contexts"][i] = self.contexts - contexts0

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        observe = self.observers.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = self._open(nid)
            contexts0 = self.contexts
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, t0, clock(), contexts0)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, name, call):
        """Run call() as an op root span; ops number from 0."""
        nid = self._op_names.get(name)
        if nid is None:
            nid = self._op_names[name] = self._name_id(name)
        self.op += 1
        i = self._open(nid)
        contexts0 = self.contexts
        t0 = time.perf_counter_ns()
        try:
            return call()
        finally:
            self._close(i, t0, time.perf_counter_ns(), contexts0)

    def install(self):
        # keyed by id: the originals stay alive, so ids cannot repeat
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in public_functions()}
        for mod in (sixj,) + MODULES:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        clone = mpmath.mp.clone

        def counted_clone():
            self.contexts += 1
            return clone()

        mpmath.mp.clone = counted_clone

    def uninstall(self):
        del mpmath.mp.clone
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------- analysis

    def __len__(self):
        return len(self.cols["name"])

    def layer_stats(self):
        """{span name: [calls, self ns, spans that created a context]}.
        Self time is the span's duration minus its children's."""
        c = self.cols
        n = len(self)
        dur = [c["end_ns"][i] - c["start_ns"][i] for i in range(n)]
        child = [0] * n
        parent = c["parent"]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {}
        names = self.names
        ctx = c["contexts"]
        for i, nid in enumerate(c["name"]):
            s = stats.get(names[nid])
            if s is None:
                s = stats[names[nid]] = [0, 0, 0]
            s[0] += 1
            s[1] += dur[i] - child[i]
            s[2] += ctx[i] > 0
        return stats

    def ops_with_contexts(self, name=None):
        """Ops in which a span (named `name`, or any) created an mpmath
        context."""
        c = self.cols
        want = None
        if name is not None:
            if name not in self.names:
                return 0
            want = self.names.index(name)
        return len({c["op"][i] for i, nid in enumerate(c["name"])
                    if c["contexts"][i] and (want is None or nid == want)})

    def write(self, path):
        """One JSON header line, then each column's raw machine bytes."""
        header = {"names": self.names, "count": len(self),
                  "fields": [list(f) for f in _FIELDS]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.cols[field].tofile(f)
