"""Span recorder and the instrumentation that wraps masscale from outside.

``instrument(tracer)`` wraps every public function of the masscale layers
(``__all__`` where a module has one) plus a few methods, and rebinds each
name wherever a masscale module imported it, so that calls between
modules are seen too. Spans are kept in memory as
``[name, start, end, parent, tag]`` and summarised by :func:`summarize`.

Work the benchmark itself adds (hashing eigensolver inputs, testing for a
diagonal mass) runs in ``trace.inspect`` spans beside the span it
describes, so it is charged to the ``trace`` layer and to no other.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fem", "linalg", "scaling", "analysis", "integrator", "cli")

_EIG = {"linalg.sym_eig", "linalg.generalized_eig", "linalg.generalized_eigvalues"}
_GENERALIZED = {"linalg.generalized_eig", "linalg.generalized_eigvalues"}
_VALIDATE = {"linalg.require_symmetric", "linalg.MatrixPair.__post_init__"}
_MASS_SOLVE = {"integrator.MassSolver.__init__", "integrator.MassSolver.solve"}
_EMIT = {"cli.Emitter.write_json", "cli.Emitter.write_csv"}
_DIAG_RTOL = 1e-14  # the tolerance masscale uses for its diagonal fast path


class Tracer:
    """In-memory spans and counters; records only while ``active``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._seen = set()

    def begin(self, name, tag=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, tag])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def inside(self, names):
        """True when an open span's name is in ``names``."""
        return any(self.spans[i][0] in names for i in self._stack)

    def seen_before(self, key):
        repeat = key in self._seen
        self._seen.add(key)
        return repeat


def _digest(a):
    import numpy as np

    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.blake2b(a, digest_size=16).hexdigest() + str(a.shape)


def _nbytes(obj):
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    # scipy.sparse (a sparse assembly is planned): data plus index arrays
    return sum(int(getattr(obj, f).nbytes) for f in ("data", "indices", "indptr") if hasattr(obj, f))


def _pair_members(pair):
    return (pair.a, pair.b) if hasattr(pair, "a") else tuple(pair)


def _is_diagonal(b):
    import numpy as np

    b = np.asarray(b, dtype=float)
    off = b - np.diag(np.diag(b))
    return np.abs(off).max() <= _DIAG_RTOL * (np.abs(b).max() or 1.0)


# Hooks: before(tracer, args, kwargs) runs in a trace.inspect span ahead of
# the call; after(tracer, args, kwargs, result) runs once the call's span
# has closed.


def _before_eig(name):
    def hook(tracer, args, kwargs):
        if tracer.inside(_EIG):
            return
        mats = _pair_members(args[0]) if name in _GENERALIZED else (args[0],)
        n = mats[0].shape[0]
        tracer.counts["linalg.full_eig.count"] += 1
        tracer.counts["linalg.full_eig.n3"] += n**3
        if tracer.seen_before(tuple(_digest(m) for m in mats)):
            tracer.counts["linalg.full_eig.repeats"] += 1
        if name in _GENERALIZED:
            tracer.counts["linalg.generalized.count"] += 1
            tracer.counts["linalg.generalized.diag"] += int(_is_diagonal(mats[1]))

    return hook


def _after_assemble(tracer, args, kwargs, result):
    tracer.counts["fem.assemble.bytes"] += _nbytes(result)


def _after_bounds(tracer, args, kwargs, result):
    for rec in result.records.values():
        tracer.counts["analysis.bounds.checked"] += 1
        tracer.counts["analysis.bounds.failed"] += int(not rec.holds())


def _after_cdr(tracer, args, kwargs, result):
    tracer.counts["integrator.steps"] += int(result.final.step)


def _after_mass_solver(tracer, args, kwargs, result):
    if not tracer.inside({"integrator.MassSolver.__init__"}):
        tracer.counts[f"integrator.mass_path.{args[0].mode}"] += 1


def _tag_kind(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.kind


_HOOKS = {
    "fem.assemble": {"after": _after_assemble},
    "linalg.sym_eig": {"before": _before_eig("linalg.sym_eig")},
    "linalg.generalized_eig": {"before": _before_eig("linalg.generalized_eig")},
    "linalg.generalized_eigvalues": {"before": _before_eig("linalg.generalized_eigvalues")},
    "analysis.sandwich_bounds": {"after": _after_bounds},
    "analysis.condition_report": {"after": _after_bounds},
    "integrator.central_difference_run": {"after": _after_cdr},
    "integrator.MassSolver.__init__": {"after": _after_mass_solver},
    "scaling.apply_spec": {"tag": _tag_kind},
}

_METHODS = {
    "linalg": {"MatrixPair": ("__post_init__",)},
    "integrator": {"MassSolver": ("__init__", "solve")},
    "cli": {"Emitter": ("write_json", "write_csv")},
}


def _wrap(tracer, name, fn):
    hooks = _HOOKS.get(name, {})
    before, after, tag = hooks.get("before"), hooks.get("after"), hooks.get("tag")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            probe = tracer.begin("trace.inspect")
            try:
                before(tracer, args, kwargs)
            finally:
                tracer.end(probe)
        index = tracer.begin(name, tag(args, kwargs) if tag else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield n, obj


def instrument(tracer, package="masscale"):
    """Wrap the public functions of every layer; returns an undo callable."""
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> wrapper
    undo = []
    for layer, module in modules.items():
        for n, fn in _public_functions(module):
            wrappers[id(fn)] = _wrap(tracer, f"{layer}.{n}", fn)
        for cls_name, methods in _METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, f"{layer}.{cls_name}.{meth}", original))
                undo.append(functools.partial(setattr, cls, meth, original))

    # Rebind every module-level reference, including values of module-level
    # dicts (the CLI's study table), in every loaded masscale module.
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                setattr(module, attr, wrappers[id(value)])
                undo.append(functools.partial(setattr, module, attr, value))
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and id(item) in wrappers:
                        value[key] = wrappers[id(item)]
                        undo.append(functools.partial(value.__setitem__, key, item))

    def restore():
        for fn in reversed(undo):
            fn()

    return restore


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(tracer, run_s, out_dir=None):
    """Per-layer metrics of one traced iteration.

    ``run_s`` is the iteration's traced wall time. Time inside it that no
    span covers is charged to ``cli.self_s``, so the layers' self times,
    ``cli.self_s`` and ``trace.self_s`` add up to ``run_s``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, tag in spans:
        if parent is not None:
            child[parent] += end - start

    def outermost(i, names):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] in names:
                return False
            p = spans[p][3]
        return True

    def total(names):
        return sum(
            s[2] - s[1] for i, s in enumerate(spans) if s[0] in names and outermost(i, names)
        )

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    self_s = defaultdict(float)
    top = 0.0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        self_s[layer_of(name)] += (end - start) - child[i]
        if parent is None:
            top += end - start
    c = tracer.counts
    m = {}
    for layer in LAYERS + ("trace",):
        m[f"{layer}.self_s"] = self_s[layer]
    m["cli.self_s"] += run_s - top
    m["fem.element_blocks.s"] = total({"fem.element_blocks"})
    m["fem.element_blocks.calls"] = calls("fem.element_blocks")
    m["fem.assemble.s"] = total({"fem.assemble"})
    m["fem.assemble.calls"] = calls("fem.assemble")
    m["fem.assemble.bytes"] = c["fem.assemble.bytes"]
    for fn in ("generalized_eig", "sym_eig"):
        m[f"linalg.{fn}.s"] = total({f"linalg.{fn}"})
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
    for fn in ("generalized_eigvalues", "cholesky", "woodbury_solve"):
        m[f"linalg.{fn}.s"] = total({f"linalg.{fn}"})
    m["linalg.validate.s"] = total(_VALIDATE)
    m["linalg.full_eig.n3"] = c["linalg.full_eig.n3"]
    m["linalg.eig_repeat_frac"] = _frac(c["linalg.full_eig.repeats"], c["linalg.full_eig.count"])
    m["linalg.diag_path_frac"] = _frac(c["linalg.generalized.diag"], c["linalg.generalized.count"])
    m["scaling.apply_spec.calls"] = calls("scaling.apply_spec")
    kinds = sorted({s[4] for s in spans if s[0] == "scaling.apply_spec"})
    for kind in kinds:
        m[f"scaling.apply.{kind}.s"] = sum(
            s[2] - s[1]
            for i, s in enumerate(spans)
            if s[0] == "scaling.apply_spec" and s[4] == kind
            and outermost(i, {"scaling.apply_spec"})
        )
    for fn in ("spectral_report", "sandwich_bounds", "condition_report", "corollary_bound"):
        m[f"analysis.{fn}.s"] = total({f"analysis.{fn}"})
    m["analysis.bounds.checked"] = c["analysis.bounds.checked"]
    m["analysis.bounds.failed"] = c["analysis.bounds.failed"]
    m["integrator.central_difference_run.s"] = total({"integrator.central_difference_run"})
    steps = c["integrator.steps"]
    m["integrator.steps"] = steps
    cdr_self = sum(
        (s[2] - s[1]) - child[i]
        for i, s in enumerate(spans)
        if s[0] == "integrator.central_difference_run"
    )
    m["integrator.step_us"] = 1e6 * cdr_self / steps if steps else 0.0
    m["integrator.mass_solve.s"] = total(_MASS_SOLVE)
    for path in ("diagonal", "dense", "woodbury"):
        m[f"integrator.mass_path.{path}"] = c[f"integrator.mass_path.{path}"]
    m["cli.load_config.s"] = total({"cli.load_config"})
    m["cli.emit.s"] = total(_EMIT)
    m["cli.emit.bytes"] = _dir_bytes(out_dir) if out_dir else 0
    return m


def check_nesting(tracer):
    """Spans nest properly: each lies within its parent and ends after it starts."""
    for name, start, end, parent, tag in tracer.spans:
        if end is None or end < start:
            return False
        if parent is not None:
            p = tracer.spans[parent]
            if start < p[1] or end > p[2]:
                return False
    return True


def _frac(num, den):
    return num / den if den else 0.0


def _dir_bytes(path):
    """Bytes of the study outputs; the manifest holds timings and paths, so it is left out."""
    return sum(e.stat().st_size for e in os.scandir(path)
               if e.is_file() and e.name != "manifest.json")
