"""Span tracer that instruments ksmooth from outside the package.

`Tracer.install()` rebinds the public functions and methods at each layer
boundary (for example `ksmooth.smoothness.buchberger`) to timing wrappers,
in every ksmooth module that holds a reference to them; `uninstall()` puts
the original objects back.  Nothing under src/ changes.

Spans are aggregated as they close: per name the call count, the busy
(inclusive) time and the self time (busy minus the time of child spans).
"""

import sys
import time

# (module, attribute, span name) for plain functions, rebound wherever a
# ksmooth module or the package namespace refers to the same object.
FUNCTION_SPANS = (
    ("ksmooth.fields", "get_descriptor", "fields.get_descriptor"),
    ("ksmooth.fields", "get_embedding", "fields.get_embedding"),
    ("ksmooth.groebner", "buchberger", "groebner.buchberger"),
    ("ksmooth.smoothness", "is_smooth", "smoothness.is_smooth"),
    ("ksmooth.smoothness", "verify_system_K_smooth", "smoothness.verify"),
    ("ksmooth.smoothness", "search_singular_point", "smoothness.search"),
    ("ksmooth.constructions", "construct_system_with_details", "constructions.construct"),
    ("ksmooth.constructions", "normal_basis_search", "constructions.normal_basis_search"),
    ("ksmooth.constructions", "lift_to_char_zero", "constructions.lift"),
    ("ksmooth.cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("ksmooth.multipoly", "LinearSystemOfForms", "member", "multipoly.member"),
    ("ksmooth.multipoly", "HomogeneousForm", "embed", "multipoly.embed"),
    ("ksmooth.multipoly", "HomogeneousForm", "partial_derivative",
     "multipoly.partial_derivative"),
)

SEARCH_SPAN = "smoothness.search"
TABLE_LIMIT = 256


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Call counts, busy and self time per span, plus the work counts the
    per-layer metrics need.  One tracer may be installed at a time."""

    def __init__(self):
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.basis_elems = 0
        self.max_deg = 0
        self.descriptors_built = 0
        self.witnesses = 0
        self.points = {"le256": 0, "gt256": 0}
        self.scan_s = {"le256": 0.0, "gt256": 0.0}
        self._stack = []
        self._saved = []

    # -- recording ------------------------------------------------------

    def _enter(self, name):
        self._stack.append(_Frame(name, time.perf_counter()))

    def _exit(self):
        frame = self._stack.pop()
        dur = time.perf_counter() - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame.child
        if self._stack:
            self._stack[-1].child += dur

    def _span(self, name, func):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            if name == "groebner.buchberger":
                tracer.basis_elems += len(result.elements)
                for terms in result.elements:
                    tracer.max_deg = max(tracer.max_deg, sum(next(iter(terms))))
            elif name == SEARCH_SPAN and result is not None:
                tracer.witnesses += 1
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _points(self, func):
        tracer = self

        def counted(gen, level):
            n = 0
            t0 = time.perf_counter()
            try:
                for point in gen:
                    n += 1
                    yield point
            finally:
                tracer.points[level] += n
                tracer.scan_s[level] += time.perf_counter() - t0

        def wrapper(field, r):
            gen = func(field, r)
            if not tracer._stack or tracer._stack[-1].name != SEARCH_SPAN:
                return gen
            return counted(gen, "le256" if field.order <= TABLE_LIMIT else "gt256")

        wrapper.__wrapped__ = func
        return wrapper

    def _count_descriptor(self, init):
        tracer = self

        def wrapper(desc, *args, **kwargs):
            tracer.descriptors_built += 1
            return init(desc, *args, **kwargs)

        wrapper.__wrapped__ = init
        return wrapper

    # -- installation ---------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def rebound(self):
        """(owner, attribute, original) for every attribute now rebound."""
        return list(self._saved)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ksmooth" or name.startswith("ksmooth."))]
        for mod_name, attr, span in FUNCTION_SPANS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._span(span, orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._rebind(mod, attr, wrapped)
        for mod_name, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._rebind(cls, attr, self._span(span, cls.__dict__[attr]))
        smoothness = sys.modules["ksmooth.smoothness"]
        self._rebind(smoothness, "enumerate_projective_points",
                     self._points(smoothness.enumerate_projective_points))
        desc_cls = sys.modules["ksmooth.fields"].FieldDescriptor
        self._rebind(desc_cls, "__init__", self._count_descriptor(desc_cls.__init__))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics --------------------------------------------------------

    def metrics(self):
        """Per-layer values from the spans recorded so far (ms, counts)."""
        def ms(table, name):
            return table.get(name, 0.0) * 1e3

        def rate(level):
            s = self.scan_s[level]
            return self.points[level] / s if s else 0.0

        searches = self.calls.get(SEARCH_SPAN, 0)
        out = {
            "fields.get_descriptor.busy_ms": ms(self.busy, "fields.get_descriptor"),
            "fields.get_embedding.busy_ms": ms(self.busy, "fields.get_embedding"),
            "fields.descriptors_built": self.descriptors_built,
            "groebner.buchberger.calls": self.calls.get("groebner.buchberger", 0),
            "groebner.buchberger.busy_ms": ms(self.busy, "groebner.buchberger"),
            "groebner.buchberger.self_ms": ms(self.self_time, "groebner.buchberger"),
            "groebner.basis_elems": self.basis_elems,
            "groebner.max_deg": self.max_deg,
            "smoothness.is_smooth.calls": self.calls.get("smoothness.is_smooth", 0),
            "smoothness.is_smooth.self_ms": ms(self.self_time, "smoothness.is_smooth"),
            "smoothness.verify.calls": self.calls.get("smoothness.verify", 0),
            "smoothness.verify.busy_ms": ms(self.busy, "smoothness.verify"),
            "smoothness.search.calls": searches,
            "smoothness.search.busy_ms": ms(self.busy, SEARCH_SPAN),
            "smoothness.search.points.le256": self.points["le256"],
            "smoothness.search.points.gt256": self.points["gt256"],
            "smoothness.search.pts_per_s.le256": rate("le256"),
            "smoothness.search.pts_per_s.gt256": rate("gt256"),
            "smoothness.search.witness_ratio": self.witnesses / searches if searches else 0.0,
            "constructions.construct.busy_ms": ms(self.busy, "constructions.construct"),
            "constructions.normal_basis_search.busy_ms":
                ms(self.busy, "constructions.normal_basis_search"),
            "constructions.lift.busy_ms": ms(self.busy, "constructions.lift"),
            "cli.main.calls": self.calls.get("cli.main", 0),
            "cli.main.self_ms": ms(self.self_time, "cli.main"),
        }
        for name in ("member", "embed", "partial_derivative"):
            span = f"multipoly.{name}"
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.busy_ms"] = ms(self.busy, span)
        return out
