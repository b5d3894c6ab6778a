"""Microbenchmark of `fields` arithmetic on freshly built descriptors.

The descriptors are constructed directly rather than taken from the
`get_descriptor` cache, so the numbers do not depend on what a workload
touched before.  Times are per operation, rescaled to reference host speed
like every other timing of the benchmark.
"""

import random
import statistics

PAIRS = 2000
# an untabled inverse is a power with ~2 log2(q) multiplies
INVERSES = 200
REPEATS = 5
# a GF(256) table build takes ~0.5 s
BUILD_REPEATS = 3
# name -> (p, e)
FIELDS = {"gf4": (2, 2), "gf256": (2, 8), "gf4096": (2, 12)}
BUILD = ("gf256", "gf4096")
MUL = ("gf4", "gf256", "gf4096")
ADD = ("gf4096",)
INV = ("gf256", "gf4096")


def run(fields_module, seed, clock):
    """Per-op times (ns) and build times (ms) keyed by metric name, timed at
    reference host speed by `clock` (a reference.HostClock)."""

    def timed(fn):
        clock.restart()
        return clock.time(fn)[1]

    def per_op_ns(fn, count):
        return statistics.median(timed(fn) for _ in range(REPEATS)) / count * 1e9

    rng = random.Random(f"fields/{seed}")
    out = {}
    descs = {}
    for name, (p, e) in FIELDS.items():
        def build():
            desc = fields_module.FieldDescriptor(p, e)
            desc.elements()
            descs[name] = desc
        builds = [timed(build) for _ in range(BUILD_REPEATS if name in BUILD else 1)]
        if name in BUILD:
            out[f"fields.build_ms.{name}"] = statistics.median(builds) * 1e3
    for name, desc in descs.items():
        els = desc.elements()
        nonzero = els[1:]
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(PAIRS)]
        units = [rng.choice(nonzero) for _ in range(INVERSES)]

        def mul():
            for a, b in pairs:
                a * b

        def add():
            for a, b in pairs:
                a + b

        def inv():
            for a in units:
                a.inv()

        if name in MUL:
            out[f"fields.mul_ns.{name}"] = per_op_ns(mul, PAIRS)
        if name in ADD:
            out[f"fields.add_ns.{name}"] = per_op_ns(add, PAIRS)
        if name in INV:
            out[f"fields.inv_ns.{name}"] = per_op_ns(inv, INVERSES)
    return out
