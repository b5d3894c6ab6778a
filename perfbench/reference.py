"""Host-speed reference loop, and a clock that times ops against it.

The host's speed drifts by tens of percent between and within runs, so raw
wall-clock times of ksmooth do not repeat.  Every timed op is measured
together with this fixed loop, and its time is rescaled to what it would have
been on a host where one step of the loop takes exactly NOMINAL_STEP_NS.

Each step does integer arithmetic only, in the interpreter's usual moves: a
function call, a slot attribute load, a nested list lookup and a read of a
fixed 256 KiB bytes buffer at a pseudo-random offset.  A loop with that mix
follows the program's slowdowns under host contention better than a bare
arithmetic loop.  The loop creates no object the cyclic garbage collector
tracks, so neither the size of the program's heap nor a collection it
triggers can slow the loop itself.  This module imports nothing from ksmooth.
"""

import ast
import gc
import signal
import time

REF_STEPS = 8_000
SAMPLE_STEPS = 500
SAMPLE_PERIOD_S = 0.01
# Median time per step of reference_loop() on the 2-core x86-64 VM the
# benchmark was defined on (CPython 3.11); calibrated metrics are reported at
# this speed.
NOMINAL_STEP_NS = 350.0

_BUFFER = bytes(range(256)) * (1 << 10)
_MASK = len(_BUFFER) - 1
_TABLE = [list(range(i, i + 64)) for i in range(64)]


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_CELL = _Cell(7)


def _step(x, table, cell):
    return (x * 1103515245 + cell.value + table[x & 63][(x >> 6) & 63]) & 0x7FFFFFFF


def reference_loop(steps=REF_STEPS):
    """A linear congruential generator stepped `steps` times, summing the
    buffer bytes it points at."""
    buf = _BUFFER
    mask = _MASK
    table = _TABLE
    cell = _CELL
    x = 1
    acc = 0
    i = 0
    while i < steps:
        x = _step(x, table, cell)
        acc += buf[x & mask]
        i += 1
    return acc


class HostClock:
    """Times ops at reference host speed.

    Before and after each op it runs the full reference loop; during the op a
    SIGALRM timer runs a short loop every SAMPLE_PERIOD_S, so a long op is
    calibrated by the host speed over its whole length, not just at its
    edges.  The time of the sampled loops is subtracted from the op.  The
    clock takes over the process's SIGALRM handler.
    """

    def __init__(self):
        self.ref_s = []
        self._previous = None
        self._sample_s = 0.0
        self._samples = 0
        self.last_loop_s = 0.0
        self.last_step_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def reference(self):
        """Time one full reference loop (seconds) and record it."""
        t0 = time.perf_counter()
        reference_loop()
        t = time.perf_counter() - t0
        self.ref_s.append(t)
        return t

    def restart(self):
        """Forget the last loop, so the next op measures a fresh one before
        it (call when untimed work ran since the last op)."""
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop(SAMPLE_STEPS)
        self._sample_s += time.perf_counter() - t0
        self._samples += 1

    def time(self, fn):
        """Run fn(); return (raw seconds, seconds at reference speed).

        Afterwards `last_loop_s` is the time the reference loops took (edges
        and samples) and `last_step_s` the pooled time per step."""
        before = self.reference() if self._previous is None else self._previous
        self._sample_s = 0.0
        self._samples = 0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
            sampled_s, samples = self._sample_s, self._samples
        after = self.reference()
        self._previous = after
        self.last_loop_s = before + after + sampled_s
        self.last_step_s = self.last_loop_s / (2 * REF_STEPS + samples * SAMPLE_STEPS)
        raw = elapsed - sampled_s
        return raw, at_reference_speed(raw, self.last_step_s)


def at_reference_speed(raw_s, step_s):
    """Rescale a time measured while one loop step took step_s seconds."""
    return raw_s * NOMINAL_STEP_NS * 1e-9 / step_s


# Syntax the loop may use: no display, comprehension or lambda, which could
# create a GC-tracked object.
_LOOP_SYNTAX = (ast.Module, ast.Assign, ast.AugAssign, ast.While, ast.Return,
                ast.Name, ast.Constant, ast.BinOp, ast.Compare, ast.Subscript,
                ast.Attribute, ast.Call, ast.expr_context, ast.operator, ast.cmpop)


def self_test():
    """Breaches of the reference loop's contract, as a list of messages."""
    problems = []
    with open(__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] == "ksmooth" for n in names):
            problems.append(f"reference module imports {names}")
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("reference_loop", "_step"):
        body = functions[name].body
        if isinstance(body[0], ast.Expr):
            body = body[1:]
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if not isinstance(node, _LOOP_SYNTAX):
                problems.append(f"{name} uses {type(node).__name__}")
            elif isinstance(node, ast.Call) and not (
                    isinstance(node.func, ast.Name) and node.func.id == "_step"):
                problems.append(f"{name} calls {ast.unparse(node.func)}")
            elif isinstance(node, ast.Constant) and type(node.value) is not int:
                problems.append(f"{name} uses the non-integer {node.value!r}")
    if problems:
        return problems
    if type(reference_loop(10)) is not int or gc.is_tracked(_BUFFER):
        problems.append("reference loop works on GC-tracked objects")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        reference_loop(1000)
        after = gc.get_count()[0]
    finally:
        if was_enabled:
            gc.enable()
    if after != before:
        problems.append(f"reference loop created {after - before} GC-tracked objects")
    return problems
