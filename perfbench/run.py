"""ksmooth benchmark: one process, one thread, a closed loop with one caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; ksmooth is imported from its src/.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 the per-layer ones.  Every op's verdict is
checked against a known answer; any failure makes the exit code 1.

Each op is timed against a fixed reference loop (reference.py) run before,
after and, by a timer, during it, and its wall time is rescaled to reference
host speed.  A round runs every op of the workload once; rounds repeat until
--seconds are used, and an op's time is its median over the rounds.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(HERE, "_work")

SETUP_REPS = 5
MIN_ROUNDS = 3
MAX_REPORTED_ERRORS = 5


class Run:
    """Attempted and failed op counts, and the host clock, of one benchmark
    run."""

    def __init__(self):
        from reference import HostClock
        self.attempted = 0
        self.failed = 0
        self.clock = HostClock()

    def fail(self, what, exc):
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def attempt(self, what, fn):
        """Run fn once, counting it and any exception it raises."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.fail(what, exc)

    def round(self, ops):
        """Run every op once: (raw seconds, calibrated seconds) per op name."""
        self.clock.restart()
        return {op.name: self.clock.time(lambda: self.attempt(op.name, op.run))
                for op in ops}


def per_op_medians(rounds, index):
    """Sum over the ops of each op's median time across rounds."""
    return sum(statistics.median(r[name][index] for r in rounds) for name in rounds[0])


def measure_setup(run, workload, seed, workdir):
    """Median calibrated time of SETUP_REPS set-ups, each in a fresh
    interpreter, run one after another; None if every one failed.  The child
    samples the reference loop itself (see workloads.py) and reports it."""
    from reference import at_reference_speed
    script = os.path.join(HERE, "workloads.py")
    times = []
    for i in range(SETUP_REPS):
        child_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(child_dir)
        run.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, script, workload, str(seed), child_dir],
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            run.fail(f"set-up {i}", RuntimeError(proc.stderr.strip()[-500:]))
            continue
        loops = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(at_reference_speed(wall - loops["loop_s"], loops["step_s"]))
    return statistics.median(times) if times else None


def timed_rounds(run, ops, seconds, min_rounds):
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run.round(ops))
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(run, args, workdir):
    import workloads
    setup_s = measure_setup(run, args.workload, args.seed, workdir)
    ops = []
    run.attempt("set-up", lambda: ops.extend(workloads.setup(args.workload, args.seed, workdir)))
    if not ops or setup_s is None:
        return None
    rounds = timed_rounds(run, ops, args.seconds, MIN_ROUNDS)
    members = sum(op.members for op in ops)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} ops, {members} members; "
          f"host.ref_ms={statistics.median(run.clock.ref_s) * 1e3:.4f} "
          f"wall_members_per_s={members / per_op_medians(rounds, 0):.4f}")
    return {
        "members_per_s": members / per_op_medians(rounds, 1),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run, args, workdir):
    import fieldbench
    import workloads
    from ksmooth import fields
    from tracer import Tracer
    tracer = Tracer()
    ops = []
    with tracer:
        run.attempt("set-up", lambda: ops.extend(workloads.setup(args.workload, args.seed, workdir)))
    if not ops:
        return None
    probe = workloads.probe_ops()
    members = sum(op.members for op in ops)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run.round(ops))
        if not traced:
            with tracer:
                traced.append(run.round(ops))
                run.round(probe)
        else:
            with Tracer():
                traced.append(run.round(ops))
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > args.seconds:
            break
    out = tracer.metrics()
    out.update(fieldbench.run(fields, args.seed, run.clock))
    out["host.ref_ms"] = statistics.median(run.clock.ref_s) * 1e3
    out["host.wall_members_per_s"] = members / per_op_medians(untraced, 0)
    out["trace.overhead_ratio"] = per_op_medians(traced, 1) / per_op_medians(untraced, 1)
    print(f"{args.workload} traced: {len(traced)} traced and {len(untraced)} untraced "
          f"rounds; host.ref_ms={out['host.ref_ms']:.4f}")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ksmooth", "__init__.py")):
        print(f"error: no ksmooth sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from reference import self_test
    problems = self_test()
    if problems:
        print("error: reference loop: " + "; ".join(problems), file=sys.stderr)
        return 2

    run = Run()
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    try:
        values = (per_layer if args.trace else end_to_end)(run, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    if values is None:
        print("error: workload set-up failed", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in declared}:
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
