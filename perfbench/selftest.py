"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

Checks, for each workload named (default: all of BENCHMARK.json):
  * the reference loop's contract (integer-only, no GC-tracked objects, no
    ksmooth import);
  * the metric names and units printed by run.py match BENCHMARK.json, with
    and without tracing;
  * the exact counts of two traced runs with the same seed are equal;
  * a second seed changes the seeded inputs and fails no op;
  * uninstalling the tracer restores every rebound attribute.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SECONDS = "1"
SEEDS = (0, 1)


def exact_count(name):
    return (name.endswith(".calls") or name.startswith("smoothness.search.points.")
            or name in ("groebner.basis_elems", "groebner.max_deg",
                        "fields.descriptors_built"))


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result, declared, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}")


def input_keys(workload, seed):
    """The op names of a workload, which spell out its seeded inputs."""
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as workdir:
            return [op.name for op in workloads.setup(workload, seed, workdir)]
    finally:
        if not os.listdir(work):
            os.rmdir(work)


def check_tracer_restores():
    owners = [m for name, m in sys.modules.items()
              if name == "ksmooth" or name.startswith("ksmooth.")]
    owners += [obj for m in list(owners) for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__.startswith("ksmooth")]
    before = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
    tracer = Tracer().install()
    rebound = tracer.rebound()
    if not rebound:
        raise AssertionError("tracer rebound nothing")
    tracer.uninstall()
    after = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or set(after) != set(before):
        raise AssertionError(f"{len(changed)} attributes not restored")
    return len(rebound)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    failures = []

    def check(label, fn):
        try:
            detail = fn()
        except AssertionError as exc:
            failures.append(label)
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}" + (f" ({detail})" if detail else ""))

    def reference_contract():
        problems = reference.self_test()
        if problems:
            raise AssertionError("; ".join(problems))

    check("reference loop contract", reference_contract)
    check("tracer uninstall restores every attribute",
          lambda: f"{check_tracer_restores()} attributes rebound")
    for name in names:
        def same_seed_counts(name=name):
            first, second = (bench(name, SEEDS[0], 1) for _ in range(2))
            check_names(first, spec["per_layer"], f"{name} traced")
            counts = {k for k in first["metrics"] if exact_count(k)}
            diff = [k for k in sorted(counts)
                    if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            if diff:
                raise AssertionError(f"{name}: counts differ between runs: {diff}")
            if first["failed"] or second["failed"]:
                raise AssertionError(f"{name}: failed ops at seed {SEEDS[0]}")
            return f"{len(counts)} counts equal"

        def second_seed(name=name):
            if input_keys(name, SEEDS[0]) == input_keys(name, SEEDS[1]):
                raise AssertionError(f"{name}: seed {SEEDS[1]} gives the same inputs")
            result = bench(name, SEEDS[1], 0)
            check_names(result, spec["end_to_end"], f"{name} untraced")
            if result["failed"] or not result["correct"]:
                raise AssertionError(f"{name}: {result['failed']} failed ops at seed {SEEDS[1]}")
            return f"{result['attempted']} ops checked"

        check(f"{name}: traced names and same-seed exact counts", same_seed_counts)
        check(f"{name}: second seed changes inputs, untraced names, no failures", second_seed)
    print("self-test " + ("FAILED: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
