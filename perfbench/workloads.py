"""The benchmark's workloads: seeded inputs, set-up, and known-answer ops.

`setup(name, seed, workdir)` builds every input of a workload and returns its
ops.  An op decides one or more members (forms) through ksmooth's public
functions and raises CheckFailed when a verdict differs from the known
answer.  Calls go through module attributes (`smoothness.is_smooth(...)`)
so that the tracer's rebinding sees them.

Run as a script (`python3 perfbench/workloads.py <workload> <seed> <dir>`)
it performs one set-up in a fresh interpreter under a reference.HostClock,
and prints the clock's loop time and time per step as JSON; run.py times the
whole child and calibrates it with those to get `setup_s`.
"""

import io
import itertools
import json
import os
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from ksmooth import cli, constructions, fields, groebner, multipoly, smoothness  # noqa: E402

# Members of the (3,1,3,5) system cost 2.1-4.0 s each, so a seeded pick of
# one would put +-14% of input cost into the seed-to-seed spread; the hard
# member is fixed (its index in canonical member order) and the seed picks
# the cheaper members, which average out.
HARD_SYSTEM = (3, 1, 3, 5)
HARD_MEMBERS = (20,)
MEDIUM_SYSTEM = (3, 1, 4, 3)
MEDIUM_COUNT = 20

# label, p, e, nvars, degree, max extension degree, monomials dropped, smooth
# forms, singular forms.  A smooth form has every monomial of its degree but
# `dropped` seeded ones, with seeded nonzero coefficients: over GF(2) the
# dropped monomials are all the seed can vary, and a fixed number of terms
# keeps the cost of a smooth form's full scan nearly fixed.
ORACLE_CLASSES = (
    ("bin-gf2", 2, 1, 2, 7, 12, 1, 1, 1),
    ("bin-gf4", 2, 2, 2, 4, 6, 0, 1, 1),
    ("bin-gf3", 3, 1, 2, 4, 6, 0, 2, 1),
    ("tern-gf2", 2, 1, 3, 3, 6, 2, 1, 1),
    ("tern-gf3", 3, 1, 3, 2, 4, 0, 1, 1),
)

# (p, e, n, d) of each lifted system ("f3" is the built-in example), the
# number of seeded members per round, and whether the members are fixed.
# Lifted (3,1,3,4) members cost 1.2-2.3 s depending on their coefficients,
# so that system uses one fixed member for the reason given above.
LIFT_SYSTEMS = (
    ("f3", 4, False),
    ((2, 1, 2, 4), 4, False),
    ((3, 1, 2, 4), 4, False),
    ((2, 1, 3, 3), 4, False),
    ((2, 1, 4, 3), 3, False),
    ((3, 1, 3, 4), 1, True),
)
LIFT_COEFF_RANGE = 3


class CheckFailed(Exception):
    """An op's verdict differs from its known answer."""


class Op:
    __slots__ = ("name", "members", "run")

    def __init__(self, name, members, run):
        self.name = name
        self.members = members
        self.run = run


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def member_count(q, r):
    return (q ** (r + 1) - 1) // (q - 1)


def _cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def _members(system, expected_q):
    """Canonical member coefficient tuples, after checking their count."""
    members = list(fields.enumerate_projective_points(system.field, system.dim))
    _require(len(members) == member_count(expected_q, system.dim),
             f"{system!r} has {len(members)} members")
    return members


# -- verify_grid --------------------------------------------------------------

def grid_combos():
    """Every criterion-2 grid point (p, e, n, d) with q^(n+1) <= 4096."""
    combos = []
    for p, e, n, d in itertools.product((2, 3), (1, 2), (1, 2, 3), (2, 3, 4)):
        if gcd(d, n + 1) % p == 0 or (p ** e) ** (n + 1) > 4096:
            continue
        combos.append((p, e, n, d))
    return combos


def _verify_op(path, expected):
    def run():
        code, out = _cli(["verify", path, "--json"])
        report = json.loads(out)
        _require(code == 0, f"verify {path} exited {code}")
        _require(report["members"] == expected,
                 f"{path}: {report['members']} members, expected {expected}")
        _require(report["k_smooth"] and all(v == "smooth" for v in report["verdicts"]),
                 f"{path}: a constructed member is not smooth")
    return run


def _example_op():
    def run():
        code, out = _cli(["example", "f3", "--verify", "--json"])
        report = json.loads(out)["report"]
        _require(code == 0 and report["members"] == member_count(3, 2)
                 and all(v == "smooth" for v in report["verdicts"]),
                 "example f3: not 13 smooth members")
    return run


def setup_verify_grid(seed, workdir):
    ops = []
    for p, e, n, d in grid_combos():
        path = os.path.join(workdir, f"grid_{p}_{e}_{n}_{d}.json")
        code, _ = _cli(["construct", "--p", str(p), "--e", str(e), "--n", str(n),
                        "--d", str(d), "--r", str(n), "-o", path])
        _require(code == 0, f"construct {(p, e, n, d)} exited {code}")
        expected = member_count(p ** e, n)
        ops.append(Op(f"verify{(p, e, n, d)}", expected, _verify_op(path, expected)))
    ops.append(Op("example-f3", member_count(3, 2), _example_op()))
    random.Random(f"verify_grid/{seed}").shuffle(ops)
    return ops


# -- certify_hard -------------------------------------------------------------

def _smooth_member_op(name, system, coeffs):
    def run():
        verdict = smoothness.is_smooth(system.member(coeffs))
        _require(isinstance(verdict, smoothness.Smooth), f"{name} is not smooth")
    return Op(name, 1, run)


def setup_certify_hard(seed, workdir):
    rng = random.Random(f"certify_hard/{seed}")
    ops = []
    for (p, e, n, d), picks in ((HARD_SYSTEM, HARD_MEMBERS), (MEDIUM_SYSTEM, None)):
        system = constructions.construct_smooth_system(p, e, n, d, n)
        members = _members(system, p ** e)
        if picks is None:
            picks = sorted(rng.sample(range(len(members)), MEDIUM_COUNT))
        for i in picks:
            ops.append(_smooth_member_op(f"{(p, e, n, d)}#{i}", system, members[i]))
    return ops


# -- oracle_search ------------------------------------------------------------

def _dense_form(field, nvars, degree, dropped, rng):
    monos = multipoly.monomials_of_degree(nvars, degree)
    kept = rng.sample(monos, len(monos) - dropped)
    nonzero = field.elements()[1:]
    return multipoly.HomogeneousForm(field, nvars, degree,
                                     {m: rng.choice(nonzero) for m in kept})


def _singular_form(field, nvars, degree, rng):
    """L^2 * G for a random linear form L and form G: singular along L = 0,
    which has points over the base field, so the search stops at level 1."""
    linear = multipoly.random_form(field, nvars, 1, rng)
    return linear ** 2 * multipoly.random_form(field, nvars, degree - 2, rng)


def _oracle_op(name, form, max_ext, smooth):
    def run():
        verdict = smoothness.is_smooth(form, max_ext)
        witness = smoothness.search_singular_point(form, max_ext)
        is_smooth = isinstance(verdict, smoothness.Smooth)
        _require(is_smooth == smooth, f"{name}: certificate verdict changed")
        _require(is_smooth == (witness is None),
                 f"{name}: certificate and search disagree")
        if not is_smooth:
            _require(smoothness.witness_verifies(form, verdict.witness)
                     and smoothness.witness_verifies(form, witness),
                     f"{name}: witness fails direct evaluation")
    return Op(name, 1, run)


def setup_oracle_search(seed, workdir):
    rng = random.Random(f"oracle_search/{seed}")
    ops = []
    for label, p, e, nvars, degree, max_ext, dropped, n_smooth, n_singular in ORACLE_CLASSES:
        base = fields.get_descriptor(p, e)
        for k in range(1, max_ext + 1):
            desc = fields.get_descriptor(p, e * k)
            desc.elements()
            if k > 1:
                fields.get_embedding(base, desc)
        smooth = []
        while len(smooth) < n_smooth:
            form = _dense_form(base, nvars, degree, dropped, rng)
            if groebner.is_projectively_empty(
                    groebner.buchberger(smoothness.jacobian_generators(form))):
                smooth.append(form)
        singular = [_singular_form(base, nvars, degree, rng) for _ in range(n_singular)]
        for i, form in enumerate(smooth):
            ops.append(_oracle_op(f"{label}/smooth{i} {form}", form, max_ext, True))
        for i, form in enumerate(singular):
            ops.append(_oracle_op(f"{label}/singular{i} {form}", form, max_ext, False))
    return ops


# -- lift_rational ------------------------------------------------------------

def _primitive_coeffs(count, rng):
    while True:
        coeffs = [rng.randint(-LIFT_COEFF_RANGE, LIFT_COEFF_RANGE) for _ in range(count)]
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g == 1:
            return tuple(Fraction(c) for c in coeffs)


def setup_lift_rational(seed, workdir):
    rng = random.Random(f"lift_rational/{seed}")
    fixed = random.Random("lift_rational/fixed")
    ops = []
    for spec, count, is_fixed in LIFT_SYSTEMS:
        if spec == "f3":
            system = constructions.builtin_example_f3()
        else:
            p, e, n, d = spec
            system = constructions.construct_smooth_system(p, e, n, d, n)
        lifted = constructions.lift_to_char_zero(system)
        _require(len(lifted.generators) == len(system.generators),
                 f"lift of {spec} changed the generator count")
        for i in range(count):
            coeffs = _primitive_coeffs(len(lifted.generators), fixed if is_fixed else rng)
            ops.append(_smooth_member_op(
                f"lift{spec}#{i} {[int(c) for c in coeffs]}", lifted, coeffs))
    return ops


# -- layer probe --------------------------------------------------------------

def probe_ops():
    """Fixed ops that touch every layer once, run only in the traced run so
    that each per-layer metric is measured on every workload."""

    def construct_and_lift():
        system, _ = constructions.construct_system_with_details(2, 1, 2, 3, 2)
        lifted = constructions.lift_to_char_zero(system)
        _smooth_member_op("probe-lift", lifted, (Fraction(1),) * 3).run()

    f2 = fields.get_descriptor(2)
    one = f2.one()
    # x0^3 + x0 x1^2 + x1^3: squarefree, so smooth; the scan reaches GF(512)
    cubic = multipoly.HomogeneousForm(f2, 2, 3, {(3, 0): one, (1, 2): one, (0, 3): one})
    return [Op("probe-example", member_count(3, 2), _example_op()),
            Op("probe-construct", 1, construct_and_lift),
            _oracle_op("probe-search", cubic, 9, True)]


SETUPS = {
    "verify_grid": setup_verify_grid,
    "certify_hard": setup_certify_hard,
    "oracle_search": setup_oracle_search,
    "lift_rational": setup_lift_rational,
}


def setup(name, seed, workdir):
    return SETUPS[name](seed, workdir)


if __name__ == "__main__":
    from reference import HostClock
    clock = HostClock()
    clock.time(lambda: setup(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
    print(json.dumps({"loop_s": clock.last_loop_s, "step_s": clock.last_step_s}))
