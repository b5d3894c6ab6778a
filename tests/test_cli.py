"""Command-line driver tests: subcommands, exit codes, JSON round trips,
byte-level determinism, and malformed or fuzzed wire input."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from ksmooth import cli, fields, smoothness
from ksmooth.cli import main
from ksmooth.constructions import construct_smooth_system, lift_to_char_zero
from ksmooth.errors import BudgetExceeded, WitnessNotFoundWithinCap
from ksmooth.multipoly import form_to_json, random_system, system_from_json, system_to_json
from ksmooth.smoothness import SingularWitness, verify_system_K_smooth
from ksmooth.fields import QQ, FieldDescriptor, get_descriptor
from ksmooth.multipoly import HomogeneousForm, LinearSystemOfForms


F2 = get_descriptor(2)
# (x0^2 + x0x1 + x1^2)^2 over GF(2): its singular points lie in GF(4)
GF4_WITNESS_FORM = HomogeneousForm(F2, 2, 4, {(4, 0): F2.one(), (2, 2): F2.one(),
                                              (0, 4): F2.one()})
# (x0^5 + x0^2x1^3 + x1^5)^2 over GF(2): x^5 + x^2 + 1 is irreducible, so its
# singular points lie in GF(2^5) and in no smaller extension
GF32_WITNESS_FORM = HomogeneousForm(F2, 2, 5, {(5, 0): F2.one(), (2, 3): F2.one(),
                                               (0, 5): F2.one()}) ** 2


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExample:
    def test_f3_verify_reports_13_of_13(self, capsys):
        code, out, _ = run(capsys, ["example", "f3", "--verify"])
        assert code == 0
        assert "13/13 members smooth" in out

    def test_f3_json_report(self, capsys):
        code, out, _ = run(capsys, ["example", "f3", "--verify", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["members"] == 13
        assert obj["report"]["k_smooth"] is True
        assert len(obj["system"]["generators"]) == 3


class TestConstructVerify:
    def test_construct_then_verify_with_oracle(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, out, _ = run(capsys, ["construct", "--p", "2", "--e", "1",
                                    "--n", "2", "--d", "2", "--r", "2",
                                    "-o", str(path)])
        assert code == 0
        assert "case 2" in out
        code, out, _ = run(capsys, ["verify", str(path), "--oracle"])
        assert code == 0
        assert "7/7 members smooth" in out

    def test_hypothesis_violation_exits_2(self, capsys):
        code, _, err = run(capsys, ["construct", "--p", "3", "--e", "1",
                                    "--n", "2", "--d", "3", "--r", "2"])
        assert code == 2
        assert "gcd(d, n+1)" in err

    def test_rank_violation_exits_2(self, capsys):
        code, _, err = run(capsys, ["construct", "--p", "2", "--e", "1",
                                    "--n", "2", "--d", "3", "--r", "3"])
        assert code == 2

    @pytest.mark.parametrize("flag,value,bound", [("--n", "0", "n must be >= 1"),
                                                  ("--r", "0", "r must be >= 1"),
                                                  ("--d", "1", "degree must be >= 2")])
    def test_parameter_below_its_bound_exits_2(self, capsys, flag, value, bound):
        args = {"--p": "2", "--n": "2", "--d": "3", "--r": "2", flag: value}
        code, _, err = run(capsys, ["construct", *itertools.chain(*args.items())])
        assert code == 2
        assert err.startswith("error: ") and bound in err

    def test_round_trip_matches_in_process_verification(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, _, _ = run(capsys, ["construct", "--p", "3", "--e", "1",
                                  "--n", "2", "--d", "2", "--r", "2",
                                  "-o", str(path)])
        assert code == 0
        parsed = system_from_json(json.loads(path.read_text()))
        direct = construct_smooth_system(3, 1, 2, 2, 2)
        assert parsed.generators == direct.generators
        report = verify_system_K_smooth(parsed)
        code, out, _ = run(capsys, ["verify", str(path), "--json"])
        assert code == 0
        assert json.loads(out) == report.to_json()

    def test_verify_singular_system_exits_1(self, capsys, tmp_path):
        gens = [HomogeneousForm(F2, 3, 2,
                                {tuple(2 if j == i else 0 for j in range(3)): F2.one()})
                for i in range(3)]
        from ksmooth.multipoly import LinearSystemOfForms
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(system_to_json(LinearSystemOfForms(gens))))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 1
        assert "K-smooth: no" in out
        assert "singular at" in out

    def test_construct_deterministic_bytes(self, capsys):
        argv = ["construct", "--p", "2", "--e", "2", "--n", "1", "--d", "3",
                "--r", "1", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestCheck:
    def test_smooth_form(self, capsys, tmp_path):
        f = HomogeneousForm(F2, 3, 3,
                            {(3, 0, 0): F2.one(), (0, 3, 0): F2.one(),
                             (0, 0, 3): F2.one()})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form_to_json(f)))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        assert "smooth" in out

    def test_singular_form(self, capsys, tmp_path):
        f = HomogeneousForm(F2, 3, 2, {(1, 1, 0): F2.one()})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form_to_json(f)))
        code, out, _ = run(capsys, ["check", str(path), "--json"])
        assert code == 1
        obj = json.loads(out)
        assert obj["smooth"] is False
        assert obj["witness"]["point"] == [[0], [0], [1]]

    def test_singular_form_over_the_rationals(self, capsys, tmp_path):
        f = HomogeneousForm(QQ, 3, 2, {(2, 0, 0): Fraction(1)})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form_to_json(f)))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 1
        assert out == "singular (no explicit witness over the rationals)\n"

    def test_check_over_a_61_bit_prime(self, capsys, tmp_path):
        field = get_descriptor(2 ** 61 - 1)
        f = HomogeneousForm(field, 2, 2, {(2, 0): field.one(), (0, 2): field.one()})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form_to_json(f)))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0 and out.startswith("smooth")
        assert time.perf_counter() - start < 1


class TestPinnedCheck:
    """`check --json` on smooth forms over GF(3) and over Q: the verdict and
    the number of certificate elements at the pure-power stop."""

    # label -> sha256 of stdout; gf3 recorded while Buchberger over Q still
    # kept its elements at integer content 1 instead of monic, qq since a
    # rational form is certified by its reduction mod a small prime (the
    # form is smooth mod 2: "certificate_size" 11, against 14 over Q)
    DIGESTS = {
        "gf3": "c8fd7e3736d0b340c8b426494b019c41c68dc0ce5ae13b31ac0734ffdd27c0c6",
        "qq": "5c091c93a93aea705c4b702f580be878f71a4d9789f6244db0254430b9c6c7fb",
    }

    @staticmethod
    def _form(label):
        if label == "gf3":
            system = construct_smooth_system(3, 1, 2, 4, 2)
            return system.member([system.field.from_int(c) for c in (1, 2, 1)])
        system = lift_to_char_zero(construct_smooth_system(2, 1, 2, 4, 2))
        return system.member([Fraction(c) for c in (2, -1, 3)])

    @pytest.mark.parametrize("label", sorted(DIGESTS))
    def test_stdout_digest(self, capsys, tmp_path, label):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form_to_json(self._form(label))))
        code, out, _ = run(capsys, ["check", str(path), "--json"])
        assert code == 0 and json.loads(out)["smooth"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[label]


class TestNonCanonicalModulus:
    """A wire field whose modulus is not the canonical one is built once per
    load and shared by every generator."""

    # sha256 of `verify --json`, recorded before descriptors were cached by
    # their modulus
    VERIFY_DIGEST = "41738be4789a5cf8cea10b09c46797831a524b3b3151fb9730cf21459d4bd799"

    @staticmethod
    def _system_path(tmp_path):
        field = FieldDescriptor(2, 3, [1, 0, 1, 1])   # canonical is 1 + u + u^3
        u = field.element([0, 1, 0])
        gens = [HomogeneousForm(field, 2, 3, {(3, 0): field.one(), (1, 2): u}),
                HomogeneousForm(field, 2, 3, {(2, 1): field.one(), (0, 3): u * u}),
                HomogeneousForm(field, 2, 3, {(0, 3): field.one(), (3, 0): u})]
        path = tmp_path / "gf8.json"
        path.write_text(json.dumps(system_to_json(LinearSystemOfForms(gens))))
        return path

    def test_one_descriptor_shared_by_all_generators(self, tmp_path, monkeypatch):
        path = self._system_path(tmp_path)
        built = []
        init = FieldDescriptor.__init__

        def counting_init(desc, *args, **kwargs):
            built.append(args)
            init(desc, *args, **kwargs)

        monkeypatch.setattr(fields, "_DESCRIPTOR_CACHE", {})
        monkeypatch.setattr(FieldDescriptor, "__init__", counting_init)
        system = system_from_json(json.loads(path.read_text()))
        assert fields.field_from_json({"p": 2, "e": 3, "modulus": [3, 0, 1, -1]}) \
            is system.field
        assert built == [(2, 3, [1, 0, 1, 1])]
        assert all(g.field is system.field for g in system.generators)
        assert all(c.field is system.field
                   for g in system.generators for c in g.terms.values())

    def test_verify_json_bytes(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["verify", str(self._system_path(tmp_path)), "--json"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, self.VERIFY_DIGEST)


class TestOracleExtensionBound:
    def _system_file(self, tmp_path, form=GF4_WITNESS_FORM):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_json(LinearSystemOfForms([form]))))
        return str(path)

    def test_bound_below_the_witness_degree_exits_1(self, capsys, tmp_path):
        # --max-ext bounds only the search on smooth members
        code, out, err = run(capsys, ["verify", self._system_file(tmp_path), "--oracle",
                                      "--max-ext", "1"])
        assert (code, err) == (1, "")
        assert "K-smooth: no" in out

    def test_default_bound_confirms_a_degree_5_witness(self, capsys, tmp_path):
        code, out, err = run(capsys, ["verify", self._system_file(tmp_path, GF32_WITNESS_FORM),
                                      "--oracle"])
        assert (code, err) == (1, "")
        assert out == ("0/1 members smooth\n"
                       "member [1] singular at [1:u^3+1] over GF(2^5)\n"
                       "K-smooth: no\n")

    def test_bound_at_the_witness_degree_agrees(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["verify", self._system_file(tmp_path), "--oracle",
                                    "--max-ext", "2"])
        assert code == 1
        assert "K-smooth: no" in out

    def test_missed_witness_within_the_bound_exits_3(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "search_singular_point", lambda form, k: None)
        code, _, err = run(capsys, ["verify", self._system_file(tmp_path), "--oracle",
                                    "--max-ext", "2"])
        assert code == 3
        assert err.startswith("internal error: certificate and search oracle disagree")


class TestLift:
    def test_lift_builtin_example(self, capsys, tmp_path):
        from ksmooth.constructions import builtin_example_f3
        path = tmp_path / "f3.json"
        path.write_text(json.dumps(system_to_json(builtin_example_f3())))
        code, out, _ = run(capsys, ["lift", str(path), "--samples", "6",
                                    "--seed", "1"])
        assert code == 0
        assert "6/6 sampled members smooth" in out

    def test_lift_rejects_extension_field_input(self, capsys, tmp_path):
        from ksmooth.constructions import construct_system_with_details
        res = construct_system_with_details(2, 2, 1, 3, 1)[1]
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(system_to_json(res.system)))
        code, _, err = run(capsys, ["lift", str(path)])
        assert code == 2
        assert "prime" in err


class TestQuadrics:
    def test_random_systems_exit_1_with_witnesses(self, capsys):
        code, out, _ = run(capsys, ["quadrics", "--random", "3", "--k", "1",
                                    "--n", "3", "--seed", "5"])
        assert code == 1
        assert out.count("singular at") == 3

    def test_stored_system(self, capsys, tmp_path):
        gens = [HomogeneousForm(F2, 4, 2,
                                {tuple(2 if j == i else 0 for j in range(4)): F2.one()})
                for i in range(4)]
        from ksmooth.multipoly import LinearSystemOfForms
        path = tmp_path / "q.json"
        path.write_text(json.dumps(system_to_json(LinearSystemOfForms(gens))))
        code, out, _ = run(capsys, ["quadrics", "--system", str(path), "--json"])
        assert code == 1
        obj = json.loads(out)
        assert obj["results"][0]["branch"] == "kernel"

    def test_even_n_rejected(self, capsys):
        code, _, err = run(capsys, ["quadrics", "--random", "1", "--n", "2"])
        assert code == 2
        assert "odd" in err

    @pytest.mark.parametrize("n", ["-1", "-3"])
    def test_negative_n_is_a_usage_error(self, capsys, n):
        code, out, err = run(capsys, ["quadrics", "--random", "1", "--n", n])
        assert (code, out) == (2, "")
        assert err == "error: need at least one variable\n"

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ["quadrics", "--random", "2", "--k", "2", "--n", "1",
                "--seed", "9", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["verify", "/nonexistent/x.json"])
        assert code == 2
        assert err.startswith("error:")


def _run_alone(argv):
    """Exit code, stdout and stderr of the command in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-m", "ksmooth.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout, done.stderr


class TestImportCost:
    def test_no_dataclasses_or_inspect(self):
        # dataclasses imports inspect, which imports dis and tokenize: several
        # ms and about half a MB of every CLI call
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, ksmooth, ksmooth.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert done.stdout.strip() == "[]"


class TestParserReuse:
    def test_calls_in_one_process_match_calls_alone(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(system_to_json(LinearSystemOfForms(
            [GF4_WITNESS_FORM, HomogeneousForm(F2, 2, 4, {(3, 1): F2.one()})]))))
        calls = [["verify", str(path), "--oracle", "--max-ext", "0"],
                 ["verify", str(path), "--json"],
                 ["verify", str(path)]]
        together = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            together.append((code, *capsys.readouterr()))
        assert [code for code, _, _ in together] == [2, 1, 1]
        assert together == [_run_alone(argv) for argv in calls]


class TestPositiveIntFlags:
    @pytest.mark.parametrize("argv", [
        ["lift", "s.json", "--samples", "0"],
        ["verify", "s.json", "--max-ext", "0"],
        ["quadrics", "--random", "0"],
    ])
    def test_non_positive_values_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestNonPrimeCharacteristic:
    @pytest.mark.parametrize("p", ["0", "1"])
    def test_construct_exits_2(self, capsys, p):
        code, _, err = run(capsys, ["construct", "--p", p, "--n", "2", "--d", "3",
                                    "--r", "2"])
        assert code == 2
        assert err == f"error: characteristic {p} is not prime\n"


def _form_json(**changes):
    obj = form_to_json(HomogeneousForm(F2, 3, 2, {(1, 1, 0): F2.one()}))
    obj.update(changes)
    return json.dumps(obj)


def _system_json(**changes):
    obj = system_to_json(LinearSystemOfForms(
        [HomogeneousForm(F2, 3, 2, {(2, 0, 0): F2.one()}),
         HomogeneousForm(F2, 3, 2, {(1, 1, 0): F2.one(), (0, 0, 2): F2.one()})]))
    obj.update(changes)
    return json.dumps(obj)


MALFORMED = {
    "top-level list": ("check", "[]", '"field"'),
    "terms not a list": ("check", _form_json(terms=5), '"terms"'),
    "exps not a list": ("check", _form_json(terms=[{"exps": 5, "coeff": [1]}]),
                        '"exps"'),
    "null coeff": ("check", _form_json(terms=[{"exps": [1, 1, 0], "coeff": None}]),
                   '"coeff"'),
    "scalar coeff over GF(2)": ("check",
                                _form_json(terms=[{"exps": [1, 1, 0], "coeff": 7}]),
                                '"coeff"'),
    "field as a string": ("check", _form_json(field="GF2"), '"field"'),
    "overflowing p": ("check", _form_json().replace('"p": 2', '"p": 1e400'), '"p"'),
    # the message names the bound below which primality is decided exactly
    "p above the primality bound": ("check", _form_json(field={"p": 2 ** 89 - 1}),
                                    "3317044064679887385961981"),
    "string generator": ("verify", _system_json(generators=["x0^2"]), '"field"'),
    "no generators": ("verify", json.dumps({"field": {"p": 2}, "nvars": 3,
                                            "degree": 2}), '"generators"'),
    "alpha not a list": ("verify", _system_json(alpha=5), '"alpha"'),
    "alpha of the wrong length": ("verify", _system_json(alpha=[1, 0]), '"alpha"'),
    "alpha with a string entry": ("verify", _system_json(alpha=[1, "u", 0]), '"alpha"'),
}


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_2_naming_the_key(self, capsys, tmp_path, name):
        command, text, key = MALFORMED[name]
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, [command, str(path)])
        assert code == 2
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err

    def test_seeded_mutations_never_raise(self, capsys, tmp_path):
        rng = random.Random(2024)
        f4 = get_descriptor(2, 2)
        u = f4.element([0, 1])
        bases = [
            ("check", json.loads(_form_json())),
            ("check", form_to_json(HomogeneousForm(f4, 3, 2, {(2, 0, 0): u,
                                                              (0, 1, 1): f4.one()}))),
            ("verify", json.loads(_system_json())),
            ("verify", system_to_json(LinearSystemOfForms(
                [HomogeneousForm(f4, 2, 2, {(2, 0): f4.one(), (1, 1): u}),
                 HomogeneousForm(f4, 2, 2, {(0, 2): u})]))),
        ]
        junk = [None, True, 0, -1, 5, 1.5, "x", [], {}, [1], {"p": 2}]
        path = tmp_path / "mutant.json"
        for _ in range(200):
            command, base = rng.choice(bases)
            doc = json.loads(json.dumps(base))
            for _ in range(rng.randint(1, 2)):
                doc = _mutate(doc, rng, junk)
            path.write_text(json.dumps(doc))
            code, _, err = run(capsys, [command, str(path)])
            assert code in (0, 1, 2), err
            assert "Traceback" not in err


def _mutate(doc, rng, junk):
    """Drop a key, swap a value for one of another type, or change a list's
    length, at a uniformly chosen node of the document."""
    nodes = [(None, None)]
    stack = [doc] if isinstance(doc, (dict, list)) else []
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            nodes.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    parent, key = rng.choice(nodes)
    if parent is None:
        return rng.choice(junk)
    value = parent[key]
    kind = rng.choice(("drop", "swap", "length"))
    if kind == "drop":
        del parent[key]
    elif kind == "swap" or not isinstance(value, list):
        parent[key] = rng.choice(junk)
    elif value and rng.random() < 0.5:
        value.pop()
    else:
        value.append(value[0] if value else 1)
    return doc


class TestInternalErrors:
    def test_budget_exceeded(self, capsys, monkeypatch):
        def stub(system):
            raise BudgetExceeded("pair budget 1 exhausted")
        monkeypatch.setattr(cli, "verify_system_K_smooth", stub)
        code, _, err = run(capsys, ["example", "f3", "--verify"])
        assert (code, err) == (3, "internal error: pair budget 1 exhausted\n")

    def test_witness_not_found(self, capsys, monkeypatch, tmp_path):
        def stub(form):
            raise WitnessNotFoundWithinCap("no witness up to degree 6")
        monkeypatch.setattr(cli, "is_smooth", stub)
        path = tmp_path / "f.json"
        path.write_text(_form_json())
        code, _, err = run(capsys, ["check", str(path)])
        assert (code, err) == (3, "internal error: no witness up to degree 6\n")

    def test_search_witness_failing_evaluation(self, capsys, monkeypatch, tmp_path):
        # [1:0] is no point of GF4_WITNESS_FORM, whose certificate says singular
        monkeypatch.setattr(smoothness, "search_singular_point",
                            lambda form, cap: SingularWitness((F2.one(), F2.zero()), F2))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form_to_json(GF4_WITNESS_FORM)))
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert err.startswith("internal error: the search's witness")
        assert err.rstrip().endswith("fails direct evaluation")

    def test_oracle_disagreement(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(system_to_json(construct_smooth_system(2, 1, 1, 3, 1))))
        monkeypatch.setattr(cli, "search_singular_point", lambda form, k: object())
        code, _, err = run(capsys, ["verify", str(path), "--oracle"])
        assert code == 3
        assert err.startswith("internal error: certificate and search oracle disagree")

    def test_failed_invariant_check(self, capsys, monkeypatch):
        def stub(system):
            raise AssertionError("kernel member failed re-verification")
        monkeypatch.setattr(cli, "char2_find_singular_member", stub)
        code, _, err = run(capsys, ["quadrics", "--random", "1"])
        assert (code, err) == (3, "internal error: kernel member failed re-verification\n")


class TestAlphaSymmetries:
    """`verify` takes the symmetries of a constructed system from its stored
    "alpha": the same bytes, one certificate per orbit, and the full
    enumeration whenever the alpha does not fit."""

    # sha256 of `verify --json` on the (2,2,4,4) construction, recorded with
    # every one of its 341 members certified
    W2244_DIGEST = "51ee030bbc6076eb72f8734b37affe325b4df243da7a5328217793b00ed66a6f"

    @staticmethod
    def _construct(capsys, tmp_path, p, e, n, d, r):
        path = tmp_path / f"s{p}{e}{n}{d}{r}.json"
        code, _, _ = run(capsys, ["construct", "--p", str(p), "--e", str(e), "--n", str(n),
                                  "--d", str(d), "--r", str(r), "-o", str(path)])
        assert code == 0
        return path

    @staticmethod
    def _verify_all(capsys, path):
        return [run(capsys, ["verify", str(path), *flags])[:2]
                for flags in ([], ["--json"], ["--oracle", "--max-ext", "2", "--json"])]

    def test_worst_case_is_one_orbit_with_the_pinned_bytes(self, capsys, tmp_path,
                                                           certified_members):
        path = self._construct(capsys, tmp_path, 2, 2, 4, 4, 4)
        code, out, _ = run(capsys, ["verify", str(path), "--json"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, self.W2244_DIGEST)
        assert len(certified_members) == 1

    @pytest.mark.parametrize("combo, orbits", [((3, 1, 2, 2), 1), ((3, 1, 3, 4), 3)])
    def test_removing_alpha_keeps_the_bytes(self, capsys, tmp_path, certified_members,
                                            combo, orbits):
        path = self._construct(capsys, tmp_path, *combo, combo[2])
        bare = tmp_path / "bare.json"
        obj = json.loads(path.read_text())
        del obj["alpha"]
        bare.write_text(json.dumps(obj))
        with_alpha = self._verify_all(capsys, path)
        assert len(certified_members) == 3 * orbits
        assert self._verify_all(capsys, bare) == with_alpha
        members = json.loads(with_alpha[1][1])["members"]
        assert len(certified_members) == 3 * orbits + 3 * members

    def _assert_falls_back(self, capsys, tmp_path, certified_members, obj):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(obj))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({k: v for k, v in obj.items() if k != "alpha"}))
        code, out, _ = run(capsys, ["verify", str(path), "--json"])
        members = json.loads(out)["members"]
        assert len(certified_members) == members
        assert run(capsys, ["verify", str(bare), "--json"])[:2] == (code, out)
        return code

    @pytest.mark.parametrize("alpha", [[1, 0, 0], [0, 0, 0]])
    def test_non_normal_alpha_falls_back(self, capsys, tmp_path, certified_members, alpha):
        obj = json.loads(self._construct(capsys, tmp_path, 3, 1, 2, 2, 2).read_text())
        obj["alpha"] = alpha
        assert self._assert_falls_back(capsys, tmp_path, certified_members, obj) == 0

    def test_random_system_with_a_constructed_alpha_falls_back(self, capsys, tmp_path,
                                                               certified_members):
        alpha = json.loads(self._construct(capsys, tmp_path, 3, 1, 2, 2, 2).read_text())["alpha"]
        obj = system_to_json(random_system(get_descriptor(3), 3, 2, 3, random.Random(0)))
        obj["alpha"] = alpha
        assert self._assert_falls_back(capsys, tmp_path, certified_members, obj) == 1

    def test_subsystem_falls_back(self, capsys, tmp_path, certified_members):
        obj = json.loads(self._construct(capsys, tmp_path, 2, 1, 4, 4, 2).read_text())
        assert self._assert_falls_back(capsys, tmp_path, certified_members, obj) == 0

    @pytest.mark.parametrize("r, built", [(1, [(3, 1)]), (2, [(3, 1), (3, 3)])])
    def test_only_a_full_system_builds_the_big_field(self, capsys, tmp_path, monkeypatch,
                                                     r, built):
        path = self._construct(capsys, tmp_path, 3, 1, 2, 2, r)
        made = []
        init = FieldDescriptor.__init__

        def counting(desc, p, e=1, *args):
            made.append((p, e))
            init(desc, p, e, *args)

        monkeypatch.setattr(fields, "_DESCRIPTOR_CACHE", {})
        monkeypatch.setattr(fields, "_EMBEDDING_CACHE", {})
        monkeypatch.setattr(FieldDescriptor, "__init__", counting)
        assert run(capsys, ["verify", str(path)])[0] == 0
        assert made == built
        obj = json.loads(path.read_text())
        obj["alpha"] = obj["alpha"][1:]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == 2 and '"alpha"' in err

    def test_seeded_alpha_mutations_never_raise(self, capsys, tmp_path):
        obj = json.loads(self._construct(capsys, tmp_path, 3, 1, 2, 2, 2).read_text())
        path = tmp_path / "mutant.json"
        rng = random.Random(15)
        junk = [None, True, 0, -1, 1.5, "x", [], {}, [1], [1, 2], [0, 0, 0, 0],
                [1, 1, 1], [2, -1, 7], [1, None, 0], [True, 0, 0]]
        for _ in range(40):
            obj["alpha"] = rng.choice(junk) if rng.random() < 0.5 else [
                rng.randint(-3, 5) for _ in range(3)]
            path.write_text(json.dumps(obj))
            code, _, err = run(capsys, ["verify", str(path)])
            assert code in (0, 2), err
            assert "Traceback" not in err
            assert code == 0 or '"alpha"' in err


def _criterion_2_grid():
    for p, e, n, d in itertools.product((2, 3), (1, 2), (1, 2, 3), (2, 3, 4)):
        if gcd(d, n + 1) % p and (p ** e) ** (n + 1) <= 4096:
            yield p, e, n, d


# label -> (exit code, sha256 of stdout); recorded before the algebra core
# was merged, so any change in the printed bytes shows up here
PINNED_STDOUT = {
    "construct 2 1 1 3": (0, "d53e24368f439b05d758349eef8c768370f335ee72649619c70fad8fe6bc7df3"),
    "construct 2 1 2 2": (0, "0444142307914845ec7b358e63af3a1a7ba4c2943becb854822fe61c28558128"),
    "construct 2 1 2 3": (0, "bc1c56750436827fc14f6bd462fab8901f701091087a96687c1b285a4a47d7f1"),
    "construct 2 1 2 4": (0, "56f5bdf7792a164848729754358c218eec23713c50665ce48fae51664e040ac0"),
    "construct 2 1 3 3": (0, "aba50df76b71ab7500b05964fd3b05346dd87f3a9d7a2b5ac3c0c31698194b95"),
    "construct 2 2 1 3": (0, "96996c44558d3c5e2b80787805a56f61498829fd350767e19d0c4fbac55d05c1"),
    "construct 2 2 2 2": (0, "d7b7191e473d9afaa57592cce53288f1854f2b9b05059d1ffcabd58399505a86"),
    "construct 2 2 2 3": (0, "528526fcff9cec8c95adcd39a6ba198d298cb57b29f5b8999d9f992deac8ec12"),
    "construct 2 2 2 4": (0, "9300660a31cde2f10ceb81be2879ad398ae9bc26ac20a6b55dd7f04609c96ea9"),
    "construct 2 2 3 3": (0, "919ec809a527627d0851093df42e97c81e651fd2f745ffb97b40d5ca76c35ca3"),
    "construct 3 1 1 2": (0, "52bd53719c242563bc66eea562afef3be4520cfc00cecf14f8d4986734528bfb"),
    "construct 3 1 1 3": (0, "b1801a97ceaebeea685b96156c4a2a261bb139b2f6e538005299bf281e72c117"),
    "construct 3 1 1 4": (0, "8962d5875b9a4be1c13791017d21057274de611cb43ac1d510378b8a23883683"),
    "construct 3 1 2 2": (0, "80eeae6049c291769816fcef5a85ebc1640e6903b5751f4e919cd02d6894ae11"),
    "construct 3 1 2 4": (0, "548b6c20ae79a98faac7d8f0ae49a0119d0a2091ed8099b9cd3044d077f0f5d4"),
    "construct 3 1 3 2": (0, "c6bc15bdfdadeda49a550fbb417eeb181053993f3e029c72423ed21f30c64cd4"),
    "construct 3 1 3 3": (0, "400ba489a13a5fd46dbeb05dc4e7c8163ade9dafc96db956ebdcb1a853fb9cc0"),
    "construct 3 1 3 4": (0, "e701ab52ddca87285663643dd55f2891e00fe1bf72f24ebb7485bf37c9c6a53d"),
    "construct 3 2 1 2": (0, "f10608d26d704540d246457052afe3bf395b97e85eeff550faa17b9ddb434b02"),
    "construct 3 2 1 3": (0, "bebe92826be127c97275e33b473ae7b0f9468b54d0d50be719c95b8ee1f6094f"),
    "construct 3 2 1 4": (0, "633065527755ea303e7fe7a3d9c7d615c47e8795a486dad2156c6147d61a53fe"),
    "construct 3 2 2 2": (0, "07e78313919a27e07b49ce4fa7c9a0c49ec9abf3521bfb3b29230a9112c6fbaf"),
    "construct 3 2 2 4": (0, "8fa3f9e2326019a1cefd0602c43c0090c69e2b69162f7941b383688ca1d05af0"),
    "example f3": (0, "6de1d5f88c51ec78cc00efa08b0e231b96ae4c58768c7bb1f2a9d930075f23f3"),
    "quadrics": (1, "bec3df1dedf1c9d5494571073eadf1658380466e5f40d862490b3d0fe9b0b01b"),
    "check gf4": (1, "8753c0f3726767eb748465560b96d9da7fecec814e6ab73dd681121b74d1170d"),
    "verify gf4": (1, "02e13cb397da099853b4b2b86d91a8816fec2a374e17c41a4101697ef19b9b6a"),
    "lift 3 1 1 2": (0, "e1f3a67ab770426d91046661fcf60bdff8be70905da4acf5b007fbf81bc4362d"),
}


class TestPinnedOutput:
    def test_stdout_digests(self, capsys, tmp_path):
        form_path = tmp_path / "gf4.json"
        form_path.write_text(json.dumps(form_to_json(GF4_WITNESS_FORM)))
        system_path = tmp_path / "gf4_system.json"
        system_path.write_text(json.dumps(system_to_json(
            LinearSystemOfForms([GF4_WITNESS_FORM]))))
        lift_path = tmp_path / "lift.json"
        lift_path.write_text(json.dumps(system_to_json(
            construct_smooth_system(3, 1, 1, 2, 1))))
        commands = {}
        for p, e, n, d in _criterion_2_grid():
            commands[f"construct {p} {e} {n} {d}"] = [
                "construct", "--p", str(p), "--e", str(e), "--n", str(n),
                "--d", str(d), "--r", str(n), "--json"]
        commands["example f3"] = ["example", "f3", "--verify", "--json"]
        commands["quadrics"] = ["quadrics", "--random", "5", "--k", "2", "--n", "3",
                                "--seed", "0", "--json"]
        commands["check gf4"] = ["check", str(form_path), "--json"]
        commands["verify gf4"] = ["verify", str(system_path), "--oracle",
                                  "--max-ext", "2", "--json"]
        commands["lift 3 1 1 2"] = ["lift", str(lift_path), "--samples", "3", "--json"]
        got = {}
        for label, argv in commands.items():
            code, out, _ = run(capsys, argv)
            got[label] = (code, hashlib.sha256(out.encode()).hexdigest())
        assert got == PINNED_STDOUT


class TestJsonWriter:
    """`cli._dumps`, the one indent-2 writer of stdout and `construct -o`,
    against json.dumps(obj, indent=2)."""

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}]}, [[[]], [{}]],
        [-1, 0, -2 ** 70, 3], [True, False, None], {"t": True, "f": False, "n": None},
        {"s": "quote \" backslash \\ newline \n tab \t e-acute é ctrl \x01"},
        ["☃", "", "x"], {"n": -5, "k": [1, {"m": [-1, []]}]}, ("a", 1), 7, -3, "s", None,
        {"é \n": [{}]},
    ], ids=repr)
    def test_matches_json_dumps(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    def test_every_subcommand(self, capsys, monkeypatch, tmp_path):
        seen = []
        real = cli._dumps

        def checked(obj, depth=0):
            out = real(obj, depth)
            if not depth:
                seen.append(obj)
                assert out == json.dumps(obj, indent=2)
            return out
        monkeypatch.setattr(cli, "_dumps", checked)
        system = tmp_path / "sys.json"
        form = tmp_path / "form.json"
        form.write_text(json.dumps(form_to_json(GF4_WITNESS_FORM)))
        singular = tmp_path / "singular.json"
        singular.write_text(json.dumps(system_to_json(LinearSystemOfForms([GF4_WITNESS_FORM]))))
        commands = [
            ["construct", "--p", "2", "--n", "2", "--d", "3", "--r", "2", "-o", str(system),
             "--json"],
            ["verify", str(system), "--json"],
            ["verify", str(singular), "--oracle", "--max-ext", "2", "--json"],
            ["check", str(form), "--json"],
            ["lift", str(system), "--samples", "2", "--json"],
            ["quadrics", "--random", "2", "--k", "1", "--n", "3", "--seed", "0", "--json"],
            ["example", "f3", "--verify", "--json"],
        ]
        for argv in commands:
            code, out, err = run(capsys, argv)
            assert code in (0, 1) and not err, argv
            assert out == json.dumps(seen[-1], indent=2) + "\n"
        # -o and --json write the same object
        assert system.read_text() == json.dumps(seen[0], indent=2) + "\n"
        assert len(seen) == len(commands) + 1
