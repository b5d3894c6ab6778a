"""Command-line driver tests: subcommands, exit codes, JSON round trips,
byte-level determinism, and malformed or fuzzed wire input."""

import json
import random

import pytest

from ksmooth import cli
from ksmooth.cli import main
from ksmooth.constructions import construct_smooth_system
from ksmooth.errors import BudgetExceeded, WitnessNotFoundWithinCap
from ksmooth.multipoly import form_to_json, system_from_json, system_to_json
from ksmooth.smoothness import verify_system_K_smooth
from ksmooth.fields import get_descriptor
from ksmooth.multipoly import HomogeneousForm, LinearSystemOfForms


F2 = get_descriptor(2)


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
        from ksmooth.constructions import construct_fermat_system
        res = construct_fermat_system(2, 2, 1, 3)
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
    "string generator": ("verify", _system_json(generators=["x0^2"]), '"field"'),
    "no generators": ("verify", json.dumps({"field": {"p": 2}, "nvars": 3,
                                            "degree": 2}), '"generators"'),
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
