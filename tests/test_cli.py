import json

import pytest

from ncbinom import cli
from ncbinom.binomial import free_pair, twisted_expand, weyl_triple
from ncbinom.cli import build_parser, main
from ncbinom.freealg import Algebra, NCPoly
from ncbinom.rewrite import BudgetExceededError
from ncbinom.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text_free(capsys):
    code, out, err = run(capsys, "expand", "--n", "1", "--method", "brute")
    assert code == 0
    assert out == "A + B | oracle_match: true\n"
    assert err == ""


def test_expand_text_theorem1(capsys):
    code, out, _ = run(capsys, "expand", "--n", "3", "--method", "theorem1")
    assert code == 0
    assert out.endswith("| oracle_match: true\n")


def test_expand_text_closed_weyl(capsys):
    code, out, _ = run(capsys, "expand", "--n", "2", "--method", "closed_weyl")
    assert code == 0
    assert out == "M-basis: M_2 + C | oracle_match: true\n"

    code, out, _ = run(capsys, "expand", "--n", "4", "--method", "closed_weyl")
    assert code == 0
    assert out == "M-basis: M_4 + 6*C*M_2 + 3*C^2 | oracle_match: true\n"


def test_expand_json_free(capsys):
    code, out, _ = run(
        capsys, "expand", "--n", "3", "--method", "theorem1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["method"] == "theorem1"
    assert doc["relation"] is None
    assert doc["oracle_match"] is True
    result = NCPoly.from_json(free_pair(), doc["result"])
    assert result == twisted_expand(3)


def test_expand_json_closed_weyl(capsys):
    code, out, _ = run(
        capsys, "expand", "--n", "3", "--method", "closed_weyl", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "weyl"
    algebra = weyl_triple()
    result = NCPoly.from_json(algebra, doc["result"])
    c = algebra.gen("C")
    a = algebra.gen("A")
    b = algebra.gen("B")
    m3 = a ** 3 + 3 * a * a * b + 3 * a * b * b + b ** 3
    assert result == m3 + 3 * a * c + 3 * b * c


def test_expand_with_relation_quotient(capsys):
    code, out, _ = run(
        capsys, "expand", "--n", "4", "--method", "theorem1", "--relation", "hsq"
    )
    assert code == 0
    assert out.endswith("| oracle_match: true\n")


def test_expand_incompatible_relation(capsys):
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "closed_hsq",
        "--relation", "commutative",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_expand_negative_n(capsys):
    code, _, err = run(capsys, "expand", "--n", "-1", "--method", "brute")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (("hermite", "--n", "-1"), "n must be non-negative"),
    (("gamma", "--n", "-2"), "n must be non-negative"),
    (("exp-check", "--order", "-1"), "order must be non-negative"),
    (("verify", "--max-n", "-1"), "max_n must be non-negative"),
])
def test_negative_sizes_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("error", [KeyError("x"), TypeError("x")])
def test_engine_fault_is_not_a_usage_error(monkeypatch, error):
    # Only input faults become exit 2; a fault inside an engine leaves main.
    def broken(*args):
        raise error

    monkeypatch.setattr(cli, "expansion_report", broken)
    with pytest.raises(type(error)):
        main(["expand", "--n", "2", "--method", "brute"])


def test_budget_exhaustion_exits_1(capsys, monkeypatch):
    # A budget that runs out is not a usage error: README promises exit 1.
    def exhausted(*args):
        raise BudgetExceededError(10, 10, "B*A")

    monkeypatch.setattr(cli, "expansion_report", exhausted)
    code, out, err = run(capsys, "expand", "--n", "2", "--method", "brute")
    assert (code, out) == (1, "")
    assert err == "error: budget of 10 rule applications too small for this input\n"


def test_expand_bad_method_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expand", "--n", "2", "--method", "magic"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_main_reuses_one_parser(capsys, monkeypatch):
    assert build_parser() is not build_parser()
    with pytest.raises(SystemExit) as info:
        main(["expand", "--n", "2"])
    assert info.value.code == 2
    capsys.readouterr()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    argv = ["expand", "--n", "5", "--method", "closed_hsq", "--format", "json"]
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["oracle_match"] is True
    assert built == []


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_failure_prints_the_counterexample(capsys, monkeypatch):
    results = [
        CheckResult("weyl/ok", True, "n<=2"),
        CheckResult("weyl/bad", False, "n=3 differs", {"n": 3, "got": "A"}),
        CheckResult("weyl/later", False, "n=4 differs", {"n": 4}),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda suite, max_n, seed: results)
    code, out, err = run(capsys, "verify", "--suite", "weyl")
    assert (code, err) == (1, "")
    assert out == (
        "PASS weyl/ok: n<=2\n"
        "FAIL weyl/bad: n=3 differs\n"
        "FAIL weyl/later: n=4 differs\n"
        "1/3 checks passed\n"
        '{"n":3,"got":"A"}\n'
    )


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "statements", "--max-n", "2", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_changes_cases(capsys):
    # same checks, same verdicts; the detail lines stay stable by design
    _, out1, _ = run(capsys, "verify", "--suite", "exp", "--max-n", "3")
    _, out2, _ = run(capsys, "verify", "--suite", "exp", "--max-n", "3",
                     "--seed", "99")
    assert out1 == out2


def test_hermite_text(capsys):
    code, out, _ = run(capsys, "hermite", "--n", "3")
    assert code == 0
    assert out == "1\nx\nx^2 - 1\nx^3 - 3*x\n"


def test_hermite_json(capsys):
    code, out, _ = run(capsys, "hermite", "--n", "2", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"coeffs": {"0": "1"}},
        {"coeffs": {"1": "1"}},
        {"coeffs": {"2": "1", "0": "-1"}},
    ]


@pytest.mark.parametrize("path", ["operator", "recurrence_oracle", "explicit_sum"])
def test_hermite_path_disagreement_fails(capsys, monkeypatch, path):
    # one generation path goes wrong at degree 2: nothing is printed on stdout
    import ncbinom.verify as verify
    from ncbinom.diffop import Poly1

    def off_at_two(value, k):
        return value + Poly1.x_power(5) if k == 2 else value

    name = {"operator": "hermite_sequence", "recurrence_oracle": "_hermite_recurrence",
            "explicit_sum": "_hermite_explicit_sum"}[path]
    original = getattr(verify, name)
    if path == "explicit_sum":
        monkeypatch.setattr(verify, name, lambda k: off_at_two(original(k), k))
    else:
        monkeypatch.setattr(verify, name, lambda n: [
            off_at_two(value, k) for k, value in enumerate(original(n))])
    code, out, err = run(capsys, "hermite", "--n", "4")
    assert code == 1
    assert out == ""
    assert err == "error: generation paths disagree at n=2\n"


def test_gamma_lines(capsys):
    code, out, _ = run(capsys, "gamma", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma_0 = 1 | h=0: 1 | h=1: 1"
    assert lines[2] == "gamma_2 = 1 + h | h=0: 1 | h=1: 2"
    assert lines[3] == "gamma_3 = 1 + 3*h + 2*h^2 | h=0: 1 | h=1: 6"


def test_exp_check(capsys):
    code, out, _ = run(capsys, "exp-check", "--order", "4")
    assert code == 0
    assert out == (
        "PASS factored: defect 0 through total degree 4\n"
        "PASS split: defect 0 through total degree 4\n"
    )


def test_user_relation_file(capsys, tmp_path):
    algebra_doc = {
        "alphabet": [
            {"name": "A"},
            {"name": "B"},
            {"name": "C", "central": True},
        ],
        "rules": [
            {
                "pair": ["B", "A"],
                "replacement": {
                    "terms": [
                        {"coeff": "1", "word": ["A", "B"]},
                        {"coeff": "2", "word": ["C"]},
                    ]
                },
            }
        ],
    }
    path = tmp_path / "doubled_weyl.json"
    path.write_text(json.dumps(algebra_doc))
    code, out, _ = run(
        capsys, "expand", "--n", "3", "--method", "theorem1",
        "--relation", str(path),
    )
    assert code == 0
    assert out.endswith("| oracle_match: true\n")


def test_relation_file_without_a_and_b(capsys, tmp_path):
    doc = {"alphabet": [{"name": "X"}, {"name": "Y"}],
           "rules": [{"pair": ["Y", "X"], "replacement": {
               "terms": [{"coeff": "1", "word": ["X", "Y"]}]}}]}
    path = tmp_path / "xy.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "brute", "--relation", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: the relation system must declare generators A and B\n"


def test_missing_relation_file(capsys):
    code, _, err = run(
        capsys, "expand", "--n", "2", "--method", "brute",
        "--relation", "/nonexistent/system.json",
    )
    assert code == 2
    assert "error:" in err


def test_relation_path_is_a_directory(capsys, tmp_path):
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "brute", "--relation", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 21] Is a directory")


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{not json"])
def test_relation_file_not_utf8_json(capsys, tmp_path, content):
    path = tmp_path / "garbled.json"
    path.write_bytes(content)
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "brute", "--relation", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed system file: not UTF-8 JSON: ")


def test_expand_closed_hsq_past_old_budget(capsys):
    code, out, err = run(capsys, "expand", "--n", "10", "--method", "closed_hsq")
    assert code == 0
    assert out.endswith("| oracle_match: true\n")
    assert err == ""


def test_malformed_relation_file(capsys, tmp_path):
    path = tmp_path / "no_alphabet.json"
    path.write_text(json.dumps({"rules": []}))
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "brute", "--relation", str(path),
    )
    assert code == 2
    assert out == ""
    assert err == 'error: malformed system file: missing "alphabet"\n'


def test_alphabet_name_not_a_string_in_relation_file(capsys, tmp_path):
    path = tmp_path / "numeric_name.json"
    path.write_text(json.dumps({"alphabet": [{"name": 5}, {"name": "B"}], "rules": []}))
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "brute", "--relation", str(path),
    )
    assert code == 2
    assert out == ""
    assert err == 'error: malformed system file: alphabet entry 0 "name" must be a string\n'


def test_numeric_coeff_in_relation_file(capsys, tmp_path):
    replacement = {"terms": [{"coeff": 1, "word": ["A", "B"]}]}
    doc = {"alphabet": [{"name": "A"}, {"name": "B"}],
           "rules": [{"pair": ["B", "A"], "replacement": replacement}]}
    path = tmp_path / "numeric_coeff.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "expand", "--n", "2", "--method", "brute", "--relation", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed system file: rules entry 0 replacement ")


def test_central_letter_declared_late_sorts_first(capsys, tmp_path):
    # An algebra lists its central letters first, whatever the declaration
    # order, and terms of one length sort by that order.
    late = Algebra("A", "B", "C", central=("C",))
    assert [g.name for g in late.generators] == ["C", "A", "B"]
    assert repr(late) == "Algebra(C*, A, B)"
    assert late == Algebra("C", "A", "B", central=("C",))
    a, b, c = (late.gen(name) for name in "ABC")
    assert (a * b + c * a).text() == "C*A + A*B"
    assert [t["word"] for t in (a * b + c * a).to_json()["terms"]] == [["C", "A"], ["A", "B"]]

    # The CLI prints A/B words, so its order changes only when exactly one
    # of A and B is central and declared after the other.
    path = tmp_path / "a_central_last.json"
    path.write_text(json.dumps({"alphabet": [{"name": "B"}, {"name": "A", "central": True}],
                                "rules": []}))
    code, out, _ = run(capsys, "expand", "--n", "2", "--method", "brute",
                       "--relation", str(path))
    assert code == 0
    assert out == "A^2 + A*B + B*A + B^2 | oracle_match: true\n"
