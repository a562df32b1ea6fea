import json

import pytest

from ncbinom.binomial import free_pair, twisted_expand, weyl_triple
from ncbinom.cli import main
from ncbinom.freealg import NCPoly


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
])
def test_negative_sizes_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_expand_bad_method_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expand", "--n", "2", "--method", "magic"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


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
