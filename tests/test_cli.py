"""Command line behaviour: golden text, JSON shape, exit codes."""

import json
import sys
from math import comb

import pytest

from k3count import PlanarPQ, Route
from k3count.cli import main

GOLDEN_MODULES_35 = """\
gaps={0,1,2,3} gens={4,5,6}
gaps={0,1,2,4} gens={3,5,7}
gaps={0,1,2,5} gens={3,4}
gaps={0,1,3,4} gens={2,6}
gaps={0,1,3,6} gens={2,4}
gaps={0,2,3,5} gens={1,8}
gaps={1,2,4,7} gens={0}
count=7
"""


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_verify_output(capsys, argv, eps, method, verify):
    """``argv`` prints exactly these lines as text and this payload as JSON."""
    lines = [f"epsilon = {eps}", f"method = {method}"]
    if verify.get("skipped"):
        lines.append(f"verified = skipped ({verify['reason']})")
    else:
        lines += [
            f"verify-method = {verify['method']}",
            f"verify-value = {verify['value']}",
            "verified = true",
        ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)

    token = argv[argv.index("epsilon") + 1]
    payload = {"token": token, "epsilon": eps, "method": method, "verify": verify}
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


class TestEg:
    def test_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "eg", "3")
        assert code == 0
        assert out == "0\t1\n1\t24\n2\t324\n3\t3200\n"

    def test_genus_zero_convention(self, capsys):
        code, out, _ = run_cli(capsys, "eg", "0")
        assert code == 0
        assert out == "0\t1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "eg", "3", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"g": 0, "e": 1},
            {"g": 1, "e": 24},
            {"g": 2, "e": 324},
            {"g": 3, "e": 3200},
        ]

    def test_global_flag_before_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "eg", "1")
        assert code == 0
        assert json.loads(out)[1]["e"] == 24

    def test_malformed_gmax_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eg", "abc")
        assert code == 2
        assert "usage" in err

    def test_negative_gmax_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eg", "--", "-3")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (("eg", "abc"), "argument gmax: expected an integer, got 'abc'"),
        (("eg", "--", "-3"), "argument gmax: expected a non-negative integer, got -3"),
    ])
    def test_usage_messages(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("eg", "\u0663"),
        ("eg", "+3"),
        ("eg", "1_0"),
        ("eg", " 3"),
        ("--max-window", "\u0661", "eg", "1"),
        ("eg", "1", "--max-window", "+1"),
        ("check", "curves.txt", "--g", "+1"),
    ])
    def test_integers_follow_the_sg_token_syntax(self, capsys, argv):
        # int() takes a sign, underscores, spaces and non-ASCII digits
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "expected an integer, got " in err

    def test_gmax_past_the_index_size_is_domain_error(self, capsys):
        # the coefficient list, allocated before any work, cannot be this long
        code, out, err = run_cli(capsys, "eg", "9999999999999999999999999")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_argument(self, capsys):
        code, _, _ = run_cli(capsys, "eg")
        assert code == 2


@pytest.fixture
def default_int_str_limit():
    """CPython's default int-to-str digit limit for one test, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


class TestEpsilon:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "epsilon", "pq(3,5)")
        assert code == 0
        assert out == "epsilon = 7\nmethod = closed-form\n"

    def test_value_past_int_str_limit(self, capsys, default_int_str_limit):
        # 4811 digits, past the default limit of 4300
        code, out, err = run_cli(capsys, "epsilon", "pq(8000,8001)")
        code_json, out_json, _ = run_cli(capsys, "epsilon", "pq(8000,8001)", "--json")
        eps = comb(16001, 8000) // 16001
        assert (code, err) == (0, "")
        assert out == f"epsilon = {eps}\nmethod = closed-form\n"
        assert code_json == 0
        assert json.loads(out_json)["epsilon"] == eps

    def test_ade(self, capsys):
        code, out, _ = run_cli(capsys, "epsilon", "A3")
        assert code == 0
        assert out.startswith("epsilon = 1\n")

    # Full stdout of ``epsilon --verify``, text and JSON, for each way a
    # check can end.

    def test_verify_pq_against_enumeration(self, capsys):
        assert_verify_output(
            capsys, ("epsilon", "pq(3,5)", "--verify"), 7, "closed-form",
            {"method": "enumeration", "value": 7, "agrees": True},
        )

    def test_verify_semigroup_against_closed_form(self, capsys):
        assert_verify_output(
            capsys, ("epsilon", "sg(4,5)", "--verify"), 14, "enumeration",
            {"method": "closed-form", "value": 14, "agrees": True},
        )

    def test_verify_json_shape(self, capsys):
        assert_verify_output(
            capsys, ("epsilon", "E8", "--verify"), 7, "ade-table",
            {"method": "branch-product", "value": 7, "agrees": True},
        )

    def test_verify_branches_per_branch(self, capsys):
        assert_verify_output(
            capsys, ("epsilon", "branches[pq(2,3);A2]", "--verify"), 4, "branch-product",
            {"method": "per-branch", "value": 4, "agrees": True},
        )

    def test_verify_window_cap_reports_skipped(self, capsys):
        assert_verify_output(
            capsys, ("--max-window", "5", "epsilon", "branches[A2;pq(3,5)]", "--verify"),
            14, "branch-product",
            {"skipped": True, "reason": "enumeration window 11 exceeds max-window 5"},
        )

    @pytest.mark.parametrize("token,eps", [("sg(2,4,5)", 3), ("sg(3,5,10)", 7)])
    def test_verify_semigroup_typed_with_redundant_generators(self, capsys, token, eps):
        # <2,4,5> = <2,5> and <3,5,10> = <3,5> have closed forms
        assert_verify_output(
            capsys, ("epsilon", token, "--verify"), eps, "enumeration",
            {"method": "closed-form", "value": eps, "agrees": True},
        )

    @pytest.mark.parametrize("token", ["sg(1)", "sg(1,2)", "sg(1,5)"])
    def test_verify_smooth_semigroup_against_closed_form(self, capsys, token):
        # <1> is the smooth point, whose closed form is pq(1,1) = 1
        assert_verify_output(
            capsys, ("epsilon", token, "--verify"), 1, "enumeration",
            {"method": "closed-form", "value": 1, "agrees": True},
        )

    def test_verify_disagreement_is_domain_error(self, capsys, monkeypatch):
        # a check that disagrees prints both values and exits 1
        monkeypatch.setattr(
            PlanarPQ, "verify", lambda self, max_window=None: Route("enumeration", 8)
        )
        code, out, _ = run_cli(capsys, "epsilon", "pq(3,5)", "--verify")
        assert code == 1
        assert out.endswith("verify-method = enumeration\nverify-value = 8\nverified = false\n")
        code, out, _ = run_cli(capsys, "epsilon", "pq(3,5)", "--verify", "--json")
        assert code == 1
        assert json.loads(out)["verify"] == {"method": "enumeration", "value": 8, "agrees": False}

    def test_verify_skipped_for_wide_semigroup(self, capsys):
        assert_verify_output(
            capsys, ("epsilon", "sg(4,6,9)", "--verify"), 17, "enumeration",
            {"skipped": True, "reason": "no independent closed form for this semigroup"},
        )

    def test_gcd_failure_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "epsilon", "pq(4,6)")
        assert code == 1
        assert "coprime" in err

    def test_parse_failure_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "epsilon", "bogus")
        assert code == 2
        assert "error" in err

    def test_invalid_ade_index_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "epsilon", "D3")
        assert code == 1

    def test_non_positive_exponent_is_domain_error(self, capsys):
        assert run_cli(capsys, "epsilon", "pq(0,1)") == (
            1, "", "error: p and q must be positive, got (0, 1)\n"
        )

    @pytest.mark.parametrize("token", [
        "sg(99999999999999999999,100000000000000000000)",
        "pq(99999999999999999999,100000000000000000000)",
        "sg(2,99999999999999999999)",
    ], ids=["apery-table", "binomial", "enumeration-window"])
    def test_number_past_the_index_size_is_domain_error(self, capsys, token):
        # each raises OverflowError before building anything large
        code, out, err = run_cli(capsys, "epsilon", token)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestModules:
    def test_golden_listing(self, capsys):
        code, out, _ = run_cli(capsys, "modules", "3,5")
        assert code == 0
        assert out == GOLDEN_MODULES_35

    def test_trivial_semigroup(self, capsys):
        code, out, _ = run_cli(capsys, "modules", "1")
        assert code == 0
        assert out == "gaps={} gens={0}\ncount=1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "modules", "2,3", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"gaps": [0], "generators": [1, 2]},
            {"gaps": [1], "generators": [0]},
        ]

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "modules", "3,5", "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_gcd_failure(self, capsys):
        code, _, err = run_cli(capsys, "modules", "2,4")
        assert code == 1
        assert "gcd" in err

    def test_malformed_generator_list(self, capsys):
        code, _, _ = run_cli(capsys, "modules", "3,x")
        assert code == 2

    @pytest.mark.parametrize("generators", ["+3,5", "\u0663,5"])
    def test_generators_follow_the_sg_token_syntax(self, capsys, generators):
        # int() takes a sign and non-ASCII digits; the mini-language does not,
        # and both commands reject the list with one message
        code, out, err = run_cli(capsys, "modules", generators)
        assert (code, out) == (2, "")
        assert err == (
            f"error: expected a comma-separated integer list in {generators!r}\n"
        )
        token = f"sg({generators})"
        assert run_cli(capsys, "epsilon", token) == (2, "", (
            f"error: expected a comma-separated integer list in {token!r}\n"
        ))


class TestMultiplicity:
    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "E8,node,node")
        assert code == 0
        assert out.endswith("multiplicity = 7\n")

    def test_breakdown_lines(self, capsys):
        _, out, _ = run_cli(capsys, "multiplicity", "E8,node")
        assert out.splitlines() == [
            "E8: epsilon = 7",
            "branches[pq(1,1);pq(1,1)]: epsilon = 1",
            "multiplicity = 7",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "A4,pq(2,5)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity"] == 9
        assert [s["epsilon"] for s in payload["singularities"]] == [3, 3]


# 100 levels of nesting, the cap planned for the parser: evaluating and
# rendering recurse once per level as parsing does, and must answer here.
DEEP_TOKEN = "branches[" * 100 + "pq(2,3);A1" + "]" * 100


class TestDeepToken:
    @pytest.mark.parametrize("argv", [
        ("epsilon", DEEP_TOKEN),
        ("epsilon", DEEP_TOKEN, "--verify"),
        ("--json", "epsilon", DEEP_TOKEN, "--verify"),
        ("multiplicity", DEEP_TOKEN),
        ("--json", "multiplicity", DEEP_TOKEN),
    ], ids=["epsilon", "verify", "verify-json", "multiplicity", "multiplicity-json"])
    def test_depth_100_answers(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if "--json" not in argv:
            assert out.splitlines()[0] in ("epsilon = 2", f"{DEEP_TOKEN}: epsilon = 2")
            return
        payload = json.loads(out)
        sing = payload["singularities"][0] if "singularities" in payload else payload
        assert (sing["token"], sing["epsilon"]) == (DEEP_TOKEN, 2)


class TestCheck:
    def test_match_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "curves.txt"
        path.write_text("node\n" * 24, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path), "--g", "1")
        assert code == 0
        assert "sum = 24" in out
        assert "equal = true" in out

    def test_mismatch_exits_three(self, tmp_path, capsys):
        path = tmp_path / "curves.txt"
        path.write_text("node\n" * 323, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path), "--g", "2")
        assert code == 3
        assert "sum = 323" in out
        assert "expected = 324" in out
        assert "equal = false" in out

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "curves.txt"
        path.write_text("pq(1,1)\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path), "--g", "0", "--json")
        assert code == 0
        assert json.loads(out) == {
            "curves": 1, "sum": 1, "expected": 1, "equal": True,
        }

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "check", "/nonexistent/curves.txt", "--g", "1")
        assert code == 2

    def test_bad_line_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "curves.txt"
        path.write_text("node\nwhat\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "check", str(path), "--g", "1")
        assert code == 2

    @pytest.mark.parametrize("text,code,message", [
        ("node\nfoo\n", 2, "line 2: unrecognized singularity token at 'foo'"),
        ("node\nnode\npq(4,6)\n", 1, "line 3: p and q must be coprime, got gcd(4, 6) = 2"),
    ], ids=["syntax", "domain"])
    def test_error_names_the_line(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "curves.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "check", str(path), "--g", "1") == (code, "", f"error: {message}\n")

    def test_undecodable_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "curves.txt"
        path.write_bytes(b"node # caf\xe9\n")
        code, out, err = run_cli(capsys, "check", str(path), "--g", "0")
        assert code == 2
        assert out == ""
        assert "utf-8" in err

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        path = tmp_path / "curves.txt"
        path.write_text("# header\n\nnode # inline\n" + "node\n" * 23, encoding="utf-8")
        code, _, _ = run_cli(capsys, "check", str(path), "--g", "1")
        assert code == 0


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestStdoutFailure:
    @pytest.mark.parametrize("argv", [("eg", "3"), ("--json", "modules", "3,5")])
    def test_write_failure_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("eg", "6"),
        ("modules", "3,5"),
        ("epsilon", "sg(4,5)", "--verify"),
        ("multiplicity", "E8,node,node"),
        ("eg", "6", "--json"),
        ("modules", "3,5", "--json"),
    ])
    def test_repeat_invocations_are_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
