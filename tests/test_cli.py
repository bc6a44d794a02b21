"""End-to-end tests of the command line interface."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdisc
from qdisc.cli import main


def run_cli(*argv, stdin_text=None):
    buf = io.StringIO()
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(buf):
                code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        with redirect_stdout(buf):
            code = main(list(argv))
    out = buf.getvalue()
    return code, (json.loads(out) if out.strip() else None)


def test_pk_zero():
    code, payload = run_cli("pk", "0")
    assert code == 0
    assert payload == {"schema": 1, "k": 0, "coefficients": ["1"]}


def test_pk_one():
    code, payload = run_cli("pk", "1")
    assert code == 0
    assert payload["coefficients"] == ["1", "1 - s^4"]


def test_star_command():
    code, payload = run_cli("star", "zs", "z", "--order", "1")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["order"] == 1
    t0 = dict((tuple(jk), c) for jk, c in payload["terms"][0])
    assert t0 == {(0, 0): "1 - s^4", (1, 1): "s^4"}
    t1 = payload["terms"][1]
    assert t1  # the deformation term is present


def test_star_of_holomorphic_is_flat():
    code, payload = run_cli("star", "z^2", "z", "--order", "3")
    assert code == 0
    assert payload["terms"][0] == [[[3, 0], "1"]]
    assert all(term == [] for term in payload["terms"][1:])


def test_box_command():
    code, payload = run_cli("box", "zs*z")
    assert code == 0
    keys = [tuple(jk) for jk, _ in payload["result"]]
    assert keys == [(0, 0), (1, 1), (2, 2)]


def test_dpartial_command():
    code, payload = run_cli("dpartial", "z^2", "--side", "right", "--variable", "z")
    assert code == 0
    assert payload["result"] == [[[1, 0], "1 + s^4"]]


def test_ck_command():
    code, payload = run_cli("ck", "1", "z", "zs")
    assert code == 0
    assert payload["k"] == 1


def test_berezin_command():
    code, payload = run_cli("berezin", "1", "1", "--order", "2")
    assert code == 0
    assert payload["window"] == 6
    entries = {tuple(jk): coeffs for jk, coeffs in payload["entries"]}
    assert entries[(0, 0)] == ["1 - s^4", "s^4 - s^8", "s^8 - s^12"]
    assert "warning" not in payload


def test_berezin_warning_at_validity_boundary():
    # cutoff 7 with one raising factor leaves exactly the 6 columns the window needs
    code, payload = run_cli("berezin", "1", "1", "--order", "1", "--cutoff", "7", "--window", "6")
    assert code == 0
    assert "warning" in payload


def test_berezin_insufficient_cutoff_is_error():
    code, payload = run_cli("berezin", "1", "1", "--order", "1", "--cutoff", "4", "--window", "6")
    assert code == 2
    assert payload["error"]["type"] == "InsufficientCutoffError"


def test_berezin_expand_command():
    code, payload = run_cli("berezin-expand", "2", "0", "--terms", "2")
    assert code == 0
    assert payload["terms"][0] == [[[0, 2], "1"]]
    assert payload["terms"][1] == []


def test_eval_expression():
    code, payload = run_cli("eval", "q^2", "--s0", "1/2")
    assert code == 0
    assert payload["terms"] == [[[0, 0], "1/16"]]


def test_eval_stdin_json():
    doc = json.dumps({"terms": [[[[0, 0], "1 - s^4"]]]})
    code, payload = run_cli("eval", "--s0", "1/2", stdin_text=doc)
    assert code == 0
    assert payload["instantiated"]["terms"][0][0][1] == "15/16"


def test_eval_pole_is_error():
    code, payload = run_cli("eval", "1/(1-q)", "--s0", "1")
    assert code == 2
    assert "error" in payload


def test_parse_error_exit_code_and_position():
    code, payload = run_cli("star", "zs*", "z")
    assert code == 2
    assert payload["error"]["type"] == "parse"
    assert isinstance(payload["error"]["position"], int)


def test_long_sum_succeeds():
    code, payload = run_cli("star", " + ".join(["z"] * 3000), "1", "--order", "0")
    assert code == 0
    assert payload["terms"] == [[[[1, 0], "3000"]]]
    code, payload = run_cli("eval", "+".join(["zs"] * 1200), "--s0", "1/2")
    assert code == 0
    assert payload["terms"] == [[[0, 1], "1200"]]


def test_deep_nesting_is_a_parse_error():
    code, payload = run_cli("box", "(" * 2000 + "z" + ")" * 2000)
    assert code == 2
    assert payload["error"]["type"] == "parse"
    assert "nested deeper" in payload["error"]["message"]
    assert isinstance(payload["error"]["position"], int)


def test_usage_error_exit_code(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["star", "z", "zs", "--order", "abc"], "invalid int value: 'abc'"),
        (["eval", "q"], "--s0"),
        (["no-such-command"], "invalid choice: 'no-such-command'"),
    ],
)
def test_usage_error_is_json(argv, needle):
    code, payload = run_cli(*argv)
    assert code == 2
    assert payload["schema"] == 1
    assert payload["error"]["type"] == "usage"
    assert needle in payload["error"]["message"]


def test_help_exits_zero(capsys):
    assert main(["star", "--help"]) == 0
    assert "usage: qdisc star" in capsys.readouterr().out


def test_verify_single_suite_passes():
    code, payload = run_cli(
        "verify", "star", "--max-degree", "1", "--t-order", "2"
    )
    assert code == 0
    assert payload["passed"] is True
    laws = [c["law"] for c in payload["suites"]["star"]]
    assert "pk-shape" in laws and "series-associativity" in laws


def test_verify_oracle_small():
    code, payload = run_cli(
        "verify",
        "oracle",
        "--max-degree",
        "1",
        "--t-order",
        "2",
        "--cutoff",
        "8",
        "--eval-s0",
        "7/10",
    )
    assert code == 0
    laws = {c["law"]: c for c in payload["suites"]["oracle"]}
    assert laws["representation-homomorphism"]["passed"]
    assert laws["numeric-spot-check"]["passed"]
    assert laws["numeric-spot-check"]["cases"] > 0


# the t^n term of the transform has degree max(j, k) + n, past the default window 6
@pytest.mark.parametrize("order", ["5", "8"])
def test_verify_berezin_passes_at_high_order_with_default_window(order):
    code, payload = run_cli("verify", "berezin", "--t-order", order)
    assert code == 0
    assert payload["passed"]
    laws = {c["law"]: c for c in payload["suites"]["berezin"]}
    assert laws["transform-asymptotic-expansion"]["cases"] == 4 * (int(order) + 1)
    assert laws["transform-map-back"]["cases"] == 4


def test_verify_rewrite_deterministic_under_seed():
    code1, p1 = run_cli("verify", "rewrite", "--seed", "3", "--assoc-samples", "50")
    code2, p2 = run_cli("verify", "rewrite", "--seed", "3", "--assoc-samples", "50")
    assert code1 == code2 == 0
    assert p1 == p2


def test_verify_failure_exits_one(monkeypatch):
    import qdisc.verify as verify_mod

    def fake_run_suites(*args, **kwargs):
        return {"schema": 1, "suites": {"x": [{"law": "l", "passed": False}]}, "passed": False}

    monkeypatch.setattr(verify_mod, "run_suites", fake_run_suites)
    code, payload = run_cli("verify", "star")
    assert code == 1
    assert payload["passed"] is False


def test_verify_reports_planted_faults(monkeypatch):
    import qdisc.verify as verify_mod
    from qdisc import NCPoly, QScalar, uqsl2

    box, equivariant, relation = verify_mod.box, uqsl2.check_box_equivariance, uqsl2.check_relation_on
    monkeypatch.setattr(verify_mod, "box", lambda f: box(f).scale(QScalar.from_int(2)))
    monkeypatch.setattr(uqsl2, "check_box_equivariance", lambda g, f: g != uqsl2.F and equivariant(g, f))
    monkeypatch.setattr(
        uqsl2, "check_relation_on", lambda wa, wb, f: f != NCPoly.monomial(2, 2) and relation(wa, wb, f)
    )
    code, payload = run_cli("verify", "calculus", "uq")
    assert code == 1
    assert payload["passed"] is False
    failed = [
        (suite, rec["law"], rec["cases"], rec["failure_count"], rec["failures"])
        for suite, recs in payload["suites"].items()
        for rec in recs
        if not rec["passed"]
    ]
    assert failed == [
        ("calculus", "box-two-forms", 25, 16, ["(1, 1)", "(1, 2)", "(1, 3)", "(1, 4)", "(2, 1)"]),
        ("calculus", "box-factorization", 16, 9, ["(1, 1)", "(1, 2)", "(1, 3)", "(2, 1)", "(2, 2)"]),
    ] + [("uq", "uq-relation", 15, 1, ["z^2*zs^2"])] * 7 + [
        (
            "uq",
            "uq-box-equivariance",
            60,
            15,
            [f"('F', NCPoly({f}))" for f in ("1", "zs", "zs^2", "zs^3", "zs^4")],
        ),
    ]


@pytest.mark.parametrize("exc", [MemoryError(), RecursionError("maximum recursion depth exceeded")])
def test_resource_errors_are_structured(monkeypatch, exc):
    import qdisc.cli as cli_mod

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_mod, "star", exhausted)
    code, payload = run_cli("star", "zs^5000", "z^5000", "--order", "1")
    assert code == 2
    assert payload["schema"] == 1
    assert payload["error"]["type"] == type(exc).__name__
    assert payload["error"]["message"]


def test_latex_emission():
    code, payload = run_cli("star", "zs", "z", "--order", "1", "--latex")
    assert code == 0
    assert "latex" in payload and "t" in payload["latex"]


def test_latex_brackets_multi_term_coefficients():
    # the coefficient of z zs is -s^4 - s^8; unbracketed, z zs would bind to -s^8 alone
    code, payload = run_cli("box", "zs*z", "--latex")
    assert code == 0
    assert payload["latex"] == (
        r"s^{4} + \left(-s^{4} -s^{8}\right) z z^{*} + s^{8} z^{2} (z^{*})^{2}"
    )
    code, payload = run_cli("pk", "2", "--latex")
    assert code == 0
    assert payload["latex"] == (
        r"1 x^{0} + \left(2 -2 s^{4}\right) x^{1} + \frac{1 -2 s^{4} +s^{8}}{1 +s^{4}} x^{2}"
    )


def _assert_rejected(code, payload, name):
    assert code == 2
    assert payload["schema"] == 1
    assert payload["error"]["type"] == "ValueError"
    assert name in payload["error"]["message"]


def test_negative_window_rejected():
    _assert_rejected(*run_cli("berezin", "1", "1", "--window", "-3"), "--window")


def test_negative_cutoff_rejected():
    _assert_rejected(*run_cli("berezin", "1", "1", "--cutoff", "-1"), "--cutoff")


def test_negative_order_rejected():
    _assert_rejected(*run_cli("star", "zs", "z", "--order", "-1"), "--order")


def test_negative_terms_rejected():
    _assert_rejected(*run_cli("berezin-expand", "1", "1", "--terms", "-2"), "--terms")


def test_negative_t_order_rejected():
    _assert_rejected(*run_cli("verify", "star", "--t-order", "-1"), "--t-order")


def test_negative_max_degree_rejected():
    _assert_rejected(*run_cli("verify", "star", "--max-degree", "-1"), "--max-degree")


def test_negative_assoc_samples_rejected():
    _assert_rejected(*run_cli("verify", "rewrite", "--assoc-samples", "-5"), "--assoc-samples")


def test_negative_pk_index_rejected():
    _assert_rejected(*run_cli("pk", "-1"), "k")


def test_negative_berezin_j_rejected():
    _assert_rejected(*run_cli("berezin", "-1", "2"), "j must be >= 0, got -1")


def test_negative_berezin_expand_j_rejected():
    _assert_rejected(*run_cli("berezin-expand", "-1", "2"), "j must be >= 0, got -1")


def test_negative_ck_index_rejected():
    _assert_rejected(*run_cli("ck", "-2", "z", "zs"), "k")


def test_large_exponent_normal_ordering_does_not_recurse():
    # zs^1200 * z once overflowed the interpreter stack in normal ordering
    code, payload = run_cli("star", "zs^1200", "z", "--order", "1")
    assert code == 0
    assert payload["schema"] == 1
    assert dict((tuple(jk), c) for jk, c in payload["terms"][0])[(0, 1199)] == "1 - s^4800"


def test_long_holomorphic_word_in_deformation():
    # the deformation differentiates z^1200: 1200 letters in one derivative
    code, payload = run_cli("star", "zs", "z^1200", "--order", "1")
    assert code == 0
    assert payload["schema"] == 1
    assert dict((tuple(jk), c) for jk, c in payload["terms"][0])[(1199, 0)] == "1 - s^4800"


def test_cli_import_leaves_verify_unloaded():
    src = os.path.dirname(os.path.dirname(qdisc.__file__))
    code = "import sys, qdisc.cli; print('qdisc.verify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_star_command_leaves_oracle_and_symmetry_unloaded():
    src = os.path.dirname(os.path.dirname(qdisc.__file__))
    code = (
        "import io, sys, contextlib, qdisc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qdisc.cli.main(['star', 'z*zs', 'zs*z', '--order', '2']) == 0\n"
        "print(sorted(m for m in ('qdisc.fockrep', 'qdisc.uqsl2') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_clear_caches_leaves_oracle_and_symmetry_unloaded():
    src = os.path.dirname(os.path.dirname(qdisc.__file__))
    code = (
        "import sys, qdisc\n"
        "qdisc.star(qdisc.Z, qdisc.ZS, 2)\n"
        "qdisc.clear_caches()\n"
        "print(sorted(m for m in ('qdisc.fockrep', 'qdisc.uqsl2') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("expr, code", [("zs*z", 0), ("zs +", 2)])
def test_python_m_qdisc_runs_the_cli(expr, code):
    src = os.path.dirname(os.path.dirname(qdisc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run([sys.executable, "-m", module, "star", "z*zs", expr, "--order", "2"], env=env, capture_output=True)
        for module in ("qdisc", "qdisc.cli")
    ]
    assert [run.returncode for run in runs] == [code, code]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["schema"] == 1


def test_closed_stdout_exits_2_without_a_traceback():
    src = os.path.dirname(os.path.dirname(qdisc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdisc.cli", "pk", "3", "--latex"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first byte
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""


def test_every_public_name_resolves():
    import qdisc.fockrep
    import qdisc.uqsl2

    assert len(set(qdisc.__all__)) == len(qdisc.__all__)
    for name in qdisc.__all__:
        assert getattr(qdisc, name) is not None, name
    assert qdisc.q_map is qdisc.fockrep.q_map
    assert qdisc.GENERATORS is qdisc.uqsl2.GENERATORS
    with pytest.raises(AttributeError):
        qdisc.no_such_name


# -- fuzzing over a bounded grammar -------------------------------------------------

# bounded so that no input can allocate without limit: exponents <= 3,
# --order <= 3, --cutoff <= 10, --window <= 5; -1 reaches the nonnegativity checks
_EXPONENT = st.integers(-1, 3).map(str)
_MALFORMED = st.sampled_from(
    ["", "z^", "(z", "z)", "zs**2", "1/0", "q^-1", "z^-1", "1/(1-q", "x", "2/z", "z zs", "--bogus", "--order", "-1"]
    + ["1.5", "1/q^0", "+"]
)
_SCALAR = st.sampled_from(["1", "2", "-3", "q", "s", "q^2", "1/2", "(1 - q)", "1/(1 - q^2)", "s^3"])
_MONOMIAL = st.tuples(_SCALAR, st.integers(0, 3), st.integers(0, 3)).map(lambda t: f"{t[0]}*z^{t[1]}*zs^{t[2]}")
_POLY = st.one_of(st.lists(_MONOMIAL, min_size=1, max_size=3).map(" + ".join), _MALFORMED)


def _option(name: str, top: int):
    return st.one_of(st.just([]), st.integers(-1, top).map(lambda v: [name, str(v)]))


def _argv(command: str, *parts):
    """Command lines of ``command`` followed by parts that draw a token or a list of tokens."""

    def flat(drawn):
        return [command] + [tok for p in drawn for tok in (p if isinstance(p, list) else [p])]

    return st.tuples(*parts).map(flat)


_COMMANDS = st.one_of(
    _argv("star", _POLY, _POLY, _option("--order", 3)),
    _argv("ck", _EXPONENT, _POLY, _POLY),
    _argv("box", _POLY),
    _argv("berezin", _EXPONENT, _EXPONENT, _option("--order", 3), _option("--cutoff", 10), _option("--window", 5)),
    _argv("berezin-expand", _EXPONENT, _EXPONENT, _option("--terms", 3)),
    _argv("pk", _EXPONENT),
    _argv("eval", _POLY, st.just("--s0"), st.sampled_from(["0", "1/2", "-3", "7/10"])),
)


@settings(max_examples=150, deadline=None)
@given(_COMMANDS, st.one_of(st.none(), st.tuples(st.integers(0, 6), _MALFORMED)))
def test_fuzzed_command_lines_exit_0_or_2_with_one_json_document(argv, extra):
    if extra is not None:  # one malformed token anywhere
        pos, token = extra
        argv = argv[:pos] + [token] + argv[pos:]
    # empty stdin, for eval with no expression; run_cli parses the whole output as one JSON document
    code, payload = run_cli(*argv, stdin_text="")
    assert code in (0, 2), argv
    assert payload["schema"] == 1
    assert ("error" in payload) == (code == 2), argv
