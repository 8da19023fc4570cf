import io

import pytest

from qhcontract.coeffring import Coeff
from qhcontract.cli import (
    ParseError,
    Runner,
    UnknownName,
    exit_code,
    main,
    parse_expression,
    parse_scalar,
    parse_script,
    report,
)
from qhcontract import grgroup
from qhcontract.grgroup import builtin_algebras
from qhcontract.matalg import ScalMat
from qhcontract.rewrite import RuleSystem
from qhcontract.script import MAX_EXPONENT, MAX_LITERAL_DIGITS

from conftest import random_coeff, random_element

Q = Coeff.q()
H = Coeff.h()


# -- expression parsing --------------------------------------------------------


def test_parse_scalar_literals():
    assert parse_scalar("3/2") == Coeff.rational(3) / Coeff.rational(2)
    assert parse_scalar("q^-1") == Q**-1
    assert parse_scalar("(q-1)^-2 * h") == H / ((Q - 1) * (Q - 1))
    assert parse_scalar("h/(q-1)") == H / (Q - 1)
    assert parse_scalar("q - q^-1") == Q - Q**-1
    assert parse_scalar("-2^3") == Coeff.rational(-8)


def test_parse_rejects_non_unit_division():
    with pytest.raises(ParseError):
        parse_scalar("1/(q+1)")
    with pytest.raises(ParseError):
        parse_scalar("h^-1")


def test_parse_expression_in_algebra():
    grq = builtin_algebras()["GRq2"]
    e = parse_expression("alpha'*beta' + q^-1*beta'*alpha'", grq)
    a, b = grq.gen_elements("alpha' beta'")
    assert e == a * b + Q**-1 * (b * a)


def test_parse_powers_of_generators():
    grh = builtin_algebras()["GRh2"]
    a = grh.gen_element("alpha")
    assert parse_expression("alpha^3", grh) == a * a * a
    assert parse_expression("alpha^0", grh) == grh.unit()


def test_parse_unknown_name():
    with pytest.raises(UnknownName):
        parse_expression("alpha", builtin_algebras()["GRq2"])  # GRq2 only has primed names


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("alpha' + $", builtin_algebras()["GRq2"], line=7)
    assert "line 7" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("", builtin_algebras()["GRq2"])
    with pytest.raises(ParseError):
        parse_expression("(alpha'", builtin_algebras()["GRq2"])


def test_scalar_roundtrip_through_printer(rng):
    for _ in range(200):
        c = random_coeff(rng)
        assert parse_scalar(str(c)) == c


def test_element_roundtrip_through_printer(rng):
    for spec in (builtin_algebras()["GRq2"], builtin_algebras()["GRh2"]):
        for _ in range(150):
            e = random_element(rng, spec, max_degree=3)
            assert parse_expression(str(e), spec) == e


# -- script parsing and execution -------------------------------------------------


def run_script(text: str):
    runner = Runner()
    return runner.run(parse_script(text)), runner


def test_algebra_definition_and_rel():
    verdicts, runner = run_script(
        """
        algebra P
          gen x parity=even family=main prec=1
          gen y parity=even family=main prec=0
          rel x*y = q*y*x
        end
        nf P "x*y - q*y*x"
        """
    )
    assert [v.status for v in verdicts] == ["verified"]
    assert "normal form: 0" in verdicts[0].details[0]
    spec = runner.names["P"]
    assert len(spec.relations) == 1


def test_rel_requires_single_equals():
    verdicts, _ = run_script("algebra P\n gen x\n gen y\n rel x*y\nend")
    assert verdicts[0].status == "error"
    assert "exactly one '='" in verdicts[0].witness


def test_duplicate_definition_is_an_error():
    verdicts, _ = run_script("algebra A\n gen x\nend\nalgebra A\n gen y\nend")
    assert verdicts and verdicts[0].status == "error"
    assert "already defined" in verdicts[0].witness


@pytest.mark.parametrize("second, pair", [
    ("f g sign=-1", "'f' and 'g'"),
    ("g f sign=-1", "'g' and 'f'"),
    ("g f sign=+1", "'g' and 'f'"),
])
def test_second_cross_sign_for_a_pair_is_an_error(second, pair):
    # AlgebraSpec keys its signs by the unordered pair of families
    verdicts, _ = run_script(
        "algebra two\n gen u family=f\n gen v family=g\n cross f g sign=+1\n"
        f" cross {second}\nend\nnf two \"v*u\"\n"
    )
    assert [(v.status, v.witness) for v in verdicts] == [
        ("error", f"line 5: cross sign for {pair} is already declared")
    ]


@pytest.mark.parametrize("cross, witness", [
    ("f f sign=-1", "line 4: cross needs two different families, got 'f' twice"),
    ("f zz sign=+1", "line 4: no generator is in family 'zz'"),
    ("zz f sign=+1\n gen w family=zz", None),  # gen lines may follow
], ids=["same-family", "unknown-family", "family-declared-later"])
def test_cross_must_name_two_families_that_exist(cross, witness):
    # orientation would ignore either bad line and report v*u as normal
    verdicts, _ = run_script(
        f"algebra two\n gen u family=f\n gen v family=f\n cross {cross}\nend\nnf two \"v*u\"\n"
    )
    if witness is None:
        assert [v.status for v in verdicts] == ["verified"]
    else:
        assert [(v.status, v.witness) for v in verdicts] == [("error", witness)]


def test_rtt_and_cross_read_sign_the_same_way():
    with pytest.raises(ParseError, match=r"^line 2: bad sign '2'$"):
        parse_script("\nrtt builtin:Rh GRh2 sign=2\n")
    verdicts, _ = run_script("algebra two\n gen u family=f\n gen v family=g\n cross f g sign=2\nend")
    assert [(v.status, v.witness) for v in verdicts] == [("error", "line 4: bad sign '2'")]
    verdicts, _ = run_script("rtt builtin:Rh GRh2 sign=1\nrtt builtin:Rh GRh2 sign=+1\n"
                             "rtt builtin:Rh GRh2 sign=-1")
    assert [v.status for v in verdicts] == ["falsified", "falsified", "verified"]
    assert verdicts[0].witness == verdicts[1].witness


def test_matrix_definition_scalar_and_algebra():
    verdicts, runner = run_script(
        """
        mat M 2 [ 1, h/(q-1) ; 0, 1 ]
        mat A 2 in GRh2 [ alpha, beta ; gamma, delta ]
        """
    )
    assert verdicts == []
    m = runner.names["M"]
    assert isinstance(m, ScalMat) and m.rows[0][1] == H / (Q - 1)
    assert runner.names["A"].rows[1][0] == builtin_algebras()["GRh2"].gen_element("gamma")


def test_matrix_arity_errors():
    verdicts, _ = run_script("mat M 2 [ 1, 0 ; 0 ]")
    assert verdicts[0].status == "error"
    assert "entries per row" in verdicts[0].witness
    verdicts, _ = run_script("mat M 2 [ 1, 0 ]")
    assert verdicts[0].status == "error"
    assert "rows" in verdicts[0].witness


def test_unknown_builtin():
    verdicts, _ = run_script("qybe builtin:nope")
    assert verdicts[0].status == "error"
    assert "no builtin matrix" in verdicts[0].witness


def test_execution_stops_after_error():
    verdicts, _ = run_script('nf missing "x"\nqybe builtin:Rh')
    assert len(verdicts) == 1 and verdicts[0].status == "error"


def test_qybe_verdicts():
    verdicts, _ = run_script("qybe builtin:Rq\nqybe builtin:Rh")
    assert verdicts[0].status == "falsified" and verdicts[0].witness
    assert verdicts[1].status == "verified"
    assert exit_code(verdicts) == 1


def test_rtt_command():
    verdicts, _ = run_script("rtt builtin:Rq GRq2 sign=-1\nrtt builtin:Rh GRh2")
    assert all(v.status == "verified" for v in verdicts)


def _mat_text(name, n, entry):
    """A ``mat`` line of the n x n matrix whose entries are ``entry(row, col)`` texts."""
    rows = (", ".join(entry(r, c) for c in range(n)) for r in range(n))
    return f"mat {name} {n} [ " + " ; ".join(rows) + " ]\n"


def _frt_entry(flip=None):
    """R_q(3): q on E_ii (x) E_ii, 1 on E_ii (x) E_jj (i != j) and q - q^-1
    on E_ij (x) E_ji (i > j), with the sign of entry ``flip`` changed."""
    def entry(r, c):
        i, j = divmod(r, 3)
        if r == c:
            return "q" if i == j else "1"
        if i > j and c == 3 * j + i:
            return "-(q - q^-1)" if (r, c) == flip else "q - q^-1"
        return "0"
    return entry


def test_qybe_reads_n_from_the_size_of_r():
    verdicts, _ = run_script(_mat_text("R3", 9, _frt_entry())
                             + _mat_text("R3flip", 9, _frt_entry(flip=(7, 5)))
                             + "qybe R3\nqybe R3flip\n")
    assert [v.status for v in verdicts] == ["verified", "falsified"]


def test_rtt_reads_n_from_the_size_of_r():
    # the flip P has P A1 P = A2, so P A1 A2 = A2 A1 P holds in the free
    # algebra on the nine entries; the identity gives A1 A2 - A2 A1
    free = "algebra free9\n" + "".join(f" gen t{i}{j}\n" for i in range(3) for j in range(3))
    flip = _mat_text("P", 9, lambda r, c: "1" if c == 3 * (r % 3) + r // 3 else "0")
    ident = _mat_text("I", 9, lambda r, c: "1" if r == c else "0")
    verdicts, _ = run_script(free + "end\n" + flip + ident
                             + "rtt P free9 sign=+1\nrtt I free9 sign=+1\n")
    assert [v.status for v in verdicts] == ["verified", "falsified"]
    assert verdicts[1].witness.startswith("entry (1,2): ")


def test_rtt_with_a_9x9_r_on_grh2_is_an_error(tmp_path, capsys):
    script = tmp_path / "rtt9.qh"
    script.write_text(_mat_text("R3", 9, _frt_entry()) + "rtt R3 GRh2\n", encoding="utf-8")
    assert main(["--porcelain", "run", str(script)]) == 2
    assert capsys.readouterr().out == (
        "error\trtt R3 GRh2\tline 2: rtt with a 9x9 matrix needs an algebra with at least "
        "9 generators\n")


def test_contract_command_verifies_plane():
    verdicts, _ = run_script(
        """
        contract qplane hplane
          subst x' = x + (h/(q-1))*y
          subst y' = y
        end
        """
    )
    assert verdicts[0].status == "verified"
    assert any("ranks" in d for d in verdicts[0].details)


def test_contract_of_a_relation_given_twice_up_to_a_factor_q_plus_1():
    # the second relation is (q+1) times the first: the limit keeps one
    verdicts, _ = run_script(
        """
        algebra P
          gen u parity=even family=main prec=1
          gen v parity=even family=main prec=0
          rel u*v = q*v*u
          rel (q+1)*u*v = (q+1)*q*v*u
        end
        contract P hplane
          subst u = x + (h/(q-1))*y
          subst v = y
        end
        """
    )
    assert [(v.status, v.details) for v in verdicts] == [("verified", (
        "limiting relations:", "  -x*y + y*x + h*y^2", "ranks: substituted 1, limit 1, target 1"))]


def test_contract_onto_a_target_that_agrees_only_over_q_h_is_an_error():
    # (h+1) times the h-plane relation spans the limit over Q(h), but at
    # h = -1 it is the free algebra: its minor h + 1 is not a unit
    verdicts, _ = run_script(
        """
        algebra hp3
          gen x prec=1
          gen y prec=0
          rel (h+1)*x*y = (h+1)*y*x + (h+1)*h*y*y
        end
        contract qplane hp3
          subst x' = x + (h/(q-1))*y
          subst y' = y
        end
        """
    )
    assert [(v.status, v.witness) for v in verdicts] == [("error", (
        "minor h + 1 of the target relations on their leading words is not a unit: "
        "they span the limit over Q(h) only"))]
    assert exit_code(verdicts) == 2


def test_contract_missing_image():
    verdicts, _ = run_script("contract qplane hplane\n subst x' = x\nend")
    assert verdicts[0].status == "error"


@pytest.mark.parametrize("images, message", [
    ("subst x' = y\n subst y' = y", "substitution is not invertible over the scalars"),
    ("subst x' = x*y\n subst y' = y", "image of x' must be homogeneous of degree 1"),
], ids=["singular", "quadratic"])
def test_contract_bad_substitution_is_an_error(images, message):
    verdicts, _ = run_script(f"contract qplane hplane\n {images}\nend")
    assert [(v.status, v.witness) for v in verdicts] == [("error", message)]


def test_non_unit_determinant_is_refused(tmp_path, capsys):
    # det = h is nonzero but not a unit: the map has full rank over Q(h) and
    # still has no inverse over the scalars
    script = tmp_path / "h_scaled.qh"
    script.write_text("contract qplane hplane\n  subst x' = h*x\n  subst y' = y\nend\n",
                      encoding="utf-8")
    assert main(["run", str(script)]) == 2
    assert capsys.readouterr().out == (
        "[ERR ] contract qplane hplane\n"
        "       witness: substitution is not invertible over the scalars\n"
        "0 verified, 0 falsified, 1 errors\n"
    )


def test_empty_script():
    verdicts, _ = run_script("")
    assert verdicts == [] and exit_code(verdicts) == 0


def test_limit_command_and_pole():
    verdicts, _ = run_script("limit builtin:Rq\nlimit builtin:g")
    assert verdicts[0].status == "verified"
    assert verdicts[1].status == "falsified"
    assert "pole" in verdicts[1].witness


def test_inverse_check_reports_three_verdicts():
    verdicts, _ = run_script("inverse-check")
    assert [(v.command, v.status) for v in verdicts] == [
        ("inverse-check [left inverse]", "verified"),
        ("inverse-check [right inverse]", "falsified"),
        ("inverse-check [determinant exchange]", "falsified"),
    ]


def test_product_check_all_verified():
    verdicts, _ = run_script("product-check")
    assert [v.command for v in verdicts] == [
        f"product-check [{label}]"
        for label in ("a*b - q*b*a", "a*c - q*c*a", "b*c - c*b", "b*d - q*d*b",
                      "c*d - q*d*c", "a*d - d*a - (q - q^-1)*b*c", "entries are even")
    ]
    assert all(v.status == "verified" for v in verdicts)


def test_report_porcelain_deterministic():
    verdicts, _ = run_script("qybe builtin:Rq\nqybe builtin:Rh")
    buf1, buf2 = io.StringIO(), io.StringIO()
    report(verdicts, porcelain=True, out=buf1)
    report(verdicts, porcelain=True, out=buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0].startswith("falsified\tqybe builtin:Rq\t")
    assert lines[1] == "verified\tqybe builtin:Rh\t"


def test_parse_script_roundtrip_of_printed_relation():
    # parse . print . parse is stable on a relation element
    grh = builtin_algebras()["GRh2"]
    for rel in grh.relations:
        printed = str(rel)
        assert parse_expression(printed, grh) == rel
        assert str(parse_expression(printed, grh)) == printed


# -- the installed entry point -----------------------------------------------------


def test_main_run_exit_codes(tmp_path, capsys):
    script = tmp_path / "ok.qh"
    script.write_text('nf GRq2 "alpha\'^2"\n', encoding="utf-8")
    assert main(["run", str(script)]) == 0
    out = capsys.readouterr().out
    assert "normal form: 0" in out

    bad = tmp_path / "bad.qh"
    bad.write_text("qybe builtin:Rq\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 1

    broken = tmp_path / "broken.qh"
    broken.write_text("qybe\n", encoding="utf-8")
    assert main(["run", str(broken)]) == 2


@pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"])
def test_deep_nesting_is_an_error_not_a_verdict(tmp_path, capsys, expr):
    script = tmp_path / "deep.qh"
    script.write_text(f'nf hplane "{expr}"\n', encoding="utf-8")
    assert main(["run", str(script)]) == 2
    out = capsys.readouterr().out
    assert "witness: line 1, column 101: expression nested deeper than 100 levels" in out


def test_nesting_bound_counts_parentheses_and_minus_signs():
    hp = builtin_algebras()["hplane"]
    x = hp.gen_element("x")
    assert parse_expression("(" * 100 + "x" + ")" * 100, hp) == x
    assert parse_expression("-(" * 50 + "x" + ")" * 50, hp) == x
    for text in ("(" * 101 + "x" + ")" * 101, "-(" * 50 + "-x" + ")" * 50):
        with pytest.raises(ParseError, match="line 7, column 101: expression nested"):
            parse_expression(text, hp, line=7)


def test_large_exponent_keeps_its_output(capsys):
    # square-and-multiply gives the report of 20000 successive products
    assert main(["nf", "--algebra", "hplane", "--expr", "x^20000"]) == 0
    assert capsys.readouterr().out == (
        '[ ok ] nf hplane "x^20000"\n'
        "       normal form: x^20000\n"
        "1 verified, 0 falsified, 0 errors\n"
    )
    hp = builtin_algebras()["hplane"]
    x, y = hp.gen_elements("x y")
    assert parse_expression("(x+y)^5", hp) == (x + y) * (x + y) * (x + y) * (x + y) * (x + y)
    assert parse_expression("(q+h)^3/q^-2", hp) == hp.scalar((Q + H) * (Q + H) * (Q + H) * Q * Q)


@pytest.mark.parametrize("exponent", ["1000000", "-1000000", f"{MAX_EXPONENT + 1}", "9" * 5000])
def test_exponent_bound_is_an_error_not_a_verdict(tmp_path, capsys, exponent):
    script = tmp_path / "power.qh"
    script.write_text(f'nf hplane "x + q^{exponent}"\n', encoding="utf-8")
    assert main(["run", str(script)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("[ERR ]")
    assert f"witness: line 1, column 7: exponent larger than {MAX_EXPONENT}" in out


@pytest.mark.parametrize("digits", [MAX_LITERAL_DIGITS + 1, 5000])
def test_literal_bound_is_an_error_not_a_verdict(tmp_path, capsys, digits):
    script = tmp_path / "literal.qh"
    script.write_text(f'nf hplane "x + {"9" * digits}"\n', encoding="utf-8")
    assert main(["run", str(script)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("[ERR ]")
    assert (f"witness: line 1, column 5: integer literal longer than "
            f"{MAX_LITERAL_DIGITS} digits") in out


def test_literal_bound_is_inclusive():
    hp = builtin_algebras()["hplane"]
    big = "9" * MAX_LITERAL_DIGITS
    assert parse_expression(f"x + 000{big}", hp) == hp.gen_element("x") + hp.scalar(int(big))


def test_exponent_bound_is_inclusive():
    hp = builtin_algebras()["hplane"]
    word = parse_expression(f"x^{MAX_EXPONENT}", hp).leading_word()
    assert word == (hp.generator_named("x").gid,) * MAX_EXPONENT
    assert parse_expression(f"q^-{MAX_EXPONENT}", hp) == hp.scalar(Q**-MAX_EXPONENT)
    assert parse_expression("x^0000002", hp) == parse_expression("x*x", hp)


def test_unexpected_exception_exits_2(monkeypatch, tmp_path, capsys):
    def boom(self, nodes):
        raise RuntimeError("engine failure")

    monkeypatch.setattr(Runner, "run", boom)
    script = tmp_path / "any.qh"
    script.write_text("qybe builtin:Rq\n", encoding="utf-8")
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("\nerror: RuntimeError: engine failure\n")


def test_unexpected_value_error_in_a_handler_exits_2(monkeypatch, tmp_path, capsys):
    # Runner.run turns only the library's own errors into error verdicts
    def boom(self, node):
        raise ValueError("engine failure")

    monkeypatch.setattr(Runner, "_run_qybe", boom)
    script = tmp_path / "any.qh"
    script.write_text("qybe builtin:Rq\n", encoding="utf-8")
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("\nerror: ValueError: engine failure\n")


def test_main_nf_with_definitions_file(tmp_path, capsys):
    defs = tmp_path / "plane.qh"
    defs.write_text(
        "algebra P\n gen x prec=1\n gen y prec=0\n rel x*y = q*y*x\nend\n",
        encoding="utf-8",
    )
    assert main(["nf", "--algebra", str(defs), "--expr", "x*y - q*y*x"]) == 0
    assert "normal form: 0" in capsys.readouterr().out


def test_each_run_is_one_script():
    # a Runner's names last one script, as in a fresh process; the builtins stay
    runner = Runner()
    plane = "algebra P\n gen x prec=1\n gen y prec=0\n rel x*y = q*y*x\nend\n"
    assert runner.run(parse_script(plane + 'nf P "x*y"\n'))[0].status == "verified"
    first = runner.names["P"]
    verdicts = runner.run(parse_script('nf P "x*y"\n'))
    assert [(v.status, v.witness) for v in verdicts] == [("error", "line 1: unknown algebra 'P'")]
    verdicts = runner.run(parse_script(plane + 'nf P "x*y"\nnf GRh2 "beta*alpha"\n'))
    assert [v.status for v in verdicts] == ["verified", "verified"]
    assert runner.names["P"] is not first


def test_a_repeated_nf_reads_every_product_from_the_table(monkeypatch):
    monkeypatch.setattr(grgroup, "_builtins", None)  # builtins with empty tables
    calls = []
    normal_form = RuleSystem.normal_form
    monkeypatch.setattr(RuleSystem, "normal_form",
                        lambda self, e: calls.append(e) or normal_form(self, e))
    runner = Runner()
    script = parse_script('nf hplane "(x + h*y)^7*(2*x - q*y)"\n'
                          'nf GRh2 "(alpha + beta)*(q*gamma + h*delta)*(alpha - delta)"\n')
    first = runner.run(script)
    assert calls
    calls.clear()
    assert runner.run(script) == first
    assert calls == []


NF = ["nf", "--algebra", "{path}", "--expr", "x"]
QYBE = ["qybe", "--rmatrix", "{path}"]
# definitions file, command line, stdout, stderr; every case exits 2
BAD_DEFINITIONS = {
    "bad relation": ("algebra P\n gen x prec=1\n gen y prec=0\n rel x*y\nend\n", NF, "",
                     "error: line 4: a relation needs exactly one '='\n"),
    "defined twice": ("algebra P\n gen x\nend\nalgebra P\n gen y\nend\n", NF, "",
                      "error: line 4: name 'P' is already defined\n"),
    "two algebras": ("algebra P\n gen x\nend\nalgebra R\n gen y\nend\n", NF, "",
                     "error: {path} must define exactly one algebra\n"),
    "a command": ('algebra P\n gen x\nend\nnf P "x"\n', NF, "",
                  "error: line 4: {path} must contain only definitions (found 'nf')\n"),
    "short matrix": ("mat myR 4 [ 1, -h, h, h^2 ; 0, 1, 0, -h ; 0, 0, 1, h ]\n", QYBE, "",
                     "error: line 1: expected 4 rows, got 3\n"),
    "2x2 matrix": ("mat myR 2 [ 1, 0 ; 0, 1 ]\n", QYBE,
                   "[ERR ] qybe myR\n       witness: qybe expects an n^2 x n^2 scalar matrix "
                   "with n >= 2, got a 2x2 scalar matrix\n"
                   "0 verified, 0 falsified, 1 errors\n", ""),
    "2x2 matrix, porcelain": ("mat myR 2 [ 1, 0 ; 0, 1 ]\n", ["--porcelain"] + QYBE,
                              "error\tqybe myR\tqybe expects an n^2 x n^2 scalar matrix "
                              "with n >= 2, got a 2x2 scalar matrix\n", ""),
}


@pytest.mark.parametrize("case", list(BAD_DEFINITIONS))
def test_definitions_files_keep_their_errors(tmp_path, capsys, case):
    # the file's definitions and the command run as one script; a failed
    # definition is still an error line on stderr, not a verdict
    defs, argv, out, err = BAD_DEFINITIONS[case]
    path = tmp_path / "defs.qh"
    path.write_text(defs, encoding="utf-8")
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err.format(path=path))


CYCLIC = ("algebra cyc\n gen x prec=0\n gen y prec=1\n gen z prec=2\n"
          " rel x*y = z^2\n rel y*z = x^2\n rel z*x = y^2\nend\n")
# as in demos/custom_algebra.qh
LOPSIDED = "algebra lopsided\n gen x prec=0\n gen y prec=1\n rel y*y = x*y\nend\n"


@pytest.mark.parametrize("mode", ["", "porcelain"])
@pytest.mark.parametrize("defs, expr, overlap", [
    (CYCLIC, "z^3", "y*z*x -> x^3 | y^3"),
    (LOPSIDED, "y^3", "y^3 -> x^2*y | y*x*y"),
], ids=["cyclic", "lopsided"])
def test_nf_refuses_a_non_confluent_system(tmp_path, capsys, defs, expr, overlap, mode):
    path = tmp_path / "defs.qh"
    path.write_text(defs, encoding="utf-8")
    argv = ["--porcelain"] if mode else []
    assert main(argv + ["nf", "--algebra", str(path), "--expr", expr]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error\t" if mode else "[ERR ] ")
    assert f"not confluent: {overlap} (+" in out
    assert "[ ok ]" not in out


def test_rtt_keeps_a_zero_residual_on_a_non_confluent_system():
    # a, b, c, d commute, so R = 1 gives a zero residual with sign=+1, and the
    # zero normal forms prove it although x, y, z are not confluent; the
    # refusal of a nonzero residual is demos/non_confluent_rtt.qh
    defs = ("algebra mixed\n gen a\n gen b\n gen c\n gen d\n gen x\n gen y\n gen z\n"
            " rel a*b = b*a\n rel a*c = c*a\n rel a*d = d*a\n rel b*c = c*b\n"
            " rel b*d = d*b\n rel c*d = d*c\n"
            " rel x*y = z^2\n rel y*z = x^2\n rel z*x = y^2\nend\n")
    verdicts, _ = run_script(
        defs + "mat I 4 [ 1, 0, 0, 0 ; 0, 1, 0, 0 ; 0, 0, 1, 0 ; 0, 0, 0, 1 ]\n"
        "confluence mixed\nrtt I mixed sign=+1\n"
    )
    assert [v.status for v in verdicts] == ["falsified", "verified"]


def test_main_qybe_with_matrix_file(tmp_path, capsys):
    defs = tmp_path / "rh.qh"
    defs.write_text(
        "mat myR 4 [ 1, -h, h, h^2 ; 0, 1, 0, -h ; 0, 0, 1, h ; 0, 0, 0, 1 ]\n",
        encoding="utf-8",
    )
    assert main(["qybe", "--rmatrix", str(defs)]) == 0
    assert main(["--porcelain", "qybe", "--rmatrix", "builtin:Rq"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("falsified\tqybe builtin:Rq")


@pytest.mark.parametrize("argv, witness", [
    (["nf", "--algebra", "hplane", "--expr", 'x"*"y'], "column 2: unexpected character '\"'"),
    (["nf", "--algebra", "hplane", "--expr", "x +* y"], "column 4: unexpected '*'"),
    (["qybe", "--rmatrix", "nosuch"], "unknown matrix 'nosuch'"),
], ids=["quoted", "syntax", "unknown"])
def test_subcommands_keep_their_input_and_have_no_line(capsys, argv, witness):
    # the expression is parsed as given, and an error names no line number
    assert main(["--porcelain"] + argv) == 2
    assert capsys.readouterr().out.split("\t")[2] == witness + "\n"
