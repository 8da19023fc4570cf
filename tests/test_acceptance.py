"""Acceptance gate: the documented verdict of every criterion of the
verification battery, one test per criterion, zero tolerance everywhere.

Criterion 10 asserts the documented verdict on the one-sided inverse
identities: the left-inverse identity holds, while the stated right inverse
and the determinant-exchange identity are falsified.  The test checks the
exact witness that ``verify-paper`` prints and certifies every part of the
verdict without the rewriting engine, by ideal-membership rank
computations: the left residual lies in the relation ideal, and both
witness entries lie outside it.  Further certificates, and a sign-corrected
right inverse that satisfies all three identities, are pinned in
tests/test_grgroup.py.
"""

from qhcontract import grgroup, suite
from qhcontract.coeffring import Coeff

from conftest import in_ideal_component


def _report(result):
    line = f"[{result.status}] {result.command}"
    if result.witness:
        line += f" | witness: {result.witness}"
    print(line)
    return result


def test_criterion_01_plane_contraction():
    r = _report(suite.check_plane_contraction())
    assert r.status == "verified", r.witness


def test_criterion_02_dual_plane_contraction():
    r = _report(suite.check_dual_plane_contraction())
    assert r.status == "verified", r.witness


def test_criterion_03_relation_contraction():
    r = _report(suite.check_relation_contraction())
    assert r.status == "verified", r.witness


def test_criterion_04_covariance_derivation():
    r = _report(suite.check_covariance())
    assert r.status == "verified", r.witness


def test_criterion_05_q_rtt():
    r = _report(suite.check_q_rtt())
    assert r.status == "verified", r.witness


def test_criterion_06_r_matrix_contraction():
    r = _report(suite.check_r_matrix_contraction())
    assert r.status == "verified", r.witness


def test_criterion_07_h_rtt():
    r = _report(suite.check_h_rtt())
    assert r.status == "verified", r.witness


def test_criterion_08_qybe_verdicts():
    r = _report(suite.check_qybe())
    assert r.status == "verified", r.witness


def test_criterion_09_rq_limit():
    r = _report(suite.check_rq_limit())
    assert r.status == "verified", r.witness


def test_criterion_10_inverses():
    """The stated right inverse and right determinant are falsified, the
    left identity is not, and the verdict is certified outside the
    rewriter: the left residual lies in the relation ideal, and the (1,1)
    entries of the right and exchange residuals do not."""
    r = _report(suite.check_inverses())
    assert r.command.startswith("criterion 10: ")
    assert r.status == "falsified", "criterion 10 verified a claim that is false as stated"
    assert r.witness == (
        "right inverse: entry (1,1): -2*alpha*delta + h*gamma*delta"
        " + h*gamma*alpha (+2 more); determinant exchange: entry (1,1):"
        " -h*gamma*alpha*delta (+3 more)"
    )
    assert any(
        "flipping both h-signs" in note and "gamma*beta + delta*alpha" in note
        for note in r.details
    ), r.details

    grh = grgroup.builtin_algebras()["GRh2"]
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    h = Coeff.h()
    a_mat = grgroup.entry_matrix(grh)
    left, right = grgroup.left_inverse(grh), grgroup.right_inverse(grh)
    dl, dr = grgroup.delta_left(grh), grgroup.delta_right(grh)

    left_prod = left * a_mat
    for i in range(2):
        for j in range(2):
            residual = left_prod.rows[i][j] - (dl if i == j else grh.zero())
            assert in_ideal_component(grh, residual), (i, j)

    right_11 = (a_mat * right).rows[0][0] - dr
    assert right_11 == -2 * (a * d) - b * c - c * b
    assert not in_ideal_component(grh, right_11)

    exchange_11 = dl.free_mul(right.rows[0][0]) - left.rows[0][0].free_mul(dr)
    assert exchange_11 == (b * c + d * a) * (-d) - (d + h * c) * (c * b + a * d)
    assert not in_ideal_component(grh, exchange_11)


def test_criterion_11_product_theorem():
    r = _report(suite.check_product_theorem())
    assert r.status == "verified", r.witness


def test_criterion_12_property_battery():
    r = _report(suite.check_property_battery())
    assert r.status == "verified", r.witness
