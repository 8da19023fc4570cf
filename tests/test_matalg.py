import pytest

from qhcontract.coeffring import Coeff, PoleAtQ1
from qhcontract.matalg import (
    AlgMat,
    NotInvertible,
    ScalMat,
    embed1,
    embed2,
    qybe_residual,
    rtt_residual,
    similarity,
)
from qhcontract.grgroup import (
    entry_matrix,
    g_matrix,
    gr_h2,
    gr_q2,
    rh_matrix,
    rq_matrix,
)

Q = Coeff.q()
H = Coeff.h()
ONE = Coeff.one()
ZERO = Coeff.zero()
F = H / (Q - ONE)


def test_kron_of_g_is_unitriangular_with_f():
    gg = g_matrix().kron(g_matrix())
    assert all(gg.rows[i][i] == ONE for i in range(4))
    assert all(gg.rows[i][j].is_zero() for i in range(4) for j in range(i))
    assert gg.rows[0][1] == F and gg.rows[0][2] == F
    assert gg.rows[0][3] == F * F
    assert gg.rows[1][3] == F and gg.rows[2][3] == F


def test_similarity_with_identity():
    r = rq_matrix()
    assert similarity(ScalMat.identity(4), r) == r


def test_similarity_roundtrip():
    gg = g_matrix().kron(g_matrix())
    r = rq_matrix()
    assert similarity(gg.inverse(), similarity(gg, r)) == r


def test_inverse_unitriangular():
    gg = g_matrix().kron(g_matrix())
    assert gg * gg.inverse() == ScalMat.identity(4)
    assert gg.inverse() * gg == ScalMat.identity(4)


def test_inverse_general_with_unit_pivots():
    m = ScalMat([[ZERO, Q], [Q - ONE, F]])
    assert m * m.inverse() == ScalMat.identity(2)
    assert m.inverse() * m == ScalMat.identity(2)


def test_inverse_rejects_non_unit_pivot():
    m = ScalMat([[Q + ONE, ZERO], [ZERO, ONE]])
    with pytest.raises(NotInvertible):
        m.inverse()


def test_limit_of_rq_is_twice_identity():
    assert rq_matrix().limit_q1() == ScalMat.identity(4).scale(2)


def test_limit_reports_pole_position():
    m = ScalMat([[ONE, F], [ZERO, ONE]])
    with pytest.raises(PoleAtQ1) as err:
        m.limit_q1()
    assert "(1,2)" in str(err.value)


def test_rq_at_q1_equals_2I_via_entries():
    r = rq_matrix()
    lim = r.limit_q1()
    for i in range(4):
        for j in range(4):
            expected = Coeff.rational(2) if i == j else ZERO
            assert lim.rows[i][j] == expected


def test_embeddings():
    grh = gr_h2()
    a = entry_matrix(grh)
    a1, a2 = embed1(a), embed2(a)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    e1 = a1.rows[2 * i + j][2 * k + l]
                    e2 = a2.rows[2 * i + j][2 * k + l]
                    assert e1 == (a.rows[i][k] if j == l else grh.zero())
                    assert e2 == (a.rows[j][l] if i == k else grh.zero())
    # entries of the embeddings are single odd generator words
    for row in a1.rows:
        for e in row:
            assert e.is_zero() or (
                len(e.terms) == 1 and next(iter(e.terms)).__len__() == 1
            )


def test_embed2_identity_diagonal_pattern():
    grh = gr_h2()
    ident = AlgMat.identity(grh, 2)
    e2 = embed2(ident)
    assert e2 == AlgMat.identity(grh, 4)


def test_mat_mul_identity():
    grh = gr_h2()
    a = entry_matrix(grh)
    assert AlgMat.identity(grh, 2).mat_mul(a) == a


def test_mat_mul_scalar_matrices_agree_with_scalmat():
    grh = gr_h2()
    s1 = ScalMat([[Q, H], [ZERO, ONE]])
    s2 = ScalMat([[ONE, F], [H, Q]])
    a1 = AlgMat(grh, [[grh.scalar(c) for c in row] for row in s1.rows])
    a2 = AlgMat(grh, [[grh.scalar(c) for c in row] for row in s2.rows])
    prod = a1.mat_mul(a2)
    expected = s1 * s2
    for i in range(2):
        for j in range(2):
            assert prod.rows[i][j] == grh.scalar(expected.rows[i][j])


def test_rtt_identity_matrix_with_plus_sign_is_nonzero():
    grq = gr_q2()
    res = rtt_residual(ScalMat.identity(4), entry_matrix(grq), sign=1)
    assert not res.is_zero()
    # row (1,1), column (1,2): alpha'*beta' - beta'*alpha' -> (1+q) alpha'*beta'
    a, b = grq.gen_elements("alpha' beta'")
    assert res.rows[0][1] == (ONE + Q) * (a * b)


def test_rtt_residual_is_linear_in_r():
    grq = gr_q2()
    a = entry_matrix(grq)
    r1, r2 = rq_matrix(), ScalMat.identity(4).scale(H)
    lhs = rtt_residual(r1 + r2, a, sign=-1)
    rhs = rtt_residual(r1, a, sign=-1) + rtt_residual(r2, a, sign=-1)
    assert lhs == rhs


def test_qybe_identity_is_zero():
    assert qybe_residual(ScalMat.identity(4)).is_zero()


def test_qybe_rq_nonzero_rh_zero():
    assert not qybe_residual(rq_matrix()).is_zero()
    assert qybe_residual(rh_matrix()).is_zero()


def test_contracted_r_matrix_is_rh():
    gg = g_matrix().kron(g_matrix())
    rhq = similarity(gg, rq_matrix())
    half = Coeff.rational(1) / Coeff.rational(2)
    assert rhq.limit_q1().scale(half) == rh_matrix()


def test_limit_commutes_with_identity_similarity():
    r = rq_matrix()
    assert similarity(ScalMat.identity(4), r).limit_q1() == r.limit_q1()
