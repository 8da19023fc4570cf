import itertools

import pytest

from qhcontract.coeffring import Coeff, PoleAtQ1
from qhcontract.matalg import (
    AlgMat,
    NotInvertible,
    ScalMat,
    qybe_residual,
    rtt_residual,
    similarity,
)
from qhcontract.grgroup import builtin_algebras, builtin_matrices, entry_matrix

Q = Coeff.q()
H = Coeff.h()
ONE = Coeff.one()
ZERO = Coeff.zero()
F = H / (Q - ONE)


def g_tensor_g():
    g = builtin_matrices()["g"]
    return g.on_legs((0,), 2) * g.on_legs((1,), 2)


def test_kron_of_g_is_unitriangular_with_f():
    gg = g_tensor_g()
    assert all(gg.rows[i][i] == ONE for i in range(4))
    assert all(gg.rows[i][j].is_zero() for i in range(4) for j in range(i))
    assert gg.rows[0][1] == F and gg.rows[0][2] == F
    assert gg.rows[0][3] == F * F
    assert gg.rows[1][3] == F and gg.rows[2][3] == F


def test_similarity_with_identity():
    r = builtin_matrices()["Rq"]
    assert similarity(ScalMat.identity(4), r) == r


def test_similarity_roundtrip():
    gg = g_tensor_g()
    r = builtin_matrices()["Rq"]
    assert similarity(gg.inverse(), similarity(gg, r)) == r


def test_inverse_unitriangular():
    gg = g_tensor_g()
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
    assert builtin_matrices()["Rq"].limit_q1() == ScalMat.identity(4).scale(2)


def test_limit_reports_pole_position():
    m = ScalMat([[ONE, F], [ZERO, ONE]])
    with pytest.raises(PoleAtQ1) as err:
        m.limit_q1()
    assert "(1,2)" in str(err.value)


def test_rq_at_q1_equals_2I_via_entries():
    r = builtin_matrices()["Rq"]
    lim = r.limit_q1()
    for i in range(4):
        for j in range(4):
            expected = Coeff.rational(2) if i == j else ZERO
            assert lim.rows[i][j] == expected


def _scalar_matrix(n, entry):
    return ScalMat([[Coeff.rational(entry(i, j)) for j in range(n)] for i in range(n)])


def test_embeddings():
    grh = builtin_algebras()["GRh2"]
    a = entry_matrix(grh)
    a1, a2 = a.on_legs((0,), 2), a.on_legs((1,), 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    e1 = a1.rows[2 * i + j][2 * k + l]
                    e2 = a2.rows[2 * i + j][2 * k + l]
                    assert e1 == (a.rows[i][k] if j == l else grh.zero())
                    assert e2 == (a.rows[j][l] if i == k else grh.zero())
    # n = 3: distinct entries, so every pick is checked
    m = _scalar_matrix(3, lambda i, j: 1 + 3 * i + j)
    m1, m2 = m.on_legs((0,), 2), m.on_legs((1,), 2)
    for i, j, k, l in itertools.product(range(3), repeat=4):
        assert m1.rows[3 * i + j][3 * k + l] == (m.rows[i][k] if j == l else ZERO)
        assert m2.rows[3 * i + j][3 * k + l] == (m.rows[j][l] if i == k else ZERO)
    # an n^2 x n^2 matrix on each pair of legs of a triple tensor power
    for n in (2, 3):
        r = _scalar_matrix(n * n, lambda i, j: 1 + n * n * i + j)
        for legs in ((0, 1), (0, 2), (1, 2)):
            (other,) = {0, 1, 2} - set(legs)
            placed = r.on_legs(legs, 3)
            index = list(itertools.product(range(n), repeat=3))
            for x, s in enumerate(index):
                for y, t in enumerate(index):
                    pick = r.rows[n * s[legs[0]] + s[legs[1]]][n * t[legs[0]] + t[legs[1]]]
                    assert placed.rows[x][y] == (pick if s[other] == t[other] else ZERO)
    # entries of the embeddings are single odd generator words
    for row in a1.rows:
        for e in row:
            assert e.is_zero() or (
                len(e.terms) == 1 and next(iter(e.terms)).__len__() == 1
            )


def test_embed2_identity_diagonal_pattern():
    grh = builtin_algebras()["GRh2"]
    ident = AlgMat.identity(grh, 2)
    e2 = ident.on_legs((1,), 2)
    assert e2 == AlgMat.identity(grh, 4)


def test_mat_mul_identity():
    grh = builtin_algebras()["GRh2"]
    a = entry_matrix(grh)
    assert AlgMat.identity(grh, 2) * a == a


def test_mat_mul_scalar_matrices_agree_with_scalmat():
    grh = builtin_algebras()["GRh2"]
    s1 = ScalMat([[Q, H], [ZERO, ONE]])
    s2 = ScalMat([[ONE, F], [H, Q]])
    a1 = AlgMat(grh, [[grh.scalar(c) for c in row] for row in s1.rows])
    a2 = AlgMat(grh, [[grh.scalar(c) for c in row] for row in s2.rows])
    prod = a1 * a2
    expected = s1 * s2
    for i in range(2):
        for j in range(2):
            assert prod.rows[i][j] == grh.scalar(expected.rows[i][j])


def test_rtt_identity_matrix_with_plus_sign_is_nonzero():
    grq = builtin_algebras()["GRq2"]
    res = rtt_residual(ScalMat.identity(4), entry_matrix(grq), sign=1)
    assert not res.is_zero()
    # row (1,1), column (1,2): alpha'*beta' - beta'*alpha' -> (1+q) alpha'*beta'
    a, b = grq.gen_elements("alpha' beta'")
    assert res.rows[0][1] == (ONE + Q) * (a * b)


def test_rtt_residual_is_linear_in_r():
    grq = builtin_algebras()["GRq2"]
    a = entry_matrix(grq)
    r1, r2 = builtin_matrices()["Rq"], ScalMat.identity(4).scale(H)
    lhs = rtt_residual(r1 + r2, a, sign=-1)
    rhs = rtt_residual(r1, a, sign=-1) + rtt_residual(r2, a, sign=-1)
    assert lhs == rhs


def test_qybe_identity_is_zero():
    assert qybe_residual(ScalMat.identity(4)).is_zero()


def test_qybe_rq_nonzero_rh_zero():
    assert not qybe_residual(builtin_matrices()["Rq"]).is_zero()
    assert qybe_residual(builtin_matrices()["Rh"]).is_zero()


def test_contracted_r_matrix_is_rh():
    gg = g_tensor_g()
    rhq = similarity(gg, builtin_matrices()["Rq"])
    half = Coeff.rational(1) / Coeff.rational(2)
    assert rhq.limit_q1().scale(half) == builtin_matrices()["Rh"]


def test_limit_commutes_with_identity_similarity():
    r = builtin_matrices()["Rq"]
    assert similarity(ScalMat.identity(4), r).limit_q1() == r.limit_q1()


def frt_r_matrix(n, sign=1):
    """q on E_ii (x) E_ii, 1 on E_ii (x) E_jj (i != j) and sign * (q - q^-1)
    on E_ij (x) E_ji (i > j)."""
    rows = [[ZERO] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            rows[n * i + j][n * i + j] = Q if i == j else ONE
            if i > j:
                rows[n * i + j][n * j + i] = (Q - Q.try_inv()) * sign
    return ScalMat(rows)


def test_qybe_of_the_frt_r_matrix_for_n3():
    assert qybe_residual(frt_r_matrix(3)).is_zero()
    assert not qybe_residual(frt_r_matrix(3, sign=-1)).is_zero()


def test_on_legs_rejects_a_size_that_is_not_a_power():
    with pytest.raises(ValueError):
        _scalar_matrix(3, lambda i, j: 1).on_legs((0, 1), 3)
    with pytest.raises(ValueError):
        qybe_residual(ScalMat.identity(8))
    with pytest.raises(ValueError):
        ScalMat.identity(4).on_legs((0, 2), 2)
