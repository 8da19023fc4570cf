import random
from fractions import Fraction
from math import gcd

import pytest

from qhcontract.coeffring import Coeff, QHPoly
from qhcontract.contract import (
    BadSubstitution,
    DegreeError,
    MissingImage,
    RelationSpan,
    Substitution,
    _primitive,
    contract_relations,
    limit_span,
    relation_span,
    span_equal,
)
from qhcontract.grgroup import builtin_algebras, builtin_matrices, conjugation

from conftest import prelude, q_to_h_substitution

Q = Coeff.q()
H = Coeff.h()
F = H / (Q - Coeff.one())
ALG = builtin_algebras()
G = builtin_matrices()["g"]


def test_apply_subst_hand_expansion():
    # gamma'delta' + q^-1 delta'gamma' under the contraction images
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    s = conjugation(G, grq, grh)
    g_, d_ = grq.gen_elements("gamma' delta'")
    c, d = grh.gen_elements("gamma delta")
    got = s.apply(g_ * d_ + Q**-1 * (d_ * g_))
    expected = c * d + Q**-1 * (d * c) - F * (c * c) - Q**-1 * F * (c * c)
    assert got == expected


def test_apply_subst_identity():
    grh = ALG["GRh2"]
    ident = Substitution(
        grh, grh, {g.gid: grh.word_element((g.gid,)) for g in grh.generators}
    )
    e = grh.gen_element("alpha") * grh.gen_element("beta") + grh.scalar(2)
    assert ident.apply(e) == e


def test_apply_subst_plane_relation():
    qp, hp = ALG["qplane"], ALG["hplane"]
    s = conjugation(G, qp, hp)
    xq, yq = qp.gen_elements("x' y'")
    x, y = hp.gen_elements("x y")
    got = s.apply(xq * yq - Q * (yq * xq))
    assert got == x * y - Q * (y * x) + F * (y * y) - Q * F * (y * y)
    # f(1 - q) collapses to -h exactly
    assert got.coefficient(
        (hp.generator_named("y").gid, hp.generator_named("y").gid)
    ) == -H


def test_apply_subst_respects_multiplication(rng):
    from conftest import random_element

    grq, grh = ALG["GRq2"], ALG["GRh2"]
    s = conjugation(G, grq, grh)
    for _ in range(100):
        a = random_element(rng, grq)
        b = random_element(rng, grq)
        assert s.apply(a * b) == s.apply(a) * s.apply(b)


def test_missing_image():
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    with pytest.raises(MissingImage):
        Substitution(grq, grh, {0: grh.gen_element("alpha")})


def test_substitutions_are_mutually_inverse():
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    s9 = conjugation(G, grq, grh)
    s15 = conjugation(G.inverse(), grh, grq)
    for g in grq.generators:
        e = grq.word_element((g.gid,))
        assert s15.apply(s9.apply(e)) == e
    for g in grh.generators:
        e = grh.word_element((g.gid,))
        assert s9.apply(s15.apply(e)) == e


def test_substitution_invertibility_is_validated():
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    a = grh.gen_element("alpha")
    degenerate = {g.gid: a for g in grq.generators}
    with pytest.raises(ValueError):
        Substitution(grq, grh, degenerate)


def test_substitution_with_a_non_unit_determinant_is_refused():
    # x' -> h*x has full rank, but its determinant h is not a unit
    qp, hp = ALG["qplane"], ALG["hplane"]
    x, y = hp.gen_elements("x y")
    with pytest.raises(BadSubstitution, match="^substitution is not invertible over the scalars$"):
        Substitution.by_name(qp, hp, {"x'": H * x, "y'": y})
    # a unit determinant, q*(q-1), passes
    Substitution.by_name(qp, hp, {"x'": Q * x, "y'": (Q - Coeff.one()) * y})


def test_relation_span_ranks():
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    assert relation_span(grq.relations, grq).rank() == 10
    assert relation_span(grh.relations, grh).rank() == 10


def test_relation_span_empty():
    grh = ALG["GRh2"]
    sp = relation_span([], grh)
    assert sp.rank() == 0 and sp.rows == []
    assert span_equal(sp, relation_span([], grh))


def test_relation_span_degree_error():
    grh = ALG["GRh2"]
    a, b, c = grh.gen_elements("alpha beta gamma")
    with pytest.raises(DegreeError):
        relation_span([a * b * c], grh)


def test_span_equal_respects_row_scaling():
    grh = ALG["GRh2"]
    sp = relation_span(grh.relations, grh)
    scaled = relation_span(
        [r.scale(Q ** (i % 3 - 1)) for i, r in enumerate(grh.relations)], grh
    )
    assert span_equal(sp, scaled)


def test_span_of_q_and_h_relations_differ():
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    s9 = conjugation(G, grq, grh)
    # compare in the same ambient basis: substituted q-span vs h-span
    qspan = relation_span([s9.apply(r) for r in grq.relations], grh)
    hspan = relation_span(grh.relations, grh)
    assert not span_equal(qspan, hspan)


def test_plane_contraction():
    qp, hp = ALG["qplane"], ALG["hplane"]
    s = conjugation(G, qp, hp)
    sp = limit_span(relation_span([s.apply(r) for r in qp.relations], hp))
    assert sp.rank() == 1
    assert span_equal(sp, relation_span(hp.relations, hp))


def test_dual_plane_contraction():
    qdp, hdp = ALG["qdualplane"], ALG["hdualplane"]
    s = conjugation(G, qdp, hdp)
    sp = limit_span(relation_span([s.apply(r) for r in qdp.relations], hdp))
    assert sp.rank() == 3
    assert span_equal(sp, relation_span(hdp.relations, hdp))


def test_dual_plane_wrong_convention_misses_target():
    from conftest import wrong_dual_plane_substitution

    s = wrong_dual_plane_substitution()
    hdp = s.target
    sp = limit_span(relation_span([s.apply(r) for r in s.source.relations], hdp))
    assert not span_equal(sp, relation_span(hdp.relations, hdp))


def test_gr_relation_contraction():
    grq, grh = ALG["GRq2"], ALG["GRh2"]
    s9 = conjugation(G, grq, grh)
    sp = relation_span([s9.apply(r) for r in grq.relations], grh)
    assert sp.rank() == 10
    lim = limit_span(sp)
    assert lim.rank() == 10
    assert span_equal(lim, relation_span(grh.relations, grh))
    # contract_relations chains exactly these steps
    c = contract_relations(s9)
    assert c.ok
    assert (c.substituted.rows, c.limit.rows) == (sp.rows, lim.rows)
    assert c.target.rows == relation_span(grh.relations, grh).rows


def test_contract_relations_falsifies_a_wrong_substitution():
    # x' -> x + 2h/(q-1)*y contracts onto xy = yx + 2h y^2, not the h-plane
    qp, hp = ALG["qplane"], ALG["hplane"]
    c = contract_relations(conjugation(prelude("g", h="2*h")[0], qp, hp))
    assert not c.ok
    assert [str(e) for e in c.limit.to_elements()] == ["-x*y + y*x + 2*h*y^2"]


def test_limit_span_preserves_rank_and_is_q_free():
    qdp, hdp = ALG["qdualplane"], ALG["hdualplane"]
    s = conjugation(G, qdp, hdp)
    sp = relation_span([s.apply(r) for r in qdp.relations], hdp)
    lim = limit_span(sp)
    assert lim.rank() == sp.rank()
    for row in lim.rows:
        for c in row:
            assert c.qpow == 0 and c.q1pow == 0
            assert all(a == 0 for (a, _b) in c.num.terms)


def test_limit_span_of_q_free_span_is_identity_on_rows():
    grh = ALG["GRh2"]
    sp = relation_span(grh.relations, grh)
    lim = limit_span(sp)
    assert span_equal(lim, sp)


def test_kept_ranks_match_fresh_spans():
    # a span keeps its rank, and limit_span hands the number of rows it
    # accepted to its input and to the span it returns; a span rebuilt from
    # the same rows must agree
    cases = [
        (conjugation(G, ALG["qplane"], ALG["hplane"]), 1),
        (conjugation(G, ALG["qdualplane"], ALG["hdualplane"]), 3),
        (conjugation(G, ALG["GRq2"], ALG["GRh2"]), 10),
    ]
    for s, rank in cases:
        sp = relation_span([s.apply(r) for r in s.source.relations], s.target)
        lim = limit_span(sp)
        assert sp.rank() == lim.rank() == rank
        assert RelationSpan(sp.algebra, sp.basis, sp.rows).rank() == rank
        assert RelationSpan(lim.algebra, lim.basis, lim.rows).rank() == rank


def test_a_contraction_takes_two_eliminations_and_none_over_q(monkeypatch):
    # the substitution's invertibility check and the target's rank and
    # leading minor; limit_span eliminates nothing through _bareiss and
    # hands the substituted span its rank, and span_equal reduces the limit
    # rows against the target's kept echelon
    import qhcontract.contract as contract
    import qhcontract.matalg as matalg
    import qhcontract.rewrite as rewrite

    calls = []

    def counted(bareiss):
        def run(rows, ncols):
            calls.append(rows)
            return bareiss(rows, ncols)
        return run

    for module in (contract, matalg, rewrite):
        monkeypatch.setattr(module, "_bareiss", counted(module._bareiss))
    s = q_to_h_substitution(*prelude("GRq2", "GRh2"))
    assert len(calls) == 1  # the invertibility check, whose lifted rows carry (q-1)
    c = contract_relations(s)
    assert c.ok and c.substituted.rank() == 10
    assert len(calls) == 2
    assert all(a == 0 for row in calls[1] for p in row for a, _b in p.terms)


def test_primitive_rows_are_canonical_unit_multiples():
    # seeded rows with rational coefficients, zero entries, common q, h and
    # (q-1) factors, and all-zero rows
    rng = random.Random(20261020)
    q1 = QHPoly.q_minus_1()
    nonzero = 0
    for _ in range(300):
        ncols = rng.randint(1, 5)
        if rng.random() < 0.1:
            row = [QHPoly.zero()] * ncols
            assert _primitive(row) == row
            continue
        common = QHPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                         Fraction(rng.choice([-6, -2, -1, 1, 3, 4]), rng.choice([1, 2, 5]))})
        for _ in range(rng.randint(0, 2)):
            common = common * q1
        row = []
        for _ in range(ncols):
            if rng.random() < 0.3:
                row.append(QHPoly.zero())
                continue
            terms = {(rng.randint(0, 2), rng.randint(0, 2)):
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))}
            p = QHPoly(terms)
            if rng.random() < 0.3:
                p = p * q1
            row.append(p * common)
        out = _primitive(row)
        nz = [p for p in out if p]
        assert [bool(p) for p in out] == [bool(p) for p in row]
        if not nz:
            continue
        nonzero += 1
        # a multiple of the input row by a nonzero scalar
        for i in range(ncols):
            for j in range(i + 1, ncols):
                assert out[i] * row[j] == out[j] * row[i]
        # integer coefficients with content 1
        assert all(p.den == 1 for p in out)
        assert gcd(*(c for p in nz for c in p.terms.values())) == 1
        # no common q, h or (q-1) factor
        assert min(p.q_valuation() for p in nz) == 0
        assert min(p.h_valuation() for p in nz) == 0
        assert any(p.div_q1() is None for p in nz)
        assert nz[0].leading()[1] > 0
    assert nonzero >= 200
