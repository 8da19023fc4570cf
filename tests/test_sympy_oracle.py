"""QHPoly arithmetic, the Bareiss routine, ScalMat.inverse, orient and the
ranks of limit_span checked against sympy.

sympy is an independent implementation of polynomial arithmetic, exact
division, matrix rank and inversion over Q(q,h); every input here is drawn
from a seeded generator, so a failure reproduces exactly.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from conftest import prelude, round_loop_limit, wrong_dual_plane_substitution
from qhcontract.coeffring import Coeff, NotDivisible, QHPoly
from qhcontract.contract import RelationSpan, limit_span, relation_span, span_equal
from qhcontract.grgroup import builtin_algebras, builtin_matrices, conjugation
from qhcontract.matalg import NotInvertible, ScalMat
from qhcontract.rewrite import OrientationFailure, _bareiss, orient

Q, H = sympy.symbols("q h")


def random_poly(rng, max_terms=4, max_deg=3) -> QHPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        if rng.random() < 0.5:
            terms[mono] = rng.randint(-5, 5)
        else:
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return QHPoly(terms)


def nonzero_poly(rng, **kw) -> QHPoly:
    while True:
        p = random_poly(rng, **kw)
        if p:
            return p


def to_sympy(p: QHPoly):
    return sympy.Add(*[sympy.Rational(c, p.den) * Q**a * H**b
                       for (a, b), c in p.terms.items()])


def from_sympy(expr) -> QHPoly:
    poly = sympy.Poly(expr, Q, H)
    return QHPoly({m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})


def test_mul_matches_sympy():
    rng = random.Random(101)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        want = from_sympy(sympy.expand(to_sympy(a) * to_sympy(b)))
        assert a * b == want
        assert str(a * b) == str(want)


def test_exact_div_matches_sympy():
    rng = random.Random(102)
    for _ in range(100):
        a, b = random_poly(rng), nonzero_poly(rng)
        quo, rem = sympy.div(to_sympy(a * b), to_sympy(b), Q, H)
        assert rem == 0
        assert (a * b).exact_div(b) == from_sympy(quo) == a
        c = random_poly(rng)
        quo, rem = sympy.div(to_sympy(c), to_sympy(b), Q, H)
        if rem == 0:
            assert c.exact_div(b) == from_sympy(quo)
        else:
            with pytest.raises(NotDivisible):
                c.exact_div(b)


def test_div_q1_and_at_q1_match_sympy():
    rng = random.Random(103)
    divisible = 0
    for _ in range(100):
        p = random_poly(rng)
        for cand in (p, p * QHPoly.q_minus_1()):
            quo, rem = sympy.div(to_sympy(cand), Q - 1, Q, H)
            if rem == 0:
                divisible += 1
                assert cand.div_q1() == from_sympy(quo)
            else:
                assert cand.div_q1() is None
            assert cand.at_q1() == from_sympy(to_sympy(cand).subs(Q, 1))
    assert divisible >= 100


def random_term(rng) -> QHPoly:
    """A nonzero single-term polynomial, over a denominator other than 1 half the time."""
    mono = (rng.randint(0, 3), rng.randint(0, 3))
    num = rng.choice([1, -1]) * rng.randint(1, 6)
    return QHPoly({mono: Fraction(num, rng.choice([1, rng.randint(2, 4)]))})


def test_single_term_mul_matches_sympy():
    # a single-term factor on either side, the constant 1, and the
    # denominator of the product reduced against the content
    rng = random.Random(105)
    one = QHPoly.one()
    reduced = both_dens = 0
    for _ in range(150):
        a, t = random_poly(rng), random_term(rng)
        unit_fraction = QHPoly.const(Fraction(1, rng.randint(2, 4)))
        for x, y in ((a, t), (t, a), (t, random_term(rng)), (a, one), (one, a),
                     (a, unit_fraction), (unit_fraction, a)):
            want = from_sympy(sympy.expand(to_sympy(x) * to_sympy(y)))
            got = x * y
            assert got == want, (x, y)
            assert str(got) == str(want)
            both_dens += x.den > 1 and y.den > 1
            reduced += got.den < x.den * y.den
    assert one * one == one
    assert both_dens >= 50 and reduced >= 50


def test_div_q1_with_some_zero_column_sums_matches_sympy():
    # h-columns that sum to 0 next to ones that do not, including column
    # sums that cancel each other across columns
    rng = random.Random(106)
    partial = cancelling = 0
    for _ in range(150):
        p = random_poly(rng) * QHPoly.q_minus_1()
        b1, b2 = rng.sample(range(4), 2)
        c = rng.choice([1, -1]) * rng.randint(1, 5)
        stray = QHPoly({(rng.randint(0, 3), b1): c})
        if rng.random() < 0.5:
            stray = stray - QHPoly({(rng.randint(0, 3), b2): c})
        for cand in (p + stray, (p + stray) * QHPoly.q_minus_1()):
            quo, rem = sympy.div(to_sympy(cand), Q - 1, Q, H)
            if rem == 0:
                assert cand.div_q1() == from_sympy(quo)
                continue
            assert cand.div_q1() is None
            sums = {}
            for (_a, b), v in cand.terms.items():
                sums[b] = sums.get(b, 0) + v
            if any(v == 0 for v in sums.values()):
                partial += 1
            if sum(sums.values()) == 0:
                cancelling += 1
    assert partial >= 30 and cancelling >= 30


def random_matrix(rng, nrows, ncols):
    rows = [[random_poly(rng, 2, 2) if rng.random() < 0.7 else QHPoly.zero()
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.6:
        f, g = random_poly(rng, 2, 1), random_poly(rng, 2, 1)
        rows[-1] = [f * x + g * y for x, y in zip(rows[0], rows[1])]
    return rows


def test_bareiss_rank_and_kernel_match_sympy():
    rng = random.Random(104)
    deficient = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = random_matrix(rng, nrows, ncols)
        mat = sympy.Matrix([[to_sympy(p) for p in row] for row in rows])
        want = DomainMatrix.from_Matrix(mat).to_field().rank()
        assert _bareiss(rows, ncols)[0] == want
        carried = [row + [QHPoly.one() if j == i else QHPoly.zero() for j in range(nrows)]
                   for i, row in enumerate(rows)]
        rank, echelon = _bareiss(carried, ncols)
        assert rank == want and len(echelon) == nrows
        if rank == nrows:
            continue
        deficient += 1
        # every row below the rank is a left-kernel vector, and together
        # they span the whole left kernel
        assert all(not p for row in echelon[rank:] for p in row[:ncols])
        kernel = sympy.Matrix([[to_sympy(t) for t in row[ncols:]] for row in echelon[rank:]])
        assert (kernel * mat).expand() == sympy.zeros(nrows - rank, ncols)
        assert DomainMatrix.from_Matrix(kernel).to_field().rank() == nrows - rank
    assert deficient >= 8


ONE, Qc, Hc = Coeff.one(), Coeff.q(), Coeff.h()
ELEMENTARY = (Hc, Hc + ONE, Hc / (Qc - ONE), Qc + ONE, Coeff.rational(Fraction(-3, 2)))
UNITS = (ONE, -ONE, Qc, Qc - ONE, Coeff.rational(Fraction(2, 3)))


def unimodular_rows(rng, n):
    """A product of elementary matrices, its rows scaled by units and shuffled."""
    rows = [[ONE if i == j else Coeff.zero() for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(ELEMENTARY)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rows = [[u * a for a in row] for u, row in zip(rng.choices(UNITS, k=n), rows)]
    rng.shuffle(rows)
    return rows


FIELD = sympy.ZZ.frac_field(Q, H)


def to_field(c: Coeff):
    """c as an element of sympy's field Z(q,h), built from its terms."""
    ring = FIELD.field.ring
    q = ring.gens[0]
    num = ring.from_dict(dict(c.num.terms)) if c.num.terms else ring.zero
    return FIELD.field.new(num, c.num.den * q**c.qpow * (q - 1) ** c.q1pow)


def test_inverse_of_unimodular_products_matches_sympy():
    # 82 of these 200 have no unit pivot at some step of Gauss-Jordan
    # elimination, though every determinant is a unit
    rng = random.Random(105)
    for _ in range(200):
        n = rng.randint(2, 4)
        a = ScalMat(unimodular_rows(rng, n))
        inv = a.inverse()
        assert a * inv == inv * a == ScalMat.identity(n)
        want = DomainMatrix([[to_field(c) for c in row] for row in a.rows], (n, n), FIELD)
        got = DomainMatrix([[to_field(c) for c in row] for row in inv.rows], (n, n), FIELD)
        assert got == want.inv()


@pytest.mark.parametrize("det", ["q+1", "h", "h+1"])
def test_inverse_rejects_non_unit_determinants(det):
    rng = random.Random(106)
    d = {"q+1": Qc + ONE, "h": Hc, "h+1": Hc + ONE}[det]
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = unimodular_rows(rng, n)
        k = rng.randrange(n)
        # scaling one row by d scales the determinant by d
        rows[k] = [d * c for c in rows[k]]
        with pytest.raises(NotInvertible):
            ScalMat(rows).inverse()


def test_inverse_rejects_singular_matrices():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = unimodular_rows(rng, n)
        i, j = rng.sample(range(n), 2)
        c = rng.choice(ELEMENTARY)
        rows[i] = [c * x for x in rows[j]]
        with pytest.raises(NotInvertible):
            ScalMat(rows).inverse()


BUILTINS = sorted(builtin_algebras())


def rref_rules(spec):
    """The relation rules that sympy's reduced row echelon form of the
    relations over Z(q,h) gives, columns largest word first, as
    ``{lhs: {word: coefficient}}``."""
    words = spec.degree2_words()[::-1]
    rows = [[to_field(r.coefficient(w)) for w in words] for r in spec.relations]
    rref, pivots = DomainMatrix(rows, (len(rows), len(words)), FIELD).rref()
    return {words[p]: {w: -x for w, x in zip(words, row) if x and w != words[p]}
            for p, row in zip(pivots, rref.to_list())}


@pytest.mark.parametrize("name", BUILTINS)
def test_orient_gives_the_reduced_echelon_form_of_the_relations(name):
    spec = builtin_algebras()[name]
    rules = orient(spec).rules
    want = rref_rules(spec)
    assert len(want) == len(spec.relations)
    assert {lhs: {w: to_field(c) for w, c in rules[lhs].terms.items()} for lhs in want} == want
    # every other rule is a cross-family swap
    family = [g.family for g in spec.generators]
    assert all(family[a] != family[b] for a, b in set(rules) - set(want))


def with_relations(name, combine):
    """A fresh copy of a builtin whose relations are ``combine(relations)``."""
    spec, = prelude(name)
    relations = list(spec.relations)
    spec.relations.clear()
    for r in combine(relations):
        spec.add_relation(r)
    return spec


def mixed(rng, relations):
    """The relations recombined by a unimodular matrix."""
    n = len(relations)
    rows = unimodular_rows(rng, n) if n > 1 else [[rng.choice(UNITS)]]
    zero = relations[0].algebra.zero()
    return [sum((c * r for c, r in zip(row, relations) if c), zero) for row in rows]


@pytest.mark.parametrize("name", BUILTINS)
def test_orient_depends_on_the_span_of_the_relations_not_their_form(name):
    # a search for a unit leading coefficient relation by relation refuses
    # some of these mixes
    rng = random.Random(f"mix {name}")
    want = {lhs: str(rhs) for lhs, rhs in orient(builtin_algebras()[name]).rules.items()}
    for _ in range(5):
        rules = orient(with_relations(name, lambda rs: mixed(rng, rs))).rules
        assert {lhs: str(rhs) for lhs, rhs in rules.items()} == want


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("factor", ["h", "h+1", "q+1"])
def test_orient_refuses_a_relation_scaled_by_a_non_unit(name, factor):
    # the relations are independent, so the minor on the leading words is
    # scaled by the factor too
    d = {"q+1": Qc + ONE, "h": Hc, "h+1": Hc + ONE}[factor]
    k = random.Random(f"scale {name} {factor}").randrange(len(builtin_algebras()[name].relations))
    spec = with_relations(name, lambda rs: [d * r if i == k else r for i, r in enumerate(rs)])
    with pytest.raises(OrientationFailure, match="is not a unit$"):
        orient(spec)


def substituted(sub):
    return relation_span(map(sub.apply, sub.source.relations), sub.target)


def checked_limit(sp):
    """limit_span of sp after checking it against the round loop and sympy.

    The limit spans what the round loop's limit of a sympy-chosen basis of
    the rows spans and is q-free, and its rank and the rank sp keeps are
    sympy's rank of sp over Q(q,h).
    """
    m = DomainMatrix([[to_field(c) for c in row] for row in sp.rows],
                     (len(sp.rows), len(sp.basis)), FIELD)
    independent = m.transpose().rref()[1]
    want = len(independent)
    oracle = round_loop_limit(RelationSpan(sp.algebra, sp.basis,
                                           [sp.rows[i] for i in independent]))
    lim = limit_span(sp)
    assert sp.rank() == lim.rank() == want
    assert RelationSpan(lim.algebra, lim.basis, lim.rows).rank() == want
    assert span_equal(lim, oracle)
    assert all(c.qpow == c.q1pow == 0 and all(a == 0 for a, _b in c.num.terms)
               for row in lim.rows for c in row)
    return lim


def by_g(source, target):
    """The builtin g's change of basis between two builtin algebras."""
    algebras = builtin_algebras()
    return conjugation(builtin_matrices()["g"], algebras[source], algebras[target])


def hits_target(sub, lim):
    return span_equal(lim, relation_span(sub.target.relations, sub.target))


@pytest.mark.parametrize("case", ["plane", "dual plane", "GRq2 -> GRh2", "wrong dual plane"])
def test_limit_span_of_the_paper_contractions(case):
    sub = {
        "plane": lambda: by_g("qplane", "hplane"),
        "dual plane": lambda: by_g("qdualplane", "hdualplane"),
        "GRq2 -> GRh2": lambda: by_g("GRq2", "GRh2"),
        "wrong dual plane": wrong_dual_plane_substitution,
    }[case]()
    assert hits_target(sub, checked_limit(substituted(sub))) == (case != "wrong dual plane")


def test_limit_span_of_seeded_contractions():
    # GRq2 onto GRh2 with h -> c*h, as the contract-sweep benchmark draws
    # them; every fifth substitution takes another c and must miss
    grq = builtin_algebras()["GRq2"]
    for i in range(40):
        rng = random.Random(f"limit {i}")
        draw = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        c_target = c_subst = draw()
        control = i % 5 == 4
        while control and c_subst == c_target:
            c_subst = draw()
        grh, = prelude("GRh2", h=f"{c_target}*h")
        g, = prelude("g", h=f"{c_subst}*h")
        sub = conjugation(g, grq, grh)
        assert hits_target(sub, checked_limit(substituted(sub))) != control


@pytest.mark.parametrize("case", ["duplicate", "times q-1", "sum of two",
                                  "times q+1 after 0", "times q+1 after 4", "times q+1 after 9"])
def test_limit_span_drops_dependent_rows(case):
    sub = by_g("GRq2", "GRh2")
    rows = substituted(sub).rows

    def times_q_plus_1_after(k):
        # the pass takes this row first; row k is then 1/(q+1) times an
        # accepted row, and none of its vanishing combinations is zero
        return [[(Qc + ONE) * c for c in rows[k]]], k + 1

    extra, at = {
        "duplicate": ([rows[3]], len(rows)),
        "times q-1": ([[(Qc - ONE) * c for c in rows[5]]], 0),
        "sum of two": ([[a + b for a, b in zip(rows[1], rows[7])]], 4),
        "times q+1 after 0": times_q_plus_1_after(0),
        "times q+1 after 4": times_q_plus_1_after(4),
        "times q+1 after 9": times_q_plus_1_after(9),
    }[case]
    sp = RelationSpan(sub.target, substituted(sub).basis, rows[:at] + extra + rows[at:])
    assert len(sp.rows) == 11
    assert hits_target(sub, checked_limit(sp))
