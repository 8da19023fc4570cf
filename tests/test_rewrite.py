import random
from fractions import Fraction
from pathlib import Path

import pytest

from qhcontract import rewrite
from qhcontract.coeffring import Coeff, QHPoly
from qhcontract.rewrite import (NotConfluent, OrientationFailure, RuleSystem, _bareiss,
                                _reduce, _reduce_row, confluent_rules, orient)
from qhcontract.superalgebra import AlgebraSpec, Element
from qhcontract.contract import relation_span
from qhcontract.grgroup import builtin_algebras

from conftest import (
    brute_force_overlaps,
    demo_algebras,
    in_ideal_component,
    naive_fixpoint_reduce,
    prelude,
    random_coeff,
    random_element,
    rescan_reduce,
)

Q = Coeff.q()
H = Coeff.h()


@pytest.fixture(scope="module")
def grq():
    return builtin_algebras()["GRq2"]


@pytest.fixture(scope="module")
def rules_q(grq):
    return orient(grq)


@pytest.fixture(scope="module")
def grh():
    return builtin_algebras()["GRh2"]


@pytest.fixture(scope="module")
def rules_h(grh):
    return orient(grh)


def _w(spec, *names):
    return tuple(spec.generator_named(n).gid for n in names)


def test_orient_q_relations(grq, rules_q):
    ad = grq.gen_element("alpha'") * grq.gen_element("delta'")
    bg = grq.gen_element("beta'") * grq.gen_element("gamma'")
    assert rules_q.rules[_w(grq, "delta'", "alpha'")] == -ad
    # inter-reduced form of the beta'gamma' relation rule
    assert rules_q.rules[_w(grq, "gamma'", "beta'")] == -bg - (Q - Q**-1) * ad


def test_orient_h_all_rules_descend(grh, rules_h):
    # ten relation rules plus none spurious; every rhs word strictly smaller
    assert len(rules_h.rules) == 10
    key = grh.word_key
    for lhs, rhs in rules_h.rules.items():
        assert all(key(w) < key(lhs) for w in rhs.terms)
        assert rhs.is_zero() or rhs.is_homogeneous(2)


def test_orient_requires_unit_leading_coefficient():
    spec = AlgebraSpec.build("bad", [("u", "even", "f", 0), ("v", "even", "f", 1)])
    u, v = spec.gen_elements("u v")
    spec.add_relation((Q + Coeff.one()) * v * u + u * v)
    with pytest.raises(OrientationFailure):
        orient(spec)


def _uv(*relations):
    spec = AlgebraSpec.build("uv", [("u", "even", "f", 0), ("v", "even", "f", 1)])
    u, v = spec.gen_elements("u v")
    for make in relations:
        spec.add_relation(make(u, v))
    return spec


def test_orient_prefers_a_unit_pivot_to_the_first_nonzero_one():
    # h*v*v comes first, but only v*v solves for v*v over the scalars
    spec = _uv(lambda u, v: H * v * v, lambda u, v: v * v)
    assert orient(spec).rules == {(1, 1): spec.zero()}


@pytest.mark.parametrize("relations, leads", [
    ((lambda u, v: H * v * v,), "v^2"),
    ((lambda u, v: v * v, lambda u, v: H * v * u + u * u), "v^2, v*u"),
])
def test_orient_refuses_a_non_unit_minor(relations, leads):
    with pytest.raises(OrientationFailure) as exc:
        orient(_uv(*relations))
    assert str(exc.value) == f"minor h of the relations on their leading words {leads} is not a unit"


def test_orient_keeps_the_rules_on_the_algebra():
    spec, = prelude("hplane")
    rs = orient(spec)
    assert orient(spec) is rs
    assert confluent_rules(spec) is rs
    x, y = spec.gen_elements("x y")
    with pytest.raises(ValueError, match="frozen"):
        spec.add_relation(x * x)
    assert len(spec.relations) == 1 and orient(spec) is rs


def test_failed_orientation_is_not_kept():
    spec = AlgebraSpec.build("bad", [("u", "even", "f", 0), ("v", "even", "f", 1)])
    u, v = spec.gen_elements("u v")
    spec.add_relation((Q + Coeff.one()) * v * u + u * v)
    for _ in range(2):
        with pytest.raises(OrientationFailure):
            orient(spec)
    # the relations stay open, and v*u with a unit coefficient makes them orient
    spec.add_relation(v * u)
    assert orient(spec).rules == {(1, 0): spec.zero(), (0, 1): spec.zero()}


def test_confluence_guard_text_is_the_nf_witness():
    with pytest.raises(NotConfluent) as exc:
        confluent_rules(demo_algebras("non_confluent")["cyc"])
    recorded = (Path(__file__).parent / "data" / "demos" / "non_confluent.txt").read_text()
    lines = recorded.splitlines()
    assert lines[lines.index('[ERR ] nf cyc "z^3"') + 1] == f"       witness: {exc.value}"


def test_orient_requires_cross_signs():
    spec = AlgebraSpec.build(
        "nocross", [("u", "even", "f", 0), ("v", "even", "g", 1)]
    )
    with pytest.raises(OrientationFailure):
        orient(spec)


def test_normal_form_kills_relations(grq, rules_q, grh, rules_h):
    for spec, rules in ((grq, rules_q), (grh, rules_h)):
        for r in spec.relations:
            assert rules.normal_form(r).is_zero()


def test_normal_form_square_is_zero(grq, rules_q):
    a = grq.gen_element("alpha'")
    assert rules_q.normal_form(a * a).is_zero()


def test_normal_form_q_commutator_is_zero(grq, rules_q):
    a, b = grq.gen_elements("alpha' beta'")
    assert rules_q.normal_form(a * b + Q**-1 * (b * a)).is_zero()


def test_normal_form_delta_alpha(grh, rules_h):
    a, _b, c, d = grh.gen_elements("alpha beta gamma delta")
    expected = -(a * d) + H * (c * a) + H * (c * d)
    got = rules_h.normal_form(d * a)
    assert got == expected
    # independent strategy reaches the same fixpoint
    assert naive_fixpoint_reduce(d * a, rules_h) == expected
    # rewriting-free certificate: d*a - nf(d*a) lies in the relation ideal
    assert in_ideal_component(grh, d * a - got)


def test_confluence_empty_for_builtin_systems(rules_q, rules_h):
    assert brute_force_overlaps(rules_q, 4) == []
    assert brute_force_overlaps(rules_h, 4) == []


def test_confluence_of_commuting_plane():
    spec, = prelude("hplane", h="0")
    rs = orient(spec)
    assert list(rs.rules) == [tuple(spec.generator_named(n).gid for n in ("x", "y"))]
    assert brute_force_overlaps(rs, 4) == []


def test_confluence_detects_failure():
    # {y*y -> x*y} alone: y*y*y reduces to x*x*y or to y*x*y
    spec = AlgebraSpec.build("nc", [("x", "even", "f", 0), ("y", "even", "f", 1)])
    x, y = spec.gen_elements("x y")
    spec.add_relation(y * y - x * y)
    rs = orient(spec)
    witnesses = rs.unresolved_overlaps()
    assert witnesses == brute_force_overlaps(rs, 3)
    assert witnesses[0].word == (1, 1, 1)
    assert witnesses[0].nf_a != witnesses[0].nf_b


def test_degree2_normal_word_count_matches_rank(grq, rules_q, grh, rules_h):
    # dual route: 16 - rank(relation span) must equal the normal-word count
    for spec, rules in ((grq, rules_q), (grh, rules_h)):
        rank = relation_span(spec.relations, spec).rank()
        assert rank == 10
        assert len(rules.degree2_normal_words()) == 16 - rank == 6


def test_normal_form_idempotent_and_multiplicative(rng, grq, rules_q, grh, rules_h):
    for spec, rules in ((grq, rules_q), (grh, rules_h)):
        for _ in range(150):
            a = random_element(rng, spec)
            b = random_element(rng, spec)
            na = rules.normal_form(a)
            assert rules.normal_form(na) == na
            assert rules.normal_form(a + b) == rules.normal_form(
                na + rules.normal_form(b)
            )
            assert rules.normal_form(a * b) == rules.normal_form(
                na * rules.normal_form(b)
            )


def test_normal_form_matches_naive_reducer(rng, grh, rules_h):
    for _ in range(100):
        e = random_element(rng, grh, max_degree=3)
        assert rules_h.normal_form(e) == naive_fixpoint_reduce(e, rules_h)


def _assert_rescan_strategy(spec, rules, seed, samples, max_degree):
    rng = random.Random(seed)
    for _ in range(samples):
        e = random_element(rng, spec, max_degree=max_degree, max_terms=6)
        got, want = rules.normal_form(e), rescan_reduce(e, rules)
        assert got == want
        assert str(got) == str(want)


def _assert_entries_rescan(rules):
    """Every entry of the table is the reference reduction of its word."""
    spec = rules.ambient
    assert rules._table
    for w, terms in rules._table.items():
        assert Element(spec, terms) == rescan_reduce(spec.word_element(w), rules), w


@pytest.mark.parametrize("name", ["GRq2", "GRh2", "hplane"])
def test_normal_form_matches_rescan_reducer(name):
    spec = builtin_algebras()[name]
    _assert_rescan_strategy(spec, orient(spec), f"rescan-{spec.name}", 60, 4)


@pytest.mark.parametrize("name", ["GRq2", "GRh2", "hplane"])
def test_every_table_entry_is_the_rescan_reduction_of_its_word(name):
    # fresh copies, so the table holds only what this test asked for: the
    # words of the samples, the relations' words and the junction products
    # of multiply
    spec, = prelude(name)
    rules = orient(spec)
    _assert_rescan_strategy(spec, rules, f"rescan-{spec.name}", 60, 4)
    rng = random.Random(f"entries-{name}")
    for _ in range(20):
        a, b = (rules.normal_form(random_element(rng, spec, max_degree=3)) for _ in range(2))
        rules.multiply(a, b)
    _assert_entries_rescan(rules)


def test_normal_form_follows_rescan_strategy_on_non_confluent_system():
    # x*y = z^2, y*z = x^2, z*x = y^2 orient to z*z -> x*y, y*z -> x*x,
    # z*x -> y*y; z^3 reduces to x^3 from its first redex, y^3 from its last
    spec = _cyclic()
    rules = orient(spec)
    assert brute_force_overlaps(rules, 3)
    x, y, z = spec.gen_elements("x y z")
    assert rules.normal_form(z * z * z) == x * x * x
    assert naive_fixpoint_reduce(z * z * z, rules) == y * y * y
    _assert_rescan_strategy(spec, rules, "rescan-cyclic", 200, 6)
    _assert_entries_rescan(rules)


def test_normal_form_follows_rescan_strategy_where_a_rule_makes_a_redex():
    # p*p -> r*s, and r*s is itself a left-hand side (a swap across the
    # families); in t*p*p -> t*r*s the first redex is t*r, not r*s, and the
    # two give opposite signs: -s^2*r from t*r, s^2*r from r*s
    spec = AlgebraSpec.build("swaps", [("s", "odd", "G", 0), ("r", "odd", "F", 1),
                                       ("t", "odd", "F", 2), ("p", "odd", "F", 3)],
                             {("F", "G"): -1})
    s, r, t, p = spec.gen_elements("s r t p")
    spec.add_relation(t * r - s * r)
    spec.add_relation(p * p - r * s)
    rules = orient(spec)
    assert rules.rules[_w(spec, "p", "p")] == r * s and _w(spec, "r", "s") in rules.rules
    assert rules.normal_form(t * p * p) == -(s * s * r)
    _assert_rescan_strategy(spec, rules, "rescan-swaps", 100, 5)
    _assert_entries_rescan(rules)


def test_rescan_reduction_is_linear_on_a_non_confluent_system():
    # the premise of reducing each word alone: where the choice of redex
    # decides the result, the reference reduction of a sum is still the sum
    # of the reductions of its words, times their coefficients
    spec = _cyclic()
    rules = orient(spec)
    rng = random.Random("linear-cyclic")
    for _ in range(100):
        e = random_element(rng, spec, max_degree=6, max_terms=6)
        parts = spec.zero()
        for w, c in e.terms.items():
            parts = parts + rescan_reduce(spec.word_element(w), rules) * c
        assert rescan_reduce(e, rules) == parts


def _cyclic():
    """x*y = z^2, y*z = x^2, z*x = y^2: its overlap y*z*x gives x^3 or y^3."""
    spec = AlgebraSpec.build(
        "cyclic", [("x", "even", "f", 0), ("y", "even", "f", 1), ("z", "even", "f", 2)]
    )
    x, y, z = spec.gen_elements("x y z")
    for lhs, rhs in ((x * y, z * z), (y * z, x * x), (z * x, y * y)):
        spec.add_relation(lhs - rhs)
    return spec


def _nf_algebras():
    """Every builtin and every demo algebra on which ``nf`` runs: those
    with a rule system certified confluent."""
    found = {**builtin_algebras()}
    for path in sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.qh")):
        for name, spec in demo_algebras(path.stem).items():
            found[f"{path.stem}:{name}"] = spec
    accepted = {}
    for label, spec in found.items():
        try:
            confluent_rules(spec)
        except (OrientationFailure, NotConfluent):
            continue
        accepted[label] = spec
    return accepted


def _normal_words(rs, length):
    """Every normal word of at most ``length`` letters, the empty word first."""
    words, frontier = [()], [()]
    for _ in range(length):
        frontier = [w + (g,) for w in frontier for g in range(len(rs.ambient.generators))
                    if not w or (w[-1], g) not in rs.rules]
        words += frontier
    return words


def test_multiply_is_the_normal_form_of_the_free_product(monkeypatch):
    algebras = _nf_algebras()
    assert len(algebras) >= 12  # the eight builtins and the confluent demo algebras
    rng = random.Random("multiply")
    scalars = [Q * Q - 1, Q - 1, Q**-1, (Q - 1) ** -2, H * Q]
    sums = []  # the number of products each fused sum adds
    fused = rewrite._sum_of_coeff_products
    monkeypatch.setattr(rewrite, "_sum_of_coeff_products",
                        lambda pairs: sums.append(len(pairs)) or fused(pairs))
    for label, spec in algebras.items():
        rs = orient(spec)
        words = _normal_words(rs, 3)
        top = [w for w in words if len(w) == len(words[-1])]
        letters = [(g,) for g in range(len(spec.generators))]

        def element(words, low, high):
            picks = rng.sample(words, min(len(words), rng.randint(low, high)))
            return Element(spec, {w: random_coeff(rng) * rng.choice(scalars) for w in picks})

        # any normal elements; normal words of top degree times linear
        # forms, whose products collide on few words
        for _ in range(12):
            for a, b in ((element(words, 0, 4), element(words, 0, 4)),
                         (element(top, 2, 4), element(letters, 1, len(letters)))):
                got, want = rs.multiply(a, b), rs.normal_form(a.free_mul(b))
                assert got == want, (label, str(a), str(b))
                assert str(got) == str(want)
    assert max(sums) >= 6


# (system, brute-force degree bound, confluent, overlaps): degree 5
# wherever it takes well under a second
OVERLAPS = {"GRq2": 20, "GRh2": 20, "qplane": 0, "hplane": 0, "qdualplane": 4,
            "hdualplane": 4, "GLq2-target": 4, "GRq2xGRq2": 120}
CERTIFIED = [(name, 4 if name in ("GRh2", "GRq2xGRq2") else 5, True, OVERLAPS[name])
             for name in builtin_algebras()]
CERTIFIED += [("fermions", 5, True, 10), ("lopsided", 5, False, 1), ("cyclic", 5, False, 4)]


@pytest.mark.parametrize("name, bound, confluent, count", CERTIFIED,
                         ids=[name for name, *_rest in CERTIFIED])
def test_certificate_agrees_with_brute_force(name, bound, confluent, count):
    algebras = {**builtin_algebras(), **demo_algebras("custom_algebra"), "cyclic": _cyclic()}
    rs = orient(algebras[name])
    overlaps = rs.unresolved_overlaps()
    assert rs.overlap_count() == count
    assert (overlaps == []) == confluent
    assert (brute_force_overlaps(rs, bound) == []) == confluent
    # the same witnesses as the degree-3 brute force, in the same order
    assert overlaps == brute_force_overlaps(rs, 3)
    for w in overlaps:
        assert len(w.word) == 3 and w.nf_a != w.nf_b


def test_certificate_names_the_first_overlap():
    rs = orient(_cyclic())
    assert rs.unresolved_overlaps()[0].describe() == "y*z*x -> x^3 | y^3"


def test_certificate_is_lazy(monkeypatch):
    calls = []
    pairs = RuleSystem._overlap_pairs
    monkeypatch.setattr(RuleSystem, "_overlap_pairs",
                        lambda self: calls.append(self) or pairs(self))
    rs = orient(*prelude("GRh2"))
    assert calls == []
    rs.unresolved_overlaps()
    rs.unresolved_overlaps()
    assert calls == [rs]


def _random_entry(rng, with_q):
    """Zero in about a third of the draws, else a polynomial of up to three
    terms in h, or in q and h, often not a monomial."""
    if rng.random() < 0.35:
        return QHPoly.zero()
    if rng.random() < 0.2:
        return rng.choice([QHPoly({(0, 1): 1, (0, 0): 1}),              # h + 1
                           QHPoly({(0, 2): 2, (0, 0): -1})])            # 2*h^2 - 1
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(0, 1) if with_q else 0
        terms[(a, rng.randint(0, 2))] = rng.choice([-3, -2, -1, 1, 2, 3])
    return QHPoly(terms)


def _dense_step(row, top, col, prev):
    """The fraction-free step by its definition, on dense rows: every entry
    x becomes (x * p - c * y) / prev, with p = top[col] and c = row[col]."""
    p, c = top[col], row[col]
    return [(x * p - c * y).exact_div(prev) for x, y in zip(row, top)]


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def test_reduce_row_equals_every_step():
    # skipping the zero-entry steps and scaling once at the end must give,
    # entry for entry, the row that one dense step per pivot row gives,
    # also for rows in the span (which reduce to an empty row)
    rng = random.Random(20261019)
    one = QHPoly.one()
    rescaled = 0
    for case in range(500):
        with_q = case % 2 == 1
        ncols = rng.randint(2, 5)
        rows = [[_random_entry(rng, with_q) for _ in range(ncols)]
                for _ in range(rng.randint(1, 4))]
        rank, m = _bareiss(rows, ncols)
        echelon = [(min(r), r) for r in m[:rank]]
        if rng.random() < 0.25:
            row = [QHPoly.zero()] * ncols
            for r in rows:
                t = _random_entry(rng, with_q)
                row = [a + t * b for a, b in zip(row, r)]
        else:
            row = [_random_entry(rng, with_q) for _ in range(ncols)]
        want = list(row)
        prev = applied = one
        for col, top in echelon:
            if want[col]:
                applied = top[col]
            want = _dense_step(want, top[:], col, prev)
            prev = top[col]
        got = _sparse(row)
        _reduce_row(got, echelon)
        assert got == _sparse(want), (rows, row)
        # the full-step row ends scaled past the last step taken on a
        # nonzero entry: only the final scaling gives it
        rescaled += prev != applied and any(want)
    assert rescaled >= 40


def _rational_entry(rng):
    """Zero in about a third of the draws, else a polynomial in q and h of
    one to three terms with rational coefficients, so that its denominator
    is often not 1."""
    if rng.random() < 0.35:
        return QHPoly.zero()
    return QHPoly({(rng.randint(0, 1), rng.randint(0, 2)):
                   Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
                   for _ in range(rng.randint(1, 3))})


def test_fused_step_is_the_dense_definition():
    # a fraction-free elimination written out densely; at every pivot each
    # row below takes one _reduce step on its sparse copy, which must hold
    # exactly the nonzero entries of (x * p - c * y).exact_div(prev)
    rng = random.Random(20261021)
    seen = dict.fromkeys(("den", "multi_p", "multi_prev", "zero_x", "zero_y", "in_span"), 0)
    for _ in range(300):
        ncols = rng.randint(2, 5)
        dense = [[_rational_entry(rng) for _ in range(ncols)] for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.4:
            f, g = _rational_entry(rng), _rational_entry(rng)
            dense.append([f * x + g * y for x, y in zip(dense[0], dense[1])])
        sparse = [_sparse(row) for row in dense]
        prev, rank = QHPoly.one(), 0
        for col in range(ncols):
            piv = next((r for r in range(rank, len(dense)) if dense[r][col]), None)
            if piv is None:
                continue
            for rows in (dense, sparse):
                rows.insert(rank, rows.pop(piv))
            top = dense[rank]
            for r in range(rank + 1, len(dense)):
                row = dense[r]
                dense[r] = _dense_step(row, top, col, prev)
                _reduce(sparse[r], sparse[rank], col, prev)
                assert sparse[r] == _sparse(dense[r])
                if row[col]:
                    seen["den"] += any(x.den != 1 and y.den != 1 and x.den != y.den
                                       for x, y in zip(row, top))
                    seen["zero_x"] += any(y and not x for x, y in zip(row, top))
                    seen["zero_y"] += any(x and not y for x, y in zip(row, top))
                seen["multi_p"] += len(top[col].terms) > 1
                seen["multi_prev"] += len(prev.terms) > 1
            prev = top[col]
            rank += 1
        # every column was eliminated, so each row below the rank is in the
        # span of the pivot rows and was reduced to nothing
        assert all(row == {} for row in sparse[rank:])
        seen["in_span"] += len(sparse) - rank
    assert min(seen.values()) >= 40, seen
