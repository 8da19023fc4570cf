from pathlib import Path

import pytest

from qhcontract.coeffring import Coeff
from qhcontract.contract import relation_span, span_equal
from qhcontract.matalg import AlgMat
import itertools

from qhcontract.rewrite import NotConfluent, OrientationFailure, orient
from qhcontract.superalgebra import AlgebraSpec, Element
from qhcontract.grgroup import (
    builtin_algebras,
    builtin_matrices,
    combined_covariance_span,
    conjugation,
    covariance_problem,
    covariance_relations,
    delta_left,
    delta_right,
    entry_matrix,
    inverse_check,
    left_inverse,
    product_entries,
    product_entries_even,
    product_theorem,
    right_inverse,
)

from conftest import (brute_force_overlaps, dual_plane_substitution, h_to_q_substitution,
                      in_ideal_component, plane_substitution, prelude, q_to_h_substitution)

H = Coeff.h()
ZERO_H = Coeff.zero()
BUILTINS = Path(__file__).resolve().parent / "data" / "builtins.txt"


def _builtins_text():
    """Every builtin algebra's generators, cross signs and relations, and
    every builtin matrix, printed in order."""
    lines = []
    for name, spec in builtin_algebras().items():
        lines.append(f"algebra {name} ({spec.name})")
        lines += [f"  gen {g.name} {g.parity} {g.family} {g.prec}" for g in spec.generators]
        lines += [f"  cross {' '.join(sorted(fams))} {sign:+d}"
                  for fams, sign in sorted(spec.cross_sign.items(), key=lambda kv: sorted(kv[0]))]
        lines += [f"  rel {r}" for r in spec.relations]
    for name, mat in builtin_matrices().items():
        lines.append(f"mat {name}")
        lines += [f"  {row}" for row in str(mat).splitlines()]
    return "\n".join(lines) + "\n"


def test_builtins_are_the_recorded_presentations():
    # recorded from the Python builders that the prelude text replaced
    assert _builtins_text() == BUILTINS.read_text(encoding="utf-8")


@pytest.mark.parametrize("h", ["h", "2*h"])
@pytest.mark.parametrize("source, target, reference", [
    ("qplane", "hplane", plane_substitution),
    ("qdualplane", "hdualplane", dual_plane_substitution),
    ("GRq2", "GRh2", q_to_h_substitution),
    ("GRh2", "GRq2", h_to_q_substitution),
], ids=["plane", "dual-plane", "GRq2-GRh2", "GRh2-GRq2"])
def test_conjugation_gives_the_hand_written_images(h, source, target, reference):
    src, dst, g = prelude(source, target, "g", h=h)
    if source == "GRh2":  # the way back, as criterion 12 takes it
        g = g.inverse()
    got = conjugation(g, src, dst)
    want = reference(src, dst, h=2 * H if h == "2*h" else H)
    assert got.images == want.images


def test_conjugation_refuses_a_generator_count_that_is_not_n_or_n_squared():
    grh, hplane, g = prelude("GRh2", "hplane", "g")
    with pytest.raises(ValueError, match=r"^a 2x2 change of basis maps 2 or 4 generators "
                                         r"onto as many, not 4 onto 2$"):
        conjugation(g, grh, hplane)


@pytest.fixture(scope="module")
def grh():
    return builtin_algebras()["GRh2"]


@pytest.fixture(scope="module")
def rules_h(grh):
    return orient(grh)


# -- covariance ------------------------------------------------------------------


def test_covariance_xi_condition(grh):
    """The single condition xi_bar^2 = 0 forces three entry relations."""
    target = AlgebraSpec.build(
        "xi-only", [("eta", "odd", "coord", 1), ("xi", "odd", "coord", 0)]
    )
    xi = target.gen_element("xi")
    target.add_relation(xi * xi)
    prob = covariance_problem(builtin_algebras()["hplane"], target, +1, entry_pattern=grh)
    rels = covariance_relations(prob, grh)
    c, d = grh.gen_elements("gamma delta")
    # raw coefficients of y^2, y*x, x^2 under the rule x*y -> y*x + h*y^2
    assert rels == [d * d + H * (c * d), d * c + c * d, c * c]
    # and they carry the builtin relation forms inside their span
    sp = relation_span(rels, grh)
    for variant in (c * c, c * d + d * c, d * d - H * (d * c)):
        extended = relation_span(rels + [variant], grh)
        assert extended.rank() == sp.rank()


def test_covariance_refuses_a_non_confluent_target(grh):
    # eta^2 = xi*eta alone leaves the overlap eta^3 unresolved
    target = AlgebraSpec.build(
        "lopsided", [("eta", "odd", "coord", 1), ("xi", "odd", "coord", 0)]
    )
    eta, xi = target.gen_elements("eta xi")
    target.add_relation(eta * eta - xi * eta)
    prob = covariance_problem(builtin_algebras()["hplane"], target, +1, entry_pattern=grh)
    with pytest.raises(NotConfluent, match=r"^not confluent: eta\^3 -> xi\^2\*eta \| "):
        covariance_relations(prob, grh)


def test_covariance_eta_condition_span(grh):
    """eta_bar^2 = h eta_bar xi_bar yields the alpha/beta relations up to span."""
    plane, dual = builtin_algebras()["hplane"], builtin_algebras()["hdualplane"]
    prob = covariance_problem(plane, dual, +1, entry_pattern=grh)
    rels = covariance_relations(prob, grh)
    assert len(rels) == 9
    # the dual plane declares xi^2 first, so relations 3..5 come from the
    # eta_bar^2 condition; raw coefficients of y^2, y*x, x^2 respectively
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    assert rels[3:6] == [
        b * b - H * (b * d) + H * (a * b) - (H * H) * (a * d),
        b * a - H * (b * c) + a * b - H * (a * d),
        a * a - H * (a * c),
    ]
    builtin_forms = [
        a * a + H * (c * a),
        a * b + b * a - H * (a * d + b * c),
        b * b - H * (b * d - a * b + H * (a * d)),
    ]
    # the builtin forms differ from the raw coefficients by multiples of
    # relations from the other conditions; compare within the full span
    full = combined_covariance_span(grh)
    for e in rels + builtin_forms:
        extended = relation_span(full.to_elements() + [e], grh)
        assert extended.rank() == full.rank()


def test_covariance_combined_span_is_the_h_relations(grh):
    span = combined_covariance_span(grh)
    assert span.rank() == 10
    assert span_equal(span, relation_span(grh.relations, grh))


def test_covariance_single_direction_is_smaller(grh):
    plane, dual = builtin_algebras()["hplane"], builtin_algebras()["hdualplane"]
    prob = covariance_problem(plane, dual, +1, entry_pattern=grh)
    rels = covariance_relations(prob, grh)
    assert relation_span(rels, grh).rank() == 9


def test_covariance_h0_gives_plain_anticommutation():
    grh0, plane0, dual0 = prelude("GRh2", "hplane", "hdualplane", h="0")
    prob1 = covariance_problem(plane0, dual0, +1, entry_pattern=grh0)
    prob2 = covariance_problem(dual0, plane0, -1, entry_pattern=grh0)
    rels = covariance_relations(prob1, grh0) + covariance_relations(prob2, grh0)
    gens = [grh0.word_element((i,)) for i in range(4)]
    anticommutation = [
        gens[i] * gens[j] + gens[j] * gens[i] for i in range(4) for j in range(i, 4)
    ]
    assert span_equal(
        relation_span(rels, grh0), relation_span(anticommutation, grh0)
    )


# -- inverses and determinants ------------------------------------------------------


def test_left_product_entry_before_reduction(grh):
    a, _b, c, _d = grh.gen_elements("alpha beta gamma delta")
    prod = left_inverse(grh) * entry_matrix(grh)
    assert prod.rows[1][0] == -(c * a) - a * c


def test_left_inverse_identity_holds(grh, rules_h):
    rep = inverse_check(grh)
    assert rep.left_residual.is_zero()
    prod = (left_inverse(grh) * entry_matrix(grh)).normal_form()
    dl = rules_h.normal_form(delta_left(grh))
    assert prod.rows[0][0] == dl and prod.rows[1][1] == dl
    assert prod.rows[0][1].is_zero() and prod.rows[1][0].is_zero()


def test_left_inverse_h0_specialization():
    grh0, = prelude("GRh2", h="0")
    a, b, c, d = grh0.gen_elements("alpha beta gamma delta")
    li = left_inverse(grh0, h=ZERO_H)
    assert li == AlgMat(grh0, [[d, b], [-c, -a]])
    rep = inverse_check(grh0, h=ZERO_H)
    assert rep.left_residual.is_zero()


def test_right_inverse_identity_fails_as_stated(grh, rules_h):
    """The stated right inverse does not invert: the (1,2) entry of the
    product is 2h(alpha*delta + beta*gamma), nonzero in the algebra, and the
    diagonal is gamma*beta + delta*alpha rather than the stated determinant.
    Pinned with a rewriting-free ideal-membership certificate."""
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    prod = entry_matrix(grh) * right_inverse(grh)
    offdiag = prod.rows[0][1]
    assert offdiag == a * b + H * (a * d) + b * a + H * (b * c)
    reduced = rules_h.normal_form(offdiag)
    expected = 2 * (
        H * (a * d) - H * (c * b) - (H * H) * (c * d) - (H * H) * (c * a)
    )
    assert reduced == expected
    assert not in_ideal_component(grh, offdiag)  # genuinely nonzero
    # the actual diagonal is nf(gamma*beta + delta*alpha), not nf(Delta_R)
    diag = rules_h.normal_form(prod.rows[0][0])
    assert diag == rules_h.normal_form(c * b + d * a)
    assert diag != rules_h.normal_form(delta_right(grh))
    rep = inverse_check(grh)
    assert not rep.right_residual.is_zero()


def test_determinant_exchange_fails_as_stated(grh):
    """With the stated matrices the exchange identity leaves the residual
    2*gamma*alpha*delta in entry (2,1); certified outside the rewriter."""
    rep = inverse_check(grh)
    assert not rep.exchange_residual.is_zero()
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    assert rep.exchange_residual.rows[1][0] == 2 * (c * a * d)
    assert not in_ideal_component(grh, c * a * d)
    assert inverse_check(grh).exchange_residual.is_zero() is False


def test_swapped_exchange_also_fails(grh):
    li, ri = left_inverse(grh), right_inverse(grh)
    dl, dr = delta_left(grh), delta_right(grh)
    swapped = AlgMat(
        grh,
        [
            [dr.free_mul(ri.rows[i][j]) - li.rows[i][j].free_mul(dl) for j in range(2)]
            for i in range(2)
        ],
    ).normal_form()
    assert not swapped.is_zero()


def test_corrected_right_inverse_satisfies_everything(grh, rules_h):
    """Flipping the two h-signs and transposing the determinant's second
    factor makes the whole right-hand story consistent; kept as evidence
    that the stated version fails for non-engine reasons."""
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    corrected = AlgMat(grh, [[-d, b - H * d], [-c, a - H * c]])
    dr_corrected = c * b + d * a
    prod = (entry_matrix(grh) * corrected).normal_form()
    nf_dr = rules_h.normal_form(dr_corrected)
    assert prod.rows[0][0] == nf_dr and prod.rows[1][1] == nf_dr
    assert prod.rows[0][1].is_zero() and prod.rows[1][0].is_zero()
    li, dl = left_inverse(grh), delta_left(grh)
    exchange = AlgMat(
        grh,
        [
            [
                dl.free_mul(corrected.rows[i][j]) - li.rows[i][j].free_mul(dr_corrected)
                for j in range(2)
            ]
            for i in range(2)
        ],
    ).normal_form()
    assert exchange.is_zero()


def test_determinants_are_even(grh, rules_h):
    for det in (delta_left(grh), delta_right(grh)):
        nf = rules_h.normal_form(det)
        assert all(len(w) % 2 == 0 for w in nf.terms)


# -- product theorem -----------------------------------------------------------------


@pytest.fixture(scope="module")
def pair():
    spec = builtin_algebras()["GRq2xGRq2"]
    return spec, orient(spec)


def test_product_theorem_all_relations(pair):
    spec, rs = pair
    for label, residual in product_theorem(spec):
        assert residual.is_zero(), f"{label} -> {residual}"


def test_product_entries_are_even(pair):
    spec, rs = pair
    assert product_entries_even(spec)


def test_product_verdicts_refuse_a_non_confluent_pair_algebra():
    # the cyclic relations leave 4 overlaps unresolved; an uncertified
    # reduction happens to leave every product entry even
    names = "alpha beta gamma delta alpha' beta' gamma' delta'".split()
    spec = AlgebraSpec.build(
        "cyclic pair",
        [(n, "odd", "first" if i < 4 else "second", i) for i, n in enumerate(names)],
        {("first", "second"): -1},
    )
    a, b, c = spec.gen_elements("alpha beta gamma")
    for lhs, rhs in ((a * b, c * c), (b * c, a * a), (c * a, b * b)):
        spec.add_relation(lhs - rhs)
    message = r"^not confluent: beta\*gamma\*alpha -> alpha\^3 \| beta\^3 \(\+3 more\)$"
    with pytest.raises(NotConfluent, match=message):
        product_entries_even(spec)
    with pytest.raises(NotConfluent, match=message):
        product_theorem(spec)


def test_product_entry_sample(pair):
    spec, rs = pair
    e = product_entries(spec)
    a1, b1 = spec.gen_elements("alpha beta")
    a2, c2 = spec.gen_elements("alpha' gamma'")
    assert rs.normal_form(e["a"]) == a1 * a2 + b1 * c2


def test_product_relation_via_naive_reducer(pair):
    from conftest import naive_fixpoint_reduce

    spec, rs = pair
    e = product_entries(spec)
    q = Coeff.q()
    residual = e["a"] * e["b"] - q * (e["b"] * e["a"])
    assert naive_fixpoint_reduce(residual, rs).is_zero()


def test_gl_q2_target_orients_and_is_confluent():
    rs = orient(builtin_algebras()["GLq2-target"])
    assert brute_force_overlaps(rs, 4) == []


def test_gr_h2_orients_under_two_of_the_24_precedence_orders():
    """Only the shipped precedences and delta < gamma < alpha < beta orient
    the h-relations; both are confluent."""
    names = ("alpha", "beta", "gamma", "delta")
    oriented = {}
    for prec in itertools.permutations(range(4)):
        spec = AlgebraSpec.build("GRh2", [(n, "odd", "entry", p) for n, p in zip(names, prec)])
        for rel in builtin_algebras()["GRh2"].relations:
            spec.add_relation(Element(spec, rel.terms))
        try:
            oriented[prec] = orient(spec).unresolved_overlaps() == []
        except OrientationFailure:
            pass
    assert oriented == {(1, 3, 0, 2): True, (2, 3, 0, 1): True}
    assert tuple(g.prec for g in builtin_algebras()["GRh2"].generators) == (1, 3, 0, 2)
