"""Builtin presentations and the theorems checked on them.

This module holds the concrete objects: the q- and h-planes and their
duals, the q- and h-deformed Grassmann matrix algebras, the change-of-basis
matrix g and both R-matrices, the covariance derivation of the h-relations,
the one-sided inverses with their determinants, and the product theorem for
two anticommuting generator matrices.  The covariance derivation pushes
relations through degree-2 images with :func:`~qhcontract.contract.extend`,
the homomorphic extension behind every ``Substitution``.

Generator precedences are part of each presentation and were chosen so that
every relation set orients with unit leading coefficients (orientation
validates this).  Every normal form here is taken with the rules that
:func:`~qhcontract.rewrite.orient` keeps for the algebra in question, and
the covariance derivation and the product theorem first pass
:func:`~qhcontract.rewrite.confluent_rules`, since their relations and
verdicts are read off normal words.  The inverse residuals are certified
where they are read, by :func:`~qhcontract.suite.residual_verdict`.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeffring import Coeff
from .contract import RelationSpan, Substitution, extend, relation_span
from .matalg import AlgMat, ScalMat
from .rewrite import confluent_rules
from .superalgebra import AlgebraSpec, Element


def _h(value) -> Coeff:
    return Coeff.h() if value is None else value


def _f(h=None) -> Coeff:
    # the singular change-of-basis entry h/(q-1)
    return _h(h) / (Coeff.q() - Coeff.one())


# -- planes --------------------------------------------------------------------


def q_plane() -> AlgebraSpec:
    spec = AlgebraSpec.build(
        "qplane", [("x'", "even", "coord", 0), ("y'", "even", "coord", 1)]
    )
    x, y = spec.gen_elements("x' y'")
    spec.add_relation(x * y - Coeff.q() * y * x)
    return spec


def h_plane(h=None) -> AlgebraSpec:
    # precedence y < x so the relation orients as x*y -> y*x + h*y^2
    # (under x < y its largest word would be y^2 with non-unit coefficient h)
    spec = AlgebraSpec.build(
        "hplane", [("x", "even", "coord", 1), ("y", "even", "coord", 0)]
    )
    x, y = spec.gen_elements("x y")
    spec.add_relation(x * y - y * x - _h(h) * y * y)
    return spec


def q_dual_plane() -> AlgebraSpec:
    """Dual q-plane in the convention whose contraction matches the h-dual.

    Among the standard sign/power choices, only eta'*xi' + q^-1*xi'*eta' = 0
    contracts onto the h-dual plane with its stated sign eta^2 = +h*eta*xi;
    the q^+1 variant lands on the opposite sign.
    """
    spec = AlgebraSpec.build(
        "qdualplane", [("eta'", "odd", "coord", 1), ("xi'", "odd", "coord", 0)]
    )
    eta, xi = spec.gen_elements("eta' xi'")
    qinv = Coeff.q().try_inv()
    spec.add_relation(eta * eta)
    spec.add_relation(xi * xi)
    spec.add_relation(eta * xi + qinv * xi * eta)
    return spec


def h_dual_plane(h=None) -> AlgebraSpec:
    spec = AlgebraSpec.build(
        "hdualplane", [("eta", "odd", "coord", 1), ("xi", "odd", "coord", 0)]
    )
    eta, xi = spec.gen_elements("eta xi")
    spec.add_relation(xi * xi)
    spec.add_relation(eta * eta - _h(h) * eta * xi)
    spec.add_relation(eta * xi + xi * eta)
    return spec


# -- matrix group presentations -------------------------------------------------


def _add_gr_q_relations(spec: AlgebraSpec, names: str) -> None:
    a, b, c, d = spec.gen_elements(names)
    qinv = Coeff.q().try_inv()
    qq = Coeff.q() - qinv
    for rel in (
        a * b + qinv * b * a,
        a * c + qinv * c * a,
        c * d + qinv * d * c,
        b * d + qinv * d * b,
        a * d + d * a,
        a * a,
        b * b,
        c * c,
        d * d,
        b * c + c * b - qq * d * a,
    ):
        spec.add_relation(rel)


def gr_q2() -> AlgebraSpec:
    spec = AlgebraSpec.build(
        "GRq2",
        [
            ("alpha'", "odd", "entry", 0),
            ("beta'", "odd", "entry", 1),
            ("gamma'", "odd", "entry", 2),
            ("delta'", "odd", "entry", 3),
        ],
    )
    _add_gr_q_relations(spec, "alpha' beta' gamma' delta'")
    return spec


def gr_h2(h=None) -> AlgebraSpec:
    # precedence gamma < alpha < delta < beta: one of the two orders of the
    # 24 under which the relations orient; the other is delta < gamma <
    # alpha < beta, and both are confluent
    spec = AlgebraSpec.build(
        "GRh2",
        [
            ("alpha", "odd", "entry", 1),
            ("beta", "odd", "entry", 3),
            ("gamma", "odd", "entry", 0),
            ("delta", "odd", "entry", 2),
        ],
    )
    a, b, c, d = spec.gen_elements("alpha beta gamma delta")
    hh = _h(h)
    for rel in (
        a * b + b * a - hh * (a * d + b * c),
        a * c + c * a,
        b * c + c * b - hh * (d * c - c * a),
        b * d + d * b + hh * (a * d + c * b),
        a * d + d * a - hh * (c * a - d * c),
        c * d + d * c,
        a * a + hh * c * a,
        b * b - hh * (b * d - a * b + hh * a * d),
        c * c,
        d * d - hh * d * c,
    ):
        spec.add_relation(rel)
    return spec


def gl_q2_target() -> AlgebraSpec:
    """The six q-commutation relations satisfied by a product of two
    anticommuting generator matrices."""
    spec = AlgebraSpec.build(
        "GLq2-target",
        [
            ("a", "even", "product", 0),
            ("b", "even", "product", 1),
            ("c", "even", "product", 2),
            ("d", "even", "product", 3),
        ],
    )
    a, b, c, d = spec.gen_elements("a b c d")
    q = Coeff.q()
    qq = q - q.try_inv()
    for rel in (
        a * b - q * b * a,
        a * c - q * c * a,
        b * c - c * b,
        b * d - q * d * b,
        c * d - q * d * c,
        a * d - d * a - qq * b * c,
    ):
        spec.add_relation(rel)
    return spec


# -- scalar matrices -------------------------------------------------------------


def g_matrix(h=None) -> ScalMat:
    f = _f(h)
    one, zero = Coeff.one(), Coeff.zero()
    return ScalMat([[one, f], [zero, one]])


def rq_matrix() -> ScalMat:
    q = Coeff.q()
    qinv = q.try_inv()
    z = Coeff.zero()
    two = Coeff.rational(2)
    return ScalMat(
        [
            [q + qinv, z, z, z],
            [z, two, qinv - q, z],
            [z, q - qinv, two, z],
            [z, z, z, q + qinv],
        ]
    )


def rh_matrix(h=None) -> ScalMat:
    hh = _h(h)
    one, z = Coeff.one(), Coeff.zero()
    return ScalMat(
        [
            [one, -hh, hh, hh * hh],
            [z, one, z, -hh],
            [z, z, one, hh],
            [z, z, z, one],
        ]
    )


# -- substitutions ----------------------------------------------------------------


def q_to_h_substitution(grq: AlgebraSpec, grh: AlgebraSpec, h=None) -> Substitution:
    """Images of the q-generators after conjugating by g: the contraction map."""
    f = _f(h)
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    return Substitution.by_name(
        grq,
        grh,
        {
            "alpha'": a + f * c,
            "beta'": b + f * (d - a - f * c),
            "gamma'": c,
            "delta'": d - f * c,
        },
    )


def h_to_q_substitution(grh: AlgebraSpec, grq: AlgebraSpec, h=None) -> Substitution:
    """Inverse change of generators, back into the q-presentation."""
    f = _f(h)
    a, b, c, d = grq.gen_elements("alpha' beta' gamma' delta'")
    return Substitution.by_name(
        grh,
        grq,
        {
            "alpha": a - f * c,
            "beta": b + f * (a - d - f * c),
            "gamma": c,
            "delta": d + f * c,
        },
    )


def plane_substitution(qp: AlgebraSpec, hp: AlgebraSpec, h=None) -> Substitution:
    """Change of plane coordinates: new = g * old on column vectors."""
    f = _f(h)
    x, y = hp.gen_elements("x y")
    return Substitution.by_name(qp, hp, {"x'": x + f * y, "y'": y})


def dual_plane_substitution(qdp: AlgebraSpec, hdp: AlgebraSpec, h=None) -> Substitution:
    f = _f(h)
    eta, xi = hdp.gen_elements("eta xi")
    return Substitution.by_name(qdp, hdp, {"eta'": eta + f * xi, "xi'": xi})


# -- covariance derivation ---------------------------------------------------------


class CovarianceProblem(NamedTuple):
    """A generic odd 2x2 matrix mapping one plane's points into another's."""

    transformation: AlgMat
    target: AlgebraSpec
    combined: AlgebraSpec
    coord_gids: tuple


def covariance_problem(source: AlgebraSpec, target: AlgebraSpec,
                       entry_sign: int, entry_pattern: AlgebraSpec) -> CovarianceProblem:
    """Combined algebra of four generic odd entries, named after the first
    four generators of ``entry_pattern``, and the source coordinates.

    ``entry_sign`` is the declared swap sign between the entry family and
    the source coordinates: +1 for plane coordinates, -1 for dual-plane
    coordinates.
    """
    entry_gens = entry_pattern.generators[:4]
    gens = [(g.name, "odd", "entry", g.prec) for g in entry_gens]
    for g in source.generators:
        gens.append((g.name, g.parity, "coord", 4 + g.prec))
    combined = AlgebraSpec.build(
        f"cov[{source.name}->{target.name}]",
        gens,
        {("entry", "coord"): entry_sign},
    )
    for rel in source.relations:
        combined.add_relation(_remap(rel, combined))
    coord_gids = tuple(
        combined.generator_named(g.name).gid for g in source.generators
    )
    return CovarianceProblem(entry_matrix(combined), target, combined, coord_gids)


def _remap(e: Element, into: AlgebraSpec) -> Element:
    src = e.algebra
    out = {}
    for w, c in e.terms.items():
        out[tuple(into.generator_named(src.generator(g).name).gid for g in w)] = c
    return Element(into, out)


def covariance_relations(problem: CovarianceProblem, into: AlgebraSpec):
    """Entry relations forced by requiring the images of points under the
    transformation to satisfy the target plane's relations.

    Each target relation is substituted, the entries are pushed left of the
    coordinates with the declared sign, the coordinate factors are reduced to
    the source plane's normal-form words, and the entry coefficient of every
    surviving coordinate word is returned as a relation of ``into``.  The
    target plane and the combined system must both be confluent.
    """
    confluent_rules(problem.target)
    rs = confluent_rules(problem.combined)
    images = {}
    for i, tg in enumerate(problem.target.generators):
        img = problem.combined.zero()
        for j, gid in enumerate(problem.coord_gids):
            coord = problem.combined.word_element((gid,))
            img = img + problem.transformation.rows[i][j].free_mul(coord)
        images[tg.gid] = img

    entry_gids = {g.gid for g in problem.combined.generators if g.family == "entry"}
    out = []
    for rel in problem.target.relations:
        # the images have degree 2, which a Substitution rejects
        reduced = rs.normal_form(extend(rel, problem.combined, images))
        buckets = {}
        for w, c in reduced.terms.items():
            if len(w) != 4 or w[0] not in entry_gids or w[1] not in entry_gids:
                raise AssertionError(f"unexpected normal word {reduced.algebra.word_str(w)}")
            buckets.setdefault(w[2:], {})[w[:2]] = c
        for coord in sorted(buckets, key=problem.combined.word_key):
            entry_elem = _remap(
                Element(problem.combined, buckets[coord]), into
            )
            out.append(entry_elem)
    return out


def combined_covariance_span(into: AlgebraSpec) -> RelationSpan:
    """Union of the entry relations from both transformation directions."""
    plane_to_dual = covariance_problem(h_plane(), h_dual_plane(), +1, entry_pattern=into)
    dual_to_plane = covariance_problem(h_dual_plane(), h_plane(), -1, entry_pattern=into)
    rels = covariance_relations(plane_to_dual, into) + covariance_relations(
        dual_to_plane, into
    )
    return relation_span(rels, into)


# -- inverses and determinants ------------------------------------------------------


def entry_matrix(spec: AlgebraSpec) -> AlgMat:
    """The 2x2 matrix of the first four generators in declaration order."""
    g = [spec.word_element((i,)) for i in range(4)]
    return AlgMat(spec, [[g[0], g[1]], [g[2], g[3]]])


def left_inverse(grh: AlgebraSpec, h=None) -> AlgMat:
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    hh = _h(h)
    return AlgMat(grh, [[d + hh * c, b + hh * a], [-c, -a]])


def right_inverse(grh: AlgebraSpec, h=None) -> AlgMat:
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    hh = _h(h)
    return AlgMat(grh, [[-d, b + hh * d], [-c, a + hh * c]])


def delta_left(grh: AlgebraSpec) -> Element:
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    return b * c + d * a


def delta_right(grh: AlgebraSpec) -> Element:
    a, b, c, d = grh.gen_elements("alpha beta gamma delta")
    return c * b + a * d


class InverseReport(NamedTuple):
    """Normal-formed residuals of the three inverse/determinant identities."""

    left_residual: AlgMat
    right_residual: AlgMat
    exchange_residual: AlgMat


def inverse_check(grh: AlgebraSpec, h=None) -> InverseReport:
    """Check A_L^-1 * A = diag(D_L), A * A_R^-1 = diag(D_R) and
    D_L * A_R^-1 = A_L^-1 * D_R, with D_L multiplying entries from the left
    and D_R from the right, as written."""
    a_mat = entry_matrix(grh)
    left = left_inverse(grh, h)
    right = right_inverse(grh, h)
    dl = delta_left(grh)
    dr = delta_right(grh)

    def diag(e):
        return AlgMat(grh, [[e, grh.zero()], [grh.zero(), e]])

    left_res = (left * a_mat - diag(dl)).normal_form()
    right_res = (a_mat * right - diag(dr)).normal_form()
    exch = (diag(dl) * right - left * diag(dr)).normal_form()
    return InverseReport(left_res, right_res, exch)


# -- product theorem ----------------------------------------------------------------


def product_pair_algebra() -> AlgebraSpec:
    """Two anticommuting copies of the q-deformed Grassmann matrix algebra."""
    spec = AlgebraSpec.build(
        "GRq2xGRq2",
        [
            ("alpha", "odd", "first", 0),
            ("beta", "odd", "first", 1),
            ("gamma", "odd", "first", 2),
            ("delta", "odd", "first", 3),
            ("alpha'", "odd", "second", 4),
            ("beta'", "odd", "second", 5),
            ("gamma'", "odd", "second", 6),
            ("delta'", "odd", "second", 7),
        ],
        {("first", "second"): -1},
    )
    _add_gr_q_relations(spec, "alpha beta gamma delta")
    _add_gr_q_relations(spec, "alpha' beta' gamma' delta'")
    return spec


def product_entries(spec: AlgebraSpec):
    """Entries of the product of the two generator matrices, in matrix order."""
    a1, b1, c1, d1 = spec.gen_elements("alpha beta gamma delta")
    a2, b2, c2, d2 = spec.gen_elements("alpha' beta' gamma' delta'")
    return {
        "a": a1 * a2 + b1 * c2,
        "b": a1 * b2 + b1 * d2,
        "c": c1 * a2 + d1 * c2,
        "d": c1 * b2 + d1 * d2,
    }


def product_theorem(spec: AlgebraSpec):
    """Residuals of the six q-commutation relations for the product entries."""
    rs = confluent_rules(spec)
    e = product_entries(spec)
    a, b, c, d = e["a"], e["b"], e["c"], e["d"]
    q = Coeff.q()
    qq = q - q.try_inv()
    checks = [
        ("a*b - q*b*a", a * b - q * (b * a)),
        ("a*c - q*c*a", a * c - q * (c * a)),
        ("b*c - c*b", b * c - c * b),
        ("b*d - q*d*b", b * d - q * (d * b)),
        ("c*d - q*d*c", c * d - q * (d * c)),
        ("a*d - d*a - (q - q^-1)*b*c", a * d - d * a - qq * (b * c)),
    ]
    return [(label, rs.normal_form(expr)) for label, expr in checks]


def product_entries_even(spec: AlgebraSpec) -> bool:
    """Every normal-form word of the product entries has even length."""
    rs = confluent_rules(spec)
    return all(
        len(w) % 2 == 0
        for e in product_entries(spec).values()
        for w in rs.normal_form(e).terms
    )


# -- builtin registry ----------------------------------------------------------------


def builtin_algebras():
    return {
        "GRq2": gr_q2(),
        "GRh2": gr_h2(),
        "qplane": q_plane(),
        "hplane": h_plane(),
        "qdualplane": q_dual_plane(),
        "hdualplane": h_dual_plane(),
        "GLq2-target": gl_q2_target(),
        "GRq2xGRq2": product_pair_algebra(),
    }


def builtin_matrices():
    return {"g": g_matrix(), "Rq": rq_matrix(), "Rh": rh_matrix()}
