"""Builtin presentations and the theorems checked on them.

This module holds the concrete objects: the q- and h-planes and their
duals, the q- and h-deformed Grassmann matrix algebras, the change-of-basis
matrix g and both R-matrices, the covariance derivation of the h-relations,
the one-sided inverses with their determinants, and the product theorem for
two anticommuting generator matrices.  The covariance derivation pushes
relations through degree-2 images with :func:`~qhcontract.contract.extend`,
the homomorphic extension behind every ``Substitution``.

The builtin algebras and matrices are one script text, :data:`PRELUDE`,
which reads as any script does.  It is parsed on first use, at most once
per process, by :func:`~qhcontract.script.define_algebra` and
:func:`~qhcontract.script.define_matrix`, the evaluation that
:class:`~qhcontract.cli.Runner` runs for scripts, and every caller shares
the objects, so a builtin's rule system and its table of normal forms also
live for the whole process.  :func:`conjugation` is the one change of
basis: it gives the contraction maps of criteria 1 to 3 and the way back
of criterion 12.

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
from .script import define_algebra, define_matrix, parse_script
from .superalgebra import AlgebraSpec, Element


def _h(value) -> Coeff:
    return Coeff.h() if value is None else value


# The builtin presentations and matrices, in the script language.  The
# generator precedences make every relation set orient with unit leading
# coefficients, and the relation order fixes the printed limit rows of
# criteria 1 to 3.
PRELUDE = """\
algebra GRq2
  gen alpha' parity=odd family=entry prec=0
  gen beta' parity=odd family=entry prec=1
  gen gamma' parity=odd family=entry prec=2
  gen delta' parity=odd family=entry prec=3
  rel alpha'*beta' = -q^-1*beta'*alpha'
  rel alpha'*gamma' = -q^-1*gamma'*alpha'
  rel gamma'*delta' = -q^-1*delta'*gamma'
  rel beta'*delta' = -q^-1*delta'*beta'
  rel alpha'*delta' = -delta'*alpha'
  rel alpha'^2 = 0
  rel beta'^2 = 0
  rel gamma'^2 = 0
  rel delta'^2 = 0
  rel beta'*gamma' + gamma'*beta' = (q - q^-1)*delta'*alpha'
end

# precedence gamma < alpha < delta < beta: one of the two orders of the 24
# under which the relations orient; the other is delta < gamma < alpha <
# beta, and both are confluent
algebra GRh2
  gen alpha parity=odd family=entry prec=1
  gen beta parity=odd family=entry prec=3
  gen gamma parity=odd family=entry prec=0
  gen delta parity=odd family=entry prec=2
  rel alpha*beta + beta*alpha = h*(alpha*delta + beta*gamma)
  rel alpha*gamma + gamma*alpha = 0
  rel beta*gamma + gamma*beta = h*(delta*gamma - gamma*alpha)
  rel beta*delta + delta*beta = -h*(alpha*delta + gamma*beta)
  rel alpha*delta + delta*alpha = h*(gamma*alpha - delta*gamma)
  rel gamma*delta + delta*gamma = 0
  rel alpha^2 = -h*gamma*alpha
  rel beta^2 = h*(beta*delta - alpha*beta + h*alpha*delta)
  rel gamma^2 = 0
  rel delta^2 = h*delta*gamma
end

algebra qplane
  gen x' parity=even family=coord prec=0
  gen y' parity=even family=coord prec=1
  rel x'*y' = q*y'*x'
end

# precedence y < x, so the relation orients as x*y -> y*x + h*y^2; under
# x < y its largest word would be y^2, with the non-unit coefficient h
algebra hplane
  gen x parity=even family=coord prec=1
  gen y parity=even family=coord prec=0
  rel x*y = y*x + h*y^2
end

# of the standard sign and power choices, only this q^-1 convention
# contracts onto the h-dual plane with its stated sign eta^2 = +h*eta*xi;
# eta'*xi' = -q*xi'*eta' lands on the opposite sign
algebra qdualplane
  gen eta' parity=odd family=coord prec=1
  gen xi' parity=odd family=coord prec=0
  rel eta'^2 = 0
  rel xi'^2 = 0
  rel eta'*xi' = -q^-1*xi'*eta'
end

algebra hdualplane
  gen eta parity=odd family=coord prec=1
  gen xi parity=odd family=coord prec=0
  rel xi^2 = 0
  rel eta^2 = h*eta*xi
  rel eta*xi = -xi*eta
end

# the six q-commutation relations satisfied by a product of two
# anticommuting generator matrices
algebra GLq2-target
  gen a parity=even family=product prec=0
  gen b parity=even family=product prec=1
  gen c parity=even family=product prec=2
  gen d parity=even family=product prec=3
  rel a*b = q*b*a
  rel a*c = q*c*a
  rel b*c = c*b
  rel b*d = q*d*b
  rel c*d = q*d*c
  rel a*d - d*a = (q - q^-1)*b*c
end

# two anticommuting copies of GRq2
algebra GRq2xGRq2
  gen alpha parity=odd family=first prec=0
  gen beta parity=odd family=first prec=1
  gen gamma parity=odd family=first prec=2
  gen delta parity=odd family=first prec=3
  gen alpha' parity=odd family=second prec=4
  gen beta' parity=odd family=second prec=5
  gen gamma' parity=odd family=second prec=6
  gen delta' parity=odd family=second prec=7
  cross first second sign=-1
  rel alpha*beta = -q^-1*beta*alpha
  rel alpha*gamma = -q^-1*gamma*alpha
  rel gamma*delta = -q^-1*delta*gamma
  rel beta*delta = -q^-1*delta*beta
  rel alpha*delta = -delta*alpha
  rel alpha^2 = 0
  rel beta^2 = 0
  rel gamma^2 = 0
  rel delta^2 = 0
  rel beta*gamma + gamma*beta = (q - q^-1)*delta*alpha
  rel alpha'*beta' = -q^-1*beta'*alpha'
  rel alpha'*gamma' = -q^-1*gamma'*alpha'
  rel gamma'*delta' = -q^-1*delta'*gamma'
  rel beta'*delta' = -q^-1*delta'*beta'
  rel alpha'*delta' = -delta'*alpha'
  rel alpha'^2 = 0
  rel beta'^2 = 0
  rel gamma'^2 = 0
  rel delta'^2 = 0
  rel beta'*gamma' + gamma'*beta' = (q - q^-1)*delta'*alpha'
end

# the singular change of basis, and the R-matrices of both sides
mat g 2 [ 1, h/(q-1) ; 0, 1 ]
mat Rq 4 [ q + q^-1, 0, 0, 0 ;
           0, 2, q^-1 - q, 0 ;
           0, q - q^-1, 2, 0 ;
           0, 0, 0, q + q^-1 ]
mat Rh 4 [ 1, -h, h, h^2 ;
           0, 1, 0, -h ;
           0, 0, 1, h ;
           0, 0, 0, 1 ]
"""

# (algebras, matrices) of PRELUDE, parsed on first use and shared by every
# caller in the process
_builtins = None


def _parsed():
    global _builtins
    if _builtins is None:
        algebras, matrices = {}, {}
        for node in parse_script(PRELUDE):
            if node.kind == "algebra":
                algebras[node.payload["name"]] = define_algebra(node)
            else:
                matrices[node.payload["name"]] = define_matrix(node, None)
        _builtins = algebras, matrices
    return _builtins


def builtin_algebras() -> dict:
    """The algebras of :data:`PRELUDE` by name; shared, not to be changed."""
    return _parsed()[0]


def builtin_matrices() -> dict:
    """The matrices of :data:`PRELUDE` by name; shared, not to be changed."""
    return _parsed()[1]


# -- change of basis ----------------------------------------------------------------


def conjugation(g: ScalMat, src: AlgebraSpec, dst: AlgebraSpec) -> Substitution:
    """The change of basis by the n x n matrix ``g`` from ``src`` to ``dst``.

    Generators count in declaration order.  With n^2 of them each algebra
    is read as the n x n matrix of its generators, row by row, and the
    source matrix goes to g A g^-1 of the target's matrix A; with n of them
    the source coordinates go to g x of the target's column x.
    """
    n, count = g.n, len(src.generators)
    if len(dst.generators) != count or count not in (n, n * n):
        raise ValueError(f"a {n}x{n} change of basis maps {n} or {n * n} generators "
                         f"onto as many, not {count} onto {len(dst.generators)}")
    if count == n:
        images = [{(k,): g.rows[i][k] for k in range(n)} for i in range(n)]
    else:
        ginv = g.inverse()
        images = [{(k * n + m,): g.rows[i][k] * ginv.rows[m][j]
                   for k in range(n) for m in range(n)}
                  for i in range(n) for j in range(n)]
    return Substitution(src, dst, {gid: Element(dst, terms) for gid, terms in enumerate(images)})


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
    plane, dual = builtin_algebras()["hplane"], builtin_algebras()["hdualplane"]
    plane_to_dual = covariance_problem(plane, dual, +1, entry_pattern=into)
    dual_to_plane = covariance_problem(dual, plane, -1, entry_pattern=into)
    rels = covariance_relations(plane_to_dual, into) + covariance_relations(
        dual_to_plane, into
    )
    return relation_span(rels, into)


# -- inverses and determinants ------------------------------------------------------


def entry_matrix(spec: AlgebraSpec, n: int = 2) -> AlgMat:
    """The n x n matrix of the first n^2 generators in declaration order, row by row."""
    g = [spec.word_element((i,)) for i in range(n * n)]
    return AlgMat(spec, [g[i * n:(i + 1) * n] for i in range(n)])


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
