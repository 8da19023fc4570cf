"""Shared oracles and randomized-value helpers for the test suite."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from qhcontract import grgroup
from qhcontract.cli import Runner
from qhcontract.coeffring import Coeff, NotAUnit, QHPoly, power
from qhcontract.contract import RelationSpan, Substitution, _primitive
from qhcontract.rewrite import OverlapWitness, _bareiss
from qhcontract.script import (MAX_LITERAL_DIGITS, UnknownName, _as_scalar, _ExprParser,
                               parse_script)
from qhcontract.superalgebra import AlgebraSpec, Element


def prelude(*names, h="h"):
    """Fresh copies of the named definitions of ``grgroup.PRELUDE``, in the
    order named, with h bound to the expression ``h`` by its text.

    Unlike the shared builtins they start with no rule system, so a test
    may count the work of orienting them, fill their tables or change them.
    """
    text = re.sub(r"\bh\b", f"({h})", grgroup.PRELUDE)
    runner = Runner()
    assert runner.run([n for n in parse_script(text) if n.payload["name"] in names]) == []
    return tuple(runner.names[name] for name in names)


# -- change-of-basis maps written out by hand, the references that
# grgroup.conjugation is compared with

def _f(h=None):
    # the singular change-of-basis entry h/(q-1)
    return (Coeff.h() if h is None else h) / (Coeff.q() - Coeff.one())


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


def random_coeff(rng: random.Random, q1_free: bool = False) -> Coeff:
    """Small random element of the localized ring."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        terms[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    qpow = rng.randint(0, 2)
    q1pow = 0 if q1_free else rng.randint(0, 2)
    return Coeff(QHPoly(terms), qpow, q1pow)


def random_element(rng: random.Random, spec, max_degree: int = 2,
                   max_terms: int = 3) -> Element:
    n = len(spec.generators)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randrange(n) for _ in range(length))
        terms[word] = random_coeff(rng)
    return Element(spec, terms)


def reduce_at(rs, word, i, c):
    """One rewrite step of c*word at position i, as an Element."""
    pre, post = word[:i], word[i + 2 :]
    return Element(rs.ambient, {
        pre + w2 + post: c * c2 for w2, c2 in rs.rules[word[i : i + 2]].terms.items()
    })


def brute_force_overlaps(rs, degree_bound: int):
    """Reduce every word of length 3..degree_bound from every redex.

    The unresolved words, in lexicographic order per length, each with the
    normal forms from its first redex and from the first one that differs:
    an oracle for RuleSystem.unresolved_overlaps, which by the diamond lemma
    needs only the overlaps of length 3.
    """
    one = Coeff.one()
    witnesses = []
    for length in range(3, degree_bound + 1):
        for word in itertools.product(range(len(rs.ambient.generators)), repeat=length):
            redexes = [i for i in range(length - 1) if word[i : i + 2] in rs.rules]
            if len(redexes) < 2:
                continue
            base = rs.normal_form(reduce_at(rs, word, redexes[0], one))
            for i in redexes[1:]:
                nf = rs.normal_form(reduce_at(rs, word, i, one))
                if nf != base:
                    witnesses.append(OverlapWitness(word, base, nf))
                    break
    return witnesses


def rescan_reduce(e: Element, rs) -> Element:
    """Reference reducer with the redex choice of RuleSystem.normal_form.

    Before every step it rescans all terms for the largest reducible word and
    rewrites that word at its first redex, one step on the whole element,
    where normal_form sums the normal forms of the words alone, kept in a
    table.  Unlike naive_fixpoint_reduce it must agree with normal_form on
    non-confluent systems too.
    """
    key = rs.ambient.word_key
    terms = dict(e.terms)
    while True:
        best = None
        best_i = None
        for w in terms:
            i = next((i for i in range(len(w) - 1) if w[i : i + 2] in rs.rules), None)
            if i is None:
                continue
            if best is None or key(w) > key(best):
                best, best_i = w, i
        if best is None:
            return Element(rs.ambient, terms)
        c = terms.pop(best)
        step = reduce_at(rs, best, best_i, c)
        for w, cc in step.terms.items():
            s = terms.get(w, Coeff.zero()) + cc
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)


class ElementExprParser(_ExprParser):
    """Reference evaluator: every value an Element, scalars included, and
    every ``*`` and every step of ``^`` one call of the free or the rule
    product, where ``parse_expression`` keeps scalars as Coeff until a
    generator enters them.  Tokens, nesting and error positions are the
    shared ones of the parser.
    """

    def parse(self) -> Element:
        if not self.tokens:
            self._error("empty expression")
        value = self._expr()
        kind, text, col = self._peek()
        if kind is not None:
            self._error(f"unexpected {text!r}", col)
        return value

    def _expr(self) -> Element:
        value = self._term()
        while True:
            kind, text, _col = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                rhs = self._term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def _term(self) -> Element:
        value = self._factor()
        while True:
            kind, text, col = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                rhs = self._factor()
                if text == "*":
                    value = self.mul(value, rhs)
                else:
                    value = value.scale(self._unit_inverse(rhs, col))
            else:
                return value

    def _factor(self) -> Element:
        kind, text, col = self._peek()
        if kind == "op" and text == "-":
            self._next()
            self._nest(col)
            value = -self._factor()
            self.depth -= 1
            return value
        return self._primary()

    def _primary(self) -> Element:
        value = self._atom()
        kind, text, col = self._peek()
        if kind == "op" and text == "^":
            self._next()
            n = self._exponent()
            if n >= 0:
                return power(value, n, self.algebra.unit(), self.mul)
            inv = self._unit_inverse(value, col)
            return self.algebra.scalar(inv ** (-n))
        return value

    def _atom(self) -> Element:
        kind, text, col = self._next()
        if kind == "int":
            if len(text.lstrip("0")) > MAX_LITERAL_DIGITS:
                self._error(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", col)
            return self.algebra.scalar(int(text))
        if kind == "name":
            if text == "q":
                return self.algebra.scalar(Coeff.q())
            if text == "h":
                return self.algebra.scalar(Coeff.h())
            if self.algebra.has_generator(text):
                return self.algebra.gen_element(text)
            raise UnknownName(f"unknown name {text!r} in algebra {self.algebra.name!r}",
                              self.line, col)
        if kind == "op" and text == "(":
            self._nest(col)
            value = self._expr()
            kind, text, col = self._next()
            if not (kind == "op" and text == ")"):
                self._error("expected ')'", col)
            self.depth -= 1
            return value
        self._error(f"unexpected {text!r}" if kind else "unexpected end of expression", col)

    def _unit_inverse(self, e: Element, col) -> Coeff:
        c = _as_scalar(e)
        if c is None:
            self._error("divisor/exponent base must be a scalar", col)
        try:
            return c.try_inv()
        except NotAUnit:
            self._error(f"{c} is not a unit of the scalar ring", col)


def element_parse_expression(text, algebra, line=None, rules=None) -> Element:
    """The value of ``text`` by :class:`ElementExprParser`."""
    return ElementExprParser(text, algebra, line, rules).parse()


def naive_fixpoint_reduce(e: Element, rs) -> Element:
    """Independent reducer: smallest reducible word first, rightmost redex.

    Deliberately the opposite strategy of RuleSystem.normal_form; on a
    confluent system both must reach the same fixpoint.
    """
    key = rs.ambient.word_key
    terms = dict(e.terms)
    while True:
        chosen = None
        for w in sorted(terms, key=key):
            redexes = [i for i in range(len(w) - 1) if w[i : i + 2] in rs.rules]
            if redexes:
                chosen = (w, redexes[-1])
                break
        if chosen is None:
            return Element(rs.ambient, terms)
        w, i = chosen
        c = terms.pop(w)
        step = reduce_at(rs, w, i, c)
        for w2, c2 in step.terms.items():
            s = terms.get(w2, Coeff.zero()) + c2
            if s:
                terms[w2] = s
            else:
                terms.pop(w2, None)


def degree_component_span(spec, degree: int):
    """Rows spanning the given degree component of the relation ideal.

    For quadratic relations the degree-d slice of the ideal is spanned by
    u * r * v over all relations r and words u, v with len(u)+len(v)+2 = d.
    Used as a rewriting-free membership oracle.
    """
    n = len(spec.generators)
    words = sorted(
        itertools.product(range(n), repeat=degree), key=spec.word_key
    )
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for r in spec.relations:
        for pre_len in range(degree - 1):
            post_len = degree - 2 - pre_len
            for pre in itertools.product(range(n), repeat=pre_len):
                for post in itertools.product(range(n), repeat=post_len):
                    row = [Coeff.zero()] * len(words)
                    for w, c in r.terms.items():
                        row[index[pre + w + post]] = c
                    rows.append(row)
    return words, rows


@functools.lru_cache(maxsize=None)
def _ideal_component(spec, degree: int):
    """The degree component's words, rows and rank, computed once per pair."""
    words, rows = degree_component_span(spec, degree)
    return words, rows, RelationSpan(spec, words, rows).rank()


def in_ideal_component(spec, e: Element) -> bool:
    """Exact membership of a homogeneous element in the relation ideal."""
    deg = e.degree()
    assert e.is_homogeneous(deg)
    words, rows, base = _ideal_component(spec, deg)
    vec = [e.coefficient(w) for w in words]
    return RelationSpan(spec, words, rows + [vec]).rank() == base


def wrong_dual_plane_substitution():
    """The dual-plane contraction from the wrong convention eta'xi' + q*xi'eta'.

    It flips the sign of eta^2 = h*eta*xi, so its limit misses the h-dual plane.
    """
    q = Coeff.q()
    f = Coeff.h() / (q - Coeff.one())
    wrong = AlgebraSpec.build(
        "qdual-wrong", [("eta'", "odd", "coord", 1), ("xi'", "odd", "coord", 0)]
    )
    eta, xi = wrong.gen_elements("eta' xi'")
    wrong.add_relation(eta * eta)
    wrong.add_relation(xi * xi)
    wrong.add_relation(eta * xi + q * (xi * eta))
    hdp = grgroup.builtin_algebras()["hdualplane"]
    eta_h, xi_h = hdp.gen_elements("eta xi")
    return Substitution.by_name(wrong, hdp, {"eta'": eta_h + f * xi_h, "xi'": xi_h})


def round_loop_limit(sp: RelationSpan) -> RelationSpan:
    """The limit at q = 1 of ``sp``, whose rows must be independent over
    Q(q,h), by rounds of whole eliminations.

    Each round evaluates every row at q = 1 and eliminates all of them with
    an identity block; while the rank there is below the number of rows,
    the first vanishing combination, divided by its power of (q-1),
    replaces its first row.  An oracle for contract.limit_span, which takes
    one pass instead and also drops dependent rows.
    """
    rows = list(sp._primitive_rows())
    ncols = len(sp.basis)
    zero, one = QHPoly.zero(), QHPoly.one()
    while True:
        evaluated = [[p.at_q1() for p in row] for row in rows]
        k = len(rows)
        r, m = _bareiss([row + [one if j == i else zero for j in range(k)]
                         for i, row in enumerate(evaluated)], ncols)
        if r == k:
            return RelationSpan(sp.algebra, sp.basis,
                                [[Coeff(p) for p in _primitive(row)] for row in evaluated])
        combo = m[r][ncols:]
        v = [zero] * ncols
        for t, row in zip(combo, rows):
            if t:
                v = [acc + t * p for acc, p in zip(v, row)]
        # independent rows have no vanishing combination
        assert any(v)
        rows[next(i for i, t in enumerate(combo) if t)] = _primitive(v)


def demo_algebras(name: str) -> dict:
    """The algebras that ``demos/<name>.qh`` defines, by name."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "demos" / f"{name}.qh"
    runner = Runner()
    runner.run([n for n in parse_script(path.read_text()) if n.kind == "algebra"])
    return runner.names


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260810)
