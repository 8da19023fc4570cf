"""Seeded inputs for the benchmark workloads and their known answers.

Nothing here imports qhcontract: the inputs are script text, and the
reference answers are computed in rings the benchmark implements itself.

``nf-large`` inputs are products of linear forms.  Specializing q = 1,
h = 0 maps the planes onto the commutative polynomial ring in two
variables, and the dual planes, GRq2, GRh2 and GRq2xGRq2 onto exterior
algebras.  The specialization of a normal form must equal the product
computed directly in that ring, which :func:`specialize` evaluates from the
text of either side.

``contract-sweep`` inputs are contraction scripts onto a copy of GRh2 with
h replaced by c*h; the known answer is "verified" when the substitution
uses the same c as the target and "falsified" otherwise.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# -- nf-large -----------------------------------------------------------------

# algebra -> (generator names, ring it specializes to at q = 1, h = 0)
ALGEBRAS = {
    "hplane": (("x", "y"), "commutative"),
    "qplane": (("x'", "y'"), "commutative"),
    "hdualplane": (("eta", "xi"), "exterior"),
    "qdualplane": (("eta'", "xi'"), "exterior"),
    "GRh2": (("alpha", "beta", "gamma", "delta"), "exterior"),
    "GRq2": (("alpha'", "beta'", "gamma'", "delta'"), "exterior"),
    "GRq2xGRq2": (
        ("alpha", "beta", "gamma", "delta", "alpha'", "beta'", "gamma'", "delta'"),
        "exterior",
    ),
}

# One cycle of nf-large: (algebra, number of linear factors).  Runs repeat
# whole cycles, so every run has the same mix of sizes.  The slots come in
# pairs of similar cost, cheapest first: the dual-plane k = 3 products (zero
# in the algebra, whose degree-3 part vanishes; every other product has a
# nonzero specialization, so its normal form must be nonzero), GRh2/GRq2
# with k = 3 and k = 4, GRq2xGRq2 with k = 3, and the planes with k = 9
# (512 input words).  The median then falls inside the k = 4 pair and, with
# six or more cycles in a run, the tail inside the k = 9 pair, rather than
# in a gap between two classes.
NF_CYCLE = (
    ("hdualplane", 3),
    ("qdualplane", 3),
    ("GRh2", 3),
    ("GRq2", 3),
    ("GRh2", 4),
    ("GRq2", 4),
    ("GRq2xGRq2", 3),
    ("GRq2xGRq2", 3),
    ("hplane", 9),
    ("qplane", 9),
)


def _coefficient(rng: random.Random, with_h: bool) -> str:
    """A small rational times q^a (a = 0 or 1), times h if asked."""
    num = rng.choice((1, 1, 2, 3)) * rng.choice((1, -1))
    den = rng.choice((1, 1, 2, 3))
    parts = [str(num) if den == 1 else f"{num}/{den}"]
    if rng.random() < 0.5:
        parts.append("q")
    if with_h:
        parts.append("h")
    return "*".join(parts)


def _linear_form(rng: random.Random, gens, with_h: bool) -> str:
    # only the second generator's coefficient may carry h, so the form never
    # specializes to 0
    terms = [f"{_coefficient(rng, with_h and i == 1)}*{g}" for i, g in enumerate(gens)]
    rng.shuffle(terms)
    return "(" + " + ".join(terms) + ")"


def nf_input(seed: int, slot: int, algebra: str, k: int):
    """The expression of one nf-large operation and its expected specialization.

    Every product has the same shape: k forms, k // 3 of them with one
    h-coefficient, so the cost of one slot varies little between inputs.
    Inputs whose specialization should be nonzero are drawn again until it
    is, so each cycle has the same share of zero and nonzero answers.
    """
    gens, kind = ALGEBRAS[algebra]
    rng = random.Random(f"nf-large:{seed}:{slot}")
    while True:
        with_h = set(rng.sample(range(k), k // 3))
        expr = "*".join(_linear_form(rng, gens, j in with_h) for j in range(k))
        ref = specialize(expr, kind)
        if ref or k > len(gens) or kind == "commutative":
            return expr, ref


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*'*)|(\^|\+|-|\*|/|\(|\)))")


class _Specializer:
    """Evaluates the script expression grammar at q = 1, h = 0.

    Values are dicts from canonical words to Fractions: sorted words for the
    commutative ring, strictly increasing words with the permutation sign
    folded into the coefficient for the exterior algebra.
    """

    def __init__(self, text: str, kind: str):
        self.kind = kind
        self.tokens = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
            self.tokens.append(m.group(m.lastindex))
            pos = m.end()
        self.i = 0

    def parse(self):
        value = self._expr()
        if self.i != len(self.tokens):
            raise ValueError(f"trailing {self.tokens[self.i]!r}")
        return value

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expr(self):
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = _add(value, rhs, 1 if op == "+" else -1)
        return value

    def _term(self):
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            if op == "*":
                value = self._mul(value, rhs)
            else:
                value = _scale(value, 1 / _scalar(rhs))
        return value

    def _factor(self):
        if self._peek() == "-":
            self._next()
            return _scale(self._factor(), -1)
        value = self._atom()
        if self._peek() == "^":
            self._next()
            sign = 1
            if self._peek() == "-":
                self._next()
                sign = -1
            n = int(self._next())
            if sign < 0:
                return {(): _scalar(value) ** -n}
            out = {(): Fraction(1)}
            for _ in range(n):
                out = self._mul(out, value)
            return out
        return value

    def _atom(self):
        tok = self._next()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok.isdigit():
            return {(): Fraction(int(tok))} if int(tok) else {}
        if tok == "q":
            return {(): Fraction(1)}
        if tok == "h":
            return {}
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise ValueError("expected ')'")
            return value
        if tok[0].isalpha() or tok[0] == "_":
            return {(tok,): Fraction(1)}
        raise ValueError(f"unexpected {tok!r}")

    def _mul(self, a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                word, sign = self._canon(wa + wb)
                if sign:
                    out[word] = out.get(word, 0) + sign * ca * cb
        return {w: c for w, c in out.items() if c}

    def _canon(self, word):
        if self.kind == "commutative":
            return tuple(sorted(word)), 1
        letters = list(word)
        sign = 1
        for i in range(len(letters)):  # insertion sort, counting swaps
            j = i
            while j > 0 and letters[j - 1] > letters[j]:
                letters[j - 1], letters[j] = letters[j], letters[j - 1]
                sign = -sign
                j -= 1
        if any(x == y for x, y in zip(letters, letters[1:])):
            return (), 0
        return tuple(letters), sign


def _add(a, b, sign):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def _scale(a, r):
    return {w: c * r for w, c in a.items() if c * r}


def _scalar(value) -> Fraction:
    if any(value.keys() - {()}):
        raise ValueError("divisor is not a scalar")
    r = value.get((), Fraction(0))
    if not r:
        raise ZeroDivisionError("divisor vanishes at q = 1, h = 0")
    return r


def specialize(text: str, kind: str) -> dict:
    """The value of a printed element at q = 1, h = 0, in canonical form."""
    return _Specializer(text, kind).parse()


# -- contract-sweep -------------------------------------------------------------

# Every fifth script substitutes with one c and contracts onto the target
# built with another; the known answer for those is "falsified".
CONTROL_EVERY = 5

_GRH2_GENS = (("alpha", 1), ("beta", 3), ("gamma", 0), ("delta", 2))

# The ten GRh2 relations, with C standing for the deformation parameter.
_GRH2_RELATIONS = (
    "alpha*beta + beta*alpha = C*(alpha*delta + beta*gamma)",
    "alpha*gamma + gamma*alpha = 0",
    "beta*gamma + gamma*beta = C*(delta*gamma - gamma*alpha)",
    "beta*delta + delta*beta = -C*(alpha*delta + gamma*beta)",
    "alpha*delta + delta*alpha = C*(gamma*alpha - delta*gamma)",
    "gamma*delta + delta*gamma = 0",
    "alpha*alpha = -C*gamma*alpha",
    "beta*beta = C*(beta*delta - alpha*beta + C*alpha*delta)",
    "gamma*gamma = 0",
    "delta*delta = C*delta*gamma",
)

# The contraction map of GRq2 onto GRh2 with F standing for c*h/(q-1).
_SUBSTITUTIONS = (
    "alpha' = alpha + F*gamma",
    "beta' = beta + F*(delta - alpha - F*gamma)",
    "gamma' = gamma",
    "delta' = delta - F*gamma",
)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4))


def _text(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def contract_input(seed: int, slot: int):
    """One contract-sweep script and whether it must verify.

    The target is GRh2 with h replaced by c*h for a seeded rational c; the
    substitution uses the same c, except on control slots, where it uses
    another value and the contraction must be falsified.
    """
    rng = random.Random(f"contract-sweep:{seed}:{slot}")
    c_target = _rational(rng)
    c_subst = c_target
    control = slot % CONTROL_EVERY == CONTROL_EVERY - 1
    while control and c_subst == c_target:
        c_subst = _rational(rng)
    name = f"GRc{slot}"
    cc = f"({_text(c_target)}*h)"
    ff = f"({_text(c_subst)}*h)/(q-1)"
    lines = [f"algebra {name}"]
    lines += [f"gen {g} parity=odd family=entry prec={p}" for g, p in _GRH2_GENS]
    lines += ["rel " + r.replace("C", cc) for r in _GRH2_RELATIONS]
    lines += ["end", f"contract GRq2 {name}"]
    lines += ["subst " + s.replace("F", ff) for s in _SUBSTITUTIONS]
    lines.append("end")
    return "\n".join(lines) + "\n", not control
