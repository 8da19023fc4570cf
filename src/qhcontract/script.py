"""Script language: the expression grammar and the script parser.

A script is a sequence of definitions (algebras, matrices) and commands,
one statement per line, with ``algebra`` and ``contract`` blocks closed by
``end`` and ``#`` starting a comment.  :func:`parse_script` turns it into
:class:`Node` records, which :class:`qhcontract.cli.Runner` executes.
:func:`define_algebra` and :func:`define_matrix` evaluate the definition
nodes, for the runner and for the builtins of
:data:`qhcontract.grgroup.PRELUDE` alike.

Expression grammar: integers, rational literals with ``/``, the symbols
``q`` and ``h``, generator names (primes allowed as a trailing ``'``),
``+ - * ^`` and parentheses.  Negative exponents and division are allowed
when the divisor is a unit of the localized scalar ring, i.e. a product of
rationals and powers of q and (q-1).  Parentheses and unary minus signs
nest at most ``MAX_NESTING`` deep; deeper input is a ``ParseError`` with
its line and column, not a crash of the recursive-descent parser.
Exponents are bounded by ``MAX_EXPONENT`` in absolute value the same way,
and ``e^n`` is computed by square-and-multiply.  Integer literals have at
most ``MAX_LITERAL_DIGITS`` digits.  An error at the end of the input names
the column after its last character.

Scalars fold in the coefficient ring: a value stays a
:class:`~qhcontract.coeffring.Coeff` until a generator enters it, so
literals, ``q``, ``h``, unary minus, and ``*``, ``/`` and ``^`` between
scalars are ``Coeff`` arithmetic, a scalar times an element is
:meth:`~qhcontract.superalgebra.Element.scale`, and a final scalar becomes
a scalar element.  Only a product of two elements, that of ``*`` and every
step of ``^`` on an element, is a product of the algebra: in the free
algebra, or, given a confluent rule system, in its quotient, where it is
the normal form of the product of its normal factors, from
:meth:`~qhcontract.rewrite.RuleSystem.multiply`, which reads the normal
form of each word times a letter from the rule system's kept table.  Atoms
are normal, and sums, negations and scalar multiples of normal elements
are normal, so the value is the normal form of the expression without its
free expansion ever being built.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .coeffring import Coeff, NotAUnit, power
from .matalg import AlgMat, ScalMat
from .superalgebra import AlgebraSpec, Element


class ParseError(Exception):
    def __init__(self, message: str, line=None, col=None):
        loc = ", ".join(f"{k} {v}" for k, v in (("line", line), ("column", col)) if v is not None)
        super().__init__(f"{loc}: {message}" if loc else message)


class UnknownName(ParseError):
    pass


class ArityError(ParseError):
    pass


# -- expression parsing -----------------------------------------------------------

_SCALARS = AlgebraSpec("scalars", [])

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*'*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\))"
)


# deepest nesting of parentheses and unary minus signs, counted together;
# each level costs the recursive-descent parser a few Python stack frames
MAX_NESTING = 100

# largest exponent magnitude in ``e^n``; a power costs about 2*log2(n)
# products, but the size of the result still grows with n
MAX_EXPONENT = 100_000

# most digits in an integer literal, leading zeros not counted; Python
# refuses to convert decimal strings of more than 4300 digits, and the
# paper's scalars need only a few
MAX_LITERAL_DIGITS = 1000

_Q, _H = Coeff.q(), Coeff.h()


class _ExprParser:
    """Recursive-descent parser evaluating directly to a value: a Coeff
    until a generator enters it, an Element from then on."""

    def __init__(self, text: str, algebra: AlgebraSpec, line=None, rules=None):
        self.algebra = algebra
        self.mul = Element.free_mul if rules is None else rules.multiply
        self.line = line
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos + 1))
            pos = m.end()
        self.end = len(text) + 1  # the column of the end of input
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", self.end)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _error(self, message, col=None):
        raise ParseError(message, self.line, col)

    def _nest(self, col) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._error(f"expression nested deeper than {MAX_NESTING} levels", col)

    def _element(self, value) -> Element:
        return value if type(value) is Element else self.algebra.scalar(value)

    def parse(self) -> Element:
        if not self.tokens:
            self._error("empty expression")
        value = self._expr()
        kind, text, col = self._peek()
        if kind is not None:
            self._error(f"unexpected {text!r}", col)
        return self._element(value)

    def _expr(self):
        value = self._term()
        while True:
            kind, text, _col = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                rhs = self._term()
                if type(value) is not type(rhs):
                    value, rhs = self._element(value), self._element(rhs)
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            kind, text, col = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                rhs = self._factor()
                if text == "/":
                    rhs = self._unit_inverse(rhs, col)
                if type(rhs) is Coeff:
                    value = value * rhs if type(value) is Coeff else value.scale(rhs)
                elif type(value) is Coeff:
                    value = rhs.scale(value)
                else:
                    value = self.mul(value, rhs)
            else:
                return value

    def _factor(self):
        kind, text, col = self._peek()
        if kind == "op" and text == "-":
            self._next()
            self._nest(col)
            value = -self._factor()
            self.depth -= 1
            return value
        return self._primary()

    def _primary(self):
        value = self._atom()
        kind, text, col = self._peek()
        if kind == "op" and text == "^":
            self._next()
            n = self._exponent()
            if n < 0:
                return self._unit_inverse(value, col) ** -n
            if type(value) is Coeff:
                return value ** n
            return power(value, n, self.algebra.unit(), self.mul)
        return value

    def _exponent(self) -> int:
        kind, text, col = self._next()
        start = col
        sign = 1
        if kind == "op" and text == "-":
            sign = -1
            kind, text, col = self._next()
        if kind != "int":
            self._error("exponent must be an integer", col)
        # digits are counted first: int() refuses very long digit strings
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._error(f"exponent larger than {MAX_EXPONENT} in absolute value", start)
        return sign * int(digits)

    def _atom(self):
        kind, text, col = self._next()
        if kind == "int":
            if len(text.lstrip("0")) > MAX_LITERAL_DIGITS:
                self._error(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", col)
            return Coeff.rational(int(text))
        if kind == "name":
            if text == "q":
                return _Q
            if text == "h":
                return _H
            if self.algebra.has_generator(text):
                return self.algebra.gen_element(text)
            raise UnknownName(
                f"unknown name {text!r} in algebra {self.algebra.name!r}",
                self.line,
                col,
            )
        if kind == "op" and text == "(":
            self._nest(col)
            value = self._expr()
            kind, text, col = self._next()
            if not (kind == "op" and text == ")"):
                self._error("expected ')'", col)
            self.depth -= 1
            return value
        self._error(f"unexpected {text!r}" if kind else "unexpected end of expression", col)

    def _unit_inverse(self, value, col) -> Coeff:
        """The inverse of a scalar value that is a unit; a ParseError otherwise."""
        c = value if type(value) is Coeff else _as_scalar(value)
        if c is None:
            self._error("divisor/exponent base must be a scalar", col)
        try:
            return c.try_inv()
        except NotAUnit:
            self._error(f"{c} is not a unit of the scalar ring", col)


def _as_scalar(e: Element):
    """The Coeff value of a purely scalar element, else None."""
    # words are stored largest first, so any() reads only the first
    return e.coefficient(()) if not any(e.terms) else None


def parse_expression(text: str, algebra: AlgebraSpec | None = None, line=None,
                     rules=None) -> Element:
    """The value of ``text`` in ``algebra`` (the scalars when None).

    ``rules``, a :class:`~qhcontract.rewrite.RuleSystem` of ``algebra``,
    makes every product a normal form as it is formed, with
    :meth:`~qhcontract.rewrite.RuleSystem.multiply`, so the value is the
    normal form of the expression.  That is exact only on a confluent
    system, and ``multiply`` raises
    :class:`~qhcontract.rewrite.NotConfluent` on any other.
    """
    return _ExprParser(text, algebra if algebra is not None else _SCALARS, line, rules).parse()


def parse_scalar(text: str, line=None) -> Coeff:
    e = parse_expression(text, _SCALARS, line)
    c = _as_scalar(e)
    if c is None:  # pragma: no cover - the scalar algebra has no generators
        raise ParseError("expected a scalar expression", line)
    return c


# -- script parsing ----------------------------------------------------------------


class Node(NamedTuple):
    kind: str
    line: int | None  # None for a command given on the command line
    text: str
    payload: dict


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


_SIMPLE_COMMANDS = {
    "limit": 1,
    "qybe": 1,
    "confluence": 1,
    "covariance": 0,
    "inverse-check": 0,
    "product-check": 0,
    "verify-paper": 0,
}


def parse_script(text: str):
    """Parse a script into definition and command nodes."""
    lines = text.splitlines()
    nodes = []
    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = _strip_comment(lines[i]).strip()
        i += 1
        if not raw:
            continue
        words = raw.split()
        head = words[0]
        if head == "algebra":
            if len(words) != 2:
                raise ArityError("usage: algebra <name>", lineno)
            body, i = _block(lines, i, f"algebra {words[1]!r} is missing 'end'", lineno)
            nodes.append(Node("algebra", lineno, raw, {"name": words[1], "body": body}))
        elif head == "contract":
            if len(words) != 3:
                raise ArityError("usage: contract <source> <target>", lineno)
            body, i = _block(lines, i, "contract block is missing 'end'", lineno)
            nodes.append(
                Node(
                    "contract",
                    lineno,
                    raw,
                    {"source": words[1], "target": words[2], "body": body},
                )
            )
        elif head == "mat":
            chunk = raw
            while "[" not in chunk or chunk.count("[") > chunk.count("]"):
                if i >= len(lines):
                    raise ParseError("matrix literal is missing ']'", lineno)
                chunk += " " + _strip_comment(lines[i]).strip()
                i += 1
            nodes.append(Node("mat", lineno, chunk, _parse_mat_header(chunk, lineno)))
        elif head == "nf":
            m = re.match(r'nf\s+(\S+)\s+"(.*)"\s*$', raw)
            if m is None:
                raise ArityError('usage: nf <algebra> "<expression>"', lineno)
            nodes.append(
                Node("nf", lineno, raw, {"algebra": m.group(1), "expr": m.group(2)})
            )
        elif head == "rtt":
            rest = words[1:]
            sign = -1
            if rest and rest[-1].startswith("sign="):
                sign = parse_sign(rest[-1], lineno)
                rest = rest[:-1]
            if len(rest) != 2:
                raise ArityError("usage: rtt <rmatrix> <algebra> [sign=<+1|-1>]", lineno)
            nodes.append(
                Node("rtt", lineno, raw, {"rmatrix": rest[0], "algebra": rest[1], "sign": sign})
            )
        elif head in _SIMPLE_COMMANDS:
            arity = _SIMPLE_COMMANDS[head]
            if len(words) - 1 != arity:
                raise ArityError(f"{head} takes {arity} argument(s)", lineno)
            nodes.append(Node(head, lineno, raw, {"args": words[1:]}))
        else:
            raise ParseError(f"unknown statement {head!r}", lineno)
    return nodes


def parse_sign(word: str, lineno: int) -> int:
    """The value of a ``sign=<+1|-1|1>`` word."""
    value = word[len("sign="):]
    if value not in ("+1", "-1", "1"):
        raise ParseError(f"bad sign {value!r}", lineno)
    return -1 if value == "-1" else 1


def _block(lines, i: int, unclosed: str, lineno: int):
    """The numbered non-blank lines from index ``i`` up to ``end``, and the
    index after it; a block without ``end`` raises ``unclosed``."""
    body = []
    for j in range(i, len(lines)):
        inner = _strip_comment(lines[j]).strip()
        if inner == "end":
            return body, j + 1
        if inner:
            body.append((j + 1, inner))
    raise ParseError(unclosed, lineno)


def _parse_mat_header(chunk: str, lineno: int) -> dict:
    head, _bracket, entries = chunk.partition("[")
    if not entries.rstrip().endswith("]"):
        raise ParseError("matrix literal is missing ']'", lineno)
    entries = entries.rstrip()[:-1]
    words = head.split()
    algebra = None
    if len(words) == 5 and words[3] == "in":
        algebra = words[4]
        words = words[:3]
    if len(words) != 3 or words[0] != "mat":
        raise ArityError("usage: mat <name> <n> [in <algebra>] [ entries ]", lineno)
    try:
        n = int(words[2])
    except ValueError:
        raise ParseError(f"bad dimension {words[2]!r}", lineno) from None
    return {"name": words[1], "n": n, "algebra": algebra, "entries": entries}


# -- definitions -------------------------------------------------------------------


def define_algebra(node: Node) -> AlgebraSpec:
    """The algebra an ``algebra`` node defines, with its relations attached."""
    gens = []
    crosses = {}
    cross_lines = {}  # family pair -> line of its cross statement
    rel_lines = []
    for lineno, line in node.payload["body"]:
        words = line.split()
        if words[0] == "gen":
            if len(words) < 2:
                raise ArityError("usage: gen <name> [parity=..] [family=..] [prec=..]", lineno)
            opts = {"parity": "even", "family": "main", "prec": str(len(gens))}
            for word in words[2:]:
                key, eq, value = word.partition("=")
                if not eq or key not in opts:
                    raise ParseError(f"bad generator option {word!r}", lineno)
                opts[key] = value
            try:
                prec = int(opts["prec"])
            except ValueError:
                raise ParseError(f"bad prec {opts['prec']!r}", lineno) from None
            gens.append((words[1], opts["parity"], opts["family"], prec))
        elif words[0] == "cross":
            if len(words) != 4 or not words[3].startswith("sign="):
                raise ArityError("usage: cross <famA> <famB> sign=<+1|-1>", lineno)
            sign = parse_sign(words[3], lineno)
            if words[1] == words[2]:
                raise ParseError(f"cross needs two different families, got {words[1]!r} twice",
                                 lineno)
            pair = frozenset(words[1:3])
            if pair in crosses:
                raise ParseError(f"cross sign for {words[1]!r} and {words[2]!r} "
                                 "is already declared", lineno)
            crosses[pair] = sign
            cross_lines[pair] = lineno
        elif words[0] == "rel":
            rel_lines.append((lineno, line[len("rel"):].strip()))
        else:
            raise ParseError(f"unknown algebra statement {words[0]!r}", lineno)
    families = {family for _name, _parity, family, _prec in gens}
    for pair, lineno in cross_lines.items():
        missing = sorted(pair - families)
        if missing:
            raise ParseError(f"no generator is in family {missing[0]!r}", lineno)
    try:
        spec = AlgebraSpec.build(node.payload["name"], gens, crosses)
    except ValueError as exc:
        raise ParseError(str(exc), node.line) from None
    for lineno, text in rel_lines:
        if text.count("=") != 1:
            raise ParseError("a relation needs exactly one '='", lineno)
        lhs_text, _eq, rhs_text = text.partition("=")
        lhs = parse_expression(lhs_text.strip(), spec, lineno)
        rhs = parse_expression(rhs_text.strip(), spec, lineno)
        try:
            spec.add_relation(lhs - rhs)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return spec


def define_matrix(node: Node, algebra: AlgebraSpec | None):
    """The matrix a ``mat`` node defines: over ``algebra``, the algebra its
    ``in`` clause names, or a :class:`~qhcontract.matalg.ScalMat` when None."""
    p = node.payload
    rows_text = p["entries"].split(";")
    if len(rows_text) != p["n"]:
        raise ArityError(f"expected {p['n']} rows, got {len(rows_text)}", node.line)
    rows = []
    for row_text in rows_text:
        cells = row_text.split(",")
        if len(cells) != p["n"]:
            raise ArityError(f"expected {p['n']} entries per row, got {len(cells)}", node.line)
        rows.append([parse_expression(c.strip(), algebra, node.line) for c in cells])
    if algebra is not None:
        return AlgMat(algebra, rows)
    scal = []
    for row in rows:
        out = []
        for e in row:
            c = _as_scalar(e)
            if c is None:  # pragma: no cover - scalar context has no generators
                raise ParseError("matrix entry is not scalar", node.line)
            out.append(c)
        scal.append(out)
    return ScalMat(scal)
