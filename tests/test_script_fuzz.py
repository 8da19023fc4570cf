"""Property test of the exit-code contract on random scripts.

Scripts are assembled from the script grammar's own tokens: builtin and
undefined names, generator names, scalars, operators, parentheses, small
exponents, exponents above the bound and deep nesting.  Whatever the
script, ``qhcontract run`` must return 0 (verified), 1 (falsified) or
2 (error) and never raise, and no error may be an unexpected exception,
whose traceback would mark a bug in the checker.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qhcontract.cli import main

# builtin algebras with at most four generators, which keep each example fast
ALGEBRAS = {
    "qplane": ["x'", "y'"],
    "hplane": ["x", "y"],
    "qdualplane": ["eta'", "xi'"],
    "hdualplane": ["eta", "xi"],
    "GRq2": ["alpha'", "beta'", "gamma'", "delta'"],
    "GRh2": ["alpha", "beta", "gamma", "delta"],
    "P": ["u", "v"],
}
MATRICES = ["g", "Rq", "Rh", "builtin:Rq", "M", "nope"]
# "^1000000" is above script.MAX_EXPONENT, so it is always a parse error
OPERATORS = ["+", "-", "*", "/", "^", "(", ")", "^2", "^-1", "^3", "^1000000"]

algebra_names = st.sampled_from(sorted(ALGEBRAS) + ["builtin:GRh2", "nope"])


def expressions(algebra):
    """Well-formed expressions, mostly, and now and then a soup of tokens.

    Powers only apply to sums of at most two atoms and a product has at most
    four factors, so no expression expands to more than a few hundred words.
    """
    atoms = st.sampled_from(ALGEBRAS.get(algebra, []) + ["q", "h", "2", "3/2", "(h/(q-1))"])
    powers = st.tuples(st.lists(atoms, min_size=1, max_size=2),
                       st.sampled_from(["^0", "^2", "^-1"])).map(
        lambda t: f"({' + '.join(t[0])}){t[1]}")
    well_formed = st.recursive(st.one_of(atoms, powers), lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    ), max_leaves=4)
    soup = st.lists(
        st.sampled_from(ALGEBRAS.get(algebra, []) + ["q", "h", "0", "3", "z"] + OPERATORS),
        min_size=1,
        max_size=8,
    ).map(" ".join)
    nested = st.tuples(st.sampled_from(["(", "-"]), st.sampled_from([1, 2, 3000]), well_formed)
    return st.one_of(
        well_formed,
        well_formed,
        soup,
        nested.map(lambda t: t[0] * t[1] + t[2] + (")" * t[1] if t[0] == "(" else "")),
    )


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(
        ["nf", "nf", "nf", "algebra", "mat", "limit", "qybe", "rtt", "confluence",
         "contract", "contract", "junk"]
    ))
    if kind == "nf":
        alg = draw(algebra_names)
        return f'nf {alg} "{draw(expressions(alg))}"'
    if kind == "algebra":
        rels = draw(st.lists(
            st.tuples(expressions("P"), expressions("P")), min_size=0, max_size=2
        ))
        body = "".join(f"  rel {lhs} = {rhs}\n" for lhs, rhs in rels)
        return f"algebra P\n  gen u prec=0\n  gen v prec=1\n{body}end"
    if kind == "mat":
        n = draw(st.sampled_from([1, 2, 4]))
        cells = draw(st.lists(expressions("scalars"), min_size=n * n, max_size=n * n))
        rows = " ; ".join(", ".join(cells[i * n:(i + 1) * n]) for i in range(n))
        return f"mat M {n} [ {rows} ]"
    if kind in ("limit", "qybe"):
        return f"{kind} {draw(st.sampled_from(MATRICES))}"
    if kind == "rtt":
        sign = draw(st.sampled_from(["sign=-1", "sign=+1", ""]))
        return f"rtt {draw(st.sampled_from(MATRICES))} {draw(algebra_names)} {sign}"
    if kind == "confluence":
        return f"confluence {draw(algebra_names)}"
    if kind == "contract":
        source, target = draw(algebra_names), draw(algebra_names)
        gens = draw(st.permutations(ALGEBRAS.get(source, ["w"])))
        gens = gens[:draw(st.sampled_from([len(gens), len(gens), 1]))]
        body = "".join(f"  subst {g} = {draw(expressions(target))}\n" for g in gens)
        return f"contract {source} {target}\n{body}end"
    words = ["end", "gen", "rel", "subst", "#", '"', "=", "x", "[", "]"] + OPERATORS
    return " ".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=4)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(statements(), min_size=1, max_size=4))
def test_random_scripts_keep_the_exit_code_contract(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.qh")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
