"""Command-line driver: runs parsed scripts and reports their verdicts.

Scripts are parsed by :mod:`qhcontract.script` (commands: nf, limit, qybe,
rtt, contract, covariance, inverse-check, product-check, confluence,
verify-paper).  Every command produces one or more
:class:`~qhcontract.suite.Verdict` records, the record the battery returns,
so ``verify-paper`` passes the battery's verdicts through as they are.  The
process exits 0 when all verdicts are verified, 1 when any is falsified,
and 2 on error.  Any failure that is not a verdict, whatever its type, is
reported as ``error: ...`` on stderr and also exits 2 (an unexpected
exception is a bug in the checker and prints its traceback first), so exit
1 always means a falsified claim.  Every command reduces with the rule
system that :func:`~qhcontract.rewrite.orient` keeps for its algebra.
``nf`` evaluates its expression in the quotient algebra, forming each
product with :meth:`~qhcontract.rewrite.RuleSystem.multiply`, and only on
a rule system whose confluence is certified
(:func:`~qhcontract.rewrite.confluent_rules`); elsewhere a normal form
would depend on the rewrite order, so it is an error that names the first
unresolved overlap.  ``rtt`` reads its residual with
:func:`~qhcontract.suite.residual_verdict`, as the battery does, so a
residual that does not reduce to zero is the same error there.
``qybe`` and ``rtt`` take any n^2 x n^2 scalar R with n >= 2, and ``rtt``
reads the first n^2 generators of its algebra, in declaration order, as
its n x n matrix.  Definitions are evaluated by
:func:`~qhcontract.script.define_algebra` and
:func:`~qhcontract.script.define_matrix`, as the builtins of
:data:`~qhcontract.grgroup.PRELUDE` are, and a builtin name resolves to
the one object the whole process shares.
``covariance``, ``inverse-check`` and ``product-check`` report the part
verdicts of the battery's readers (:func:`~qhcontract.suite.covariance_verdict`,
``inverse_verdicts``, ``product_verdicts``) on the builtin algebra, each
labelled ``<command> [label]``, and ``covariance`` under its plain command.
``confluence`` prints the same certificate.  A ``contract`` block renders
the :class:`~qhcontract.contract.Contraction` that
:func:`~qhcontract.contract.contract_relations` returns, as criteria 1-3
do, with the same falsified witness.  The ``nf`` and ``qybe`` subcommands
run their argument as a script command with no line number, after the
definitions of the file it names, if it names one, in the same script.
Output is deterministic: identical scripts produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from functools import partialmethod
from math import isqrt

from . import grgroup
from .coeffring import NotAUnit, PoleAtQ1
from .contract import BadSubstitution, MissingImage, Substitution, contract_relations
from .matalg import AlgMat, NotInvertible, ScalMat, qybe_residual, rtt_residual
from .rewrite import NotConfluent, OrientationFailure, confluent_rules, orient, overlap_summary
from .script import (  # parse_scalar is re-exported with the rest of the grammar
    ArityError,
    Node,
    ParseError,
    UnknownName,
    define_algebra,
    define_matrix,
    parse_expression,
    parse_scalar,
    parse_script,
)
from .superalgebra import AlgebraSpec
from .suite import (LIMIT_DIFFERS, Verdict, covariance_verdict, inverse_verdicts,
                    product_verdicts, residual_verdict, run_all)

# -- execution ---------------------------------------------------------------------


class Runner:
    """Executes parsed scripts against the builtin objects.

    Each :meth:`run` is one script and starts with no user definitions, as
    a fresh ``qhcontract run`` process does.  The builtins are those of
    :data:`~qhcontract.grgroup.PRELUDE`, shared by the whole process and
    parsed when a script first names one.
    """

    def __init__(self):
        self.names: dict[str, object] = {}

    # name resolution ---------------------------------------------------------

    def _resolve(self, name: str, builtins, kind, what: str, line):
        if name.startswith("builtin:"):
            short = name[len("builtin:"):]
            table = builtins()
            if short in table:
                return table[short]
            raise UnknownName(f"no builtin {what} named {short!r}", line)
        if name in self.names:
            obj = self.names[name]
            if not isinstance(obj, kind):
                raise UnknownName(f"{name!r} is not a {what}", line)
            return obj
        table = builtins()
        if name in table:
            return table[name]
        raise UnknownName(f"unknown {what} {name!r}", line)

    def resolve_algebra(self, name: str, line=None) -> AlgebraSpec:
        return self._resolve(name, grgroup.builtin_algebras, AlgebraSpec, "algebra", line)

    def resolve_matrix(self, name: str, line=None):
        return self._resolve(name, grgroup.builtin_matrices, (ScalMat, AlgMat), "matrix", line)

    def rules_for(self, spec: AlgebraSpec):
        """:func:`~qhcontract.rewrite.orient` of ``spec``; ``perfbench`` calls it."""
        return orient(spec)

    def _define(self, name: str, obj, line) -> None:
        if name in self.names:
            raise ParseError(f"name {name!r} is already defined", line)
        self.names[name] = obj

    # script execution ----------------------------------------------------------

    def run(self, nodes) -> list[Verdict]:
        self.names = {}
        verdicts = []
        for node in nodes:
            handler = getattr(self, "_run_" + node.kind.replace("-", "_"))
            try:
                result = handler(node)
            except (ParseError, NotAUnit, PoleAtQ1, NotInvertible, OrientationFailure,
                    NotConfluent, MissingImage, BadSubstitution) as exc:
                verdicts.append(Verdict(node.text, "error", witness=str(exc)))
                break
            if result:
                verdicts.extend(result)
        return verdicts

    # definitions ---------------------------------------------------------------

    def _run_algebra(self, node):
        self._define(node.payload["name"], define_algebra(node), node.line)
        return []

    def _run_mat(self, node):
        p = node.payload
        algebra = self.resolve_algebra(p["algebra"], node.line) if p["algebra"] else None
        self._define(p["name"], define_matrix(node, algebra), node.line)
        return []

    # commands --------------------------------------------------------------------

    def _run_nf(self, node):
        spec = self.resolve_algebra(node.payload["algebra"], node.line)
        rs = confluent_rules(spec)
        nf = parse_expression(node.payload["expr"], spec, node.line, rules=rs)
        return [Verdict(node.text, "verified", details=(f"normal form: {nf}",))]

    def _run_limit(self, node):
        mat = self.resolve_matrix(node.payload["args"][0], node.line)
        if not isinstance(mat, ScalMat):
            raise ParseError("limit expects a scalar matrix", node.line)
        try:
            lim = mat.limit_q1()
        except PoleAtQ1 as exc:
            return [Verdict(node.text, "falsified", witness=str(exc))]
        return [Verdict(node.text, "verified", details=tuple(str(lim).splitlines()))]

    def _run_qybe(self, node):
        mat = self.resolve_matrix(node.payload["args"][0], node.line)
        _tensor_size(mat, "qybe", node.line)
        res = qybe_residual(mat)
        if res.is_zero():
            return [Verdict(node.text, "verified")]
        entries = res.entries_str()
        return [
            Verdict(
                node.text,
                "falsified",
                witness=f"{entries[0]} (+{len(entries) - 1} more nonzero entries)",
            )
        ]

    def _run_rtt(self, node):
        mat = self.resolve_matrix(node.payload["rmatrix"], node.line)
        spec = self.resolve_algebra(node.payload["algebra"], node.line)
        n = _tensor_size(mat, "rtt", node.line)
        if len(spec.generators) < n * n:
            raise ArityError(f"rtt with a {mat.n}x{mat.n} matrix needs an algebra with at "
                             f"least {n * n} generators", node.line)
        res = rtt_residual(mat, grgroup.entry_matrix(spec, n), node.payload["sign"])
        return [residual_verdict(node.text, res)]

    def _run_contract(self, node):
        source = self.resolve_algebra(node.payload["source"], node.line)
        target = self.resolve_algebra(node.payload["target"], node.line)
        images = {}
        for lineno, line in node.payload["body"]:
            words = line.split(None, 1)
            if words[0] != "subst" or len(words) != 2 or "=" not in words[1]:
                raise ParseError("contract blocks contain 'subst <gen> = <expr>' lines", lineno)
            gen_name, _eq, expr_text = words[1].partition("=")
            gen_name = gen_name.strip()
            if not source.has_generator(gen_name):
                raise UnknownName(f"{gen_name!r} is not a generator of {source.name!r}", lineno)
            gid = source.generator_named(gen_name).gid
            if gid in images:
                raise ParseError(f"{gen_name!r} is already substituted", lineno)
            images[gid] = parse_expression(expr_text.strip(), target, lineno)
        c = contract_relations(Substitution(source, target, images))
        details = ["limiting relations:"]
        details += [f"  {e}" for e in c.limit.to_elements()]
        details.append(
            f"ranks: substituted {c.substituted.rank()}, limit {c.limit.rank()}, "
            f"target {c.target.rank()}"
        )
        if c.ok:
            return [Verdict(node.text, "verified", details=tuple(details))]
        return [Verdict(node.text, "falsified", witness=LIMIT_DIFFERS, details=tuple(details))]

    def _run_covariance(self, node):
        return [covariance_verdict(grgroup.builtin_algebras()["GRh2"])._replace(command=node.text)]

    def _labelled_parts(self, node, reader, algebra):
        """``reader``'s part verdicts on a builtin algebra, as ``<command> [label]``."""
        return [v._replace(command=f"{node.text} [{v.command}]")
                for v in reader(grgroup.builtin_algebras()[algebra])]

    _run_inverse_check = partialmethod(_labelled_parts, reader=inverse_verdicts, algebra="GRh2")
    _run_product_check = partialmethod(_labelled_parts, reader=product_verdicts,
                                       algebra="GRq2xGRq2")

    def _run_confluence(self, node):
        spec = self.resolve_algebra(node.payload["args"][0], node.line)
        rs = orient(spec)
        witnesses = rs.unresolved_overlaps()
        if not witnesses:
            detail = (f"confluent in every degree (diamond lemma: "
                      f"{rs.overlap_count()} overlaps resolved)")
            return [Verdict(node.text, "verified", details=(detail,))]
        return [
            Verdict(
                node.text,
                "falsified",
                witness=overlap_summary(witnesses),
                details=tuple(x.describe() for x in witnesses),
            )
        ]

    def _run_verify_paper(self, node):
        return run_all()


def _tensor_size(mat, command: str, line) -> int:
    """n for an n^2 x n^2 scalar matrix with n >= 2; a ParseError otherwise."""
    n = isqrt(mat.n)
    if not isinstance(mat, ScalMat) or n < 2 or n * n != mat.n:
        kind = "scalar matrix" if isinstance(mat, ScalMat) else f"matrix over {mat.algebra.name}"
        raise ParseError(f"{command} expects an n^2 x n^2 scalar matrix with n >= 2, "
                         f"got a {mat.n}x{mat.n} {kind}", line)
    return n


# -- reporting ----------------------------------------------------------------------


def exit_code(verdicts) -> int:
    if any(v.status == "error" for v in verdicts):
        return 2
    if any(v.status == "falsified" for v in verdicts):
        return 1
    return 0


_MARK = {"verified": "[ ok ]", "falsified": "[FAIL]", "error": "[ERR ]"}


def report(verdicts, porcelain: bool, out=None) -> None:
    out = out or sys.stdout
    for v in verdicts:
        if porcelain:
            out.write(f"{v.status}\t{v.command}\t{v.witness or ''}\n")
            continue
        out.write(f"{_MARK[v.status]} {v.command}\n")
        if v.witness:
            out.write(f"       witness: {v.witness}\n")
        for line in v.details:
            out.write(f"       {line}\n")
    if not porcelain:
        counts = {"verified": 0, "falsified": 0, "error": 0}
        for v in verdicts:
            counts[v.status] += 1
        out.write(
            f"{counts['verified']} verified, {counts['falsified']} falsified, "
            f"{counts['error']} errors\n"
        )


def _run_with_definitions(runner: Runner, name_or_file: str, kind: str, noun: str,
                          command) -> list[Verdict]:
    """Run the command node ``command(name)``.

    ``name_or_file`` is the name itself or a definitions file.  A file's
    definitions and the command on the one ``kind`` node it defines run as
    one script; a failed definition, like a malformed file, is a
    :class:`ParseError`.
    """
    if not os.path.exists(name_or_file):
        return runner.run([command(name_or_file)])
    with open(name_or_file, "r", encoding="utf-8") as fh:
        nodes = parse_script(fh.read())
    commands = [n for n in nodes if n.kind not in ("algebra", "mat")]
    if commands:
        raise ParseError(
            f"{name_or_file} must contain only definitions (found {commands[0].kind!r})",
            commands[0].line,
        )
    names = [n.payload["name"] for n in nodes if n.kind == kind]
    node = command(names[0]) if len(names) == 1 else None
    verdicts = runner.run(nodes if node is None else nodes + [node])
    if verdicts and (node is None or verdicts[0].command != node.text):
        # a definition gives a verdict only when it fails, which ends the script
        raise ParseError(verdicts[0].witness or "definition failed")
    if node is None:
        raise ParseError(f"{name_or_file} must define exactly one {noun}")
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhcontract",
        description="Exact verification of the h-deformed Grassmann matrix group "
        "obtained by contraction from its q-deformation.",
    )
    parser.add_argument(
        "--porcelain",
        action="store_true",
        help="machine-readable output, one tab-separated record per verdict",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a script of definitions and commands")
    run_p.add_argument("script")

    sub.add_parser("verify-paper", help="run the whole verification battery")

    nf_p = sub.add_parser("nf", help="normal form of an expression in an algebra")
    nf_p.add_argument("--algebra", required=True, help="builtin algebra name or definitions file")
    nf_p.add_argument("--expr", required=True)

    qybe_p = sub.add_parser("qybe", help="check the quantum Yang-Baxter equation")
    qybe_p.add_argument("--rmatrix", required=True, help="builtin matrix name or definitions file")

    args = parser.parse_args(argv)
    try:
        runner = Runner()
        if args.command == "run":
            with open(args.script, "r", encoding="utf-8") as fh:
                nodes = parse_script(fh.read())
            verdicts = runner.run(nodes)
        elif args.command == "verify-paper":
            verdicts = runner.run([Node("verify-paper", None, "verify-paper", {"args": []})])
        elif args.command == "nf":
            verdicts = _run_with_definitions(
                runner, args.algebra, "algebra", "algebra",
                lambda name: Node("nf", None, f'nf {name} "{args.expr}"',
                                  {"algebra": name, "expr": args.expr}))
        elif args.command == "qybe":
            verdicts = _run_with_definitions(
                runner, args.rmatrix, "mat", "matrix",
                lambda name: Node("qybe", None, f"qybe {name}", {"args": [name]}))
        else:  # pragma: no cover
            parser.error("unknown command")
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug in the checker, not a verdict: never exit 1
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report(verdicts, args.porcelain)
    return exit_code(verdicts)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
