"""Fresh-process helper for the benchmark; run.py starts it with src on PYTHONPATH.

``child.py setup [ALGEBRA ...]`` imports the package, builds a ``Runner``
with the builtin algebras and matrices, orients the named algebras and
prints ``ready``: the parent times exec to that line as set-up.

``child.py trace [--porcelain] verify-paper`` runs the command line under
the tracer, then writes the trace totals as one JSON line to stderr after
the command's own output.
"""

import sys


def setup(algebras) -> int:
    from qhcontract import cli

    runner = cli.Runner()
    for name in algebras:
        runner.rules_for(runner.resolve_algebra(name))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def trace(argv) -> int:
    import json

    from tracing import Tracer
    from qhcontract import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit(setup(args) if mode == "setup" else trace(args))
