"""Record the known answers that run.py compares results against.

    python3 perfbench/record_expected.py

Writes ``expected/verify-paper.txt`` and ``expected/verify-paper.porcelain.txt``
(the exact output of ``verify-paper``) and ``expected/nf-digests.json`` (a
digest of the ``nf`` report for every input in the nf-large pool).  The
committed files were recorded at the commit that introduced the benchmark;
record again only when an output change is intended.  Each nf result is
checked against its q = 1, h = 0 specialization before it is recorded.
"""

import json
import os
import subprocess
import sys

import inputs
import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    from qhcontract import cli

    os.makedirs(run.EXPECTED, exist_ok=True)
    for porcelain, name in ((False, "verify-paper.txt"), (True, "verify-paper.porcelain.txt")):
        argv = [sys.executable, "-m", "qhcontract.cli"]
        argv += ["--porcelain", "verify-paper"] if porcelain else ["verify-paper"]
        proc = subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), capture_output=True)
        if proc.returncode != 1:
            raise SystemExit(f"verify-paper exited {proc.returncode}, expected 1")
        with open(os.path.join(run.EXPECTED, name), "wb") as fh:
            fh.write(proc.stdout)

    runner = run.new_runner(cli, run.NfLarge.algebras)
    digests = {}
    for slot, (algebra, k) in enumerate(inputs.NF_CYCLE):
        for gen_seed in range(run.NF_POOL):
            expr, ref = inputs.nf_input(gen_seed, slot, algebra, k)
            text = run.run_script(cli, runner, f'nf {algebra} "{expr}"\n')
            if not run.NfLarge.check(text, algebra, expr, ref, None):
                raise SystemExit(f"nf result fails its specialization check: {expr}")
            digests[f"{slot}:{gen_seed}"] = run.digest(text)
    with open(os.path.join(run.EXPECTED, "nf-digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
