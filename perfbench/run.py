"""End-to-end and per-layer benchmark of qhcontract.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory, so the same benchmark code measures any commit without an
install.  Workloads (see README.md for why each was chosen):

  paper           one operation is ``python -m qhcontract.cli verify-paper``
                  in a fresh process, alternating human and --porcelain
                  output; the seed is unused.
  nf-large        one operation is one ``nf ALG "EXPR"`` script through
                  ``Runner.run`` on a seeded product of linear forms.
  contract-sweep  one operation is one script defining GRh2 with h -> c*h
                  and contracting GRq2 onto it, for a seeded rational c.

Each workload is a closed loop with one client.  Every result is checked
against a known answer; a wrong result, an error or a timeout counts as
failed.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the same inputs
and reports per-layer self times and call counts, the tracing overhead and
a scalar microbenchmark.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import inputs
from tracing import COUNT_METRICS, TIME_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected")

SETUP_PROBES = 15
OP_TIMEOUT_S = 30  # in-process operations take at most a few seconds
PAPER_TIMEOUT_S = 60  # verify-paper takes 5 to 7 s
NF_POOL = 32  # recorded inputs per nf-large slot (see record_expected.py)

WORKLOADS = ("paper", "nf-large", "contract-sweep")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


# -- set-up --------------------------------------------------------------------


def setup_seconds(algebras) -> float:
    """Median time from exec until a fresh process could issue its first operation."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "setup", *algebras],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


# -- paper ---------------------------------------------------------------------

_CRITERION = re.compile(r"^(\[ ok \] |\[FAIL\] |verified\t|falsified\t)criterion (\d+):")
_STATUS = {"[ ok ] ": "verified", "verified\t": "verified",
           "[FAIL] ": "falsified", "falsified\t": "falsified"}
PAPER_ANSWERS = {n: "falsified" if n == 10 else "verified" for n in range(1, 13)}


def paper_expected(porcelain: bool) -> bytes:
    name = "verify-paper.porcelain.txt" if porcelain else "verify-paper.txt"
    with open(os.path.join(EXPECTED, name), "rb") as fh:
        return fh.read()


def check_paper(code: int, out: bytes, porcelain: bool) -> bool:
    """Exit 1, criterion 10 falsified and the rest verified, bytes as recorded."""
    statuses = {}
    for line in out.decode("utf-8", "replace").splitlines():
        m = _CRITERION.match(line)
        if m:
            statuses[int(m.group(2))] = _STATUS[m.group(1)]
    return code == 1 and statuses == PAPER_ANSWERS and out == paper_expected(porcelain)


def paper_op(porcelain: bool, traced: bool):
    """One fresh-process verify-paper: (seconds, ok, trace totals or None)."""
    mode = ["--porcelain"] if porcelain else []
    if traced:
        argv = [sys.executable, os.path.join(HERE, "child.py"), "trace", *mode, "verify-paper"]
    else:
        argv = [sys.executable, "-m", "qhcontract.cli", *mode, "verify-paper"]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=PAPER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        warn("verify-paper timed out")
        return perf_counter() - t0, False, None
    dt = perf_counter() - t0
    totals = None
    if traced:
        lines = err.decode(errors="replace").splitlines()
        try:
            totals = json.loads(lines.pop())
        except (IndexError, ValueError):
            warn("the traced verify-paper wrote no trace")
        err = "\n".join(lines).encode()
    if err.strip():
        warn(err.decode(errors="replace").strip())
    ok = check_paper(proc.returncode, out, porcelain) and (totals is not None or not traced)
    return dt, ok, totals


# -- in-process workloads --------------------------------------------------------


class OpTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def load_digests() -> dict:
    with open(os.path.join(EXPECTED, "nf-digests.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class NfLarge:
    """Products of seeded linear forms, normalized by ``nf``."""

    algebras = tuple(inputs.ALGEBRAS)
    cycle_len = len(inputs.NF_CYCLE)

    def __init__(self, seed: int):
        self.seed = seed
        self.digests = load_digests()
        # each slot walks its own seeded order through the recorded pool
        self.order = [random.Random(f"nf-large:{seed}:{s}").sample(range(NF_POOL), NF_POOL)
                      for s in range(self.cycle_len)]

    def op(self, index: int):
        slot, turn = index % self.cycle_len, index // self.cycle_len
        gen_seed = self.order[slot][turn] if turn < NF_POOL else 1000 * (self.seed + 1) + turn
        algebra, k = inputs.NF_CYCLE[slot]
        expr, ref = inputs.nf_input(gen_seed, slot, algebra, k)
        key = f"{slot}:{gen_seed}"
        script = f'nf {algebra} "{expr}"\n'
        return script, lambda text: self.check(text, algebra, expr, ref, self.digests.get(key))

    @staticmethod
    def check(text, algebra, expr, ref, want_digest) -> bool:
        lines = text.splitlines()
        prefix = "       normal form: "
        if (len(lines) != 3 or lines[0] != f'[ ok ] nf {algebra} "{expr}"'
                or not lines[1].startswith(prefix)
                or lines[2] != "1 verified, 0 falsified, 0 errors"):
            return False
        nf = lines[1][len(prefix):]
        kind = inputs.ALGEBRAS[algebra][1]
        if inputs.specialize(nf, kind) != ref or (nf == "0") != (not ref):
            return False
        return want_digest is None or digest(text) == want_digest


class ContractSweep:
    """Contractions of GRq2 onto GRh2 with h -> c*h, one seeded c per script."""

    algebras = ()
    cycle_len = inputs.CONTROL_EVERY

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, index: int):
        script, must_verify = inputs.contract_input(self.seed, index)
        return script, lambda text: self.check(text, index, must_verify)

    @staticmethod
    def check(text, index, must_verify) -> bool:
        lines = text.splitlines()
        if must_verify:
            head, tail = "[ ok ]", "1 verified, 0 falsified, 0 errors"
        else:
            head, tail = "[FAIL]", "0 verified, 1 falsified, 0 errors"
        return (bool(lines) and lines[0] == f"{head} contract GRq2 GRc{index}"
                and lines[-1] == tail
                and "       ranks: substituted 10, limit 10, target 10" in lines)


IN_PROCESS = {"nf-large": NfLarge, "contract-sweep": ContractSweep}


def new_runner(cli, algebras):
    runner = cli.Runner()
    for name in algebras:
        runner.rules_for(runner.resolve_algebra(name))
    return runner


def run_script(cli, runner, script: str) -> str:
    """Parse, run and report one script as the command line would print it."""
    verdicts = runner.run(cli.parse_script(script))
    out = io.StringIO()
    cli.report(verdicts, False, out)
    return out.getvalue()


def script_op(cli, runner, script, check):
    """One closed-loop operation: (seconds, ok).  Checking is not timed."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = perf_counter()
    try:
        text = run_script(cli, runner, script)
    except Exception as exc:  # the engine failed: count it and keep measuring
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        warn(f"operation raised {type(exc).__name__}: {exc}")
        return dt, False
    dt = perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        ok = check(text)
    except (ValueError, ZeroDivisionError) as exc:
        warn(f"result could not be checked: {exc}")
        ok = False
    return dt, ok


# -- measurement loops -------------------------------------------------------------


def more_time(start: float, rounds: int, seconds: float) -> bool:
    """Whether another round fits, ending within half a round of ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def closed_loop(seconds: float, cycle_len: int, run_op):
    """Run whole cycles of operations until about ``seconds`` have passed."""
    latencies, oks = [], []
    start = perf_counter()
    index = 0
    while True:
        for _ in range(cycle_len):
            dt, ok = run_op(index)
            latencies.append(dt)
            oks.append(ok)
            index += 1
        if not more_time(start, index // cycle_len, seconds):
            return latencies, oks


def latency_summary(latencies):
    xs = sorted(latencies)
    n = len(xs)
    # the highest percentile with at least ten samples beyond it; with
    # fewer than eleven samples, the maximum
    i = n - 11 if n >= 11 else n - 1
    return {
        "op_p50_s": statistics.median(xs),
        "op_tail_s": xs[i],
        "tail_percentile": 100.0 * (i + 1) / n,
        "tail_beyond": n - 1 - i,
        "samples": n,
        "ops_per_s": n / sum(xs),
    }


def end_to_end(workload: str, seed: int, seconds: float):
    if workload == "paper":
        algebras = ()
    else:
        wl = IN_PROCESS[workload](seed)
        algebras = wl.algebras
    setup_s = setup_seconds(algebras)
    if workload == "paper":
        latencies, oks = closed_loop(
            seconds, 1, lambda i: paper_op(porcelain=i % 2 == 1, traced=False)[:2])
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        from qhcontract import cli

        runner = new_runner(cli, algebras)
        latencies, oks = closed_loop(
            seconds, wl.cycle_len, lambda i: script_op(cli, runner, *wl.op(i)))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = latency_summary(latencies)
    failed = oks.count(False)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (summary["op_p50_s"], "s"),
        "op_tail_s": (summary["op_tail_s"], "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print(f"workload {workload}, seed {seed}: {len(oks)} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  {'failed_share':<12} {failed / len(oks):.6g} share")
    print(f"  op_tail_s is p{summary['tail_percentile']:.4g} of {summary['samples']} "
          f"samples ({summary['tail_beyond']} beyond); setup_s is the median of "
          f"{SETUP_PROBES} fresh processes")
    return len(oks), failed, metrics


# -- traced run ----------------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float):
    """Alternate untraced and traced passes over the same operations."""
    untraced_lat, traced_lat, totals, oks = [], [], [], []
    start = perf_counter()
    if workload == "paper":
        turn = 0
        while turn == 0 or more_time(start, turn, seconds):
            porcelain = turn % 2 == 1
            dt, ok, _ = paper_op(porcelain, traced=False)
            untraced_lat.append(dt)
            oks.append(ok)
            dt, ok, snap = paper_op(porcelain, traced=True)
            traced_lat.append(dt)
            oks.append(ok)
            if snap is not None:
                totals.append(snap)
            turn += 1
        if not totals:
            raise RuntimeError("no traced verify-paper produced a trace")
    else:
        from qhcontract import cli

        wl = IN_PROCESS[workload](seed)
        ops = [wl.op(i) for i in range(wl.cycle_len)]
        while not totals or more_time(start, len(totals), seconds):
            runner = new_runner(cli, wl.algebras)
            for script, check in ops:
                dt, ok = script_op(cli, runner, script, check)
                untraced_lat.append(dt)
                oks.append(ok)
            tracer = Tracer()
            tracer.install()
            try:
                runner = new_runner(cli, wl.algebras)
                for script, check in ops:
                    dt, ok = script_op(cli, runner, script, check)
                    traced_lat.append(dt)
                    oks.append(ok)
            finally:
                tracer.uninstall()
            totals.append(tracer.snapshot())

    counts_repeat = all(t[k] == totals[0][k] for t in totals for k in COUNT_METRICS)
    if not counts_repeat:
        warn("call counts differ between traced passes")
    metrics = {}
    for name in TIME_METRICS:
        metrics[name] = (statistics.fmean(t[name] for t in totals), "s")
    for name in COUNT_METRICS:
        metrics[name] = (statistics.fmean(t[name] for t in totals), "count")
    for name, value in microbenchmark(seed).items():
        metrics[name] = (value, "ns")
    p50_untraced = statistics.median(untraced_lat)
    p50_traced = statistics.median(traced_lat)
    metrics["trace.op_p50_s"] = (p50_traced, "s")
    metrics["trace.untraced_op_p50_s"] = (p50_untraced, "s")
    metrics["trace.op_p50_ratio"] = (p50_traced / p50_untraced, "ratio")
    failed = oks.count(False)
    print(f"workload {workload}, seed {seed}, traced: {len(totals)} traced passes, "
          f"{len(oks)} operations, {failed} failed; per-layer values are per pass "
          f"and times are self times")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    return len(oks), failed, metrics


def microbenchmark(seed: int, size: int = 400, repeats: int = 5) -> dict:
    """Mean nanoseconds per call of the scalar operations, on seeded samples.

    Coefficients are drawn the way the property battery draws them: one to
    three terms q^a h^b (a, b <= 2) with rationals n/d (|n| <= 3, d <= 3),
    over q^i (q-1)^j with i, j <= 2.  ``try_inv`` gets units r q^a (q-1)^b
    (|a|, |b| <= 2) and ``exact_div`` products of two such numerators.
    """
    from qhcontract.coeffring import Coeff, QHPoly

    rng = random.Random(f"coeffring:{seed}")

    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 3))
        return QHPoly(terms)

    def coeff(q1_free=False):
        return Coeff(poly(), rng.randint(0, 2), 0 if q1_free else rng.randint(0, 2))

    def unit():
        r = Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
        q, qm1 = Coeff.q(), Coeff.q() - Coeff.one()
        return Coeff.rational(r) * q ** rng.randint(-2, 2) * qm1 ** rng.randint(-2, 2)

    def divisible():
        b = poly()
        while b.is_zero():
            b = poly()
        return poly() * b, b

    samples = {
        "coeffring.add_ns": ([(coeff(), coeff()) for _ in range(size)], lambda a, b: a + b),
        "coeffring.mul_ns": ([(coeff(), coeff()) for _ in range(size)], lambda a, b: a * b),
        "coeffring.try_inv_ns": ([(unit(),) for _ in range(size)], lambda u: u.try_inv()),
        "coeffring.limit_q1_ns": ([(coeff(True),) for _ in range(size)], lambda p: p.limit_q1()),
        "coeffring.exact_div_ns": ([divisible() for _ in range(size)],
                                   lambda p, b: p.exact_div(b)),
    }
    out = {}
    for name, (args, fn) in samples.items():
        means = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for a in args:
                fn(*a)
            means.append((perf_counter_ns() - t0) / size)
        out[name] = statistics.median(means)
    return out


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in its own process, one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qhcontract", "cli.py")):
        warn(f"no qhcontract sources under {SRC}; run from the root of a checkout")
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
