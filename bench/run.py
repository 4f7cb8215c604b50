"""Closed-loop benchmark of gaugeworks on four generated job corpora.

Run from the root of a checkout:

    python3 bench/run.py --workload q-dense --seed 1 --seconds 20 --trace 0

One client runs one operation at a time; the next starts when the previous
one returns.  An operation is one job file through ``gaugeworks compute``
(``cli.main`` in-process, output captured) or one chain of library calls,
and each is checked against an answer the benchmark knows by construction.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any answer is wrong or any operation raised.

The times it reports are at a fixed reference speed.  A shared host's
speed can drift by a fifth within a minute, so between operations the
benchmark times a fixed calibration kernel of its own (about 1 ms, at most
one per 0.1 s of work) and scales every operation and set-up time by the
kernel's reference time over its median time among the samples nearest
to it.  A change to gaugeworks moves the scaled times as it moves the raw
ones; the raw figures are printed on a ``# raw`` line.  Throughput and
latency percentiles weight each sample so that every op of the cycle
counts once, however far into its last cycle the run got.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs whole
cycles of the corpus, alternately untraced and with every layer wrapped in
spans, and reports per-cycle self times and counts per layer plus the
tracing overhead (traced minus untraced time over untraced time); the
spans go to ``.bench_out/``.  It also checks that each layer the workload is
meant to exercise was called and that the prime-field and rational layers
stay apart.  ``--smoke`` shrinks every corpus to its smallest sizes.

For every workload in turn:

    for w in q-dense zp-gauge fp-glued tiny-bigint; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0 || break
    done
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from tracer import ROOT as ROOT_SPAN
from tracer import Tracer
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 10.0
SETUP_REPEATS = 5
WARMUP_OPS = 3
CAL_EVERY_S = 0.1     # work between two calibration samples
CAL_NEAREST = 41      # samples an operation's speed is read from
CAL_REF_S = 0.0012    # the kernel's time at the reference speed

END_TO_END = {"jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p95": "ms",
              "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "<layer>.calls" / "<layer>.self_s" come from spans.
PER_LAYER = {
    "qmat.elim.calls": "count", "qmat.elim.self_s": "s", "qmat.arith.self_s": "s",
    "qmat.new.calls": "count", "qmat.max_entry_bits": "bits",
    "fpmat.elim.calls": "count", "fpmat.elim.self_s": "s",
    "fpmat.matmul.calls": "count", "fpmat.matmul.self_s": "s",
    "fpmat.arith.self_s": "s", "fpmat.new.calls": "count",
    "snf.calls": "count", "snf.self_s": "s", "snf.entries": "count",
    "modules.homology.self_s": "s", "modules.map_new.calls": "count",
    "modules.map_new.self_s": "s",
    "rationals.check_prime.calls": "count", "rationals.check_prime.self_s": "s",
    "filphi.admissible.self_s": "s", "filphi.rhom.self_s": "s", "filphi.self_s": "s",
    "beilinson.cartesian.self_s": "s", "beilinson.fm_fibre.self_s": "s",
    "beilinson.self_s": "s",
    "fgauge.build.self_s": "s", "fgauge.validate.self_s": "s",
    "fgauge.cohomology.self_s": "s", "fgauge.weights.self_s": "s",
    "fgauge.realization.self_s": "s",
    "redlocus.build.self_s": "s", "redlocus.cohomology.self_s": "s",
    "redlocus.tensor_dual.self_s": "s", "higgs.self_s": "s",
    "cli.self_s": "s", "unattributed.self_s": "s", "trace_overhead_frac": "frac",
}

# Layers each workload must call at least once in a traced run, and layers
# it must never call: the rational and prime-field stacks stay apart.
MUST_CALL = {
    "q-dense": ["qmat.elim", "qmat.arith", "qmat.new", "filphi.rhom", "filphi",
                "beilinson.cartesian", "beilinson.fm_fibre", "cli"],
    "zp-gauge": ["snf", "modules.homology", "modules.map_new", "fgauge.build",
                 "fgauge.validate", "fgauge.cohomology", "fgauge.weights", "cli"],
    "fp-glued": ["fpmat.elim", "fpmat.matmul", "fpmat.new", "redlocus.build",
                 "redlocus.cohomology", "redlocus.tensor_dual", "higgs", "cli"],
    "tiny-bigint": ["rationals.check_prime", "filphi.admissible", "cli"],
}
MUST_NOT_CALL = {
    "q-dense": ["fpmat.elim", "fpmat.matmul", "fpmat.arith", "fpmat.new"],
    "zp-gauge": ["fpmat.elim", "fpmat.matmul", "fpmat.arith", "fpmat.new"],
    "fp-glued": ["qmat.elim"],
    "tiny-bigint": [],
}


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so library handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Api:
    """What an op may call: the CLI in-process and the library modules.

    Attributes are looked up at call time, so the tracer's patches apply.
    """

    def __init__(self, gw):
        self._gw = gw

    @property
    def redlocus(self):
        return self._gw.redlocus

    @property
    def FpMat(self):
        return self._gw.exactlinalg.FpMat

    def main(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self._gw.cli.main(argv)
        return code, out.getvalue()

    def compute(self, path: str):
        return self.main(["compute", path])


_BIG_A = 3 ** 1300 + 7
_BIG_B = 5 ** 900 + 11


def calibration_kernel():
    """Fixed work of both kinds the library does: interpreter-bound (small
    Fractions, a 12 x 12 product mod p) and big-integer (products, gcds and
    quotients of 2000-bit numbers)."""
    s = Fraction(0)
    for i in range(1, 50):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    m = [[(i * 7 + j * 3) % 101 for j in range(12)] for i in range(12)]
    t = [[sum(a * b for a, b in zip(row, col)) % 101 for col in zip(*m)] for row in m]
    big = 0
    for i in range(16):
        z = _BIG_A * _BIG_B + i
        big ^= gcd(z, _BIG_B + i) ^ (z // (_BIG_B + 1))
    return s, t, big


class Speed:
    """Calibration samples over a run; reads the host's speed at any moment."""

    def __init__(self):
        self.times: list[float] = []      # when each sample ended
        self.seconds: list[float] = []
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        t0 = perf_counter()
        if not force and t0 - self.last < CAL_EVERY_S:
            return
        calibration_kernel()
        self.last = perf_counter()
        self.times.append(self.last)
        self.seconds.append(self.last - t0)

    def scale(self, when: float) -> float:
        """Reference time over the median kernel time of the samples nearest ``when``."""
        i = bisect_left(self.times, when)
        lo = max(0, min(i - CAL_NEAREST // 2, len(self.times) - CAL_NEAREST))
        return CAL_REF_S / statistics.median(self.seconds[lo:lo + CAL_NEAREST])


def git_rev(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = root / ".git" / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def fresh_import(src: Path, job_paths: list[Path]):
    """Import gaugeworks from scratch and load the job files; (seconds, package)."""
    for name in [m for m in sys.modules if m == "gaugeworks" or m.startswith("gaugeworks.")]:
        del sys.modules[name]
    start = perf_counter()
    gw = importlib.import_module("gaugeworks")
    for path in job_paths:
        json.loads(path.read_bytes())
    elapsed = perf_counter() - start
    if not Path(gw.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"gaugeworks imported from {gw.__file__}, not from {src}")
    return elapsed, gw


def execute(op, api, tracer: Tracer | None) -> str:
    """Run one op under the time limit; its outcome: ok, wrong, error or timeout."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        if tracer is None:
            result = op.run(api)
        else:
            result = tracer.call(ROOT_SPAN, op.run, (api,))
    except OpTimeout:
        return "timeout"
    except (Exception, SystemExit):
        sys.stderr.write(f"op {op.label} raised:\n{traceback.format_exc()}")
        return "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if op.check(result):
        return "ok"
    sys.stderr.write(f"op {op.label} gave a wrong answer: {result!r}\n"[:2000])
    return "wrong"


def run_ops(ops, api, *, count: int | None = None, until: float | None = None,
            tracer: Tracer | None = None, speed: Speed | None = None):
    """Closed loop over the cycle; stops after ``count`` ops or at time ``until``.

    Records (label, seconds, outcome, end time, place in the cycle); with ``speed``, calibration
    samples fall between ops, outside their times.
    """
    records = []
    i = 0
    while (count is not None and i < count) or (until is not None and perf_counter() < until):
        op = ops[i % len(ops)]
        t0 = perf_counter()
        outcome = execute(op, api, tracer)
        t1 = perf_counter()
        records.append((op.label, t1 - t0, outcome, t1, i % len(ops)))
        if speed is not None:
            speed.sample()
        i += 1
    return records


def percentile(values: list[float], q: float, weights: list[float]) -> float:
    """Smallest value whose cumulative weight reaches q percent of the total."""
    pairs = sorted(zip(values, weights))
    goal = q / 100.0 * sum(weights)
    total = 0.0
    for value, weight in pairs:
        total += weight
        if total >= goal:
            return value
    return pairs[-1][0]


def cycle_stats(records, ms: list[float]) -> dict:
    """Throughput and latency percentiles of one cycle of the corpus.

    A run ends part-way through a cycle, so its samples over-represent the
    ops at the head of the cycle; each sample is therefore weighted by one
    over the number of times its op ran, which makes every op of the cycle
    count once.  Throughput is the ops' ok share over the sum of each op's
    median time.
    """
    by_op: dict[int, list[int]] = {}
    for k, r in enumerate(records):
        by_op.setdefault(r[4], []).append(k)
    weights = [1.0 / len(by_op[r[4]]) for r in records]
    ok = sum(sum(records[k][2] == "ok" for k in ks) / len(ks) for ks in by_op.values())
    busy_ms = sum(statistics.median(ms[k] for k in ks) for ks in by_op.values())
    p95 = percentile(ms, 95, weights)
    return {"jobs_per_s": ok * 1000.0 / busy_ms, "job_ms_p50": percentile(ms, 50, weights),
            "job_ms_p95": p95, "above_p95": sum(1 for x in ms if x > p95),
            "weights": weights}


def end_to_end(records, speed: Speed, setups, peak_rss_mb: float) -> dict:
    """Metrics at the reference speed; ``setups`` holds (seconds, end time) pairs."""
    lat_ms = [r[1] * 1000.0 * speed.scale(r[3]) for r in records]
    stats = cycle_stats(records, lat_ms)
    if stats["above_p95"] < 10:
        best = max((q for q in range(1, 100)
                    if sum(1 for x in lat_ms if x > percentile(lat_ms, q, stats["weights"])) >= 10),
                   default=None)
        print(f"# only {stats['above_p95']} of {len(lat_ms)} samples above p95; "
              f"highest percentile with 10 above: {best}")
    values = {
        "jobs_per_s": stats["jobs_per_s"],
        "job_ms_p50": stats["job_ms_p50"],
        "job_ms_p95": stats["job_ms_p95"],
        "ok_frac": sum(1 for r in records if r[2] == "ok") / len(records),
        "setup_s": statistics.median(t * speed.scale(when) for t, when in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = cycle_stats(records, [r[1] * 1000.0 for r in records])
    print(f"# samples={len(lat_ms)} above_p95={stats['above_p95']} "
          f"calibration_samples={len(speed.seconds)}")
    print(f"# raw jobs_per_s={raw['jobs_per_s']:.4f} job_ms_p50={raw['job_ms_p50']:.4f} "
          f"job_ms_p95={raw['job_ms_p95']:.4f} "
          f"setup_s={statistics.median(t for t, _ in setups):.5f} "
          f"calibration_ms_p50={statistics.median(speed.seconds) * 1000.0:.4f}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer: Tracer, cycles: int, overhead: float) -> dict:
    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name == "trace_overhead_frac":
            v = overhead
        elif name == "qmat.max_entry_bits":
            v = tracer.max_entry_bits
        elif stat == "self_s":
            v = tracer.self_s.get(ROOT_SPAN if layer == "unattributed" else layer, 0.0) / cycles
        elif name in ("qmat.new.calls", "fpmat.new.calls"):
            v = tracer.counts[layer] / cycles
        elif name == "snf.entries":
            v = tracer.counts[name] / cycles
        else:
            v = tracer.calls[layer] / cycles
        values[name] = {"value": v, "unit": PER_LAYER[name]}
    return values


def layer_violations(workload: str, tracer: Tracer) -> list[str]:
    def calls(layer):
        return tracer.calls[layer] + tracer.counts[layer]
    bad = [f"layer {l} never called" for l in MUST_CALL[workload] if not calls(l)]
    bad += [f"layer {l} called {calls(l)} times" for l in MUST_NOT_CALL[workload] if calls(l)]
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for the harness's own test")
    args = ap.parse_args(argv)

    src = REPO / "src"
    fixtures = REPO / "tests" / "fixtures"
    if not (src / "gaugeworks" / "__init__.py").is_file():
        sys.stderr.write(f"gaugeworks sources not found under {src}\n")
        return 2
    if not (fixtures / "golden" / "compute_all.txt").is_file():
        sys.stderr.write(f"job fixtures not found under {fixtures}\n")
        return 2
    sys.path.insert(0, str(src))
    workdir = REPO / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        build = WORKLOADS[args.workload]
        extra = (fixtures,) if args.workload == "tiny-bigint" else ()
        ops = build(rng, workdir, args.smoke, *extra)
        job_paths = [op.path for op in ops if op.path is not None]
        speed, setups = Speed(), []

        def set_up():
            speed.sample(force=True)
            seconds, package = fresh_import(src, job_paths)
            setups.append((seconds, perf_counter()))
            speed.sample(force=True)
            return package

        for _ in range(SETUP_REPEATS):
            gw = set_up()
        api = Api(gw)
        print(f"# rev={git_rev(REPO)} python={platform.python_version()} "
              f"nproc={len(os.sched_getaffinity(0))} workload={args.workload} "
              f"seed={args.seed} trace={args.trace} cycle_ops={len(ops)}")
        warm = run_ops(ops, api, count=min(WARMUP_OPS, len(ops)))
        problems = [f"{r[0]}: {r[2]}" for r in warm if r[2] in ("wrong", "error")]
        if not args.trace:
            records = run_ops(ops, api, until=perf_counter() + args.seconds, speed=speed)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Set up again after the timed phase: the median then spans the
            # whole run instead of one burst of machine noise.
            for _ in range(SETUP_REPEATS):
                set_up()
            metrics = end_to_end(records, speed, setups, peak_rss_mb)
        else:
            # Alternate untraced and traced cycles so drift hits both alike.
            tracer, plain, traced, cycles = Tracer(), [], [], 0
            until = perf_counter() + args.seconds
            while cycles == 0 or perf_counter() < until:
                plain += run_ops(ops, api, count=len(ops))
                tracer.install()
                traced += run_ops(ops, api, count=len(ops), tracer=tracer)
                tracer.uninstall()
                cycles += 1
            base = sum(r[1] for r in plain)
            overhead = (sum(r[1] for r in traced) - base) / base
            records = plain + traced
            metrics = per_layer(tracer, cycles, overhead)
            problems += layer_violations(args.workload, tracer)
            tracer.write(REPO / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl.gz")
            print(f"# traced cycles={cycles} spans={len(tracer.names)}")
        problems += [f"{r[0]}: {r[2]}" for r in records if r[2] in ("wrong", "error")]
        for line in problems[:20]:
            print(f"# problem: {line}")
        result = {"correct": not problems, "attempted": len(records),
                  "failed": sum(1 for r in records if r[2] != "ok"), "metrics": metrics}
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
