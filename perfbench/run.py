"""ccgscope benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload nested_scope --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.

Load model: a closed loop with one client.  One process and one thread run
one op at a time, and each op's output is checked after it returns (checks
are not timed).  A run repeats whole passes over the workload's ops until
``--seconds`` have gone by and at least 100 ops have been timed, so every
run measures the same mix and the 90th percentile has ten samples beyond it.

Times are reported at one nominal machine speed.  Before each op the run
times a fixed pure-Python reference (reference.py); each op's time is
scaled by NOMINAL_S over the median of the five reference times around it.
On a shared machine raw times drift by up to 1.8x within seconds as other
tenants' load comes and goes, and the scaled times stay within a few
percent.  The raw figures are kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer metrics and the tracing
overhead, and fails the run if the traced and untraced outputs differ.
The last line of stdout is one JSON object; a fuller record, with the
machine, the source digest and per-op sample counts, is written to
``perfbench/results/``.  The exit code is 0 whenever a result is printed;
``"correct": false`` marks a run in which some op failed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_OPS = 100           # the 90th percentile then has at least ten samples beyond it
MAX_RUN_SECONDS = 150   # hard stop for a run, whatever the minimum op count
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Set-up as a user pays it: a fresh interpreter imports the tool and loads
# the bundled lexicon.  Interpreter start-up itself is not counted.  The
# child times the reference just before and just after, to scale its set-up
# time.
SETUP_CODE = """\
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
from reference import time_reference
refs = [time_reference() for _ in range(4)][1:]
t0 = time.perf_counter()
import ccgscope.cli
from ccgscope.lexicon import default_lexicon
default_lexicon()
setup = time.perf_counter() - t0
refs += [time_reference() for _ in range(3)]
print(setup, statistics.median(refs))
"""


def measure_setup() -> tuple:
    """(raw seconds, reference seconds) for one fresh-process set-up."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    setup, ref = proc.stdout.split()
    return float(setup), float(ref)


class SetupSampler:
    """Set-up samples spread over the run rather than taken back to back,
    so one burst of load on a shared machine cannot inflate all of them."""

    def __init__(self, seconds):
        measure_setup()                  # warm-up: compiles the bytecode caches
        self.every = seconds / SETUP_SAMPLES
        self.last = perf_counter()
        self.samples = []

    def __call__(self):
        if perf_counter() - self.last >= self.every:
            self.samples.append(measure_setup())
            self.last = perf_counter()

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(measure_setup())
        return self.samples


class Pass:
    """Output counters and tracer counters of one pass over the ops."""

    def __init__(self):
        self.outputs = Counter()  # compared across passes
        self.structure = {}       # tracer counters this pass added


class Run:
    """Passes over one workload's ops, with every output checked."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.passes = []
        self.timings = []  # per timed op: (pass number, label, seconds, passed its check)
        self.refs = []     # reference seconds before each timed op, and one after the last

    def one(self, index, op, record: Pass, timed=True):
        self.attempted += 1
        # Start every op from a collected heap, so the collections inside an
        # op are those its own allocations trigger, not leftovers of the ops
        # before it.
        gc.collect()
        ref = time_reference()
        t0 = perf_counter()
        try:
            if self.tracer is None:
                result = op.call()
            else:
                result = self.tracer.call(index, op.call)
            dt = perf_counter() - t0
            problem = op.check(result)
        except (Exception, SystemExit):
            dt = perf_counter() - t0
            problem = traceback.format_exc().strip().splitlines()[-1]
        if problem:
            self.failures.append({"op": op.label, "input": op.text, "reason": problem})
        else:
            record.outputs.update(op.counters(result))
        if timed:
            self.refs.append(ref)
            self.timings.append((len(self.passes), op.label, dt, not problem))

    def warm_up(self):
        """One op, checked but not timed."""
        self.one(0, self.ops[0], Pass(), timed=False)

    def run(self, seconds, min_ops, between=None):
        start = perf_counter()
        while True:
            record = Pass()
            before = self.tracer.structural() if self.tracer else {}
            for i, op in enumerate(self.ops):
                self.one(i, op, record)
            if self.tracer:
                record.structure = {k: v - before.get(k, 0)
                                    for k, v in self.tracer.structural().items()}
            self.passes.append(record)
            if between:
                between()
            elapsed = perf_counter() - start
            if elapsed >= MAX_RUN_SECONDS or (elapsed >= seconds and self.samples() >= min_ops):
                self.refs.append(time_reference())
                return

    def samples(self):
        return sum(1 for t in self.timings if t[3])

    def scaled(self):
        """Timings with each op's seconds scaled by NOMINAL_S over the median
        of the five reference times around it (two before, two after)."""
        return [(p, label, dt * NOMINAL_S / statistics.median(self.refs[max(0, i - 2):i + 3]), ok)
                for i, (p, label, dt, ok) in enumerate(self.timings)]

    def latencies(self, scaled=True):
        return [dt for _, _, dt, ok in (self.scaled() if scaled else self.timings) if ok]

    def ops_per_s(self):
        """Median over passes of checked ops per scaled second inside ops,
        so a burst of load that slows a few passes does not move it."""
        done, busy = Counter(), Counter()
        for p, _, dt, ok in self.scaled():
            done[p] += ok
            busy[p] += dt
        return statistics.median(done[p] / busy[p] for p in busy)

    def scale(self):
        return NOMINAL_S / statistics.median(self.refs)

    def per_label(self):
        by_label = {}
        for _, label, dt, ok in self.scaled():
            if ok:
                by_label.setdefault(label, []).append(dt)
        return {label: {"samples": len(v), "p50_ms": 1000 * statistics.median(v)}
                for label, v in sorted(by_label.items())}


def percentiles(values):
    """(median, 90th percentile, samples beyond the 90th percentile)."""
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
    return statistics.median(values), p90, sum(1 for x in values if x > p90)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ccgscope").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "platform": platform.platform(),
            "git_commit": git_commit(), "source_sha256": source_digest()}


def timed(args, workloads, lex):
    ops = workloads.WORKLOADS[args.workload](lex, args.seed)
    run = Run(ops)
    run.warm_up()
    sampler = SetupSampler(args.seconds)
    run.run(args.seconds, MIN_OPS, between=sampler)
    setup = sampler.finish()
    if not run.samples():
        return run, {}, {}
    p50, p90, beyond = percentiles(run.latencies())
    raw_p50, raw_p90, _ = percentiles(run.latencies(scaled=False))
    metrics = {
        "ops_per_s": run.ops_per_s(),
        "op_ms_p50": 1000 * p50,
        "op_ms_p90": 1000 * p90,
        "setup_s": statistics.median(s * NOMINAL_S / ref for s, ref in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"samples": run.samples(), "samples_beyond_p90": beyond,
              "passes": len(run.passes), "ops_per_pass": len(ops),
              "raw": {"op_ms_p50": 1000 * raw_p50, "op_ms_p90": 1000 * raw_p90,
                      "setup_s": statistics.median(s for s, _ in setup)},
              "reference_ms": {"median": 1000 * statistics.median(run.refs),
                               "min": 1000 * min(run.refs), "max": 1000 * max(run.refs)},
              "setup_samples": [{"setup_s": s, "reference_s": r} for s, r in setup],
              "per_op": run.per_label(), "outputs_per_pass": dict(run.passes[0].outputs)}
    return run, metrics, record


# Output counters of the library ops and the tracer counters that must
# equal them: the traced run has to compute exactly what the untraced one did.
OUTPUT_TO_TRACE = {"readings": "readings.readings", "derivations": "readings.multiplicity",
                   "orders": "baseline.orders", "survivors": "baseline.uvc_survivors",
                   "gap_orders": "baseline.gap_orders"}


def traced(args, workloads, lex):
    from tracing import Tracer, layer_metrics

    ops = workloads.WORKLOADS[args.workload](lex, args.seed)
    plain = Run(ops)
    plain.warm_up()
    plain.run(args.seconds / 2, 0)
    tracer = Tracer()
    tracer.install()
    try:
        run = Run(ops, tracer)
        if args.workload not in workloads.LOADS_LEXICON_PER_OP:
            # The library workloads load the lexicon in set-up; trace one load.
            from ccgscope import cli
            tracer.call(None, cli.default_lexicon)
        run.run(args.seconds / 2, 0)
    finally:
        tracer.uninstall()
    run.attempted += plain.attempted
    run.failures = plain.failures + run.failures
    outputs = [p.outputs for p in plain.passes + run.passes]
    if any(o != outputs[0] for o in outputs):
        run.failures.append({"op": "*", "input": "*",
                             "reason": "outputs differ between passes or between traced and untraced"})
    structure = run.passes[0].structure
    if any(p.structure != structure for p in run.passes):
        run.failures.append({"op": "*", "input": "*",
                             "reason": "structural counters differ between traced passes"})
    mismatched = {k: (v, structure.get(OUTPUT_TO_TRACE[k], 0))
                  for k, v in outputs[0].items()
                  if k in OUTPUT_TO_TRACE and structure.get(OUTPUT_TO_TRACE[k], 0) != v}
    if mismatched:
        run.failures.append({"op": "*", "input": "*",
                             "reason": f"traced counters disagree with outputs: {mismatched}"})
    scale = run.scale()
    metrics = {name: value * scale if name.endswith("_s") else value
               for name, value in layer_metrics(tracer, run.samples() or 1).items()}
    untraced, traced_rate = plain.ops_per_s(), run.ops_per_s()
    metrics.update({"trace.ops_per_s_untraced": untraced, "trace.ops_per_s_traced": traced_rate,
                    "trace.overhead_ratio": untraced / traced_rate})
    record = {"samples_untraced": plain.samples(), "samples_traced": run.samples(),
              "ops_per_pass": len(ops), "time_scale": scale, "structural_per_pass": structure,
              "outputs_per_pass": dict(outputs[0]), "per_op": run.per_label()}
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"TRACE_{args.workload}_s{args.seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans,
        "totals": {k: {"calls": c, "seconds": s, "self_seconds": x}
                   for k, (c, s, x) in sorted(tracer.totals.items())}}))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return run, metrics, record


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace.ops_per_s"):
        return "ops/s"
    return "ratio" if "ratio" in name else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus_cli", "nested_scope", "coord_cluster"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ccgscope" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'ccgscope'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ccgscope
    if Path(ccgscope.__file__).resolve().parent != (SRC / "ccgscope").resolve():
        print(f"error: ccgscope imported from {ccgscope.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from ccgscope import lexicon

    lex = lexicon.default_lexicon()
    run, metrics, record = (traced if args.trace else timed)(args, workloads, lex)
    attempted, failed = run.attempted, len(run.failures)

    for f in run.failures[:20]:
        print(f"FAILED {f['op']}: {f['reason']}  [{f['input']}]", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit_of(name)}")
    print(f"  {'failed_ops_ratio':40s} {failed / max(attempted, 1):14.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    if "samples" in record:
        print(f"  samples {record['samples']}, {record['samples_beyond_p90']} beyond p90")

    RESULTS.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": machine(), "attempted": attempted,
           "failed": failed, "failed_ops_ratio": failed / max(attempted, 1),
           "failures": run.failures,
           "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
           **record}
    (RESULTS / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
