#!/usr/bin/env python3
"""biproj benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload verify_small_qq --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout, without -O (the program's
asserts are part of the work measured).  Inputs come from --seed.  The run
repeats whole rounds over the workload's fixed input set, one operation at
a time, until --seconds have passed, and checks every output against the
independent reference in reference.py.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones, and the spans are written to bench/out/.  See bench/README.md.
"""

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
from tracing import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verify_small_qq", "verify_large_gfp", "combinatorial_sweep", "cli_commands")
SETUP_SAMPLES = 12  # spread evenly over the timed rounds
SPAWN_SAMPLES = 5

# span name -> per-layer metric; times are mean milliseconds per call
LIBRARY_SPANS = (
    "formats.parse_config",
    "formats.betti_io",
    "grid.classify",
    "hilbert.acm",
    "hilbert.delta",
    "resolution.acm",
    "resolution.remove_points",
    "resolution.betti_from_delta",
    "oracle.betti",
    "oracle.drop_sets",
    "oracle.separator",
    "oracle.spaces",
)
FIELD_CALLS = ("rref", "reduce_rows", "rank")


def fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # numpy's import starts an OpenBLAS thread per core; when the other
    # vCPU is busy that start-up serialises and the import takes 35% longer.
    # biproj makes no BLAS call, so one thread changes no work of the program.
    env["OPENBLAS_NUM_THREADS"] = "1"
    for name in ("BIPROJ_FIELD", "PYTHONOPTIMIZE"):
        env.pop(name, None)
    return env


def setup_seconds(imports):
    """Process start to ready in a fresh interpreter importing `imports`."""
    code = "import %s; print('ready', flush=True)" % ", ".join(imports)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed: %r" % line)
    return seconds


def spawn_ms(cli, argv):
    """Mean wall milliseconds of SPAWN_SAMPLES runs of `python argv`."""
    out = []
    for _ in range(SPAWN_SAMPLES):
        t0 = time.perf_counter()
        proc = cli.run(argv)
        out.append((time.perf_counter() - t0) * 1000.0)
        if proc.returncode != 0:
            raise RuntimeError("python %s failed: %s" % (argv, proc.stderr.decode()[-300:]))
    return statistics.fmean(out)


def timed_rounds(items, op, seconds, rec, probe):
    """Whole rounds over items, at least one, and no more than fit in
    `seconds` at the mean round time so far.  `probe`, unless None, is
    sampled SETUP_SAMPLES times between operations, evenly over the run, so
    the set-up samples see the machine in the same moments as the operations."""
    try:
        op(items[0])  # warm-up, not counted
    except Exception:  # the same operation fails again, and is counted, in the rounds
        pass
    rec.spans.clear()
    gc.collect()
    gc.freeze()  # the benchmark's inputs stay out of the collector's scans
    latencies, attempted, failed, notes, rounds, setup = [], 0, 0, [], 0, []
    start = time.perf_counter()
    while True:
        for item in items:
            rec.op += 1
            attempted += 1
            try:
                dt, problems = op(item)
            except Exception as exc:  # an operation that raises is counted, the run goes on
                dt, problems = None, ["%s: %s" % (type(exc).__name__, exc)]
            if problems:
                failed += 1
                if len(notes) < 5:
                    notes.append("op %d: %s" % (rec.op, "; ".join(problems)))
            else:
                latencies.append(dt)
            while probe and len(setup) < SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
                setup.append(probe())
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            while probe and len(setup) < SETUP_SAMPLES:
                setup.append(probe())
            return latencies, attempted, failed, elapsed, notes, setup


def tail_percentile(n):
    """Highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (75, 90, 95, 99, 99.9):
        if n * (1 - p / 100.0) >= 10:
            best = p
    return best


def peak_rss_mib(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return dict(value=value, unit=unit)


def per_layer(rec, coverage, n_ops, cli_floor, commands):
    """Per-layer metrics from the timed spans; layers the workload never
    calls are taken from the coverage pass so every figure is measured."""
    metrics, covered = {}, []

    def mean_ms(name):
        durations = rec.durations_ms(name)
        if not durations:
            durations = coverage.durations_ms(name)
            covered.append(name)
        return statistics.fmean(durations) if durations else 0.0

    for name in LIBRARY_SPANS:
        metrics[name + "_ms"] = metric(mean_ms(name), "ms")
    # derived, not timed: the name says so, as the result line allows only value and unit
    metrics["oracle.koszul_derived_ms"] = metric(
        metrics["oracle.betti_ms"]["value"] - metrics["oracle.spaces_ms"]["value"], "ms")
    for name in FIELD_CALLS:
        metrics["fields.%s_calls" % name] = metric(rec.count("fields." + name) / n_ops, "count")
        metrics["fields.%s_ms" % name] = metric(mean_ms("fields." + name), "ms")
    metrics["fields.max_matrix_cells"] = metric(rec.max_matrix_cells, "count")
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = [metric(x, "ms") for x in cli_floor]
    for command in commands:
        metrics["cli.%s_ms" % command] = metric(mean_ms("cli." + command), "ms")
    return metrics, covered


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        fail("run without -O: the program's asserts are part of the work measured")
    if not (SRC / "biproj" / "__init__.py").is_file():
        fail("no biproj sources under %s; run from the root of a source checkout" % SRC)
    sys.path.insert(0, str(SRC))

    reference.self_check()
    import workloads

    cli_workload = args.workload == "cli_commands"
    if cli_workload:
        import biproj.cli  # noqa: F401  (compiles its bytecode before the set-up probes)

    rng = random.Random(args.seed)
    if args.workload == "verify_small_qq":
        ladder = workloads.ladder_inputs(rng, workloads.SMALL_QQ_LADDER, "q")
        # e1 mid-round, so the ladder's samples are spread over the whole run
        items = removal_pairs = ladder[:9] + [workloads.e1_pair(ROOT)] + ladder[9:]
    elif args.workload == "verify_large_gfp":
        items = removal_pairs = workloads.ladder_inputs(rng, workloads.LARGE_GFP_LADDER, "g")
    elif args.workload == "combinatorial_sweep":
        items = range(workloads.SWEEP_SIZE)  # each pair is built just before its operation
        sample = (workloads.sweep_pair(args.seed, n) for n in range(1, 40, 2))
        removal_pairs = [p for p in sample if p.plan]
    else:
        pairs = removal_pairs = workloads.cli_pairs(rng)
    smallest = min(removal_pairs, key=lambda p: p.npoints)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cli-") as tmp:
        cli = workloads.CliRunner(Path(tmp), child_env(), ROOT)
        if cli_workload:
            items = cli.items(pairs)
        setup_imports = ["biproj.cli"] if cli_workload else ["biproj", "biproj.formats"]
        probe = None if args.trace else lambda: setup_seconds(setup_imports)

        rec = Recorder(bool(args.trace))
        ctx = workloads.Context(rec, counting=bool(args.trace))
        if cli_workload:
            def op(item):
                return cli.op(item, rec)
        elif args.workload == "combinatorial_sweep":
            def op(n):
                return workloads.library_op(workloads.sweep_pair(args.seed, n), ctx, combinatorial_only=True)
        else:
            def op(pair):
                return workloads.library_op(pair, ctx)
        latencies, attempted, failed, wall, notes, setup = timed_rounds(items, op, args.seconds, rec, probe)
        coverage_failed = False

        if args.trace:
            coverage = Recorder(True)
            cov_ctx = workloads.Context(coverage, counting=True)
            acm = dataclasses.replace(smallest, plan=[], removed=[], _matrices={})
            for name, problems in [
                    ("library", workloads.library_op(smallest, cov_ctx)[1]),
                    ("acm", workloads.library_op(acm, cov_ctx, combinatorial_only=True)[1])] + [
                    (item[0], cli.op(item, coverage)[1]) for item in cli.items([smallest])]:
                if problems:
                    coverage_failed = True
                    notes.append("coverage %s: %s" % (name, "; ".join(problems)))
            cli_floor = (spawn_ms(cli, ["-c", "pass"]), spawn_ms(cli, ["-c", "import biproj.cli"]))

    for note in notes:
        print(note, file=sys.stderr)
    completed = len(latencies)
    ops_per_s = completed / sum(latencies) if latencies else 0.0
    p50_ms = statistics.median(latencies) * 1000.0 if latencies else 0.0
    summary = "%s seed %d: %d ops in %.2f s (%d failed), %.4g ops/s, p50 %.4g ms" % (
        args.workload, args.seed, attempted, wall, failed, ops_per_s, p50_ms)
    tail = tail_percentile(completed)
    if tail:
        summary += ", p%g %.4g ms" % (tail, statistics.quantiles(latencies, n=1000)[int(tail * 10) - 1] * 1000.0)
    print(summary + (" [traced]" if args.trace else ""))

    if args.trace:
        metrics, covered = per_layer(rec, coverage, attempted, cli_floor, workloads.CLI_COMMANDS)
        trace_file = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        t0 = rec.spans[0][1] if rec.spans else 0.0
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "ops_per_s": ops_per_s,
            "from_coverage": covered,
            "spans": [[n, s - t0, e - t0, o] for n, s, e, o in rec.spans],
        }))
        print("spans: %s; from the coverage pass on %s: %s" % (
            trace_file.relative_to(ROOT), smallest.name, ", ".join(covered) or "none"))
    else:
        metrics = {
            "ops_per_s": metric(ops_per_s, "1/s"),
            "latency_p50_ms": metric(p50_ms, "ms"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mib(children=cli_workload), "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0 and not coverage_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
