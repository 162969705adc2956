#!/usr/bin/env python3
"""Regenerates the ROADMAP baseline table and traces the worked example e1.

    python3 bench/baseline.py

Prints two markdown tables: the wall time of each ROADMAP baseline row
(median of three runs for rows under a second, one run otherwise), and the
time of each stage of the full verification of e1 (e1_X minus e1_plan,
leaving e1_Z) over the rationals and over GF(2^31 - 1), with the field
calls each stage made.  Run it from the root of a source checkout; the
tier-1 row runs the test suite (about a minute).
"""

import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import biproj  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from run import child_env  # noqa: E402
from tracing import Recorder  # noqa: E402

STAGES = (
    ("formats.parse_config", "parse_configuration(X)"),
    ("grid.classify", "validate + is_acm + classify_points(X)"),
    ("hilbert.acm", "hilbert_acm(X)"),
    ("resolution.remove_points", "removal_plan + remove_points"),
    ("hilbert.delta", "delta(M_Z)"),
    ("resolution.betti_from_delta", "betti_from_delta"),
    ("formats.betti_io", "Betti table JSON + text round trip"),
    ("oracle.betti", "betti_oracle(Z)"),
    ("oracle.drop_sets", "drop_sets(X)"),
    ("oracle.separator", "verify_separator, all removed points"),
    ("oracle.spaces", "hilbert_oracle(Z) (the value spaces alone)"),
)


def seconds(fn, *args, repeat=3, **kw):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args, **kw)
        times.append(time.perf_counter() - t0)
        if times[0] > 1.0:
            break
    return statistics.median(times)


def cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "biproj.cli", *argv], capture_output=True,
                          env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("biproj %s exited %d" % (" ".join(argv), proc.returncode))


def fmt(t):
    return "%.3g ms" % (t * 1000) if t < 1 else "%.2f s" % t


def roadmap_rows():
    X = biproj.staircase(reference.E1_LAM)
    plan = biproj.removal_plan(X, reference.E1_REMOVED_POINTS)
    Z = biproj.remove_points(X, plan).grid_z
    qq, gfp = biproj.QQ, biproj.GFP
    e1_x, e1_plan = str(ROOT / "fixtures" / "e1_X.json"), str(ROOT / "fixtures" / "e1_plan.json")
    rows = [
        ("`acm_resolution` / `remove_points` on `e1_X` (31 pts)",
         [seconds(biproj.acm_resolution, X), seconds(biproj.remove_points, X, plan)]),
        ("`hilbert_oracle(e1_Z)` QQ / GF(p)",
         [seconds(biproj.hilbert_oracle, Z, qq), seconds(biproj.hilbert_oracle, Z, gfp)]),
        ("`betti_oracle(e1_Z)` QQ / GF(p) reduced / GF(p) direct",
         [seconds(biproj.betti_oracle, Z, qq), seconds(biproj.betti_oracle, Z, gfp),
          seconds(biproj.betti_oracle, Z, gfp, engine="direct")]),
        ("`betti_oracle`, triangle staircase of 55 / 105 / 171 pts, GF(p)",
         [seconds(biproj.betti_oracle, biproj.staircase(range(n, 0, -1)), gfp) for n in (10, 14, 18)]),
        ("CLI `validate e1_X`", [seconds(cli, "validate", e1_x)]),
        ("CLI `resolution e1_X --plan e1_plan --verify`",
         [seconds(cli, "resolution", e1_x, "--plan", e1_plan, "--verify")]),
        ("CLI `fuzz --seed 7 --cases 25`", [seconds(cli, "fuzz", "--seed", "7", "--cases", "25")]),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    rows.append(("tier-1 (%s)" % last.strip("= "), [time.perf_counter() - t0]))
    print("| workload | now |\n|---|---|")
    for name, times in rows:
        print("| %s | %s |" % (name, " / ".join(fmt(t) for t in times)))


def e1_trace():
    pair = workloads.e1_pair(ROOT)
    columns = []
    for field in (biproj.QQ, biproj.GFP):
        rec = Recorder(True)
        seconds_total, problems = workloads.library_op(pair, workloads.Context(rec, True, field))
        if problems:
            raise RuntimeError("e1 over %s: %s" % (field.name, "; ".join(problems)))
        stage = defaultdict(float)
        calls = defaultdict(lambda: defaultdict(int))
        stack = []
        for name, start, end, _ in sorted(rec.spans, key=lambda s: (s[1], -s[2])):
            while stack and stack[-1][2] <= start:
                stack.pop()
            if name.startswith("fields."):
                if stack:
                    calls[stack[-1][0]][name[len("fields."):]] += 1
                continue
            stage[name] += end - start
            stack.append((name, start, end))
        columns.append((field.name, seconds_total, stage, calls))
    print("| stage | %s |\n|---|---|---|" % " | ".join(name for name, *_ in columns))
    for key, label in STAGES:
        cells = []
        for _, _, stage, calls in columns:
            counted = ", ".join("%d %s" % (n, k) for k, n in sorted(calls[key].items()))
            cells.append(fmt(stage[key]) + (" (%s)" % counted if counted else ""))
        print("| %s | %s |" % (label, " | ".join(cells)))
    print("| operation total, without `hilbert_oracle` | %s |" % " | ".join(fmt(t) for _, t, _, _ in columns))


def main():
    reference.self_check()
    roadmap_rows()
    print()
    e1_trace()


if __name__ == "__main__":
    main()
