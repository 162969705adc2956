"""Seeded inputs, the operation of each workload, and the checks on its outputs.

Inputs come from the benchmark's own `random.Random(seed)`; the program
only ever sees the generated configuration dicts, plan lists and files.
Every expected answer comes from `reference`, never from biproj.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import biproj
from biproj import formats

import reference as ref
from tracing import CountingField, Recorder

# Ladders of (row lengths, number of removed points, style), cheapest first.
# The shape and the separating degrees of the removed points are fixed per
# rung, so every seed does the same amount of work and the spread between
# seeds stays small; the seed picks which of the equivalent points are
# removed (rows of equal length are interchangeable, and so are columns), the
# line order and the line parameters.
#
# The rationals ladder is seven shapes of 10-12 points in the three styles
# (the rational style only up to 11 points, where it costs what the others
# do), so its 18 rungs cost about the same: the median latency is the middle
# of many like samples spread over the whole run, and e1, one operation
# about as long as the ladder, stays under half of a round.
SMALL_QQ_LADDER = tuple(
    (lam, 2, style)
    for lam in ((4, 4, 2), (3, 3, 2, 2), (3, 3, 3, 2), (4, 3, 3, 1), (4, 4, 3, 1),
                (4, 4, 2, 2), (5, 5, 2))
    for style in ("plain", "scrambled", "rational")
    if not (style == "rational" and sum(lam) == 12)
)
LARGE_GFP_LADDER = (
    ((8, 8, 7, 6, 5, 4, 2), 3, "scrambled"),
    ((9, 9, 7, 7, 5, 4, 3), 4, "rational"),
    ((9, 9, 8, 7, 6, 5, 4), 4, "plain"),
    ((8, 8, 8, 7, 6, 5, 4, 2), 4, "scrambled"),
    ((9, 8, 8, 6, 6, 5, 3, 1), 4, "rational"),
    ((10, 9, 9, 7, 6, 5, 4, 2), 4, "plain"),
    ((9, 9, 8, 8, 7, 6, 5, 4), 4, "scrambled"),
    ((10, 10, 8, 8, 7, 6, 4, 3), 4, "rational"),
    ((10, 10, 9, 9, 8, 6, 5, 4, 3), 4, "plain"),
    ((12, 12, 11, 11, 9, 8, 6, 5, 4, 3), 5, "scrambled"),
    ((13, 13, 12, 12, 10, 8, 7, 6, 5, 4, 2), 5, "rational"),
    ((14, 13, 13, 11, 11, 9, 8, 7, 6, 5, 4, 3, 1), 5, "scrambled"),
)
STYLES = ("plain", "scrambled", "rational")
# A round of the sweep, like one of either ladder (with e1) or of the CLI
# commands, takes 9-13 s here, so a 30 s run does two or three whole rounds
# at any of this machine's speeds (they swing by about 25%).
SWEEP_SIZE = 1600
SWEEP_MAX = 12
CLI_PAIRS = 6
CLI_COMMANDS = ("validate", "classify", "hilbert", "delta", "resolution", "verify")


@dataclass
class Pair:
    """A staircase X, the points removed from it, and the reference answers."""

    name: str
    config: dict        # configuration file contents for X
    plan: list          # removed points [[i, j], ...] in file coordinates
    lam: tuple          # row lengths of X, weakly decreasing
    removed: list       # (q, p) of each removed point, in plan order
    degrees: dict       # (q, p) of every point of X, by file position
    _matrices: dict = field(default_factory=dict)

    @property
    def npoints(self):
        return len(self.config["points"])

    @property
    def betti(self):
        return ref.betti(self.lam, self.removed)

    def matrix(self, window, removed=True, kind="hilbert"):
        """Reference M (or its first difference) of Z, or of X when removed is False."""
        key = (tuple(window), removed, kind)
        if key not in self._matrices:
            gone = self.removed if removed else []
            build = ref.hilbert_matrix if kind == "hilbert" else ref.delta_matrix
            self._matrices[key] = build(self.lam, gone, key[0])
        return self._matrices[key]


def _params(rng, n, style):
    """Line parameters: 0..n-1 in order ("plain"), shuffled ("scrambled"),
    or the non-integers m + 1/(2 + m % 3) shuffled ("rational"); a fixed set
    per line count keeps the cost of exact arithmetic the same across seeds."""
    if style == "plain":
        return list(range(n))
    if style == "scrambled":
        return rng.sample(range(n), n)
    return [str(m + Fraction(1, 2 + m % 3)) for m in rng.sample(range(n), n)]


def _pick_interior(rng, lam, k):
    if not k:
        return []
    cells = ref.interior_points(lam)
    for _ in range(200):
        rng.shuffle(cells)
        chosen, rows, cols = [], set(), set()
        for i, j in cells:
            if i not in rows and j not in cols:
                chosen.append((i, j))
                rows.add(i)
                cols.add(j)
                if len(chosen) == k:
                    return chosen
    raise ValueError("%r has no %d interior points on distinct lines" % (lam, k))


def _equivalent(rng, lam, points):
    """Points with the same separating degrees: a random relabelling of rows
    of equal length among themselves, and of columns of equal length."""
    def shuffle_blocks(lengths):
        perm = list(range(len(lengths)))
        for value in set(lengths):
            block = [i for i, length in enumerate(lengths) if length == value]
            for a, b in zip(block, rng.sample(block, len(block))):
                perm[a] = b
        return perm

    rows, cols = shuffle_blocks(lam), shuffle_blocks(ref.column_lengths(lam))
    return [(rows[i], cols[j]) for i, j in points]


def make_pair(rng, lam, chosen, style, name):
    """X = the staircase lam, minus the interior points `chosen`."""
    nr, nc = len(lam), lam[0]
    rows, cols = list(range(nr)), list(range(nc))
    if style != "plain":
        rng.shuffle(rows)
        rng.shuffle(cols)
    degrees = ref.separating_degrees(lam)
    config = {
        "rows": nr,
        "cols": nc,
        "points": sorted([rows[i], cols[j]] for i, j in degrees),
        "row_params": _params(rng, nr, style),
        "col_params": _params(rng, nc, style),
    }
    return _prepared(Pair(
        name=name,
        config=config,
        plan=[[rows[i], cols[j]] for i, j in chosen],
        lam=tuple(lam),
        removed=[degrees[point] for point in chosen],
        degrees={(rows[i], cols[j]): d for (i, j), d in degrees.items()},
    ))


def _prepared(pair):
    """Computes the reference matrices on the program's usual window,
    (rows + 1, cols + 1), before any timing starts."""
    window = (pair.config["rows"] + 1, pair.config["cols"] + 1)
    pair.matrix(window, False)
    pair.matrix(window, True)
    return pair


def e1_pair(root):
    """The paper's worked example from fixtures/, as one more pair."""
    with open(root / "fixtures" / "e1_X.json") as fh:
        config = json.load(fh)
    with open(root / "fixtures" / "e1_plan.json") as fh:
        plan = json.load(fh)["points"]
    lam = ref.E1_LAM
    degrees = ref.separating_degrees(lam)
    if sorted(map(tuple, config["points"])) != sorted(degrees) or list(map(tuple, plan)) != list(ref.E1_REMOVED_POINTS):
        raise ValueError("fixtures/e1_*.json is not the worked example")
    return _prepared(Pair(
        name="e1",
        config=config,
        plan=plan,
        lam=lam,
        removed=ref.e1_removed(),
        degrees=degrees,
    ))


def _random_lam(rng, max_rows, max_cols):
    nr = rng.randint(1, max_rows)
    return tuple(sorted((rng.randint(1, max_cols) for _ in range(nr)), reverse=True))


def _max_removable(lam):
    """Size of a largest set of interior points on distinct rows and columns."""
    # the interior cells form a staircase; fill its rows from the shortest
    interior = ref.interior_points(lam)
    widths = sorted(sum(1 for i, _ in interior if i == row) for row in range(len(lam)))
    best = 0
    for width in widths:
        if width > best:
            best += 1
    return best


def ladder_inputs(rng, ladder, prefix):
    out = []
    for n, (lam, k, style) in enumerate(ladder):
        chosen = _equivalent(rng, lam, _pick_interior(random.Random(n), lam, k))
        out.append(make_pair(rng, lam, chosen, style, "%s%d" % (prefix, n)))
    return out


def sweep_pair(seed, n):
    """Staircase n of the sweep: up to SWEEP_MAX x SWEEP_MAX, scrambled, with
    rational parameters; odd n lose up to four interior points, even n stay
    ACM.  Built from its own seed just before its operation, so the run
    holds one sweep input at a time and peak_rss_mb measures the program."""
    rng = random.Random("sweep-%d-%d" % (seed, n))
    lam = _random_lam(rng, SWEEP_MAX, SWEEP_MAX)
    k = min(rng.randint(1, 4), _max_removable(lam)) if n % 2 else 0
    return make_pair(rng, lam, _pick_interior(rng, lam, k), "rational", "s%d" % n)


def cli_pairs(rng):
    """Schemes of a few points (3 to 8) with one or two interior points removed."""
    out = []
    while len(out) < CLI_PAIRS:
        lam = _random_lam(rng, 3, 4)
        if not 3 <= sum(lam) <= 8 or not _max_removable(lam):
            continue
        k = rng.randint(1, min(2, _max_removable(lam)))
        chosen = _pick_interior(rng, lam, k)
        out.append(make_pair(rng, lam, chosen, STYLES[len(out) % len(STYLES)], "c%d" % len(out)))
    return out


# ---------------------------------------------------------------- library


class Context:
    """How an operation calls the program: spans, and which field to pass.

    By default the program's own auto rule picks the field (field=None is
    passed); counting wraps the field that rule would pick, or `fixed`.
    """

    def __init__(self, recorder, counting, fixed=None):
        self.rec = recorder
        self.counting = counting
        self.fixed = fixed

    def base_field(self, npoints):
        return self.fixed or biproj.default_field(npoints)

    def field(self, npoints):
        if not self.counting:
            return self.fixed
        return CountingField(self.base_field(npoints), self.rec)


def _classify(grid):
    return biproj.validate(grid), biproj.is_acm(grid), biproj.classify_points(grid)


def _remove(grid, plan):
    return biproj.remove_points(grid, biproj.removal_plan(grid, plan))


def _betti_io(table):
    obj = formats.betti_to_json(table, "removal")
    return formats.betti_from_json(json.loads(json.dumps(obj)))[0], formats.parse_betti_text(formats.render_betti(table))


def _check_classes(pair, classes, problems):
    report, acm, points = classes
    if not report.ok or not acm:
        problems.append("X not reported as a valid ACM configuration")
    if {pc.position: pc.separating_degree for pc in points} != pair.degrees:
        problems.append("separating degrees of X differ from the reference")
    interior = {pc.position for pc in points if pc.kind is biproj.PointKind.INTERIOR}
    if not {tuple(p) for p in pair.plan} <= interior:
        problems.append("a removed point is not classified interior")


def _check_matrix(pair, M, removed, problems, what):
    if M.entries.tolist() != pair.matrix(M.window, removed):
        problems.append("%s differs from the reference" % what)


def _check_table(pair, table, problems, what):
    if table.counters() != pair.betti:
        problems.append("%s Betti table differs from the reference" % what)


def _check_drop_sets(pair, drops, problems):
    for point, degree in zip(pair.plan, pair.removed):
        cells = drops.get(tuple(point), set())
        if degree not in cells or any(c[0] < degree[0] or c[1] < degree[1] for c in cells):
            problems.append("drop set of %s has no unique minimal cell %s" % (point, degree))


def library_op(pair, ctx, combinatorial_only=False):
    """One operation on a removal pair: returns (seconds, problems).

    The full verification parses X, classifies it, resolves X minus the
    plan combinatorially and from the difference matrix, round-trips the
    table through JSON and text, then runs the oracle: Koszul Betti
    numbers of Z, drop sets of X and a separator check per removed point.
    combinatorial_only stops before the oracle, and resolves an empty plan
    with acm_resolution.
    """
    rec = ctx.rec
    t0 = time.perf_counter()
    X = rec.call("formats.parse_config", formats.parse_configuration, pair.config)
    classes = rec.call("grid.classify", _classify, X)
    MX = rec.call("hilbert.acm", biproj.hilbert_acm, X)
    if pair.plan:
        res = rec.call("resolution.remove_points", _remove, X, pair.plan)
        table, MZ = res.betti, res.hilbert
    else:
        res, table, MZ = None, rec.call("resolution.acm", biproj.acm_resolution, X), MX
    D = rec.call("hilbert.delta", biproj.delta, MZ)
    from_delta = rec.call("resolution.betti_from_delta", biproj.betti_from_delta, D)
    io = rec.call("formats.betti_io", _betti_io, table)
    oracle = drops = None
    seps = []
    if not combinatorial_only:
        Z = res.grid_z
        oracle = rec.call("oracle.betti", biproj.betti_oracle, Z, ctx.field(Z.npoints))
        drops = rec.call("oracle.drop_sets", biproj.drop_sets, X, ctx.field(X.npoints))
        current = X
        for sep in res.separators:
            current = current.without(sep.point)
            ok = rec.call("oracle.separator", biproj.verify_separator,
                          sep, current, sep.point, ctx.field(current.npoints + 1))
            seps.append((sep, ok))
    seconds = time.perf_counter() - t0

    problems = []
    _check_classes(pair, classes, problems)
    _check_matrix(pair, MX, False, problems, "M_X")
    _check_matrix(pair, MZ, True, problems, "M_Z")
    _check_table(pair, table, problems, "combinatorial")
    _check_table(pair, from_delta, problems, "difference-matrix")
    for n, back in enumerate(io):
        _check_table(pair, back, problems, ("JSON", "text")[n] + " round-trip")
    if not combinatorial_only:
        _check_table(pair, oracle, problems, "oracle")
        _check_drop_sets(pair, drops, problems)
        degrees = {tuple(p): d for p, d in zip(pair.plan, pair.removed)}
        if sorted(tuple(s.point) for s, _ in seps) != sorted(degrees):
            problems.append("separators do not match the removed points")
        for sep, ok in seps:
            if not ok or tuple(sep.degree) != degrees.get(tuple(sep.point)):
                problems.append("separator of %s fails its check" % (sep.point,))
        if rec.on:
            # hilbert_oracle builds the same value spaces as betti_oracle on
            # the same grid; timed apart, outside the operation, its field
            # calls are left out of the fields.* counts
            spaces = rec.call("oracle.spaces", biproj.hilbert_oracle, Z,
                              CountingField(ctx.base_field(Z.npoints), Recorder(True)))
            _check_matrix(pair, spaces, True, problems, "oracle M_Z")
    return seconds, problems


# ---------------------------------------------------------------- CLI


def _json_table(obj):
    return tuple(
        Counter({tuple(e["degree"]): e["multiplicity"] for e in obj.get(level, [])})
        for level in ("beta0", "beta1", "beta2")
    )


def _check_cli(command, pair, obj, problems):
    if command == "validate":
        if obj.get("valid") is not True or obj.get("npoints") != pair.npoints:
            problems.append("validate output is wrong")
    elif command == "classify":
        got = {tuple(p["position"]): tuple(p["separating_degree"]) for p in obj.get("points", [])}
        if (obj.get("acm") is not True
                or sorted(map(tuple, obj["corners"])) != sorted(ref.corners(pair.lam))
                or sorted(map(tuple, obj["vertices"])) != sorted(ref.vertices(pair.lam))
                or got != pair.degrees):
            problems.append("classify output differs from the reference")
    elif command in ("hilbert", "delta"):
        if obj["entries"] != pair.matrix(obj["window"], False, command):
            problems.append("%s matrix differs from the reference" % command)
    else:
        if _json_table(obj) != pair.betti:
            problems.append("%s table differs from the reference" % command)
        if command == "resolution":
            got = sorted((tuple(s["point"]), tuple(s["degree"])) for s in obj.get("separators", []))
            if got != sorted((tuple(p), d) for p, d in zip(pair.plan, pair.removed)):
                problems.append("separators differ from the reference")
        elif obj.get("verification", {}).get("match") is not True:
            problems.append("--verify did not report a match")


class CliRunner:
    """Runs `python -m biproj.cli` commands on pairs written to a directory."""

    def __init__(self, workdir, env, cwd):
        self.workdir = workdir
        self.env = env
        self.cwd = cwd

    def run(self, argv):
        return subprocess.run([sys.executable] + argv, capture_output=True,
                              env=self.env, cwd=self.cwd, timeout=120)

    def items(self, pairs):
        out = []
        for pair in pairs:
            x = self.workdir / ("%s_X.json" % pair.name)
            plan = self.workdir / ("%s_plan.json" % pair.name)
            x.write_text(json.dumps(pair.config))
            plan.write_text(json.dumps({"points": pair.plan}))
            argv = {
                "validate": ["validate", str(x)],
                "classify": ["classify", str(x)],
                "hilbert": ["hilbert", str(x)],
                "delta": ["delta", str(x)],
                "resolution": ["resolution", str(x), "--plan", str(plan), "--separators"],
                "verify": ["resolution", str(x), "--plan", str(plan), "--verify"],
            }
            out += [(command, pair, argv[command] + ["--format", "json"]) for command in CLI_COMMANDS]
        return out

    def op(self, item, rec):
        command, pair, argv = item
        t0 = time.perf_counter()
        proc = rec.call("cli." + command, self.run, ["-m", "biproj.cli"] + argv)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            return seconds, ["%s exited %d: %s" % (command, proc.returncode, proc.stderr.decode()[-300:])]
        problems = []
        _check_cli(command, pair, json.loads(proc.stdout), problems)
        return seconds, problems
