"""Command-line front end.

Subcommands: validate, hilbert, delta, classify, resolution, fuzz.  All
consume configuration files (see formats), print JSON or aligned text, and
exit with a stable code: 0 ok, 1 bad input, 2 not ACM, 3 removal-hypothesis
violation (collinear pair or non-interior point), 4 verification mismatch.
Errors also emit one machine-readable JSON object on stderr.  The default
coefficient field can be overridden with --field or BIPROJ_FIELD.

The fields and oracle modules, and numpy with them, are imported only on
the paths that use them: --oracle, --verify, --method oracle, a field
name, and fuzz.
"""

import argparse
import json
import os
import sys
from functools import partial

from . import formats
from .errors import (
    BiprojError,
    CollinearRemoval,
    NotACM,
    NotInterior,
    VerificationMismatch,
)
from .grid import MAX_GRID_CELLS, PointKind, classify_points, corners_and_vertices, is_acm, validate
from .hilbert import delta, hilbert_acm
from .resolution import betti_diff, betti_from_delta, remove_points

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_ACM = 2
EXIT_HYPOTHESIS = 3
EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message):
        _err("UsageError", message)
        raise SystemExit(EXIT_BAD_INPUT)


def _count(text, minimum=0):
    """argparse type for the integer options, which are at least `minimum`."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if n < minimum:
        why = "negative" if n < 0 else "below %d" % minimum
        raise argparse.ArgumentTypeError(
            "%s is %s; expected an integer >= %d" % (text, why, minimum))
    return n


def _err(name, message):
    print(json.dumps({"error": name, "message": str(message)}), file=sys.stderr)


def _emit(args, obj, text):
    print(json.dumps(obj, indent=2) if args.format == "json" else text)


def _resolve_field(args):
    name = args.field or os.environ.get("BIPROJ_FIELD")
    if not name:
        return None
    from .fields import field_by_name

    return field_by_name(name)


def _load(args):
    return formats.load_configuration(args.config)


def cmd_validate(args):
    grid = _load(args)
    rep = validate(grid)
    nr, nc = grid.shape
    obj = {
        "valid": rep.ok,
        "rows": nr,
        "cols": nc,
        "npoints": grid.npoints,
        "violations": list(rep.violations),
    }
    lines = ["valid: %s" % ("yes" if rep.ok else "no"),
             "rows: %d  cols: %d  points: %d" % (nr, nc, grid.npoints)]
    lines += ["violation: %s" % v for v in rep.violations]
    _emit(args, obj, "\n".join(lines))
    if not rep.ok:
        _err("InvalidGrid", "; ".join(rep.violations))
        return EXIT_BAD_INPUT
    return EXIT_OK


def _hilbert_matrix(args, grid):
    if args.oracle:
        from . import oracle

        return oracle.hilbert_oracle(grid, args.field)
    try:
        return hilbert_acm(grid)
    except NotACM:
        raise NotACM("scheme is not ACM; use --oracle for the rank-based matrix")


def _window_entries(entry, window):
    """entry(i, j) on the window; M.m clamps, D.c zero-extends."""
    wi, wj = window
    return [[entry(i, j) for j in range(wj + 1)] for i in range(wi + 1)]


def cmd_hilbert(args):
    grid = _load(args)
    M = _hilbert_matrix(args, grid)
    window = tuple(args.window) if args.window else M.window
    entries = _window_entries(M.m, window)
    _emit(args, formats.matrix_to_json(entries, "hilbert"),
          formats.render_matrix(entries))
    return EXIT_OK


def cmd_delta(args):
    grid = _load(args)
    D = delta(_hilbert_matrix(args, grid))
    if args.window:
        wi, wj = args.window
    else:
        wi = max((i for i, row in enumerate(D.rows) if any(row)), default=0)
        wj = max((j for row in D.rows for j, c in enumerate(row) if c), default=0)
    entries = _window_entries(D.c, (wi, wj))
    _emit(args, formats.matrix_to_json(entries, "delta"),
          formats.render_matrix(entries))
    return EXIT_OK


def cmd_classify(args):
    grid = _load(args)
    if not is_acm(grid):
        _emit(args, {"acm": False}, "ACM: no")
        _err("NotACM", "no line permutation yields a staircase; "
             "point classes are only defined for ACM configurations")
        return EXIT_NOT_ACM
    corners, vertices = corners_and_vertices(grid)
    classes = classify_points(grid)
    obj = {
        "acm": True,
        "corners": [list(c) for c in corners],
        "vertices": [list(v) for v in vertices],
        "points": [
            {
                "position": list(pc.position),
                "kind": pc.kind.value,
                "row_count": pc.row_count,
                "col_count": pc.col_count,
                "separating_degree": list(pc.separating_degree),
            }
            for pc in classes
        ],
    }
    lines = ["ACM: yes",
             "corners: " + " ".join("(%d,%d)" % c for c in corners),
             "vertices: " + " ".join("(%d,%d)" % v for v in vertices)]
    for pc in classes:
        lines.append("P(%d,%d)  %s  separating degree (%d,%d)" % (
            pc.position + (pc.kind.value,) + pc.separating_degree))
    _emit(args, obj, "\n".join(lines))
    return EXIT_OK


def _parse_removals(args):
    pts = []
    for chunk in args.remove or []:
        try:
            i, j = chunk.split(",")
            pts.append((int(i), int(j)))
        except ValueError:
            raise BiprojError("bad --remove entry %r (expected i,j)" % chunk)
    if args.plan:
        with open(args.plan) as fh:
            pts += formats.parse_plan(json.load(fh))
    return pts


def cmd_resolution(args):
    grid = _load(args)
    pts = _parse_removals(args)
    # the empty plan is the ACM case; with none, the oracle reads X, ACM or not
    res = remove_points(grid, pts) if pts or args.method != "oracle" else None
    grid_final = res.grid_z if res else grid
    certified = None
    if args.method == "combinatorial":
        table, source = res.betti, "removal" if pts else "acm"
        if pts:
            certified = [
                {
                    "point": list(point),
                    "degree": list(rep.degree),
                    "cond2_violations": [list(v) for v in rep.cond2_violations],
                    "cond3_violations": [list(v) for v in rep.cond3_violations],
                    "ok": rep.ok,
                }
                for point, rep in zip(res.plan.points, res.conditions)
            ]
    elif args.method == "delta":
        table, source = betti_from_delta(delta(res.hilbert)), "delta"
    else:
        from . import oracle

        table, source = oracle.betti_oracle(grid_final, args.field), "oracle"

    obj = formats.betti_to_json(table, source, certified)
    lines = [formats.render_betti(table)]

    if args.separators and pts:
        obj["separators"] = [
            {"point": list(sep.point), "degree": list(sep.degree),
             "lines": ["%s_%d" % line for line in sep.lines]}
            for sep in res.separators
        ]
        lines += ["separator P(%d,%d): degree (%d,%d), lines %s" % (
            sep.point + sep.degree + (" ".join("%s_%d" % l for l in sep.lines),))
            for sep in res.separators]

    mismatch = None
    if args.verify:
        reference = table  # --method oracle printed the oracle's own table
        if args.method != "oracle":
            from . import oracle
            from .fields import QQ, default_field

            oracle_field = args.field or default_field(grid_final.npoints)
            reference = oracle.betti_oracle(grid_final, oracle_field)
            if reference.counters() != table.counters() and oracle_field.kind == "prime":
                reference = oracle.betti_oracle(grid_final, QQ)  # rule out unlucky prime
        mismatch = betti_diff(table, reference)
        obj["verification"] = {
            "match": not mismatch,
            "diff": [
                {"level": lvl, "degree": list(d), "got": a, "oracle": b}
                for lvl, d, a, b in mismatch
            ],
        }
        lines.append("verification: %s" % ("MATCH" if not mismatch else "MISMATCH"))
        for lvl, d, a, b in mismatch:
            lines.append("  beta%d (%d,%d): got %d, oracle %d" % ((lvl,) + d + (a, b)))

    _emit(args, obj, "\n".join(lines))
    if mismatch:
        raise VerificationMismatch(
            "betti table differs from oracle at " +
            ", ".join("beta%d (%d,%d)" % ((lvl,) + d) for lvl, d, _, _ in mismatch))
    return EXIT_OK


def random_staircase(rng, max_rows=6, max_cols=6):
    """Uniform-ish random staircase grid with 1..max_rows nonempty rows."""
    from .grid import staircase

    nr = int(rng.integers(1, max_rows + 1))
    lengths = sorted(
        (int(rng.integers(1, max_cols + 1)) for _ in range(nr)), reverse=True
    )
    return staircase(tuple(lengths))


def random_plan(grid, rng, max_points=4):
    """A random valid removal set: interior points, pairwise distinct lines."""
    interior = [pc.position for pc in classify_points(grid)
                if pc.kind is PointKind.INTERIOR]
    order = list(rng.permutation(len(interior)))
    chosen, rows, cols = [], set(), set()
    for idx in order:
        if len(chosen) == max_points:
            break
        i, j = interior[idx]
        if i in rows or j in cols:
            continue
        chosen.append((i, j))
        rows.add(i)
        cols.add(j)
    return chosen


def _fuzz_one(grid, rng, hmax, field):
    """Checks X and X minus a random plan: the removal, Delta M and oracle
    tables agree, M_Z is the oracle's, and every separator verifies."""
    from . import oracle

    plan = random_plan(grid, rng, max_points=hmax)
    for pts in ([], plan) if plan else ([],):
        where = "%r minus %r" % (grid.row_counts(), pts)
        res = remove_points(grid, pts)
        from_delta = betti_from_delta(delta(res.hilbert))
        from_oracle = oracle.betti_oracle(res.grid_z, field)
        if not (res.betti.counters() == from_delta.counters() == from_oracle.counters()):
            return "resolution mismatch on " + where
        if oracle.hilbert_oracle(res.grid_z, field) != res.hilbert:
            return "hilbert mismatch on " + where
        cur = grid
        for sep in res.separators:
            cur = cur.without(sep.point)
            if not oracle.verify_separator(sep, cur, sep.point, field):
                return "separator %r fails verification" % (sep,)
    return None


def cmd_fuzz(args):
    import numpy as np

    rng = np.random.default_rng(args.seed)
    failures = []
    for case in range(args.cases):
        grid = random_staircase(rng, args.max_rows, args.max_cols)
        problem = _fuzz_one(grid, rng, args.max_removals, args.field)
        if problem:
            failures.append("case %d: %s" % (case, problem))
    obj = {"cases": args.cases, "seed": args.seed, "failures": failures}
    text = "cases: %d  failures: %d" % (args.cases, len(failures))
    _emit(args, obj, "\n".join([text] + failures))
    if failures:
        raise VerificationMismatch("; ".join(failures))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="biproj", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument("--field", help="rationals | prime[:p] (or BIPROJ_FIELD)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, config=True):
        p = sub.add_parser(name, parents=[common])
        if config:
            p.add_argument("config", help="ConfigurationFile path")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate)
    for name, func in (("hilbert", cmd_hilbert), ("delta", cmd_delta)):
        p = add(name, func)
        p.add_argument("--window", type=_count, nargs=2, metavar=("I", "J"))
        p.add_argument("--oracle", action="store_true",
                       help="rank-based computation (works on non-ACM schemes)")
    add("classify", cmd_classify)
    p = add("resolution", cmd_resolution)
    # extend, so both "--remove 0,3 0,4" and a repeated flag accumulate
    p.add_argument("--remove", action="extend", nargs="+", metavar="i,j",
                   default=[])
    p.add_argument("--plan", help="JSON file with a points array")
    p.add_argument("--method", choices=("combinatorial", "delta", "oracle"),
                   default="combinatorial")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--separators", action="store_true")
    p = add("fuzz", cmd_fuzz, config=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cases", type=_count, default=25)
    p.add_argument("--max-rows", type=partial(_count, minimum=1), default=5)
    p.add_argument("--max-cols", type=partial(_count, minimum=1), default=5)
    p.add_argument("--max-removals", type=_count, default=3)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        window = getattr(args, "window", None)
        cells = (window[0] + 1) * (window[1] + 1) if window else 0
        if cells > MAX_GRID_CELLS:
            parser.error("argument --window: %d %d spans %d cells; expected at most %d"
                         % (*window, cells, MAX_GRID_CELLS))
    except SystemExit as e:
        return e.code or EXIT_OK
    try:
        # the field object replaces its name, so a bad name fails even where unused
        args.field = _resolve_field(args)
        return args.func(args)
    except (CollinearRemoval, NotInterior) as e:
        _err(type(e).__name__, e)
        return EXIT_HYPOTHESIS
    except NotACM as e:
        _err(type(e).__name__, e)
        return EXIT_NOT_ACM
    except VerificationMismatch as e:
        _err(type(e).__name__, e)
        return EXIT_MISMATCH
    except (BiprojError, OSError, ValueError, KeyError) as e:
        _err(type(e).__name__, e)
        return EXIT_BAD_INPUT


def entry():
    # the prime field's float64 products gain nothing from a second BLAS
    # thread; set before numpy loads, and a value already set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
