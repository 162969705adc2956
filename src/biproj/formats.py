"""File formats and text renderings.

Three JSON shapes: configuration files describing a point set on a grid of
lines, matrix files for Hilbert/difference matrices, and Betti files for
resolution tables.  Text renderings keep the look of the usual figures:
matrices with row indices down the left and column indices across the top,
Betti tables as lines of twisted summands R(-p,-q)^m joined by "(+)".
"""

import json
import re
from fractions import Fraction

from .errors import InvalidGrid
from .grid import PointGrid, _exact
from .resolution import BettiTable


def _is_int(x):
    """JSON integers only: bool is an int subclass, but true is not 1 here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _emit_param(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return str(x) if isinstance(x, Fraction) else int(x)


def parse_points(entries):
    """A JSON array of [i, j] integer pairs -> list of (i, j) tuples."""
    if not isinstance(entries, (list, tuple)):
        raise InvalidGrid("points must be an array of [i, j] pairs")
    points = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(_is_int(c) for c in entry)):
            raise InvalidGrid("point %r is not an [i, j] pair" % (entry,))
        points.append(tuple(entry))
    return points


def parse_configuration(obj):
    """ConfigurationFile dict -> PointGrid."""
    if not isinstance(obj, dict):
        raise InvalidGrid("configuration must be a JSON object")
    for key in ("rows", "cols", "points"):
        if key not in obj:
            raise InvalidGrid("configuration is missing %r" % key)
    nrows, ncols = obj["rows"], obj["cols"]
    if not _is_int(nrows) or not _is_int(ncols):
        raise InvalidGrid("rows/cols must be integers")
    points = parse_points(obj["points"])
    kw = {}
    for key in ("row_params", "col_params"):
        params = obj.get(key)
        if params is None:
            continue
        if not isinstance(params, (list, tuple)):
            raise InvalidGrid("%s must be an array of line parameters" % key)
        # the JSON type gate, then _exact in file order; a bad parameter is
        # reported before from_points' shape and point checks run
        kw[key] = []
        for x in params:
            if not isinstance(x, (int, str)):
                raise InvalidGrid("line parameter %r is not an integer or 'p/q' string" % (x,))
            kw[key].append(_exact(x))
    return PointGrid.from_points(nrows, ncols, points, **kw)


def parse_plan(obj):
    """Removal plan dict {"points": [[i, j], ...]} -> list of (i, j) tuples."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise InvalidGrid("plan must be a JSON object with a points array")
    return parse_points(obj["points"])


def emit_configuration(grid, name=None):
    nr, nc = grid.shape
    out = {
        "rows": nr,
        "cols": nc,
        "points": [[i, j] for (i, j) in grid.points()],
        "row_params": [_emit_param(x) for x in grid.row_params],
        "col_params": [_emit_param(x) for x in grid.col_params],
    }
    if name is not None:
        out["name"] = name
    return out


def load_configuration(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidGrid("%s: not valid JSON (%s)" % (path, e))
    return parse_configuration(obj)


def matrix_to_json(entries, kind):
    """entries: a nonempty 2-d integer sequence (nested lists, tuples or an ndarray)."""
    return {"kind": kind, "window": [len(entries) - 1, len(entries[0]) - 1],
            "entries": [[int(x) for x in row] for row in entries]}


def render_matrix(entries):
    """Aligned text: row index down the left, column index across the top."""
    cells = [[str(int(x)) for x in row] for row in entries]
    nr, nc = len(cells), len(cells[0])
    widths = [max(len(str(j)), max(len(cells[i][j]) for i in range(nr)))
              for j in range(nc)]
    left = max(len(str(nr - 1)), 1)
    lines = [" " * left + "  " + "  ".join(str(j).rjust(widths[j]) for j in range(nc))]
    for i in range(nr):
        lines.append(str(i).rjust(left) + "  "
                     + "  ".join(cells[i][j].rjust(widths[j]) for j in range(nc)))
    return "\n".join(lines)


_LEVELS = ("beta0", "beta1", "beta2")


def betti_to_json(table, source, certified_conditions=None):
    out = {
        level: [{"degree": [p, q], "multiplicity": m} for (p, q), m in entries]
        for level, entries in zip(_LEVELS, table.levels)
    }
    out["source"] = source
    if certified_conditions is not None:
        out["certified_conditions"] = certified_conditions
    return out


def _add_summand(entries, level, degree, m):
    """Records R(-p,-q)^m of one level: m >= 1 and each degree at most once."""
    if m < 1:
        raise ValueError("multiplicity %r < 1 at %s" % (m, level))
    if degree in entries:
        raise ValueError("%s repeats degree %s" % (level, list(degree)))
    entries[degree] = m


def betti_from_json(obj):
    """BettiFile dict -> (BettiTable, source).

    Each level is an array of {"degree": [p, q], "multiplicity": m} with
    integer p, q and an integer m >= 1, each degree at most once per level;
    anything else is a ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("Betti file must be a JSON object")
    levels = []
    for level in _LEVELS:
        items = obj.get(level, [])
        if not isinstance(items, (list, tuple)):
            raise ValueError("%s must be an array of entries" % level)
        entries = {}
        for item in items:
            if not isinstance(item, dict):
                raise ValueError("%s entry %r is not an object" % (level, item))
            degree, m = item.get("degree"), item.get("multiplicity")
            if not (isinstance(degree, (list, tuple)) and len(degree) == 2
                    and all(_is_int(x) for x in degree)):
                raise ValueError("%s degree %r is not a [p, q] integer pair" % (level, degree))
            if not _is_int(m):
                raise ValueError("%s multiplicity %r is not an integer" % (level, m))
            _add_summand(entries, level, tuple(degree), m)
        levels.append(entries)
    return BettiTable.make(*levels), obj.get("source")


def _render_term(degree, mult):
    p, q = degree
    term = "R(%d,%d)" % (-p, -q)
    return term if mult == 1 else term + "^%d" % mult


def render_betti(table):
    lines = []
    for name, entries in zip(_LEVELS, table.levels):
        if not entries:
            lines.append("%s: 0" % name)
        else:
            lines.append("%s: %s" % (name, " (+) ".join(
                _render_term(d, m) for d, m in entries)))
    return "\n".join(lines)


_TERM_RE = re.compile(r"^R\((-?\d+),(-?\d+)\)(?:\^(\d+))?$")


def parse_betti_text(text):
    """Inverse of render_betti (on canonical output).

    A level line that appears twice, a degree repeated within a level, or
    a multiplicity 0 is a ValueError; canonical output never has any.
    """
    found = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        name, _, rest = line.partition(":")
        name = name.strip()
        if name not in _LEVELS:
            continue  # renderings may carry extra report lines around the table
        if name in found:
            raise ValueError("level %s appears twice" % name)
        entries = {}
        rest = rest.strip()
        if rest != "0":
            for chunk in rest.split("(+)"):
                m = _TERM_RE.match(chunk.strip())
                if not m:
                    raise ValueError("bad summand %r" % chunk.strip())
                _add_summand(entries, name, (-int(m.group(1)), -int(m.group(2))),
                             int(m.group(3) or 1))
        found[name] = entries
    return BettiTable.make(*(found.get(level, {}) for level in _LEVELS))
