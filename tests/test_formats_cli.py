"""File formats, renderings, and the command-line front end."""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from biproj import formats, oracle
from biproj.cli import main
from biproj.errors import InvalidGrid
from biproj.grid import MAX_GRID_CELLS, staircase
from biproj.resolution import BettiTable, acm_resolution


def run_cli(capsys, *argv, env=None, monkeypatch=None):
    if env:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# ---------------------------------------------------------------- formats


def test_configuration_roundtrip():
    g = staircase((3, 1), row_params=(0, 7), col_params=(2, 3, 5))
    obj = formats.emit_configuration(g, name="demo")
    assert obj["name"] == "demo"
    assert formats.parse_configuration(obj) == g


def test_configuration_fraction_params():
    obj = {"rows": 1, "cols": 2, "points": [[0, 0], [0, 1]],
           "col_params": ["1/2", 1]}
    g = formats.parse_configuration(obj)
    back = formats.emit_configuration(g)
    assert back["col_params"] == ["1/2", 1]
    assert formats.parse_configuration(back) == g


def test_configuration_rejections():
    base = {"rows": 1, "cols": 2, "points": [[0, 0], [0, 1]]}
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({**base, "points": 5})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({**base, "points": [0, [0, 1]]})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({**base, "points": [[0, 0], [0, 0]]})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({**base, "points": [[0, 5]]})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({**base, "col_params": ["1/0", 1]})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({**base, "rows": "1"})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration({"rows": 1, "cols": 1})
    with pytest.raises(InvalidGrid):
        formats.parse_configuration([1, 2, 3])


@pytest.mark.parametrize("params", [5, "01"], ids=["number", "string"])
def test_configuration_params_must_be_arrays(tmp_path, capsys, params):
    # "01" is not the parameters (0, 1), and 5 is not a traceback
    obj = {"rows": 2, "cols": 1, "points": [[0, 0], [1, 0]], "row_params": params}
    with pytest.raises(InvalidGrid, match="row_params must be an array"):
        formats.parse_configuration(obj)
    code, out, err = run_cli(capsys, "validate", cfg(tmp_path, obj))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidGrid"


@pytest.mark.parametrize("bad", [
    {"rows": True, "cols": 2, "points": [[0, 0], [0, 1]]},
    {"rows": 2, "cols": True, "points": [[0, 0], [1, 0]]},
    {"rows": 2, "cols": 2, "points": [[0, 0], [True, 0]]},
    {"rows": 2, "cols": 2, "points": [[0, 0], [0, True]]},
])
def test_configuration_rejects_bools(bad):
    # bool is an int subclass in Python; JSON true must not read as 1
    with pytest.raises(InvalidGrid):
        formats.parse_configuration(bad)


def test_matrix_rendering_alignment():
    text = formats.render_matrix(np.array([[1, 10], [-2, 3]]))
    lines = text.splitlines()
    assert lines[1].split() == ["0", "1", "10"]
    assert lines[2].split() == ["1", "-2", "3"]
    # columns line up: every row has the same width
    assert len(set(len(l) for l in lines)) == 1


def test_betti_text_roundtrip():
    t = acm_resolution(staircase((4, 2)))
    assert formats.parse_betti_text(formats.render_betti(t)).counters() == t.counters()
    t2 = BettiTable.make({(1, 0): 3}, {}, {(2, 2): 1})
    text = formats.render_betti(t2)
    assert "beta0: R(-1,0)^3" in text and "beta1: 0" in text
    assert formats.parse_betti_text(text).counters() == t2.counters()


def test_betti_text_extra_lines_ignored():
    t = BettiTable.make({(1, 0): 1})
    text = formats.render_betti(t) + "\nverification: MATCH\n"
    assert formats.parse_betti_text(text).counters() == t.counters()


@pytest.mark.parametrize("text, message", [
    ("beta0: R(-1,0)\nbeta0: R(-2,0)", "appears twice"),
    ("beta0: R(-1,0) (+) R(-1,0)", "repeats degree"),
    ("beta0: R(-1,0)^0", "multiplicity 0"),  # betti_from_json rejects it too
], ids=["repeated-level", "repeated-degree", "zero-multiplicity"])
def test_betti_text_rejects_repeats(text, message):
    with pytest.raises(ValueError, match=message):
        formats.parse_betti_text(text)


def _json_reader(summands):
    return formats.betti_from_json(
        {"beta0": [{"degree": list(d), "multiplicity": m} for d, m in summands]})[0]


def _text_reader(summands):
    return formats.parse_betti_text("beta0: " + " (+) ".join(
        "R(%d,%d)^%d" % (-d[0], -d[1], m) for d, m in summands))


@pytest.mark.parametrize("reader", [_json_reader, _text_reader], ids=["json", "text"])
@pytest.mark.parametrize("summands, message", [
    ([((1, 0), 0)], r"multiplicity 0 < 1 at beta0"),
    ([((1, 0), 1), ((1, 0), 2)], r"beta0 repeats degree \[1, 0\]"),
], ids=["zero-multiplicity", "repeated-degree"])
def test_betti_readers_share_summand_rules(reader, summands, message):
    assert reader([((1, 0), 2), ((0, 1), 1)]).counters()[0] == {(1, 0): 2, (0, 1): 1}
    with pytest.raises(ValueError, match=message):
        reader(summands)


def test_betti_json_roundtrip():
    t = acm_resolution(staircase((5, 5, 2)))
    obj = formats.betti_to_json(t, "acm")
    back, source = formats.betti_from_json(obj)
    assert source == "acm" and back.counters() == t.counters()
    assert formats.betti_to_json(back, "acm") == obj
    with pytest.raises(ValueError):
        formats.betti_from_json({"beta0": [{"degree": [1, 0], "multiplicity": 0}]})


@pytest.mark.parametrize("obj, message", [
    ({"beta0": [{"degree": [1.5, 2], "multiplicity": 1}]}, "integer pair"),
    ({"beta0": [{"degree": [True, 2], "multiplicity": 1}]}, "integer pair"),
    ({"beta0": [{"degree": ["3", 2], "multiplicity": 1}]}, "integer pair"),
    ({"beta0": [{"degree": [1, 0], "multiplicity": True}]}, "not an integer"),
    ({"beta0": [{"degree": [1, 0], "multiplicity": "3"}]}, "not an integer"),
    ({"beta1": [{"degree": [1, 1], "multiplicity": 1},
                {"degree": [1, 1], "multiplicity": 2}]}, "repeats degree"),
    ({"beta0": [{"degree": [1, 0, 2], "multiplicity": 1}]}, "integer pair"),
    ({"beta0": [{"degree": None, "multiplicity": 1}]}, "integer pair"),
    ({"beta0": [{"multiplicity": 1}]}, "integer pair"),
    ({"beta0": [{"degree": [1, 0]}]}, "not an integer"),
    ({"beta0": [[1, 0]]}, "not an object"),
    ({"beta2": 3}, "array of entries"),
    ([], "JSON object"),
], ids=["float-degree", "bool-degree", "string-degree", "bool-multiplicity",
        "string-multiplicity", "repeated-degree", "degree-of-three", "null-degree",
        "missing-degree", "missing-multiplicity", "entry-not-object", "level-not-array",
        "file-not-object"])
def test_betti_json_rejects_malformed_entries(obj, message):
    with pytest.raises(ValueError, match=message):
        formats.betti_from_json(obj)


# ---------------------------------------------------------------- CLI


def test_cli_validate(tmp_path, capsys):
    path = cfg(tmp_path, {"rows": 1, "cols": 1, "points": [[0, 0]]})
    code, out, err = run_cli(capsys, "validate", path, "--format", "json")
    assert code == 0 and json.loads(out)["valid"] is True


def test_cli_validate_reports_empty_line(tmp_path, capsys):
    path = cfg(tmp_path, {"rows": 2, "cols": 1, "points": [[0, 0]]})
    code, out, err = run_cli(capsys, "validate", path, "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"]
    assert json.loads(err)["error"] == "InvalidGrid"


def test_cli_hilbert_window(tmp_path, capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "hilbert", str(fixtures_dir / "single_point.json"),
                           "--window", "3", "3")
    assert code == 0
    rows = [l.split()[1:] for l in out.strip().splitlines()[1:]]
    assert rows == [["1"] * 4] * 4


def test_cli_oracle_window_does_not_widen_value_spaces(capsys, fixtures_dir, monkeypatch):
    # --window only clamps what is printed; the oracle eliminates the value
    # spaces on the grid's own index range and reports on (nr+1, nc+1),
    # whose matrix is stable
    built = []

    class Recording(oracle._Spaces):
        def __init__(self, grid, field):
            super().__init__(grid, field)
            built.append(set(self.ech))

    path = fixtures_dir / "e3_Z.json"
    grid = formats.load_configuration(path)
    base = oracle.hilbert_oracle(grid)
    monkeypatch.setattr(oracle, "_Spaces", Recording)
    code, out, _ = run_cli(capsys, "hilbert", str(path), "--oracle",
                           "--window", "40", "40", "--format", "json")
    nr, nc = grid.shape
    assert code == 0 and built == [{(u, v) for u in range(nr) for v in range(nc)}]
    wi, wj = base.window
    assert (wi, wj) == (nr + 1, nc + 1)
    clamped = base.entries[np.minimum(np.arange(41), wi)][:, np.minimum(np.arange(41), wj)]
    assert json.loads(out)["entries"] == clamped.tolist()


def test_cli_hilbert_non_acm_needs_oracle(tmp_path, capsys):
    path = cfg(tmp_path, {"rows": 2, "cols": 2, "points": [[0, 0], [1, 1]]})
    code, _, err = run_cli(capsys, "hilbert", path)
    assert code == 2 and json.loads(err)["error"] == "NotACM"
    code, out, _ = run_cli(capsys, "hilbert", path, "--oracle", "--format", "json")
    assert code == 0 and json.loads(out)["entries"][0][0] == 1


def test_cli_delta_figure(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "delta", str(fixtures_dir / "e3_Z.json"),
                           "--oracle", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [[1, 1, 1, 1], [1, 1, -1, -1]]


def test_cli_classify(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "classify", str(fixtures_dir / "e1_X.json"),
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["acm"] is True
    interior = {tuple(p["position"]) for p in obj["points"] if p["kind"] == "interior"}
    assert {(0, 4), (1, 3), (2, 1), (3, 2), (4, 0)} <= interior
    assert sorted(map(tuple, obj["corners"])) == sorted([(6, 0), (5, 2), (4, 3), (3, 5), (0, 7)])


def test_cli_classify_non_acm(tmp_path, capsys):
    path = cfg(tmp_path, {"rows": 2, "cols": 2, "points": [[0, 0], [1, 1]]})
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 2
    assert "ACM: no" in out
    assert json.loads(err)["error"] == "NotACM"


def test_cli_resolution_verify_match(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                           "--plan", str(fixtures_dir / "e1_plan.json"), "--verify")
    assert code == 0 and "verification: MATCH" in out


def test_cli_resolution_methods_agree(capsys, fixtures_dir):
    outputs, separators = [], []
    for method in ("combinatorial", "delta", "oracle"):
        code, out, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                               "--remove", "0,4", "1,3", "2,1", "3,2", "4,0",
                               "--separators", "--method", method, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        table, source = formats.betti_from_json(obj)
        outputs.append(table.counters())
        separators.append(obj["separators"])
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(separators[0]) == 5 and separators[0] == separators[1] == separators[2]


def test_cli_resolution_collinear_exit3(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--remove", "0,0", "0,1")
    assert code == 3
    obj = json.loads(err)
    assert obj["error"] == "CollinearRemoval" and "R_0" in obj["message"]


def test_cli_resolution_repeated_remove_flags_accumulate(capsys, fixtures_dir):
    # a repeated --remove must not silently drop earlier points
    code, _, err = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--remove", "0,0", "--remove", "0,1")
    assert code == 3
    assert json.loads(err)["error"] == "CollinearRemoval"


def test_cli_resolution_point_in_remove_and_plan_exit1(capsys, fixtures_dir):
    # a point given by --remove and again by the plan is a bad plan, not a
    # collinear pair
    code, out, err = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                             "--remove", "0,4", "--plan", str(fixtures_dir / "e1_plan.json"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "PointNotInScheme",
                               "message": "point (0,4) is listed twice in the plan"}


def test_cli_resolution_not_interior_exit3(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--remove", "1,1")
    assert code == 3 and json.loads(err)["error"] == "NotInterior"


def ghost_delta(monkeypatch):
    """Makes the CLI's Delta M route add a ghost pair R(-3,-4) to beta0 and beta1."""
    import biproj.cli

    real = biproj.cli.betti_from_delta

    def ghost(D):
        b0, b1, b2 = real(D).counters()
        b0[(3, 4)] += 1
        b1[(3, 4)] += 1
        return BettiTable.make(b0, b1, b2)

    monkeypatch.setattr(biproj.cli, "betti_from_delta", ghost)


def test_cli_resolution_mismatch_exit4(capsys, fixtures_dir, monkeypatch):
    ghost_delta(monkeypatch)
    code, out, err = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                             "--plan", str(fixtures_dir / "e1_plan.json"),
                             "--method", "delta", "--verify")
    assert code == 4
    assert "verification: MISMATCH" in out
    assert json.loads(err)["error"] == "VerificationMismatch"


def test_cli_resolution_inconsistency_exit4(capsys, fixtures_dir, monkeypatch):
    from biproj import resolution

    monkeypatch.setattr(resolution, "check_mapping_cone_conditions",
                        lambda table, r, s: resolution.ConditionReport((r, s), (), ((r + 1, s + 1),)))
    code, _, err = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                           "--plan", str(fixtures_dir / "e1_plan.json"))
    assert code == 4
    assert json.loads(err)["error"] == "ResolutionInconsistency"


def test_cli_resolution_separators(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--remove", "0,1", "--separators", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["separators"] == [
        {"point": [0, 1], "degree": [1, 3], "lines": ["R_1", "C_0", "C_2", "C_3"]}]
    assert obj["certified_conditions"][0]["ok"] is True


@pytest.mark.parametrize("plan", [
    {"points": 5},
    [[1, 1]],
    {"points": [[1]]},
    {"points": [[True, 1]]},
    {"points": ["11"]},
    {},
])
def test_cli_resolution_bad_plan_file(tmp_path, capsys, fixtures_dir, plan):
    code, out, err = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                             "--plan", cfg(tmp_path, plan, "plan.json"))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidGrid"


@pytest.mark.parametrize("argv", [
    ("hilbert", "e3_X.json", "--window", "-1", "-1"),
    ("delta", "e3_X.json", "--window", "2", "-1"),
    ("fuzz", "--cases", "-3"),
    ("fuzz", "--max-rows", "-1"),
    ("fuzz", "--max-cols", "-2"),
    ("fuzz", "--max-removals", "-1"),
    ("fuzz", "--max-rows", "0"),
    ("fuzz", "--max-cols", "0"),
])
def test_cli_negative_counts_are_usage_errors(capsys, fixtures_dir, argv):
    option, value = next(a for a in argv if a.startswith("--")), argv[-1]
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "UsageError"
    problem = "negative" if value.startswith("-") else "below 1"
    assert obj["message"].startswith("argument %s: %s is %s" % (option, value, problem))


@pytest.mark.parametrize("argv", [
    ("hilbert", "e3_X.json", "--window", "3000", "3000"),
    ("delta", "e3_X.json", "--oracle", "--window", "0", "1048576"),
])
def test_cli_window_past_grid_cap_is_usage_error(capsys, fixtures_dir, argv):
    # (I+1)(J+1) cells may not exceed grid.MAX_GRID_CELLS = 2^20
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "UsageError"
    assert obj["message"].startswith("argument --window: %s %s spans" % tuple(argv[-2:]))
    assert obj["message"].endswith("expected at most %d" % MAX_GRID_CELLS)


def test_cli_table_equals_json(capsys, fixtures_dir):
    code, oj, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                          "--format", "json")
    code2, ot, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"))
    t_json, _ = formats.betti_from_json(json.loads(oj))
    t_text = formats.parse_betti_text(ot)
    assert t_json.counters() == t_text.counters()


def test_cli_single_point_resolution(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "resolution", str(fixtures_dir / "single_point.json"))
    assert code == 0
    assert "beta0: R(-1,0) (+) R(0,-1)" in out
    assert "beta1: R(-1,-1)" in out


def test_cli_bad_inputs(tmp_path, capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "hilbert", str(tmp_path / "missing.json"))
    assert code == 1
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "hilbert", str(path))
    assert code == 1
    code, _, _ = run_cli(capsys, "hilbert")  # missing argument: usage error
    assert code == 1
    # --seed belongs to fuzz alone
    code, out, err = run_cli(capsys, "validate", str(fixtures_dir / "e1_X.json"), "--seed", "3")
    assert code == 1 and out == "" and json.loads(err)["error"] == "UsageError"
    code, _, _ = run_cli(capsys, "resolution", str(path), "--method", "nonsense")
    assert code == 1


def test_cli_field_selection(capsys, fixtures_dir, monkeypatch):
    code, out, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--verify", "--field", "prime:101")
    assert code == 0 and "MATCH" in out
    code, _, err = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--field", "float",)
    assert code == 1
    code, out, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e3_X.json"),
                           "--verify", env={"BIPROJ_FIELD": "rationals"},
                           monkeypatch=monkeypatch)
    assert code == 0 and "MATCH" in out
    code, _, _ = run_cli(capsys, "validate", str(fixtures_dir / "e3_X.json"),
                         env={"BIPROJ_FIELD": "bogus"}, monkeypatch=monkeypatch)
    assert code == 1


@pytest.mark.parametrize("modulus", ["1", "4", "9"])
def test_cli_bad_modulus(capsys, fixtures_dir, modulus):
    code, _, err = run_cli(capsys, "validate", str(fixtures_dir / "e1_X.json"),
                           "--field", "prime:" + modulus)
    assert code == 1
    assert json.loads(err)["error"] == "BadField"


@pytest.mark.parametrize("modulus", ["101", "65537"])
def test_cli_good_modulus(capsys, fixtures_dir, modulus):
    code, out, _ = run_cli(capsys, "hilbert", str(fixtures_dir / "e3_Z.json"),
                           "--oracle", "--field", "prime:" + modulus)
    assert code == 0 and out


@pytest.mark.parametrize("extra, calls", [((), 1), (("--field", "prime"), 2)])
def test_cli_mismatch_rechecks_only_prime(capsys, fixtures_dir, monkeypatch, extra, calls):
    # e1_Z has 26 points, so auto picks the rationals: nothing to recheck
    import biproj.oracle

    ghost_delta(monkeypatch)
    fields = []
    real = biproj.oracle.betti_oracle

    def counting(grid, field=None, **kw):
        fields.append(field)
        return real(grid, field, **kw)

    monkeypatch.setattr(biproj.oracle, "betti_oracle", counting)
    code, _, _ = run_cli(capsys, "resolution", str(fixtures_dir / "e1_X.json"),
                         "--plan", str(fixtures_dir / "e1_plan.json"),
                         "--method", "delta", "--verify", *extra)
    assert code == 4
    assert len(fields) == calls
    assert fields[-1].kind == "rationals"


@pytest.mark.parametrize("extra", [
    ("e1_X.json",), ("e1_X.json", "--plan", "e1_plan.json"), ("e3_Z.json", "--field", "prime"),
], ids=["e1_X", "e1_X-plan", "e3_Z-prime"])
def test_cli_oracle_verify_runs_the_oracle_once(capsys, fixtures_dir, monkeypatch, extra):
    # --method oracle prints the oracle's table, so it is its own reference
    import biproj.oracle

    calls = []
    real = biproj.oracle.betti_oracle

    def counting(grid, field=None, **kw):
        calls.append(field)
        return real(grid, field, **kw)

    monkeypatch.setattr(biproj.oracle, "betti_oracle", counting)
    monkeypatch.chdir(fixtures_dir)
    code, out, _ = run_cli(capsys, "resolution", *extra, "--method", "oracle", "--verify")
    assert code == 0 and "verification: MATCH" in out
    assert len(calls) == 1


def test_cli_fuzz_seeded(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "11", "--cases", "8",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["cases"] == 8 and obj["failures"] == []


def test_cli_fuzz_checks_delta_route_on_x(capsys, monkeypatch):
    # one-row staircases have no interior points, so only the empty plan runs
    ghost_delta(monkeypatch)
    code, out, err = run_cli(capsys, "fuzz", "--seed", "7", "--cases", "3",
                             "--max-rows", "1", "--format", "json")
    assert code == 4
    assert len(json.loads(out)["failures"]) == 3
    assert json.loads(err)["error"] == "VerificationMismatch"


# Outside the paper's class, whose Delta M table gains a ghost R(-3,-4) in
# beta0 and beta1; the oracle resolution has none.
P17 = {"rows": 5, "cols": 6, "points": [
    [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 0], [1, 1], [1, 4], [1, 5],
    [2, 3], [2, 4], [3, 0], [3, 1], [3, 2], [3, 4], [4, 1], [4, 4]]}


def non_acm_corpus(n, seed=5):
    """n random valid non-ACM configurations on grids up to 6x6."""
    from biproj.grid import PointGrid, is_acm

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        nr, nc = (int(x) for x in rng.integers(2, 7, size=2))
        pts = [(i, j) for i in range(nr) for j in range(nc) if rng.random() < 0.6]
        g = PointGrid.from_points(nr, nc, pts)
        if min(g.row_counts()) and min(g.col_counts()) and not is_acm(g):
            out.append({"rows": nr, "cols": nc, "points": [list(p) for p in pts]})
    return out


def test_cli_delta_refuses_non_acm_without_plan(tmp_path, capsys):
    configs = [P17] + non_acm_corpus(296)
    for k, obj in enumerate(configs):
        path = cfg(tmp_path, obj, "x%d.json" % k)
        for extra in ((), ("--verify", "--format", "json")):
            code, out, err = run_cli(capsys, "resolution", path, "--method", "delta", *extra)
            assert (code, out) == (2, ""), obj
            assert json.loads(err) == {"error": "NotACM",
                                       "message": "configuration is not ACM"}


def test_cli_oracle_answers_non_acm(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "resolution", cfg(tmp_path, P17),
                           "--method", "oracle", "--format", "json")
    assert code == 0
    table, source = formats.betti_from_json(json.loads(out))
    assert source == "oracle"
    b0, b1, _ = table.counters()
    assert b0[(3, 4)] == b1[(3, 4)] == 0
    assert table.counters() == oracle.betti_oracle(formats.parse_configuration(P17)).counters()


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # in process, so a public name the demos use cannot vanish unseen
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_commands_exit_0(capsys, monkeypatch):
    import shlex

    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("biproj ")]
    assert len(commands) >= 5
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out
