"""Golden CLI transcripts: every subcommand's exit code, stdout and stderr.

tests/data/cli_golden.json holds one entry per command: its argv and the
exit code, stdout and stderr cli.main produced when the file was made.
Fixture paths are relative to the repository root; "{tmp}/<name>.json" is
the MALFORMED configuration <name>, written to a temporary directory.
Regenerate the file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from biproj.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

_GOOD = {"rows": 2, "cols": 2, "points": [[0, 0], [0, 1], [1, 0]]}

# configurations outside the contract; each is written to {tmp}/<name>.json
MALFORMED = {
    "bool_param": {**_GOOD, "row_params": [0, True]},
    "zero_denominator": {**_GOOD, "col_params": ["1/0", 1]},
    "bad_string": {**_GOOD, "col_params": ["a", 1]},
    "duplicate_params": {**_GOOD, "row_params": [3, "3"]},
    "too_few_params": {**_GOOD, "col_params": [0]},
    "float_param": {**_GOOD, "row_params": [0, 1.5]},
    "params_not_array": {**_GOOD, "row_params": "01"},
    "empty_scheme": {"rows": 2, "cols": 2, "points": []},
    "empty_line": {"rows": 3, "cols": 2, "points": [[0, 0], [0, 1], [1, 0]]},
    "zero_rows": {"rows": 0, "cols": 2, "points": []},
    "point_outside": {**_GOOD, "points": [[0, 0], [2, 0]]},
    "duplicate_point": {**_GOOD, "points": [[0, 0], [0, 0]]},
    "over_cap": {"rows": 2**11, "cols": 2**10, "points": []},
    # two faults at once: the order of the checks decides the message
    "zero_rows_bad_param": {"rows": 0, "cols": 2, "points": [], "col_params": ["a", 1]},
    "outside_bool_param": {**_GOOD, "points": [[5, 5]], "row_params": [True, 1]},
    "float_then_bool": {**_GOOD, "row_params": [1.5, True]},
    "bool_then_float": {**_GOOD, "row_params": [True, 1.5]},
    "few_rows_duplicate_cols": {**_GOOD, "row_params": [0], "col_params": [1, 1]},
}


def _cases():
    fx = {name: "fixtures/%s.json" % name
          for name in ("e1_X", "e1_Z", "e3_X", "e3_Z", "single_point")}
    plan = "fixtures/e1_plan.json"
    cases = []

    def add(*argv, formats=("json", "table")):
        for fmt in formats:
            cases.append(list(argv) + ["--format", fmt])

    for path in fx.values():
        add("validate", path)
        add("classify", path)
        for cmd in ("hilbert", "delta"):
            add(cmd, path)
            add(cmd, path, "--oracle")
            add(cmd, path, "--window", "2", "3")
        add("resolution", path)
    for cmd in ("hilbert", "delta"):
        add(cmd, fx["e3_Z"], "--oracle", "--window", "3", "1")
        add(cmd, fx["single_point"], "--oracle", "--field", "prime:2")
    for method in ("combinatorial", "delta", "oracle"):
        add("resolution", fx["e3_X"], "--method", method)
        add("resolution", fx["e1_X"], "--plan", plan, "--method", method,
            *(["--separators"] if method == "combinatorial" else []))
        add("resolution", fx["e3_Z"], "--method", method)
        add("resolution", fx["single_point"], "--method", method, "--verify")
    add("resolution", fx["e1_X"], "--plan", plan, "--verify")
    add("resolution", fx["e1_X"], "--plan", plan, "--method", "oracle", "--verify")
    add("resolution", fx["e1_X"], "--remove", "2,1", "--separators", "--verify")
    add("resolution", fx["e3_X"], "--verify")
    add("resolution", fx["e3_X"], "--method", "delta", "--verify",
        "--field", "prime")
    add("resolution", fx["e3_Z"], "--method", "oracle", "--verify",
        "--field", "prime")
    add("resolution", fx["e3_X"], "--verify", "--field", "prime:2")
    add("resolution", fx["single_point"], "--method", "oracle", "--field", "prime:2")
    add("resolution", fx["e3_X"], "--remove", "0,0", "1,1")
    add("resolution", fx["e3_X"], "--remove", "0,3")
    add("resolution", fx["e3_X"], "--remove", "5,5")
    add("resolution", fx["e3_X"], "--remove", "x")
    add("resolution", fx["e3_X"], "--field", "nonsense")
    add("hilbert", fx["e3_X"], "--window", "-1", "0")
    add("resolution", "fixtures/missing.json")
    for seed, fmt in (("7", "json"), ("11", "table"), ("3", "json")):
        add("fuzz", "--seed", seed, "--cases", "10", formats=(fmt,))
    for name in MALFORMED:
        path = "{tmp}/%s.json" % name
        add("validate", path)
        add("resolution", path, "--method", "oracle", formats=("json",))
    return cases


def write_malformed(tmp):
    for name, obj in MALFORMED.items():
        (Path(tmp) / ("%s.json" % name)).write_text(json.dumps(obj))


def run_case(argv, tmp):
    """cli.main(argv) with "{tmp}" read as tmp; outputs read tmp as "{tmp}"."""
    argv = [a.replace("{tmp}", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code,
            "stdout": out.getvalue().replace(tmp, "{tmp}"),
            "stderr": err.getvalue().replace(tmp, "{tmp}")}


def _load():
    if __name__ == "__main__":
        return []  # regenerating: the old file may be missing
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("malformed")
    write_malformed(tmp)
    return str(tmp)


@pytest.mark.parametrize("case", _load(), ids=lambda c: " ".join(c["argv"]))
def test_cli_matches_golden(case, malformed_dir, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("BIPROJ_FIELD", raising=False)
    got = run_case(case["argv"], malformed_dir)
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("BIPROJ_FIELD", None)
    golden = []
    with tempfile.TemporaryDirectory() as tmp:
        write_malformed(tmp)
        for argv in _cases():
            golden.append({"argv": argv, **run_case(argv, tmp)})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(c) for c in golden))
    print("%d cases -> %s (%d bytes)" % (len(golden), GOLDEN, GOLDEN.stat().st_size),
          file=sys.stderr)
