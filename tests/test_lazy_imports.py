"""numpy loads only behind the oracle, and dataclasses and inspect never.

Each check runs in a fresh interpreter, because the test process itself
has imported the oracle (and numpy) long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prints {step: [exit code or None, then whether numpy, dataclasses and
# inspect are loaded after the step]}
PROBE = """
import contextlib, io, json, sys
steps = {}
def loaded():
    return [name in sys.modules for name in ("numpy", "dataclasses", "inspect")]
import biproj, biproj.formats
steps["import biproj, biproj.formats"] = [None] + loaded()
from biproj import cli
steps["import biproj.cli"] = [None] + loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    json.loads(out.getvalue())
    steps[" ".join(argv)] = [code] + loaded()
print(json.dumps(steps))
"""

X, PLAN = "fixtures/e1_X.json", "fixtures/e1_plan.json"

# the combinatorial commands of the cli_commands benchmark workload
COMBINATORIAL = [
    ["validate", X],
    ["classify", X],
    ["hilbert", X],
    ["delta", X],
    ["resolution", X, "--plan", PLAN, "--separators"],
]


def _run(code, *args):
    """The last stdout line, as JSON, of `python -c code args` run from the root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BIPROJ_FIELD", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _probe_modules(commands):
    """{step: [exit code or None, numpy, dataclasses, inspect loaded]}"""
    return _run(PROBE, json.dumps([argv + ["--format", "json"] for argv in commands]))


def _probe(commands):
    """{step: [exit code or None, numpy loaded]}"""
    return {step: seen[:2] for step, seen in _probe_modules(commands).items()}


def test_combinatorial_commands_never_load_numpy():
    steps = _probe(COMBINATORIAL)
    assert len(steps) == 2 + len(COMBINATORIAL)
    assert all(code in (None, 0) and not loaded for code, loaded in steps.values()), steps


def test_records_never_load_dataclasses_or_inspect():
    # the records are namedtuples; dataclasses would also load inspect,
    # ast, dis and tokenize into every start
    steps = _probe_modules(COMBINATORIAL)
    assert len(steps) == 2 + len(COMBINATORIAL)
    assert all(seen[2:] == [False, False] for seen in steps.values()), steps


@pytest.mark.parametrize("argv", [
    ["resolution", X, "--plan", PLAN, "--verify"],
    ["hilbert", "fixtures/e3_Z.json", "--oracle"],
    ["validate", X, "--field", "prime"],
], ids=["verify", "oracle", "field-prime"])
def test_oracle_paths_load_numpy_and_answer(argv):
    steps = _probe([argv])
    assert steps[" ".join(argv + ["--format", "json"])] == [0, True]


def test_package_names_load_the_oracle_on_first_use():
    got = _run("""
import json, sys, biproj
out = {"numpy": "numpy" in sys.modules, "dir": set(biproj.__all__) <= set(dir(biproj))}
star = {}
exec("from biproj import *", star)
out["star"] = sorted(set(star) - {"__builtins__"}) == biproj.__all__
from biproj import fields, oracle
out["same"] = biproj.betti_oracle is oracle.betti_oracle and biproj.QQ is fields.QQ
out["lazy"] = [n for n in ("fields", "oracle", "QQ", "drop_sets") if n not in biproj.__all__]
print(json.dumps(out))
""")
    assert got == {"numpy": False, "dir": True, "star": True, "same": True, "lazy": []}
