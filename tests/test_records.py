"""The eleven record types are namedtuples with the frozen-record contract."""

import json
import pickle

import pytest

from biproj import formats
from biproj.errors import InvalidGrid, InvalidMatrix
from biproj.grid import PointGrid, classify_points, derived, normalize, validate
from biproj.hilbert import delta, hilbert_acm
from biproj.resolution import remove_points

from conftest import FIXTURES


def _e1_records():
    """One record of each type, from e1_X and the removal of e1_plan."""
    X = formats.load_configuration(FIXTURES / "e1_X.json")
    plan = formats.parse_plan(json.loads((FIXTURES / "e1_plan.json").read_text()))
    res = remove_points(X, plan)
    return {
        "PointGrid": X,
        "ValidationReport": validate(X),
        "NormalizedGrid": normalize(X),
        "PointClass": classify_points(X)[0],
        "HilbertMatrix": hilbert_acm(X),
        "DeltaMatrix": delta(res.hilbert),
        "BettiTable": res.betti,
        "Separator": res.separators[0],
        "ConditionReport": res.conditions[0],
        "RemovalPlan": res.plan,
        "RemovalResult": res,
    }


RECORDS = _e1_records()

# a field value each validating type must reject through _replace
BAD = {
    "PointGrid": ("row_params", 5, InvalidGrid),
    "HilbertMatrix": ("degree", RECORDS["HilbertMatrix"].degree + 1, InvalidMatrix),
    "DeltaMatrix": ("rows", ((1, 0), (1,)), InvalidMatrix),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_contract(name):
    r = RECORDS[name]
    cls = type(r)
    assert cls.__name__ == name
    values = [getattr(r, f) for f in cls._fields]
    assert cls(*values) == r == cls(**dict(zip(cls._fields, values)))
    with pytest.raises(AttributeError):
        setattr(r, cls._fields[0], values[0])
    assert hash(r) == hash(tuple(values))
    assert repr(r) == "%s(%s)" % (
        name, ", ".join("%s=%r" % (f, v) for f, v in zip(cls._fields, values)))
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back == r
    assert r._replace() == r
    # only PointGrid keeps an instance __dict__, for the memo of `derived`
    assert hasattr(r, "__dict__") == (name == "PointGrid")
    if name in BAD:
        field, value, error = BAD[name]
        with pytest.raises(error):
            r._replace(**{field: value})
        with pytest.raises(error):
            cls._make(value if f == field else v for f, v in zip(cls._fields, values))
    if name == "PointGrid":
        fresh = PointGrid(*values)
        seen = (repr(fresh), hash(fresh))
        assert derived(fresh, "probe", lambda g: [g.npoints]) == [len(r.points())]
        assert "_derived" in fresh.__dict__
        assert fresh == r and (repr(fresh), hash(fresh)) == seen
