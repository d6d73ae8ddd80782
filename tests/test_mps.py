import math
import re
import warnings

import pytest

from tepkit.milp import build_tep_model
from tepkit.model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Model,
    Variable,
    models_equivalent,
)
from tepkit.mps import MpsFormatError, export_lp, export_mps, import_mps
from tepkit.solver import solve_milp

from conftest import three_bus_net, unit_params

TINY = Model(name="tiny",
             variables=(Variable("x", CONTINUOUS, 0.0, 2.0),),
             constraints=(Constraint("c", (("x", 1.0),), SENSE_LE, 1.5),),
             objective_terms=(("x", -1.0),))

TINY_MPS = (
    "NAME          tiny\n"
    "ROWS\n"
    " N  COST\n"
    " L  c\n"
    "COLUMNS\n"
    "    x         COST      -1.0\n"
    "    x         c         1.5\n"
    "RHS\n"
    "    RHS       c         1.5\n"
    "BOUNDS\n"
    " UP BND       x         2.0\n"
    "ENDATA\n"
)


def test_export_layout_is_pinned():
    expected = TINY_MPS.replace("c         1.5\nRHS", "c         1.0\nRHS")
    assert export_mps(TINY) == expected


def test_export_orphan_binary_gets_a_zero_objective_entry():
    orphan = Model(name="orph",
                   variables=(Variable("y", BINARY, 0.0, 1.0),),
                   constraints=(), objective_terms=())
    assert export_mps(orphan) == (
        "NAME          orph\n"
        "ROWS\n"
        " N  COST\n"
        "COLUMNS\n"
        "    MK000000  'MARKER'                 'INTORG'\n"
        "    y         COST      0.0\n"
        "    MK000001  'MARKER'                 'INTEND'\n"
        "RHS\n"
        "BOUNDS\n"
        " BV BND       y\n"
        "ENDATA\n"
    )


def test_round_trip_preserves_the_model():
    net = three_bus_net()
    model, _ = build_tep_model(net, unit_params(net), 1.0)
    text = export_mps(model)
    back = import_mps(text)
    assert models_equivalent(model, back, tol=1e-12)
    assert back.name == model.name
    assert export_mps(back) == text  # re-export is byte-identical
    a = solve_milp(model)
    b = solve_milp(back)
    assert b.objective == pytest.approx(a.objective, rel=1e-12)


# every bound shape the writers tell apart, and an objective constant
SHAPES = Model(
    name="shapes",
    variables=(
        Variable("free", CONTINUOUS, -math.inf, math.inf),
        Variable("lowneg", CONTINUOUS, -3.5, math.inf),
        Variable("low2", CONTINUOUS, 2.0, math.inf),
        Variable("upper5", CONTINUOUS, -math.inf, 5.0),
        Variable("upneg", CONTINUOUS, -math.inf, -3.0),
        Variable("boxed", CONTINUOUS, 1.25, 7.5),
        Variable("fixed", CONTINUOUS, 2.0, 2.0),
        Variable("plain", CONTINUOUS, 0.0, math.inf),
        Variable("b", BINARY, 0.0, 1.0),
    ),
    constraints=(
        Constraint("r1", (("free", 1.0), ("boxed", -2.0)), SENSE_GE, -4.0),
        Constraint("r2", (("lowneg", 1.0), ("b", 3.0)), SENSE_EQ, 0.5),
        Constraint("r3", (("low2", 1.0), ("upper5", 1.0), ("upneg", -1.0)), SENSE_LE, 9.0),
    ),
    objective_terms=(("free", 1.0), ("fixed", -1.0), ("b", 2.5)),
    objective_constant=12.75,
)


def test_round_trip_bound_shapes_and_constant():
    back = import_mps(export_mps(SHAPES))
    assert models_equivalent(SHAPES, back, tol=1e-12)
    assert back.objective_constant == 12.75
    shapes = {v.name: (v.lower, v.upper) for v in back.variables}
    assert shapes["free"] == (-math.inf, math.inf)
    assert shapes["lowneg"] == (-3.5, math.inf)
    assert shapes["low2"] == (2.0, math.inf)
    assert shapes["upper5"] == (-math.inf, 5.0)
    assert shapes["upneg"] == (-math.inf, -3.0)
    assert shapes["fixed"] == (2.0, 2.0)
    assert shapes["plain"] == (0.0, math.inf)


def test_reader_accepts_external_habits():
    text = """\
* hand-written, two pairs per data line, mixed bound codes
NAME          ext
ROWS
 N  obj
 L  r1
 G  r2
 E  r3
COLUMNS
    x1        obj       1.0        r1        2.0
    x1        r2        1.0
    x2        obj       -3.0       r1        1.0
    x2        r3        1.0
    MK0       'MARKER'  'INTORG'
    yb        obj       5.0        r3        1.0
    MK1       'MARKER'  'INTEND'
    x3        r2        1.0
RHS
    rhs       r1        10.0       r2        1.0
    rhs       r3        1.0
BOUNDS
 LO bnd       x1        -1.0
 UP bnd       x1        4.0
 FR bnd       x3
 BV bnd       yb
 PL bnd       x2
ENDATA
"""
    model = import_mps(text)
    assert model.name == "ext"
    shapes = {v.name: (v.kind, v.lower, v.upper) for v in model.variables}
    assert shapes["x1"] == (CONTINUOUS, -1.0, 4.0)
    assert shapes["x2"] == (CONTINUOUS, 0.0, math.inf)
    assert shapes["x3"] == (CONTINUOUS, -math.inf, math.inf)
    assert shapes["yb"] == (BINARY, 0.0, 1.0)
    rows = {c.name: c for c in model.constraints}
    assert dict(rows["r1"].terms) == {"x1": 2.0, "x2": 1.0}
    assert rows["r2"].sense == SENSE_GE and rows["r2"].rhs == 1.0
    assert dict(rows["r3"].terms) == {"x2": 1.0, "yb": 1.0}
    # x2 = 1 - yb, so push yb to 0 and park x1 at its lower bound
    sol = solve_milp(model)
    assert sol.objective == pytest.approx(-4.0)
    assert round(sol.values["yb"]) == 0


def test_long_names_are_written_whole():
    row, col = "r" * 20, "x" * 20
    model = Model(
        name="longnames",
        variables=(Variable(col, CONTINUOUS, 0.0, 1.0),
                   Variable("y" * 20, BINARY, 0.0, 1.0)),
        constraints=(Constraint(row, ((col, 1.0), ("y" * 20, -2.0)), SENSE_LE, 0.5),),
        objective_terms=((col, 1.0),),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = export_mps(model)
    assert f"    {col} {row} 1.0\n" in text
    assert f" UP BND       {col} 1.0\n" in text
    assert models_equivalent(model, import_mps(text), tol=0.0)


def test_rows_and_columns_are_separate_namespaces():
    column = Model(name="m", variables=(Variable("COST", CONTINUOUS, 0.0, 1.0),),
                   constraints=(Constraint("c", (("COST", 1.0),), SENSE_LE, 1.0),),
                   objective_terms=(("COST", -1.0),))
    assert models_equivalent(column, import_mps(export_mps(column)), tol=0.0)
    row = Model(name="m", variables=(Variable("x", CONTINUOUS, 0.0, 1.0),),
                constraints=(Constraint("COST", (("x", 1.0),), SENSE_LE, 1.0),),
                objective_terms=(("x", -1.0),))
    with pytest.raises(MpsFormatError, match="row name 'COST' is taken by the objective"):
        export_mps(row)


@pytest.mark.parametrize("var, row, name, message", [
    ("a b", "c", "m", "variable name 'a b'"),
    ("", "c", "m", "variable name ''"),
    ("x", "c\td", "m", "row name 'c\\td'"),
    ("x", "", "m", "row name ''"),
    ("x", "c", "my model", "model name 'my model'"),
    # MPS reads a line that starts with '*' as a comment: these used to be
    # written, and read back as unknown columns or rows
    ("*x", "c", "m", "variable name '*x'"),
    ("x", "*c", "m", "row name '*c'"),
], ids=["variable-space", "variable-empty", "row-tab", "row-empty", "model-space",
        "variable-star", "row-star"])
def test_writers_refuse_names_the_formats_cannot_hold(var, row, name, message):
    model = Model(name=name, variables=(Variable(var, CONTINUOUS, 0.0, 1.0),),
                  constraints=(Constraint(row, ((var, 1.0),), SENSE_LE, 1.0),),
                  objective_terms=((var, 1.0),))
    with pytest.raises(MpsFormatError, match=re.escape(message)):
        export_mps(model)
    if name == "m":
        with pytest.raises(MpsFormatError, match=re.escape(message)):
            export_lp(model)
    else:  # the LP format writes the model name in a comment
        export_lp(model)


@pytest.mark.parametrize("text, message", [
    ("NAME x\nROWS\n N  COST\nRANGES\nENDATA\n", "RANGES"),
    ("NAME x\nFOO\nENDATA\n", "unknown section"),
    ("NAME x\nROWS\n N  a\n N  b\nENDATA\n", "multiple objective rows"),
    ("NAME x\nROWS\n N\nENDATA\n", "bad ROWS entry"),
    ("NAME x\nROWS\n X  r\nENDATA\n", "unknown row type"),
    ("NAME x\nROWS\n N  COST\n L  r\n L  r\nENDATA\n", "duplicate row"),
    ("NAME x\nROWS\n N  COST\nCOLUMNS\n    x  COST\nENDATA\n",
     "bad COLUMNS entry"),
    ("NAME x\nROWS\n N  COST\nCOLUMNS\n    x  other  1.0\nENDATA\n",
     "unknown row"),
    ("NAME x\nROWS\n N  COST\nCOLUMNS\n    x  COST  zero\nENDATA\n",
     "bad numeric value"),
    ("NAME x\nROWS\n N  COST\nRHS\n    RHS  r\nENDATA\n", "bad RHS entry"),
    ("NAME x\nROWS\n N  COST\nBOUNDS\n UP BND  ghost  1.0\nENDATA\n",
     "unknown column"),
    ("NAME x\nROWS\n N  COST\nCOLUMNS\n    x  COST  1.0\nBOUNDS\n"
     " UI BND  x  3\nENDATA\n", "only binaries"),
    ("NAME x\nROWS\n N  COST\nCOLUMNS\n    x  COST  1.0\nBOUNDS\n"
     " XX BND  x  3\nENDATA\n", "unknown bound code"),
    ("NAME x\n    stray  data  1.0\nENDATA\n", "before any section"),
    ("NAME x\nENDATA\n", "missing ROWS"),
    ("NAME x\nROWS\n L  r\nENDATA\n", "missing objective"),
])
def test_reader_rejects_malformed_input(text, message):
    with pytest.raises(MpsFormatError, match=message):
        import_mps(text)


@pytest.mark.parametrize("line, old, new", [
    (7, "c         1.5\nRHS", "c         nan\nRHS"),
    (9, "c         1.5\nBOUNDS", "c         NaN\nBOUNDS"),
    (11, "x         2.0", "x         nan"),
], ids=["coefficient", "rhs", "bound"])
def test_reader_refuses_nan_naming_its_line(line, old, new):
    # a NaN upper bound once read back as a model solve_milp called optimal
    text = TINY_MPS.replace(old, new)
    assert text != TINY_MPS
    with pytest.raises(MpsFormatError, match=f"line {line}: bad numeric value"):
        import_mps(text)


def test_reader_rejects_non_binary_integer_bounds():
    text = (
        "NAME x\nROWS\n N  COST\nCOLUMNS\n"
        "    M  'MARKER'  'INTORG'\n"
        "    y  COST  1.0\n"
        "    M  'MARKER'  'INTEND'\n"
        "BOUNDS\n UP BND  y  2.0\nENDATA\n"
    )
    with pytest.raises(MpsFormatError, match="must be binary"):
        import_mps(text)


def test_export_lp_layout():
    model = Model(
        name="lpdemo",
        variables=(Variable("x", CONTINUOUS, -1.0, 4.0),
                   Variable("y", BINARY, 0.0, 1.0)),
        constraints=(Constraint("r", (("x", 1.0), ("y", -2.0)), SENSE_LE, 3.0),),
        objective_terms=(("x", 1.5), ("y", -2.0)),
        objective_constant=7.0,
    )
    text = export_lp(model)
    lines = text.splitlines()
    assert lines[0] == "\\ model lpdemo"
    assert " obj: 1.5 x - 2.0 y + 7.0" in lines
    assert " r: 1.0 x - 2.0 y <= 3.0" in lines
    assert " -1.0 <= x <= 4.0" in lines
    assert "Binaries" in lines
    assert " y" in lines
    assert lines[-1] == "End"
    assert export_lp(model) == text
    bounds = export_lp(SHAPES).split("Bounds\n")[1].split("Binaries")[0].splitlines()
    assert bounds == [" free free", " lowneg >= -3.5", " low2 >= 2.0", " -inf <= upper5 <= 5.0",
                      " -inf <= upneg <= -3.0", " 1.25 <= boxed <= 7.5", " fixed = 2.0"]
    flat = Model(name="flat", variables=(Variable("x", CONTINUOUS, 0.0, 1.0),),
                 constraints=(), objective_terms=())
    assert export_lp(flat).splitlines()[1:3] == ["Minimize", " obj: 0"]
