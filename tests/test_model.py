import math

import pytest

from tepkit.model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Model,
    ModelError,
    Variable,
    check_model,
    model_stats,
    models_equivalent,
)


def small_model() -> Model:
    return Model(
        name="m",
        variables=(
            Variable("x", CONTINUOUS, 0.0, 10.0),
            Variable("y", BINARY, 0.0, 1.0),
        ),
        constraints=(
            Constraint("c1", (("x", 1.0), ("y", -2.0)), SENSE_LE, 4.0),
            Constraint("c2", (("x", 1.0),), SENSE_GE, 1.0),
        ),
        objective_terms=(("x", 3.0), ("y", 5.0)),
        objective_constant=7.0,
    )


def test_check_model_accepts_valid():
    check_model(small_model())


def test_check_model_rejects_duplicate_names():
    m = small_model()
    dup_var = Model(m.name, m.variables + (Variable("x", CONTINUOUS),),
                    m.constraints, m.objective_terms)
    with pytest.raises(ModelError, match="duplicate"):
        check_model(dup_var)
    dup_row = Model(m.name, m.variables,
                    m.constraints + (Constraint("c1", (("x", 1.0),), SENSE_LE, 0.0),),
                    m.objective_terms)
    with pytest.raises(ModelError, match="duplicate"):
        check_model(dup_row)
    # a row named like a variable is also a collision
    clash = Model(m.name, m.variables,
                  m.constraints + (Constraint("x", (("x", 1.0),), SENSE_LE, 0.0),),
                  m.objective_terms)
    with pytest.raises(ModelError, match="duplicate"):
        check_model(clash)


def test_check_model_rejects_bad_binary_bounds():
    m = small_model()
    bad = Model(m.name, (m.variables[0], Variable("y", BINARY, 0.0, 2.0)),
                m.constraints, m.objective_terms)
    with pytest.raises(ModelError, match="binary"):
        check_model(bad)


def test_check_model_rejects_unknown_references():
    m = small_model()
    bad = Model(m.name, m.variables,
                (Constraint("c", (("ghost", 1.0),), SENSE_LE, 0.0),),
                m.objective_terms)
    with pytest.raises(ModelError, match="ghost"):
        check_model(bad)
    bad_obj = Model(m.name, m.variables, m.constraints, (("ghost", 1.0),))
    with pytest.raises(ModelError, match="ghost"):
        check_model(bad_obj)


def test_check_model_rejects_bad_sense_and_kind():
    m = small_model()
    bad_sense = Model(m.name, m.variables,
                      (Constraint("c", (("x", 1.0),), "!=", 0.0),),
                      m.objective_terms)
    with pytest.raises(ModelError, match="sense"):
        check_model(bad_sense)
    bad_kind = Model(m.name, (Variable("x", "integer"),), (), ())
    with pytest.raises(ModelError, match="kind"):
        check_model(bad_kind)
    bad_bounds = Model(m.name, (Variable("x", CONTINUOUS, 2.0, 1.0),), (), ())
    with pytest.raises(ModelError, match="lower bound exceeds upper"):
        check_model(bad_bounds)


def test_check_model_refuses_nan_bounds_and_non_finite_entries():
    m = small_model()
    x, y = m.variables
    c1, c2 = m.constraints
    for lower, upper in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ModelError, match="'x': lower bound exceeds upper bound, or is NaN"):
            check_model(Model(m.name, (Variable("x", CONTINUOUS, lower, upper), y),
                              m.constraints, m.objective_terms))
    for bad in (math.nan, math.inf):
        rows = (Constraint("c1", (("x", bad), ("y", -2.0)), SENSE_LE, 4.0), c2)
        with pytest.raises(ModelError, match="'c1': coefficient .* of 'x'"):
            check_model(Model(m.name, m.variables, rows, m.objective_terms))
        rows = (c1, Constraint("c2", (("x", 1.0),), SENSE_GE, -bad))
        with pytest.raises(ModelError, match="'c2': right-hand side"):
            check_model(Model(m.name, m.variables, rows, m.objective_terms))
        with pytest.raises(ModelError, match="objective: coefficient .* of 'y'"):
            check_model(Model(m.name, m.variables, m.constraints, (("x", 3.0), ("y", bad))))
        with pytest.raises(ModelError, match="objective: constant"):
            check_model(Model(m.name, m.variables, m.constraints, m.objective_terms, bad))


def test_variable_index_and_binaries():
    m = small_model()
    assert m.variable_index() == {"x": 0, "y": 1}
    assert [v.name for v in m.binaries()] == ["y"]


def test_models_equivalent_ignores_term_grouping():
    m = small_model()
    regrouped = Model(
        m.name, m.variables,
        (
            Constraint("c1", (("y", -1.0), ("x", 1.0), ("y", -1.0)), SENSE_LE, 4.0),
            m.constraints[1],
        ),
        (("y", 5.0), ("x", 3.0)),
        objective_constant=7.0,
    )
    assert models_equivalent(m, regrouped)


def test_models_equivalent_detects_differences():
    m = small_model()
    assert not models_equivalent(m, Model("other", m.variables, m.constraints,
                                          m.objective_terms, 7.0))
    # coefficient off by more than tol
    changed = Model(m.name, m.variables,
                    (Constraint("c1", (("x", 1.0 + 1e-9), ("y", -2.0)),
                                SENSE_LE, 4.0), m.constraints[1]),
                    m.objective_terms, 7.0)
    assert not models_equivalent(m, changed)
    assert models_equivalent(m, changed, tol=1e-6)
    # bound change
    rebound = Model(m.name, (Variable("x", CONTINUOUS, 0.0, 11.0),
                             m.variables[1]), m.constraints,
                    m.objective_terms, 7.0)
    assert not models_equivalent(m, rebound)
    # constant change
    shifted = Model(m.name, m.variables, m.constraints, m.objective_terms, 8.0)
    assert not models_equivalent(m, shifted)


def test_model_stats_shape():
    stats = model_stats(small_model())
    lines = stats.splitlines()
    assert lines[0] == "model m"
    assert "variables 2 (binary 1, continuous 1)" in stats
    assert "constraints 2 (<= 1, = 0, >= 1)" in stats
    assert "nonzeros 3" in stats
    assert "objective-terms 2" in stats
