"""Solver-agnostic linear model: variables, constraints, minimize objective.

Everything downstream (the simplex engine, branch and bound, the MPS and LP
writers) works against these types, so a model can be solved in-process or
exported and solved externally without rebuilding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: float = -math.inf
    upper: float = math.inf


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


@dataclass(frozen=True)
class Model:
    name: str
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective_terms: tuple[tuple[str, float], ...]
    objective_constant: float = 0.0
    objective_sense: str = "minimize"

    def variable_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    def binaries(self) -> list[Variable]:
        return [v for v in self.variables if v.kind == BINARY]


class ModelError(ValueError):
    """The model violates its structural invariants."""


def check_model(model: Model) -> None:
    """Raise ModelError unless names are unique, every term references a
    declared variable, and binaries have [0, 1] bounds."""
    names = set()
    for v in model.variables:
        if v.name in names:
            raise ModelError(f"duplicate variable name {v.name!r}")
        names.add(v.name)
        if v.kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"variable {v.name!r}: unknown kind {v.kind!r}")
        if v.kind == BINARY and (v.lower, v.upper) != (0.0, 1.0):
            raise ModelError(f"binary variable {v.name!r} must have bounds [0, 1]")
        if v.lower > v.upper:
            raise ModelError(f"variable {v.name!r}: lower bound exceeds upper bound")

    row_names = set()
    for c in model.constraints:
        if c.name in names or c.name in row_names:
            raise ModelError(f"duplicate name {c.name!r}")
        row_names.add(c.name)
        if c.sense not in (SENSE_LE, SENSE_EQ, SENSE_GE):
            raise ModelError(f"constraint {c.name!r}: unknown sense {c.sense!r}")
        for var, _ in c.terms:
            if var not in names:
                raise ModelError(f"constraint {c.name!r} references unknown variable {var!r}")
    for var, _ in model.objective_terms:
        if var not in names:
            raise ModelError(f"objective references unknown variable {var!r}")
    if model.objective_sense != "minimize":
        raise ModelError("only minimize objectives are supported")


def _term_map(terms: tuple[tuple[str, float], ...]) -> dict[str, float]:
    merged: dict[str, float] = {}
    for name, coef in terms:
        merged[name] = merged.get(name, 0.0) + coef
    return merged


def models_equivalent(a: Model, b: Model, tol: float = 1e-12) -> bool:
    """Semantic equality: same names, kinds, bounds, senses and right-hand
    sides, coefficients equal within tol after merging duplicate terms.
    Term order is not significant, and neither are zero coefficients
    (serialization may regroup terms or pad columns with explicit zeros)."""

    def close(x: float, y: float) -> bool:
        return abs(x - y) <= tol * max(1.0, abs(x), abs(y))

    def nonzero(terms: dict[str, float]) -> dict[str, float]:
        return {k: v for k, v in terms.items() if v != 0.0}

    if a.name != b.name or len(a.variables) != len(b.variables):
        return False
    for va, vb in zip(a.variables, b.variables):
        if (va.name, va.kind) != (vb.name, vb.kind):
            return False
        if va.lower != vb.lower or va.upper != vb.upper:
            return False
    if len(a.constraints) != len(b.constraints):
        return False
    for ca, cb in zip(a.constraints, b.constraints):
        if (ca.name, ca.sense) != (cb.name, cb.sense) or not close(ca.rhs, cb.rhs):
            return False
        ta, tb = nonzero(_term_map(ca.terms)), nonzero(_term_map(cb.terms))
        if set(ta) != set(tb) or any(not close(ta[k], tb[k]) for k in ta):
            return False
    oa = nonzero(_term_map(a.objective_terms))
    ob = nonzero(_term_map(b.objective_terms))
    if set(oa) != set(ob) or any(not close(oa[k], ob[k]) for k in oa):
        return False
    return close(a.objective_constant, b.objective_constant)


def model_stats(model: Model) -> str:
    """Plain-text statistics block, stable across runs, for CI diffing."""
    n_bin = sum(1 for v in model.variables if v.kind == BINARY)
    by_sense = {SENSE_LE: 0, SENSE_EQ: 0, SENSE_GE: 0}
    for c in model.constraints:
        by_sense[c.sense] += 1
    nnz = sum(len(c.terms) for c in model.constraints)
    lines = [
        f"model {model.name}",
        f"variables {len(model.variables)} (binary {n_bin}, continuous {len(model.variables) - n_bin})",
        f"constraints {len(model.constraints)} (<= {by_sense[SENSE_LE]}, = {by_sense[SENSE_EQ]}, >= {by_sense[SENSE_GE]})",
        f"nonzeros {nnz}",
        f"objective-terms {len(model.objective_terms)}",
    ]
    return "\n".join(lines) + "\n"
