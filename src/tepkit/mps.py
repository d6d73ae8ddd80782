"""Model exchange formats: MPS writer/reader and an LP-format writer.

The MPS writer emits the classic sectioned layout (NAME, ROWS, COLUMNS,
RHS, BOUNDS, ENDATA) with binaries wrapped in INTORG/INTEND markers and
declared BV. Output is byte-deterministic: declaration order everywhere,
shortest round-trip float formatting. The layout is free MPS: fields are
padded to the classic columns, but every name is written whole and a
field always ends in a space, so a reader splits lines on whitespace. Both
writers refuse a variable or row name that is empty or holds whitespace,
which neither format can carry.

The reader accepts the writer's output plus common third-party habits:
`*` comment lines, one or two (row, value) pairs per data line, and the
usual bound codes. General (non-binary) integers and RANGES sections are
rejected loudly rather than misread.
"""

from __future__ import annotations

import math

from .model import (
    BINARY,
    CONTINUOUS,
    Constraint,
    Model,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Variable,
    check_model,
    term_map,
)

_OBJ_ROW = "COST"
_RHS_SET = "RHS"
_BOUND_SET = "BND"

_SENSE_TO_ROW = {SENSE_LE: "L", SENSE_EQ: "E", SENSE_GE: "G"}
_ROW_TO_SENSE = {"L": SENSE_LE, "E": SENSE_EQ, "G": SENSE_GE}


class MpsFormatError(ValueError):
    """The text is not a readable MPS document."""


def _fmt(value: float) -> str:
    return repr(float(value))


def _check_names(model: Model) -> None:
    """Raise MpsFormatError unless every variable and row name is one
    nonempty token that does not start with '*': both formats separate
    names by whitespace, and MPS reads a line that starts with '*' as a
    comment."""
    for kind, items in (("variable", model.variables), ("row", model.constraints)):
        for item in items:
            if item.name.split() != [item.name] or item.name.startswith("*"):
                raise MpsFormatError(f"{kind} name {item.name!r} must be nonempty, "
                                     "hold no whitespace and not start with '*'")


def export_mps(model: Model) -> str:
    """Serialize a model as MPS text. Deterministic: identical models
    produce identical bytes."""
    check_model(model)
    _check_names(model)
    if "".join(model.name.split()) != model.name:
        raise MpsFormatError(f"model name {model.name!r} must hold no whitespace")
    out: list[str] = [f"NAME          {model.name}"]

    out.append("ROWS")
    out.append(f" N  {_OBJ_ROW}")
    for con in model.constraints:
        if con.name == _OBJ_ROW:
            raise MpsFormatError(f"row name {_OBJ_ROW!r} is taken by the objective")
        out.append(f" {_SENSE_TO_ROW[con.sense]}  {con.name}")

    obj_coef = term_map(model.objective_terms)
    entries: dict[str, list[tuple[str, float]]] = {v.name: [] for v in model.variables}
    for con in model.constraints:
        for var_name, coef in term_map(con.terms).items():
            entries[var_name].append((con.name, coef))

    out.append("COLUMNS")
    integer_mode = False
    marker_idx = 0
    for v in model.variables:
        wants_integer = v.kind == BINARY
        if wants_integer != integer_mode:
            flag = "'INTORG'" if wants_integer else "'INTEND'"
            out.append(f"    MK{marker_idx:06d}  'MARKER'                 {flag}")
            marker_idx += 1
            integer_mode = wants_integer
        rows = []
        coef = obj_coef.get(v.name, 0.0)
        if coef != 0.0 or not entries[v.name]:
            rows.append((_OBJ_ROW, coef))
        rows.extend(entries[v.name])
        for row, value in rows:
            out.append(f"    {v.name:<9} {row:<9} {_fmt(value)}")
    if integer_mode:
        out.append(f"    MK{marker_idx:06d}  'MARKER'                 'INTEND'")

    out.append("RHS")
    if model.objective_constant != 0.0:
        out.append(f"    {_RHS_SET:<10}{_OBJ_ROW:<10}{_fmt(-model.objective_constant)}")
    for con in model.constraints:
        if con.rhs != 0.0:
            out.append(f"    {_RHS_SET:<10}{con.name:<9} {_fmt(con.rhs)}")

    out.append("BOUNDS")
    for v in model.variables:
        if v.kind == BINARY:
            out.append(f" BV {_BOUND_SET:<10}{v.name}")
            continue
        lo, up = v.lower, v.upper
        if lo == 0.0 and math.isinf(up):
            continue
        if lo == up:
            out.append(f" FX {_BOUND_SET:<10}{v.name:<9} {_fmt(lo)}")
            continue
        if math.isinf(lo) and math.isinf(up):
            out.append(f" FR {_BOUND_SET:<10}{v.name}")
            continue
        if math.isinf(lo):
            out.append(f" MI {_BOUND_SET:<10}{v.name}")
        elif lo != 0.0:
            out.append(f" LO {_BOUND_SET:<10}{v.name:<9} {_fmt(lo)}")
        if not math.isinf(up):
            out.append(f" UP {_BOUND_SET:<10}{v.name:<9} {_fmt(up)}")

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _parse_value(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise MpsFormatError(f"line {lineno}: bad numeric value {token!r}")
    return value


def import_mps(text: str) -> Model:
    """Parse MPS text back into a Model. Inverse of export_mps on its
    output; binary variables are the only integer kind accepted."""
    name = ""
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    obj_row: str | None = None
    var_order: list[str] = []
    var_kind: dict[str, str] = {}
    var_terms: dict[str, list[tuple[str, float]]] = {}
    obj_terms: dict[str, float] = {}
    obj_term_order: list[str] = []
    rhs: dict[str, float] = {}
    obj_constant = 0.0
    bounds: dict[str, list[float]] = {}
    integer_mode = False
    saw_rows = False
    saw_endata = False

    def ensure_var(col: str) -> None:
        if col not in var_kind:
            var_order.append(col)
            var_kind[col] = BINARY if integer_mode else CONTINUOUS
            var_terms[col] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if saw_endata:
            break
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            keyword = tokens[0].upper()
            if keyword == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
                continue
            if keyword in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                section = keyword
                if keyword == "ROWS":
                    saw_rows = True
                continue
            if keyword == "ENDATA":
                saw_endata = True
                continue
            if keyword == "RANGES":
                raise MpsFormatError("RANGES sections are not supported")
            raise MpsFormatError(f"line {lineno}: unknown section {tokens[0]!r}")

        tokens = raw.split()
        if section == "ROWS":
            if len(tokens) != 2:
                raise MpsFormatError(f"line {lineno}: bad ROWS entry")
            kind, row = tokens[0].upper(), tokens[1]
            if kind == "N":
                if obj_row is not None:
                    raise MpsFormatError(f"line {lineno}: multiple objective rows")
                obj_row = row
            elif kind in _ROW_TO_SENSE:
                if row in row_sense:
                    raise MpsFormatError(f"line {lineno}: duplicate row {row!r}")
                row_sense[row] = _ROW_TO_SENSE[kind]
                row_order.append(row)
            else:
                raise MpsFormatError(f"line {lineno}: unknown row type {tokens[0]!r}")
        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                if "'INTORG'" in tokens:
                    integer_mode = True
                elif "'INTEND'" in tokens:
                    integer_mode = False
                else:
                    raise MpsFormatError(f"line {lineno}: unrecognized marker")
                continue
            if len(tokens) not in (3, 5):
                raise MpsFormatError(f"line {lineno}: bad COLUMNS entry")
            col = tokens[0]
            ensure_var(col)
            for i in range(1, len(tokens), 2):
                row, value = tokens[i], _parse_value(tokens[i + 1], lineno)
                if row == obj_row:
                    if col not in obj_terms:
                        obj_terms[col] = 0.0
                        obj_term_order.append(col)
                    obj_terms[col] += value
                elif row in row_sense:
                    var_terms[col].append((row, value))
                else:
                    raise MpsFormatError(f"line {lineno}: unknown row {row!r}")
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                raise MpsFormatError(f"line {lineno}: bad RHS entry")
            for i in range(1, len(tokens), 2):
                row, value = tokens[i], _parse_value(tokens[i + 1], lineno)
                if row == obj_row:
                    obj_constant = -value
                elif row in row_sense:
                    rhs[row] = value
                else:
                    raise MpsFormatError(f"line {lineno}: unknown row {row!r}")
        elif section == "BOUNDS":
            code = tokens[0].upper()
            if code in ("FR", "MI", "PL", "BV"):
                if len(tokens) != 3:
                    raise MpsFormatError(f"line {lineno}: bad BOUNDS entry")
                col = tokens[2]
                value = None
            else:
                if len(tokens) != 4:
                    raise MpsFormatError(f"line {lineno}: bad BOUNDS entry")
                col = tokens[2]
                value = _parse_value(tokens[3], lineno)
            if col not in var_kind:
                raise MpsFormatError(f"line {lineno}: bounds for unknown column {col!r}")
            b = bounds.setdefault(col, [0.0, math.inf])
            if code == "LO":
                b[0] = value
            elif code == "UP":
                b[1] = value
            elif code == "FX":
                b[0] = b[1] = value
            elif code == "FR":
                b[0], b[1] = -math.inf, math.inf
            elif code == "MI":
                b[0] = -math.inf
            elif code == "PL":
                b[1] = math.inf
            elif code == "BV":
                var_kind[col] = BINARY
                b[0], b[1] = 0.0, 1.0
            elif code in ("UI", "LI"):
                raise MpsFormatError("general integer bounds are not supported; only binaries")
            else:
                raise MpsFormatError(f"line {lineno}: unknown bound code {tokens[0]!r}")
        else:
            raise MpsFormatError(f"line {lineno}: data before any section header")

    if not saw_rows:
        raise MpsFormatError("missing ROWS section")
    if obj_row is None:
        raise MpsFormatError("missing objective (N) row")

    variables = []
    for col in var_order:
        kind = var_kind[col]
        if kind == BINARY:
            lo, up = bounds.get(col, [0.0, 1.0])
            if (lo, up) != (0.0, 1.0):
                raise MpsFormatError(
                    f"integer column {col!r} must be binary with bounds [0, 1], got [{lo}, {up}]"
                )
            variables.append(Variable(col, BINARY, 0.0, 1.0))
        else:
            lo, up = bounds.get(col, [0.0, math.inf])
            variables.append(Variable(col, CONTINUOUS, lo, up))

    per_row: dict[str, list[tuple[str, float]]] = {row: [] for row in row_order}
    for col in var_order:
        for row, value in var_terms[col]:
            per_row[row].append((col, value))
    constraints = tuple(
        Constraint(row, tuple(per_row[row]), row_sense[row], rhs.get(row, 0.0))
        for row in row_order
    )
    model = Model(
        name=name,
        variables=tuple(variables),
        constraints=constraints,
        objective_terms=tuple((col, obj_terms[col]) for col in obj_term_order),
        objective_constant=obj_constant,
    )
    check_model(model)
    return model


def export_lp(model: Model) -> str:
    """Human-readable LP-format rendering, deterministic like export_mps.
    Write-only: inspection and external solvers, not round-tripping."""
    check_model(model)
    _check_names(model)

    def term_str(terms) -> str:
        if not terms:
            return "0"
        parts: list[str] = []
        for i, (var, coef) in enumerate(terms):
            if i == 0:
                parts.append(f"{_fmt(coef)} {var}")
            elif coef >= 0.0:
                parts.append(f"+ {_fmt(coef)} {var}")
            else:
                parts.append(f"- {_fmt(-coef)} {var}")
        return " ".join(parts)

    out = [f"\\ model {model.name}", "Minimize"]
    obj = term_str(model.objective_terms)
    if model.objective_constant != 0.0:
        sign = "+" if model.objective_constant >= 0.0 else "-"
        obj += f" {sign} {_fmt(abs(model.objective_constant))}"
    out.append(f" obj: {obj}")
    out.append("Subject To")
    sense_str = {SENSE_LE: "<=", SENSE_EQ: "=", SENSE_GE: ">="}
    for con in model.constraints:
        body = term_str(con.terms)
        out.append(f" {con.name}: {body} {sense_str[con.sense]} {_fmt(con.rhs)}")
    out.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        lo, up = v.lower, v.upper
        if lo == 0.0 and math.isinf(up):
            continue
        if lo == up:
            out.append(f" {v.name} = {_fmt(lo)}")
        elif math.isinf(lo) and math.isinf(up):
            out.append(f" {v.name} free")
        elif math.isinf(lo):
            out.append(f" -inf <= {v.name} <= {_fmt(up)}")
        elif math.isinf(up):
            out.append(f" {v.name} >= {_fmt(lo)}")
        else:
            out.append(f" {_fmt(lo)} <= {v.name} <= {_fmt(up)}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        out.append("Binaries")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"
