"""Budgeted-uncertainty (row-wise) robust counterparts.

Each protected row carries a budget: of its uncertain coefficients, at most
`gamma` may drift to their worst value simultaneously (the last unit may be
fractional), and the counterpart's optimum is immunized against every
realization inside the budget (Bertsimas & Sim, *Oper. Res.* 2004).  A row
is written by its effective budget, min(gamma, number of nonzero
deviations), in one of three ways, all linear:

- budget 0: the row unchanged, so with gamma 0 the counterpart is the
  nominal model;
- a full budget, one unit per nonzero deviation: every deviation is added
  to the coefficient of its variable's magnitude (the worst case of Soyster,
  *Oper. Res.* 1973), with no new variable unless the variable can be
  negative;
- a split budget: one dual variable for the row and one per nonzero
  deviation, with one dual row each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .builders import ModelArtifacts
from .io import read_document, read_record
from .milp import LinExpr, MilpModel, ModelError, RowTag

_ABS_PREFIX = "ABS"


@dataclass
class RowUncertainty:
    """Budget and per-coefficient deviations for one row, keyed by variable."""

    gamma: float
    deviations: dict[str, float] = field(default_factory=dict)

    def validate(self, label: str) -> None:
        for var, dev in self.deviations.items():
            if not math.isfinite(dev) or dev < 0:
                raise ValueError(f"{label}: deviation for {var!r} must be "
                                 f"finite and nonnegative, got {dev!r}")
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"{label}: gamma must be finite and nonnegative, "
                             f"got {self.gamma!r}")
        if self.gamma > len(self.deviations):
            raise ValueError(f"{label}: gamma {self.gamma:g} exceeds the "
                             f"{len(self.deviations)} uncertain coefficients")


@dataclass
class UncertaintySpec:
    """Per-row uncertainty, keyed by the row tag's string form."""

    rows: dict[str, RowUncertainty] = field(default_factory=dict)

    def validate(self) -> None:
        for key, row in self.rows.items():
            row.validate(key)


def load_uncertainty_spec(path: str | Path) -> UncertaintySpec:
    """A spec file ``{"rows": {tag: {"gamma": g, "deviations": {var: d}}}}``,
    every key required; a missing key, a key that names no field or a value
    of the wrong type raises a DocumentError that names it."""
    doc = read_document(path)
    spec = read_record(UncertaintySpec, doc, {"rows": doc["rows"].map(lambda row: read_record(
        RowUncertainty, row, {"deviations": row["deviations"].numbers()}, extra=("deviations",)))},
        extra=("rows",))
    spec.validate()
    return spec


# ----------------------------------------------------------------------
# the counterpart transformation
# ----------------------------------------------------------------------

def _magnitude_var(model: MilpModel, var_name: str,
                   created: dict[str, str]) -> str:
    """A variable bounding |x| for x that can be negative; x itself if not."""
    var = model.variables[var_name]
    if var.lb >= 0.0:
        return var_name
    if var_name in created:
        return created[var_name]
    mag = model.add_variable(f"{_ABS_PREFIX}[{var_name}]", 0.0)
    expr_pos = LinExpr({mag: 1.0, var_name: -1.0})
    expr_neg = LinExpr({mag: 1.0, var_name: 1.0})
    model.add_row(expr_pos, ">=", 0.0, RowTag("robust-abs", (var_name, "+")))
    model.add_row(expr_neg, ">=", 0.0, RowTag("robust-abs", (var_name, "-")))
    created[var_name] = mag
    return mag


def robustify(model: MilpModel, spec: UncertaintySpec) -> MilpModel:
    """Build the robust counterpart of `model` under `spec`.

    Rows not named in the spec are kept, shared as ``MilpModel.copy`` shares
    them.  A named row's effective budget is min(gamma, number of its nonzero
    deviations): at 0 the row is kept, at the full count each deviation is
    folded into the coefficient of |x| (x itself when x cannot be negative),
    and in between the row gets the budget dual ``GAMMA[k|row]`` and one
    ``DEV[k|row|x]`` with a ``robust-dual`` row per nonzero deviation, where k
    counts the protected rows in row order.  A named equality row is rejected
    at every budget: protecting only one side flips the row's meaning.  Split
    it into a pair of inequalities first and protect the side that matters.
    """
    spec.validate()
    known = {str(row.tag) for row in model.rows}
    unknown = sorted(set(spec.rows) - known)
    if unknown:
        raise ModelError(f"uncertainty spec names rows not in the model: {unknown}; "
                         f"model rows are tagged {sorted(known)}")
    for key, entry in spec.rows.items():
        missing = sorted(set(entry.deviations) - set(model.variables))
        if missing:
            raise ModelError(f"{key}: deviations name unknown variables {missing}")

    out = model.copy()
    out.name, out.rows = f"{model.name}:robust", []
    abs_vars: dict[str, str] = {}
    counter = 0
    for row in model.rows:
        key = str(row.tag)
        entry = spec.rows.get(key)
        if entry is None or not entry.deviations:
            out.rows.append(row)
            continue
        if row.relation == "==":
            raise ModelError(
                f"cannot protect equality row {key}; split it into <= and >= "
                f"and protect the binding side")
        nonzero = {var: dev for var, dev in sorted(entry.deviations.items()) if dev}
        gamma = min(entry.gamma, len(nonzero))
        flip = -1.0 if row.relation == ">=" else 1.0
        if gamma == 0:
            out.rows.append(row)
        elif gamma == len(nonzero):
            expr = row.expr.copy()
            for var_name, deviation in nonzero.items():
                expr.add(_magnitude_var(out, var_name, abs_vars), flip * deviation)
            out.add_row(expr, row.relation, row.rhs, row.tag)
        else:
            expr = row.expr.scaled(flip)
            budget = out.add_variable(f"GAMMA[{counter}|{key}]", 0.0)
            expr.add(budget, gamma)
            for var_name, deviation in nonzero.items():
                spread = out.add_variable(f"DEV[{counter}|{key}|{var_name}]", 0.0)
                expr.add(spread, 1.0)
                dual = LinExpr({budget: 1.0, spread: 1.0})
                dual.add(_magnitude_var(out, var_name, abs_vars), -deviation)
                out.add_row(dual, ">=", 0.0, RowTag("robust-dual", (key, var_name)))
            out.add_row(expr, "<=", row.rhs * flip, row.tag)
        counter += 1
    return out


def robustify_artifacts(artifacts: ModelArtifacts, spec: UncertaintySpec) -> ModelArtifacts:
    """Counterpart of a built model, keeping what reads its solution."""
    return replace(artifacts, model=robustify(artifacts.model, spec))


def violation_bound(gamma: float, n: int) -> float:
    """Probability bound that a row protected with budget `gamma` out of `n`
    independent symmetric deviations is still violated: 1 - Phi((gamma-1)/sqrt(n))."""
    if n <= 0:
        raise ValueError("n must be a positive coefficient count")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    z = (gamma - 1.0) / math.sqrt(n)
    return 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def capacity_preset(artifacts: ModelArtifacts, fraction: float = 0.1,
                    gamma: float = 1.0) -> UncertaintySpec:
    """Mark every capacity row's data coefficients as uncertain by +-fraction.

    On collection-tier rows that is the per-trip collection rates (the RTD
    coefficients); on every capacity row it includes the capacity itself (the
    open-indicator coefficient).  Unit mass-flow coefficients are structural
    and stay exact.  Budgets are min(gamma, row size).
    """
    if not 0.0 <= fraction:
        raise ValueError("fraction must be nonnegative")
    uncertain = {name for tier in artifacts.tiers for name in tier.opens.values()}
    uncertain.update(artifacts.tiers[0].flows.values())
    rows: dict[str, RowUncertainty] = {}
    for row in artifacts.model.rows:
        if row.tag.family != "capacity" or row.relation == "==":
            continue
        deviations = {var: fraction * abs(coeff)
                      for var, coeff in row.expr.terms.items()
                      if var in uncertain and coeff}
        if deviations:
            rows[str(row.tag)] = RowUncertainty(min(gamma, len(deviations)), deviations)
    return UncertaintySpec(rows)
