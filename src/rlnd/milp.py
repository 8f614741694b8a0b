"""Self-contained exact MILP engine.

A bounded-variable dual simplex handles the LP relaxations; a best-first
branch and bound on the binary variables makes the engine exact for the
mixed-binary models this package builds.  The simplex works on ``[A | -I]``
(one logical column per row), assembled and scaled by powers of two once per
model, with every variable and row bound kept implicit.  Every LP ends on a
fresh factorization (basis inverse, reduced costs, dual steepest-edge
weights) and hands it on with its values: each branch-and-bound child
restarts from its parent's optimal basis and factorization, which a bound
change leaves dual feasible, so a child takes a handful of pivots and
inverts only the basis it ends on.
The models are desk-scale (at most a few hundred rows), so an explicit dense
basis inverse is the simplest thing that is provably correct.  It is
deterministic per BLAS thread count: identical model input on the same
thread count always yields an identical Solution, but the last digits can
move with the thread count (netgen 5x4x3 seed 0, robust at gamma 1, differs
under ``OMP_NUM_THREADS=1``), because the BLAS splits its sums by thread.

Anything that speaks ``solve(model) -> Solution`` can replace the embedded
engine (see :class:`Solver` and :mod:`rlnd.external`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Protocol

import numpy as np

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    BUDGET_EXCEEDED = "budget_exceeded"
    NUMERICALLY_UNSTABLE = "numerically_unstable"


class ModelError(ValueError):
    """Raised for malformed models (unknown variables, bad relations...)."""


@dataclass
class LinExpr:
    """Sparse linear expression: sum of coeff*var plus a constant."""

    terms: dict[str, float] = field(default_factory=dict)
    constant: float = 0.0

    def add(self, var: str, coeff: float) -> "LinExpr":
        if coeff != 0.0:
            self.terms[var] = self.terms.get(var, 0.0) + coeff
        return self

    def add_expr(self, other: "LinExpr", scale: float = 1.0) -> "LinExpr":
        for var, coeff in other.terms.items():
            self.add(var, scale * coeff)
        self.constant += scale * other.constant
        return self

    def scaled(self, factor: float) -> "LinExpr":
        return LinExpr({v: c * factor for v, c in self.terms.items()}, self.constant * factor)

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    def evaluate(self, values: Mapping[str, float]) -> float:
        return self.constant + sum(c * values[v] for v, c in self.terms.items())


@dataclass(frozen=True)
class RowTag:
    """Constraint provenance: a family name plus human-readable indices."""

    family: str
    scope: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.scope:
            return self.family
        return f"{self.family}[{','.join(self.scope)}]"


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = math.inf
    binary: bool = False


@dataclass
class Row:
    expr: LinExpr
    relation: str  # "<=", ">=" or "=="
    rhs: float
    tag: RowTag


class MilpModel:
    """Minimization model over named variables with tagged linear rows.

    Change a model only through its methods: the embedded engine keeps the
    assembled matrix and the solved root relaxation with the model, and
    every change drops them.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: dict[str, Variable] = {}
        self.rows: list[Row] = []
        self.objective = LinExpr()
        self.warnings: list[str] = []
        self._lp: _Lp | None = None

    # -- construction -------------------------------------------------

    def add_variable(self, name: str, lb: float = 0.0, ub: float = math.inf,
                     binary: bool = False) -> str:
        if name in self.variables:
            raise ModelError(f"duplicate variable {name!r}")
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ModelError(f"variable {name!r} has lb {lb} > ub {ub}")
        self.variables[name] = Variable(name, lb, ub, binary)
        self._lp = None
        return name

    def add_row(self, expr: LinExpr, relation: str, rhs: float, tag: RowTag) -> int:
        if relation not in ("<=", ">=", "=="):
            raise ModelError(f"unknown relation {relation!r}")
        for var in expr.terms:
            if var not in self.variables:
                raise ModelError(f"row {tag} references unknown variable {var!r}")
        # fold the expression constant into the right-hand side
        row = Row(LinExpr(dict(expr.terms)), relation, rhs - expr.constant, tag)
        self.rows.append(row)
        self._lp = None
        return len(self.rows) - 1

    def set_objective(self, expr: LinExpr) -> None:
        for var in expr.terms:
            if var not in self.variables:
                raise ModelError(f"objective references unknown variable {var!r}")
        self.objective = expr.copy()
        self._lp = None

    @property
    def binary_names(self) -> list[str]:
        return [v.name for v in self.variables.values() if v.binary]

    # -- diagnostics ---------------------------------------------------

    def to_lp_format(self) -> str:
        """Render as CPLEX-style LP text with one tag comment per row."""
        safe = _sanitize_names(self.variables)
        lines = [f"\\ Problem: {self.name}"]
        for warning in self.warnings:
            lines.append(f"\\ warning: {warning}")
        lines.append("Minimize")
        lines.append(" obj: " + _format_expr(self.objective.terms, safe))
        if self.objective.constant:
            lines.append(f"\\ objective constant: {self.objective.constant!r}")
        lines.append("Subject To")
        rel_map = {"<=": "<=", ">=": ">=", "==": "="}
        for i, row in enumerate(self.rows):
            lines.append(f"\\ tag: {row.tag}")
            body = _format_expr(row.expr.terms, safe) or "0 " + next(iter(safe.values()))
            lines.append(f" r{i}: {body} {rel_map[row.relation]} {row.rhs!r}")
        lines.append("Bounds")
        for var in self.variables.values():
            name = safe[var.name]
            if var.binary:
                continue
            lo = "-inf" if var.lb == -math.inf else repr(var.lb)
            hi = "+inf" if var.ub == math.inf else repr(var.ub)
            if var.lb == -math.inf and var.ub == math.inf:
                lines.append(f" {name} free")
            else:
                lines.append(f" {lo} <= {name} <= {hi}")
        binaries = [safe[n] for n in self.binary_names]
        if binaries:
            lines.append("Binary")
            lines.append(" " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _sanitize_names(variables: Mapping[str, Variable]) -> dict[str, str]:
    """LP format forbids brackets/commas in identifiers; map names safely."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for name in variables:
        base = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
        if not base or base[0].isdigit():
            base = "v_" + base
        candidate, k = base, 1
        while candidate in used:
            candidate = f"{base}_{k}"
            k += 1
        used.add(candidate)
        out[name] = candidate
    return out


def _format_expr(terms: Mapping[str, float], safe: Mapping[str, str]) -> str:
    parts: list[str] = []
    for var, coeff in terms.items():
        sign = "-" if coeff < 0 else "+"
        if not parts and sign == "+":
            parts.append(f"{coeff!r} {safe[var]}")
        else:
            parts.append(f"{sign} {abs(coeff)!r} {safe[var]}")
    return " ".join(parts)


@dataclass
class SolveStats:
    simplex_iterations: int = 0
    nodes: int = 0
    incumbent_history: list[float] = field(default_factory=list)


@dataclass
class Solution:
    status: Status
    objective: float | None
    values: dict[str, float]
    stats: SolveStats = field(default_factory=SolveStats)
    bound: float | None = None  # best proven lower bound (minimization)

    @property
    def gap(self) -> float | None:
        if self.objective is None or self.bound is None:
            return None
        return self.objective - self.bound

    def value(self, var: str) -> float:
        return self.values[var]


class Solver(Protocol):
    """Anything that can exactly solve a MilpModel."""

    def solve(self, model: MilpModel) -> Solution: ...


# ----------------------------------------------------------------------
# bounded dual simplex
# ----------------------------------------------------------------------

_DUAL_TOL = 1e-7       # reduced-cost sign tolerance on the scaled model
_PIVOT_TOL = 1e-9      # smallest pivot-row entry the ratio test accepts
_REFACTOR_EVERY = 100  # basis updates between fresh factorizations
_ROUNDS = 5            # phase-two runs, each checked after a refactorization


def _power_of_two(magnitude: np.ndarray) -> np.ndarray:
    """Factors 2**-k that bring each positive magnitude nearest to 1."""
    safe = np.where(magnitude > 0.0, magnitude, 1.0)
    return np.ldexp(1.0, -np.round(np.log2(safe)).astype(int))


@dataclass(frozen=True)
class _Basis:
    """A simplex basis: the column basic in each row, and which nonbasic
    columns rest at their upper bound."""

    head: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class _Factor:
    """A fresh factorization of a basis under one cost vector: the basis
    inverse, the reduced costs and the exact dual steepest-edge weights."""

    binv: np.ndarray
    d: np.ndarray
    weights: np.ndarray


class _Lp:
    """A model as ``[A | -I] (x, s) = 0`` with bounds on the structural
    columns x and on the row activities s (one logical column per row).

    Rows, then columns, are scaled by powers of two, so scaling is exact:
    a binary's bounds and the values read back are exactly 0 and 1.
    """

    def __init__(self, model: MilpModel):
        self.names = list(model.variables)
        variables = list(model.variables.values())
        n, m = len(variables), len(model.rows)
        self.index = index = {name: j for j, name in enumerate(self.names)}
        a = np.zeros((m, n))
        row_lb = np.full(m, -math.inf)
        row_ub = np.full(m, math.inf)
        for i, row in enumerate(model.rows):
            for var, coeff in row.expr.terms.items():
                a[i, index[var]] += coeff
            if row.relation != ">=":
                row_ub[i] = row.rhs
            if row.relation != "<=":
                row_lb[i] = row.rhs
        row_scale = _power_of_two(np.abs(a).max(axis=1, initial=0.0))
        a *= row_scale[:, None]
        col_scale = _power_of_two(np.abs(a).max(axis=0, initial=0.0))
        a *= col_scale
        self.mat = np.hstack([a, -np.eye(m)])
        self.scale = np.concatenate([col_scale, 1.0 / row_scale])  # original / scaled
        self.lb = np.concatenate([[v.lb for v in variables], row_lb]) / self.scale
        self.ub = np.concatenate([[v.ub for v in variables], row_ub]) / self.scale
        self.cost = np.zeros(n + m)
        for var, coeff in model.objective.terms.items():
            self.cost[index[var]] += coeff
        self.cost[:n] *= col_scale
        self.binaries = np.array([j for j, v in enumerate(variables) if v.binary], dtype=int)
        self._root: _LpResult | None = None

    @staticmethod
    def of(model: MilpModel) -> _Lp:
        """The model's assembled form, built on first use."""
        if model._lp is None:
            model._lp = _Lp(model)
        return model._lp

    def root(self) -> _LpResult:
        """The relaxation under the model's own bounds, solved once from the
        slack basis."""
        if self._root is None:
            self._root = _solve(self, self.cost, self.lb, self.ub, self.slack_basis())
        return self._root

    def slack_basis(self) -> _Basis:
        n, m = len(self.names), self.mat.shape[0]
        return _Basis(np.arange(n, n + m), np.zeros(n + m, dtype=bool))

    def factor(self, head: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.mat[:, head])

    def fixed_bounds(self, fix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds with each binary fixed where ``fix`` is 0 or 1 (-1: free)."""
        lb, ub = self.lb.copy(), self.ub.copy()
        cols = self.binaries[fix >= 0]
        lb[cols] = ub[cols] = fix[fix >= 0] / self.scale[cols]
        return lb, ub

    def most_fractional(self, x: np.ndarray) -> int:
        """Position in ``binaries`` of the most fractional binary (ties: the
        lowest), or -1 when every binary is integral."""
        values = x[self.binaries] * self.scale[self.binaries]
        frac = np.abs(values - np.round(values))
        if not frac.size:
            return -1
        k = int(np.argmax(frac))
        return k if frac[k] > INTEGRALITY_TOL else -1

    def values(self, x: np.ndarray, round_binaries: bool) -> dict[str, float]:
        n = len(self.names)
        out = x[:n] * self.scale[:n]
        if round_binaries:
            out[self.binaries] = np.round(out[self.binaries])
        return dict(zip(self.names, out.tolist()))


class _Simplex:
    """Dual simplex state for one LP: an explicit basis inverse, the values
    of every column, reduced costs and exact dual steepest-edge weights."""

    def __init__(self, lp: _Lp, cost: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 basis: _Basis, factor: _Factor | None = None):
        self.lp, self.cost = lp, cost
        self.head = basis.head.copy()
        self.upper = basis.upper.copy()
        self.pivots = 0
        self.set_bounds(lb, ub)
        if factor is None:
            self.factor()
        else:  # pivots update the inverse and the duals in place
            self._adopt(factor.binv.copy(), factor.d.copy(), factor.weights)

    def basis(self) -> _Basis:
        return _Basis(self.head.copy(), self.upper.copy())

    def set_bounds(self, lb: np.ndarray, ub: np.ndarray) -> None:
        self.lb, self.ub = lb, ub
        self.movable = lb < ub  # a fixed column never enters
        self.has_lb, self.has_ub = np.isfinite(lb), np.isfinite(ub)
        self.free = ~self.has_lb & ~self.has_ub
        # where a nonbasic column rests: its bound, or zero when it has none
        self.rest_lb = np.where(self.has_lb, lb, 0.0)
        self.rest_ub = np.where(self.has_ub, ub, 0.0)

    def factor(self) -> None:
        """Invert the basis afresh and recompute the duals and weights."""
        binv = self.lp.factor(self.head)
        d = self.cost - self.lp.mat.T @ (binv.T @ self.cost[self.head])
        d[self.head] = 0.0
        self._adopt(binv, d, np.einsum("ij,ij->i", binv, binv))

    def _adopt(self, binv: np.ndarray, d: np.ndarray, weights: np.ndarray) -> None:
        self.binv, self.d, self.weights = binv, d, weights
        self.updates = 0
        self.nonbasic = np.ones(self.cost.size, dtype=bool)
        self.nonbasic[self.head] = False

    def refactor(self) -> None:
        self.factor()
        self._reset_primal()

    def _reset_primal(self) -> None:
        x = np.where(self.upper, self.rest_ub, self.rest_lb)
        x[self.head] = 0.0
        x[self.head] = -(self.binv @ (self.lp.mat @ x))
        self.x = x

    def place(self) -> float:
        """Rest each nonbasic column at the bound its reduced cost asks for;
        return the largest dual infeasibility that no bound can absorb."""
        has_lb, has_ub = self.has_lb, self.has_ub
        d = self.d
        self.upper = np.where(has_lb & has_ub,
                              (d < -_DUAL_TOL) | (self.upper & (d <= _DUAL_TOL)),
                              has_ub & ~has_lb)
        self._reset_primal()
        infeasible = (np.where(has_lb, 0.0, np.maximum(d, 0.0))
                      + np.where(has_ub, 0.0, np.maximum(-d, 0.0)))
        return float(infeasible.max(initial=0.0))

    def run(self, limit: int) -> Status:
        """Pivot until the basis is primal feasible (OPTIMAL), a row proves
        the LP infeasible, or ``limit`` pivots are spent."""
        while True:
            status = self._pivot_until_refactor(limit)
            if status is not None:
                return status

    def _pivot_until_refactor(self, limit: int) -> Status | None:
        mat = self.lp.mat
        head, x = self.head, self.x
        # nonbasic columns that may rise from their bound, or fall from it
        rise = self.nonbasic & self.movable & (~self.upper | self.free)
        fall = self.nonbasic & self.movable & (self.upper | self.free)
        # value and bounds of the column basic in each row; x holds the
        # nonbasic values and gets the basic ones back on an optimal exit
        xb, lbb, ubb = x[head], self.lb[head], self.ub[head]
        while True:
            below = lbb - xb
            above = xb - ubb
            infeasibility = np.maximum(below, above)
            # leaving row: dual steepest edge over the primal infeasibilities
            score = np.where(infeasibility > FEASIBILITY_TOL,
                             infeasibility ** 2 / self.weights, -1.0)
            r = int(np.argmax(score)) if score.size else 0
            if not score.size or score[r] < 0.0:
                x[head] = xb
                return Status.OPTIMAL
            if self.pivots >= limit:
                return Status.NUMERICALLY_UNSTABLE
            leaving = int(head[r])
            to_lower = below[r] > 0.0
            target = lbb[r] if to_lower else ubb[r]
            sign = -1.0 if to_lower else 1.0
            row = self.binv[r] @ mat
            toward = sign * row
            candidates = np.flatnonzero(((toward > _PIVOT_TOL) & rise)
                                        | ((toward < -_PIVOT_TOL) & fall))
            if not candidates.size:
                if self.updates:
                    self.refactor()
                    return None
                return Status.INFEASIBLE
            # entering column: Harris two-pass ratio test, largest pivot wins
            t = toward[candidates]
            dj = self.d[candidates]
            relaxed = np.where(t > 0.0, dj + _DUAL_TOL, dj - _DUAL_TOL) / t
            near = dj / t <= relaxed.min()
            q = int(candidates[near][np.argmax(np.abs(t[near]))])
            alpha = self.binv @ mat[:, q]
            pivot = alpha[r]
            if self.updates and abs(pivot - row[q]) > 1e-8 * (1.0 + abs(pivot)):
                self.refactor()
                return None
            theta_d = sign * max(self.d[q] / toward[q], 0.0)
            theta_p = (xb[r] - target) / pivot
            xb -= theta_p * alpha
            xb[r] = x[q] + theta_p
            lbb[r], ubb[r] = self.lb[q], self.ub[q]
            x[leaving] = target
            self.d -= theta_d * row
            self.d[head] = 0.0
            self.d[leaving] = -theta_d
            self.d[q] = 0.0
            head[r] = q
            self.nonbasic[q] = rise[q] = fall[q] = False
            self.nonbasic[leaving] = True
            self.upper[leaving] = not to_lower
            rise[leaving] = to_lower and self.movable[leaving]
            fall[leaving] = not to_lower and self.movable[leaving]
            self.binv[r] /= pivot
            alpha[r] = 0.0
            self.binv -= np.outer(alpha, self.binv[r])
            self.weights = np.einsum("ij,ij->i", self.binv, self.binv)
            self.pivots += 1
            self.updates += 1
            if self.updates >= _REFACTOR_EVERY:
                self.refactor()
                return None


@dataclass
class _LpResult:
    status: Status
    basis: _Basis
    pivots: int
    x: np.ndarray | None = None  # scaled values of every column when optimal
    objective: float = math.nan
    factor: _Factor | None = None  # the optimal basis's, when optimal


def _solve(lp: _Lp, cost: np.ndarray, lb: np.ndarray, ub: np.ndarray,
           basis: _Basis, factor: _Factor | None = None) -> _LpResult:
    """Bounded dual simplex from ``basis`` (``factor``: its factorization
    under ``cost``, if known).

    When no bound placement makes the basis dual feasible, a dual phase one
    solves the auxiliary problem that boxes every column in [0, 0], widened
    to -1 or +1 on each side where the real bound is missing; its optimal
    basis is dual feasible for the real bounds unless none is, and then a
    zero-cost solve tells an unbounded LP from an infeasible one.  Phase two
    ends only on a fresh factorization that is primal and dual feasible,
    which the result carries along with the values of every column.
    """
    if np.any(lb > ub):
        return _LpResult(Status.INFEASIBLE, basis, 0)
    limit = 1000 + 20 * cost.size
    s = None
    try:
        s = _Simplex(lp, cost, lb, ub, basis, factor)
        for _ in range(_ROUNDS):
            if s.place() > _DUAL_TOL:
                s.set_bounds(np.where(np.isfinite(lb), 0.0, -1.0),
                             np.where(np.isfinite(ub), 0.0, 1.0))
                s.place()
                status = s.run(limit)
                s.set_bounds(lb, ub)
                if status is not Status.OPTIMAL:
                    return _LpResult(Status.NUMERICALLY_UNSTABLE, s.basis(), s.pivots)
                if s.place() > _DUAL_TOL:
                    probe = _solve(lp, np.zeros_like(cost), lb, ub, lp.slack_basis())
                    status = (Status.UNBOUNDED if probe.status is Status.OPTIMAL
                              else probe.status)
                    return _LpResult(status, s.basis(), s.pivots + probe.pivots)
            status = s.run(limit)
            if status is not Status.OPTIMAL:
                return _LpResult(status, s.basis(), s.pivots)
            if not s.updates:
                return _LpResult(Status.OPTIMAL, s.basis(), s.pivots, s.x,
                                 float(cost @ s.x), _Factor(s.binv, s.d, s.weights))
            s.factor()  # the next round's placement resets the primal values
    except np.linalg.LinAlgError:
        pass
    return _LpResult(Status.NUMERICALLY_UNSTABLE, basis if s is None else s.basis(),
                     0 if s is None else s.pivots)


# ----------------------------------------------------------------------
# public solve entry points
# ----------------------------------------------------------------------

def solve_lp(model: MilpModel, bounds: Mapping[str, tuple[float, float]] | None = None) -> Solution:
    """Solve the continuous relaxation (binaries relaxed to [0, 1]).

    With ``bounds``, the relaxation is re-solved from the final basis and
    factorization of the model's own relaxation under the given bounds, as
    a branch-and-bound child is.  The statistics count the pivots of both
    solves.
    """
    lp = _Lp.of(model)
    result = lp.root()
    pivots = result.pivots
    if bounds:
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for var, (lo, hi) in bounds.items():
            j = lp.index[var]
            lb[j], ub[j] = lo / lp.scale[j], hi / lp.scale[j]
        result = _solve(lp, lp.cost, lb, ub, result.basis, result.factor)
        pivots += result.pivots
    stats = SolveStats(simplex_iterations=pivots, nodes=1)
    if result.status is not Status.OPTIMAL:
        return Solution(result.status, None, {}, stats)
    values = lp.values(result.x, round_binaries=False)
    objective = model.objective.evaluate(values)
    sol = Solution(Status.OPTIMAL, objective, values, stats, bound=objective)
    _verify(model, sol, integral=False)
    return sol


def _verify(model: MilpModel, sol: Solution, integral: bool) -> None:
    """Defensive check in original units: rows, variable bounds and, with
    ``integral``, binary integrality; downgrade to NUMERICALLY_UNSTABLE on
    failure."""
    values = sol.values
    for var in model.variables.values():
        value = values[var.name]
        if (value < var.lb - FEASIBILITY_TOL * (1.0 + abs(var.lb))
                or value > var.ub + FEASIBILITY_TOL * (1.0 + abs(var.ub))
                or integral and var.binary and abs(value - round(value)) > FEASIBILITY_TOL):
            sol.status = Status.NUMERICALLY_UNSTABLE
            return
    for row in model.rows:
        lhs = row.expr.evaluate(values)
        resid = lhs - row.rhs
        tol = FEASIBILITY_TOL * (1.0 + abs(row.rhs))
        ok = (resid <= tol if row.relation == "<=" else
              resid >= -tol if row.relation == ">=" else abs(resid) <= tol)
        if not ok:
            sol.status = Status.NUMERICALLY_UNSTABLE
            return


def solve_milp(model: MilpModel, node_budget: int = 200_000) -> Solution:
    """Best-first branch and bound over the model's binary variables.

    Branching picks the most fractional binary (ties: lowest variable index);
    nodes are explored in proven-bound order, so the first incumbent that
    matches the best outstanding bound is optimal.  Each child re-solves from
    its parent's optimal basis, which a bound change leaves dual feasible,
    and from the fresh factorization that parent's LP ended on, so no node
    inverts a basis it did not pivot to.  A heap node keeps its LP result
    (basis, factorization and values) and its binary fixings.  A child the
    simplex cannot solve ends the search NUMERICALLY_UNSTABLE instead of
    being dropped as if pruned.  Exceeding ``node_budget`` returns
    BUDGET_EXCEEDED carrying the incumbent and the remaining gap.  The
    reported values are the incumbent LP's own, binaries rounded to exactly
    0 or 1.  An unbounded relaxation makes the model UNBOUNDED only when
    some binary assignment is feasible, which the same search under a zero
    objective decides; otherwise the model is INFEASIBLE.
    """
    lp = _Lp.of(model)
    stats = SolveStats()

    root = lp.root()
    stats.simplex_iterations += root.pivots
    stats.nodes += 1
    feasibility = root.status is Status.UNBOUNDED
    cost = np.zeros_like(lp.cost) if feasibility else lp.cost
    if feasibility:
        root = _solve(lp, cost, lp.lb, lp.ub, lp.slack_basis())
        stats.simplex_iterations += root.pivots
    if root.status is not Status.OPTIMAL:
        return Solution(root.status, None, {}, stats)

    incumbent: _LpResult | None = None
    incumbent_obj = math.inf
    counter = 0
    free = np.full(lp.binaries.size, -1, dtype=np.int8)
    heap = [(root.objective, counter, free, root)]
    best_bound = root.objective

    while heap:
        bound, _, fix, node = heapq.heappop(heap)
        best_bound = bound
        if bound >= incumbent_obj - 1e-9:
            best_bound = min(bound, incumbent_obj)
            break  # best-first: nothing left can improve

        branch = lp.most_fractional(node.x)
        if branch < 0:
            if bound < incumbent_obj - 1e-9:
                incumbent_obj = bound
                incumbent = node
                stats.incumbent_history.append(bound)
            continue

        for value in (0, 1):
            if stats.nodes >= node_budget:
                return _incumbent_solution(model, lp, Status.BUDGET_EXCEEDED, incumbent,
                                           stats, -math.inf if feasibility else best_bound)
            child_fix = fix.copy()
            child_fix[branch] = value
            child = _solve(lp, cost, *lp.fixed_bounds(child_fix), node.basis,
                           node.factor)
            stats.simplex_iterations += child.pivots
            stats.nodes += 1
            if child.status in (Status.UNBOUNDED, Status.NUMERICALLY_UNSTABLE):
                return Solution(child.status, None, {}, stats)
            if child.status is Status.OPTIMAL and child.objective < incumbent_obj - 1e-9:
                counter += 1
                heapq.heappush(heap, (child.objective, counter, child_fix, child))

    if incumbent is None:
        return Solution(Status.INFEASIBLE, None, {}, stats)
    if feasibility:
        return Solution(Status.UNBOUNDED, None, {}, stats)
    # normal termination proves optimality, so the bound closes to the incumbent
    sol = _incumbent_solution(model, lp, Status.OPTIMAL, incumbent, stats, None)
    _verify(model, sol, integral=True)
    return sol


def _incumbent_solution(model: MilpModel, lp: _Lp, status: Status,
                        incumbent: _LpResult | None, stats: SolveStats,
                        bound: float | None) -> Solution:
    if incumbent is None:
        return Solution(status, None, {}, stats, bound=float(bound))
    values = lp.values(incumbent.x, round_binaries=True)
    objective = model.objective.evaluate(values)
    return Solution(status, objective, values, stats,
                    bound=objective if bound is None else float(bound))


class EmbeddedSolver:
    """Default engine: LP for continuous models, branch and bound otherwise."""

    def __init__(self, node_budget: int = 200_000):
        self.node_budget = node_budget

    def solve(self, model: MilpModel) -> Solution:
        if model.binary_names:
            return solve_milp(model, node_budget=self.node_budget)
        return solve_lp(model)


DEFAULT_SOLVER = EmbeddedSolver()
