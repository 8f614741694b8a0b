"""Self-contained exact MILP engine.

A dense two-phase tableau simplex handles the LP relaxations; a best-first
branch-and-bound on the binary variables makes the engine exact for the
mixed-binary models this package builds.  The models are desk-scale (tens of
rows), so a dense tableau is the simplest thing that is provably correct and
deterministic: identical model input always yields an identical Solution.

Anything that speaks ``solve(model) -> Solution`` can replace the embedded
engine (see :class:`Solver` and :mod:`rlnd.external`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Protocol

import numpy as np

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6
_PIVOT_TOL = 1e-10
_RC_TOL = 1e-9


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
    """Minimization model over named variables with tagged linear rows."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: dict[str, Variable] = {}
        self.rows: list[Row] = []
        self.objective = LinExpr()
        self.warnings: list[str] = []

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
        return len(self.rows) - 1

    def set_objective(self, expr: LinExpr) -> None:
        for var in expr.terms:
            if var not in self.variables:
                raise ModelError(f"objective references unknown variable {var!r}")
        self.objective = expr.copy()

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
# dense two-phase simplex
# ----------------------------------------------------------------------

class _LpOutcome:
    __slots__ = ("status", "objective", "x", "iterations")

    def __init__(self, status, objective=None, x=None, iterations=0):
        self.status = status
        self.objective = objective
        self.x = x
        self.iterations = iterations


def _solve_lp_core(model: MilpModel, lb: np.ndarray, ub: np.ndarray) -> _LpOutcome:
    """Two-phase primal simplex on the model with the given variable bounds.

    Bound handling: finite lower bounds are shifted out, upper bounds become
    explicit rows, variables fixed by lb == ub are substituted away, and free
    variables are split.  Everything then lives in the standard x >= 0 cone.
    """
    names = list(model.variables)
    n = len(names)
    col_of = {name: j for j, name in enumerate(names)}

    fixed = np.isclose(lb, ub, rtol=0.0, atol=0.0) & np.isfinite(lb)
    # column construction plan: per free model var, one or two simplex columns
    plan: list[tuple[int, float, float]] = []  # (model col, sign, shift)
    span_rows: list[tuple[int, float]] = []    # (simplex col, span) for two-sided vars
    for j in range(n):
        if fixed[j]:
            continue
        if lb[j] == -math.inf and ub[j] == math.inf:
            plan.append((j, 1.0, 0.0))
            plan.append((j, -1.0, 0.0))
        elif lb[j] == -math.inf:
            plan.append((j, -1.0, ub[j]))      # x = ub - u
        else:
            k = len(plan)
            plan.append((j, 1.0, lb[j]))       # x = lb + u
            if ub[j] < math.inf:
                span_rows.append((k, ub[j] - lb[j]))
    ns = len(plan)

    cols_of_var: dict[int, list[int]] = {}
    for k, (j, _sign, _shift) in enumerate(plan):
        cols_of_var.setdefault(j, []).append(k)
    # shift is nonzero only for single-column variables (free vars split at 0)
    shift_of_var = {j: plan[cols[0]][2] if len(cols) == 1 else 0.0
                    for j, cols in cols_of_var.items()}

    obj_const = model.objective.constant
    c = np.zeros(ns)
    for var, coeff in model.objective.terms.items():
        j = col_of[var]
        if fixed[j]:
            obj_const += coeff * lb[j]
            continue
        for k in cols_of_var[j]:
            c[k] += coeff * plan[k][1]
        obj_const += coeff * shift_of_var[j]

    m_rows = len(model.rows) + len(span_rows)
    A = np.zeros((m_rows, ns))
    b = np.zeros(m_rows)
    rel: list[str] = []
    for i, row in enumerate(model.rows):
        rhs = row.rhs
        for var, coeff in row.expr.terms.items():
            j = col_of[var]
            if fixed[j]:
                rhs -= coeff * lb[j]
                continue
            for k in cols_of_var[j]:
                A[i, k] += coeff * plan[k][1]
            rhs -= coeff * shift_of_var[j]
        b[i] = rhs
        rel.append(row.relation)
    for off, (k, span) in enumerate(span_rows):
        i = len(model.rows) + off
        A[i, k] = 1.0
        b[i] = span
        rel.append("<=")

    outcome = _simplex_two_phase(A, b, rel, c)
    if outcome.status is not Status.OPTIMAL:
        return outcome

    x = np.empty(n, dtype=float)
    x[fixed] = lb[fixed]
    u = outcome.x
    for j, cols in cols_of_var.items():
        if len(cols) == 2:
            x[j] = u[cols[0]] - u[cols[1]]
        else:
            k = cols[0]
            _, sign, shift = plan[k]
            x[j] = shift + sign * u[k]
    objective = float(np.dot(c, u)) + obj_const
    return _LpOutcome(Status.OPTIMAL, objective, x, outcome.iterations)


def _simplex_two_phase(A: np.ndarray, b: np.ndarray, rel: list[str],
                       c: np.ndarray) -> _LpOutcome:
    m, ns = A.shape
    A = A.copy()
    b = b.copy()
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)
    rel = [{"<=": ">=", ">=": "<="}.get(r, r) if f else r for r, f in zip(rel, flip)]

    n_slack = sum(1 for r in rel if r == "<=")
    n_surp = sum(1 for r in rel if r == ">=")
    n_art = sum(1 for r in rel if r in (">=", "=="))
    total = ns + n_slack + n_surp + n_art
    T = np.zeros((m, total))
    T[:, :ns] = A
    basis = np.empty(m, dtype=int)
    s = ns
    p = ns + n_slack
    a = ns + n_slack + n_surp
    art_cols = []
    for i, r in enumerate(rel):
        if r == "<=":
            T[i, s] = 1.0
            basis[i] = s
            s += 1
        elif r == ">=":
            T[i, p] = -1.0
            T[i, a] = 1.0
            basis[i] = a
            art_cols.append(a)
            p += 1
            a += 1
        else:
            T[i, a] = 1.0
            basis[i] = a
            art_cols.append(a)
            a += 1

    is_art = np.zeros(total, dtype=bool)
    is_art[ns + n_slack + n_surp:] = True

    cost2 = np.zeros(total + 1)
    cost2[:ns] = c
    cost1 = np.zeros(total + 1)
    cost1[ns + n_slack + n_surp:total] = 1.0
    rhs = b.copy()
    # canonicalize both cost rows against the starting basis
    for i in range(m):
        for cost in (cost1, cost2):
            cb = cost[basis[i]]
            if cb != 0.0:
                cost[:total] -= cb * T[i]
                cost[total] -= cb * rhs[i]

    allowed = ~is_art
    iterations = 0
    iter_cap = 2000 + 200 * (m + total)
    bland_after = 10 * (m + total)
    degenerate = 0

    def pivot(r: int, e: int, costs: tuple[np.ndarray, ...]) -> None:
        nonlocal degenerate
        piv = T[r, e]
        T[r] /= piv
        rhs[r] /= piv
        factors = T[:, e].copy()
        factors[r] = 0.0
        T[:] -= np.outer(factors, T[r])
        rhs[:] -= factors * rhs[r]
        for cost in costs:
            f = cost[e]
            if f != 0.0:
                cost[:total] -= f * T[r]
                cost[total] -= f * rhs[r]
        basis[r] = e

    def run_phase(cost: np.ndarray, others: tuple[np.ndarray, ...],
                  enterable: np.ndarray) -> Status:
        nonlocal iterations, degenerate
        while True:
            if iterations > iter_cap:
                return Status.NUMERICALLY_UNSTABLE
            rc = np.where(enterable, cost[:total], np.inf)
            if degenerate > bland_after:
                candidates = np.nonzero(rc < -_RC_TOL)[0]
                if candidates.size == 0:
                    return Status.OPTIMAL
                e = int(candidates[0])  # Bland: lowest index
            else:
                e = int(np.argmin(rc))
                if rc[e] >= -_RC_TOL:
                    return Status.OPTIMAL
            col = T[:, e]
            rows = np.nonzero(col > _PIVOT_TOL)[0]
            if rows.size == 0:
                return Status.UNBOUNDED
            ratios = rhs[rows] / col[rows]
            best = ratios.min()
            tied = rows[np.nonzero(ratios <= best + 1e-12)[0]]
            r = int(tied[np.argmin(basis[tied])])  # deterministic, Bland-friendly
            if best < 1e-12:
                degenerate += 1
            iterations += 1
            pivot(r, e, (cost,) + others)

    status = run_phase(cost1, (cost2,), np.ones(total, dtype=bool))
    if status is not Status.OPTIMAL:
        return _LpOutcome(status, iterations=iterations)
    if -cost1[total] > FEASIBILITY_TOL:
        return _LpOutcome(Status.INFEASIBLE, iterations=iterations)

    # pivot basic artificials out (or drop redundant rows)
    drop_rows: list[int] = []
    for i in range(m):
        if not is_art[basis[i]]:
            continue
        pivot_col = -1
        for j in range(total):
            if not is_art[j] and abs(T[i, j]) > _PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            pivot(i, pivot_col, (cost1, cost2))
        else:
            drop_rows.append(i)
    if drop_rows:
        keep = np.setdiff1d(np.arange(T.shape[0]), drop_rows)
        T = T[keep]
        rhs = rhs[keep]
        basis = basis[keep]

    status = run_phase(cost2, (), allowed)
    if status is not Status.OPTIMAL:
        return _LpOutcome(status, iterations=iterations)
    x = np.zeros(total)
    x[basis] = rhs
    return _LpOutcome(Status.OPTIMAL, float(-cost2[total]), x[:ns], iterations)


# ----------------------------------------------------------------------
# public solve entry points
# ----------------------------------------------------------------------

def solve_lp(model: MilpModel, bounds: Mapping[str, tuple[float, float]] | None = None) -> Solution:
    """Solve the continuous relaxation (binaries relaxed to [0, 1])."""
    names = list(model.variables)
    lb = np.array([model.variables[v].lb for v in names], dtype=float)
    ub = np.array([model.variables[v].ub for v in names], dtype=float)
    if bounds:
        for var, (lo, hi) in bounds.items():
            j = names.index(var)
            lb[j], ub[j] = lo, hi
    outcome = _solve_lp_core(model, lb, ub)
    stats = SolveStats(simplex_iterations=outcome.iterations, nodes=1)
    if outcome.status is not Status.OPTIMAL:
        return Solution(outcome.status, None, {}, stats)
    values = {name: float(outcome.x[j]) for j, name in enumerate(names)}
    sol = Solution(Status.OPTIMAL, outcome.objective, values, stats, bound=outcome.objective)
    _verify_rows(model, sol)
    return sol


def _verify_rows(model: MilpModel, sol: Solution) -> None:
    """Defensive residual check; downgrade to NUMERICALLY_UNSTABLE on failure."""
    for row in model.rows:
        lhs = row.expr.evaluate(sol.values)
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
    matches the best outstanding bound is optimal.  Exceeding ``node_budget``
    returns BUDGET_EXCEEDED carrying the incumbent and the remaining gap.
    """
    names = list(model.variables)
    lb0 = np.array([model.variables[v].lb for v in names], dtype=float)
    ub0 = np.array([model.variables[v].ub for v in names], dtype=float)
    bin_idx = [j for j, v in enumerate(names) if model.variables[v].binary]

    stats = SolveStats()

    root = _solve_lp_core(model, lb0, ub0)
    stats.simplex_iterations += root.iterations
    stats.nodes += 1
    if root.status in (Status.INFEASIBLE, Status.UNBOUNDED, Status.NUMERICALLY_UNSTABLE):
        return Solution(root.status, None, {}, stats)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    counter = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    heapq.heappush(heap, (root.objective, counter, lb0, ub0, root.x))
    best_bound = root.objective

    while heap:
        bound, _, lb, ub, x = heapq.heappop(heap)
        best_bound = bound
        if bound >= incumbent_obj - 1e-9:
            best_bound = min(bound, incumbent_obj)
            break  # best-first: nothing left can improve

        frac = [(abs(x[j] - round(x[j])), j) for j in bin_idx]
        worst = max((f for f, _ in frac), default=0.0)
        if worst <= INTEGRALITY_TOL:
            if bound < incumbent_obj - 1e-9:
                incumbent_obj = bound
                incumbent_x = x
                stats.incumbent_history.append(bound)
            continue

        # most fractional: distance to nearest integer, ties -> lowest index
        _, branch = max(frac, key=lambda t: (t[0], -t[1]))
        for value in (0.0, 1.0):
            if stats.nodes >= node_budget:
                return _budget_exceeded(model, names, stats, incumbent_x, incumbent_obj,
                                        best_bound)
            child_lb, child_ub = lb.copy(), ub.copy()
            child_lb[branch] = child_ub[branch] = value
            child = _solve_lp_core(model, child_lb, child_ub)
            stats.simplex_iterations += child.iterations
            stats.nodes += 1
            if child.status is Status.UNBOUNDED:
                return Solution(Status.UNBOUNDED, None, {}, stats)
            if child.status is Status.OPTIMAL and child.objective < incumbent_obj - 1e-9:
                counter += 1
                heapq.heappush(heap, (child.objective, counter, child_lb, child_ub, child.x))

    if incumbent_x is None:
        return Solution(Status.INFEASIBLE, None, {}, stats)
    values = {name: float(incumbent_x[j]) for j, name in enumerate(names)}
    # normal termination proves optimality, so the bound closes to the incumbent
    sol = Solution(Status.OPTIMAL, float(incumbent_obj), values, stats,
                   bound=float(incumbent_obj))
    _verify_rows(model, sol)
    return sol


def _budget_exceeded(model, names, stats, incumbent_x, incumbent_obj, best_bound):
    if incumbent_x is None:
        return Solution(Status.BUDGET_EXCEEDED, None, {}, stats, bound=float(best_bound))
    values = {name: float(incumbent_x[j]) for j, name in enumerate(names)}
    return Solution(Status.BUDGET_EXCEEDED, float(incumbent_obj), values, stats,
                    bound=float(best_bound))


class EmbeddedSolver:
    """Default engine: LP for continuous models, branch and bound otherwise."""

    def __init__(self, node_budget: int = 200_000):
        self.node_budget = node_budget

    def solve(self, model: MilpModel) -> Solution:
        if model.binary_names:
            return solve_milp(model, node_budget=self.node_budget)
        return solve_lp(model)


DEFAULT_SOLVER = EmbeddedSolver()
