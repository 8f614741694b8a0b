"""Self-contained exact MILP engine.

A bounded-variable dual simplex handles the LP relaxations; a best-first
branch and bound on the binary variables makes the engine exact for the
mixed-binary models this package builds.  The simplex works on ``[A | -I]``
(one logical column per row), assembled and scaled by powers of two once per
model, with every variable and row bound kept implicit.  One state type,
:class:`_Simplex`, is both the live simplex and the solved LP: a solved
state keeps the factorization its pivots updated (basis inverse, reduced
costs, dual steepest-edge weights) with its values, and every LP starts
from one such state or from the slack basis.  Each branch-and-bound node is
a solved state, and each child restarts from its parent's optimal basis and
factorization, which a bound change leaves dual feasible, so a child takes
a handful of pivots.  The inverse is computed afresh only when a residual
check finds it has drifted: at an LP's end, and before a row proves an LP
infeasible.  The slack basis's inverse is written down, not computed.
An :class:`EmbeddedSolver` keeps, for each matrix shape, the last model it
solved whose root relaxation was optimal, and starts the next root of that
shape from it: when the two assemble to exactly the same scaled matrix, the
root restarts from that optimal root basis, and from its factorization too
when the costs are the same, as a child restarts from its parent.  The grid
points of a sweep, the steps of a calibration and the scenarios of a run
differ only in right-hand sides or costs, so they find their starts without
being told.
The models are desk-scale (at most a few hundred rows), so an explicit dense
basis inverse is the simplest thing that is provably correct.  At that size
a pivot costs the fixed price of a few dozen small numpy calls (about 70 us
on one core of a shared 2-vCPU machine, plus 115 us per LP), so the pivot
loop keeps those calls few; its rules (dual steepest-edge leaving row, Harris
ratio test, largest pivot entering) fix every pivot it takes.  The reported
values come from one fresh inversion of the final basis, its columns in
ascending order, so they depend on that basis alone and not on the pivots
that reached it: a fresh solver always answers a model the same way, and a
solver's history can change its pivot path but not the values of a basis.
They can move with the BLAS thread count (netgen 5x4x3 seed 0, robust at
gamma 1, differs under ``OMP_NUM_THREADS=1``), because the BLAS splits its
sums by thread.

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

    def to_arrays(self) -> tuple:
        """The model as arrays, columns in variable order: costs, the row
        matrix as CSR arrays ``(indptr, indices, data)`` (a row's nonzero
        terms in the row's own order), row lower and upper bounds (infinite
        on a row's open side), column lower and upper bounds, and the binary
        mask."""
        variables = list(self.variables.values())
        index = {name: j for j, name in enumerate(self.variables)}
        n, m = len(variables), len(self.rows)
        cost = np.zeros(n)
        for var, coeff in self.objective.terms.items():
            cost[index[var]] += coeff
        cols: list[int] = []
        coeffs: list[float] = []
        ends = [0]
        row_lb = np.full(m, -math.inf)
        row_ub = np.full(m, math.inf)
        for i, row in enumerate(self.rows):
            terms = row.expr.terms
            cols += map(index.__getitem__, terms)
            coeffs += terms.values()
            ends.append(len(cols))
            if row.relation != ">=":
                row_ub[i] = row.rhs
            if row.relation != "<=":
                row_lb[i] = row.rhs
        indptr = np.array(ends, dtype=np.intp)
        indices = np.array(cols, dtype=np.intp)
        data = np.array(coeffs, dtype=float)
        if 0.0 in coeffs:  # a row's terms may hold zeros; a sparse matrix does not
            nonzero = data != 0.0
            indptr = np.concatenate([[0], np.cumsum(nonzero)])[indptr]
            indices, data = indices[nonzero], data[nonzero]
        lb = np.array([v.lb for v in variables], dtype=float)
        ub = np.array([v.ub for v in variables], dtype=float)
        binary = np.array([v.binary for v in variables], dtype=bool)
        return cost, (indptr, indices, data), row_lb, row_ub, lb, ub, binary

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


class Solver(Protocol):
    """Anything that can exactly solve a MilpModel."""

    def solve(self, model: MilpModel) -> Solution: ...


# ----------------------------------------------------------------------
# bounded dual simplex
# ----------------------------------------------------------------------

_DUAL_TOL = 1e-7       # reduced-cost sign tolerance on the scaled model
_PIVOT_TOL = 1e-9      # smallest pivot-row entry the ratio test accepts
_ROUNDS = 5            # phase-two runs, each checked after a refactorization
_RESIDUAL_TOL = 1e-9   # relative drift a carried inverse may show and be kept


def _power_of_two(magnitude: np.ndarray) -> np.ndarray:
    """Factors 2**-k that bring each positive magnitude nearest to 1."""
    safe = np.where(magnitude > 0.0, magnitude, 1.0)
    return np.ldexp(1.0, -np.round(np.log2(safe)).astype(int))


class _Lp:
    """A model as ``[A | -I] (x, s) = 0`` with bounds on the structural
    columns x and on the row activities s (one logical column per row).

    Rows, then columns, are scaled by powers of two, so scaling is exact:
    a binary's bounds and the values read back are exactly 0 and 1.
    """

    def __init__(self, model: MilpModel):
        self.names = list(model.variables)
        cost, (indptr, indices, data), row_lb, row_ub, lb, ub, binary = model.to_arrays()
        m = len(model.rows)
        a = np.zeros((m, len(self.names)))
        a[np.repeat(np.arange(m), np.diff(indptr)), indices] = data
        row_scale = _power_of_two(np.abs(a).max(axis=1, initial=0.0))
        a *= row_scale[:, None]
        col_scale = _power_of_two(np.abs(a).max(axis=0, initial=0.0))
        a *= col_scale
        self.mat = np.hstack([a, -np.eye(m)])
        self.scale = np.concatenate([col_scale, 1.0 / row_scale])  # original / scaled
        self.lb = np.concatenate([lb, row_lb]) / self.scale
        self.ub = np.concatenate([ub, row_ub]) / self.scale
        self.cost = np.concatenate([cost * col_scale, np.zeros(m)])
        self.binaries = np.flatnonzero(binary)
        self.binary_scale = self.scale[self.binaries]
        self._root: _Simplex | None = None

    @staticmethod
    def of(model: MilpModel) -> _Lp:
        """The model's assembled form, built on first use."""
        if model._lp is None:
            model._lp = _Lp(model)
        return model._lp

    def root(self, start: _Lp | None = None) -> _Simplex:
        """The relaxation under the model's own bounds, solved once.

        ``start`` is another model's assembled form whose root is optimal.
        The root starts from that solved root (see :meth:`_Simplex.solve`)
        when ``start`` assembled exactly the same scaled matrix, and
        otherwise from the slack basis.  Only bounds (a row's right-hand
        side) or costs can differ then: a bound change leaves the basis dual
        feasible, and a cost change goes through the bound placement and, if
        needed, the dual phase one.
        """
        if self._root is None:
            same = start is not None and np.array_equal(self.mat, start.mat)
            self._root = _Simplex(self, self.cost, self.lb, self.ub).solve(
                start._root if same else None)
        return self._root

    def factor(self, head: np.ndarray) -> np.ndarray:
        n = len(self.names)
        if head.min(initial=n) >= n:  # logical columns only: B = -P, so B^-1 = -P^T
            binv = np.zeros((head.size, head.size))
            binv[np.arange(head.size), head - n] = -1.0
            return binv
        return np.linalg.inv(self.mat[:, head])

    def branch(self, node: _Simplex, k: int, value: int) -> tuple[np.ndarray, np.ndarray]:
        """A node's bounds with binary ``k`` (a position in ``binaries``) fixed
        at ``value``."""
        lb, ub = node.lb.copy(), node.ub.copy()
        j = self.binaries[k]
        lb[j] = ub[j] = value / self.scale[j]
        return lb, ub

    def most_fractional(self, x: np.ndarray) -> int:
        """Position in ``binaries`` of the most fractional binary (ties: the
        lowest), or -1 when every binary is integral."""
        values = x[self.binaries] * self.binary_scale
        frac = np.abs(values - np.round(values))
        if not frac.size:
            return -1
        k = int(frac.argmax())
        return k if frac[k] > INTEGRALITY_TOL else -1

    def primal(self, binv: np.ndarray, head: np.ndarray, upper: np.ndarray,
               lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """Every column's value: a nonbasic one at its (finite, else zero)
        upper or lower bound as ``upper`` says, the basic ones solved."""
        x = np.where(upper, ub, lb)
        x[~np.isfinite(x)] = 0.0
        x[head] = 0.0
        x[head] = -(binv @ (self.mat @ x))
        return x

    def values(self, solved: _Simplex) -> dict[str, float]:
        """An integral solved LP's values in original units, from one fresh
        inversion of its basis, basic columns in ascending order, with the
        nonbasic columns at its bounds; binaries are rounded to exactly 0 or
        1."""
        head = np.sort(solved.head)
        x = self.primal(self.factor(head), head, solved.upper, solved.lb, solved.ub)
        n = len(self.names)
        out = x[:n] * self.scale[:n]
        out[self.binaries] = np.round(out[self.binaries])
        return dict(zip(self.names, out.tolist()))


class _Simplex:
    """Dual simplex state for one LP: an explicit basis inverse, the values
    of every column, reduced costs and exact dual steepest-edge weights.

    A solved state is the LP's result: its status and pivots and, when
    optimal, its objective, the values of every column, the factorization
    its pivots left (inverse, reduced costs, weights and the rank-one
    updates since the last inversion) and the bounds it was solved under.
    A branch-and-bound node and a kept root are solved states.
    """

    def __init__(self, lp: _Lp, cost: np.ndarray, lb: np.ndarray, ub: np.ndarray):
        self.lp, self.cost = lp, cost
        self.objective = math.nan
        self.pivots = 0
        self.set_bounds(lb, ub)

    def solve(self, start: _Simplex | None = None) -> _Simplex:
        """Bounded dual simplex from ``start``, an optimal solved state over
        the same matrix, or from the slack basis when there is none.  The LP
        takes ``start``'s basis, and its factorization only when the costs
        are the same, as a factorization holds under one cost vector.

        When no bound placement makes the basis dual feasible, a dual phase
        one solves the auxiliary problem that boxes every column in [0, 0],
        widened to -1 or +1 on each side where the real bound is missing;
        its optimal basis is dual feasible for the real bounds unless none
        is, and then a zero-cost solve tells an unbounded LP from an
        infeasible one.  Phase two ends on the inverse its pivots updated
        when that inverse is still consistent (:meth:`consistent`), and
        otherwise inverts the basis afresh and runs again.  Returns this
        state, solved, without its ``_Lp``: a kept root would otherwise make
        a reference cycle with the ``_Lp`` that keeps it.
        """
        try:
            self.status = self._phases(start)
        except np.linalg.LinAlgError:
            self.status = Status.NUMERICALLY_UNSTABLE
        if self.status is Status.OPTIMAL:
            self.objective = float(self.cost @ self.x)
        del self.lp
        return self

    def _phases(self, start: _Simplex | None) -> Status:
        lp, cost, lb, ub = self.lp, self.cost, self.lb, self.ub
        if np.any(lb > ub):
            return Status.INFEASIBLE
        if start is None:
            n, m = len(lp.names), lp.mat.shape[0]
            self.head, self.upper = np.arange(n, n + m), np.zeros(n + m, dtype=bool)
        else:
            self.head, self.upper = start.head.copy(), start.upper.copy()
        if start is not None and (start.cost is cost or np.array_equal(start.cost, cost)):
            # pivots update the inverse and the duals in place, not the weights
            self.binv, self.d = start.binv.copy(), start.d.copy()
            self.weights, self.updates = start.weights, start.updates
        else:
            self.factor()
        limit = 1000 + 20 * cost.size
        for _ in range(_ROUNDS):
            if self.place() > _DUAL_TOL:
                self.set_bounds(np.where(np.isfinite(lb), 0.0, -1.0),
                                np.where(np.isfinite(ub), 0.0, 1.0))
                self.place()
                status = self.run(limit)
                self.set_bounds(lb, ub)
                if status is not Status.OPTIMAL:
                    return Status.NUMERICALLY_UNSTABLE
                if self.place() > _DUAL_TOL:
                    probe = _Simplex(lp, np.zeros_like(cost), lb, ub).solve()
                    self.pivots += probe.pivots
                    return (Status.UNBOUNDED if probe.status is Status.OPTIMAL
                            else probe.status)
            status = self.run(limit)
            if status is not Status.OPTIMAL or self.consistent():
                return status
            self.factor()  # the next round's placement resets the primal values
        return Status.NUMERICALLY_UNSTABLE

    def set_bounds(self, lb: np.ndarray, ub: np.ndarray) -> None:
        self.lb, self.ub = lb, ub
        self.movable = lb < ub  # a fixed column never enters
        self.has_lb, self.has_ub = np.isfinite(lb), np.isfinite(ub)
        self.free = ~self.has_lb & ~self.has_ub
        self.boxed = self.has_lb & self.has_ub
        self.upper_only = self.has_ub & ~self.has_lb

    def factor(self) -> None:
        """Invert the basis afresh and recompute the duals and weights."""
        self.binv = self.lp.factor(self.head)
        self.d = self._reduced_costs(self.binv)
        self.weights = np.einsum("ij,ij->i", self.binv, self.binv)
        self.updates = 0

    def _reduced_costs(self, binv: np.ndarray) -> np.ndarray:
        d = self.cost - self.lp.mat.T @ (binv.T @ self.cost[self.head])
        d[self.head] = 0.0
        return d

    def consistent(self) -> bool:
        """Whether an updated inverse still agrees with the values and the
        duals its pivots produced: ``[A | -I] x`` vanishes and the reduced
        costs it gives are the carried ones, both to ``_RESIDUAL_TOL``
        relative.  A fresh inverse passes as it is."""
        if not self.updates:
            return True
        x = self.x
        primal = np.abs(self.lp.mat @ x).max(initial=0.0)
        if primal > _RESIDUAL_TOL * (1.0 + np.abs(x).max(initial=0.0)):
            return False
        dual = np.abs(self._reduced_costs(self.binv) - self.d).max(initial=0.0)
        return dual <= _RESIDUAL_TOL * (1.0 + np.abs(self.cost).max(initial=0.0))

    def refactor(self) -> None:
        self.factor()
        self._reset_primal()

    def _reset_primal(self) -> None:
        self.x = self.lp.primal(self.binv, self.head, self.upper, self.lb, self.ub)

    def place(self) -> float:
        """Rest each nonbasic column at the bound its reduced cost asks for;
        return the largest dual infeasibility that no bound can absorb."""
        d = self.d
        self.upper = np.where(self.boxed,
                              (d < -_DUAL_TOL) | (self.upper & (d <= _DUAL_TOL)),
                              self.upper_only)
        self._reset_primal()
        infeasible = (np.where(self.has_lb, 0.0, np.maximum(d, 0.0))
                      + np.where(self.has_ub, 0.0, np.maximum(-d, 0.0)))
        return float(infeasible.max(initial=0.0))

    def run(self, limit: int) -> Status:
        """Pivot until the basis is primal feasible (OPTIMAL), a row proves
        the LP infeasible, or ``limit`` pivots are spent."""
        mat, lb, ub = self.lp.mat, self.lb, self.ub
        head, x, binv, d = self.head, self.x, self.binv, self.d
        # +1 where a nonbasic column may rise from its bound, -1 where it may
        # fall from it, 0 where it may not move; a free one may do both
        movable = self.movable.copy()
        movable[head] = False
        way = np.where(self.upper, -1.0, 1.0) * movable
        free = movable & self.free
        free = free if free.any() else None
        # value and bounds of the column basic in each row; x holds the
        # nonbasic values and gets the basic ones back on an optimal exit
        xb, lbb, ubb = x[head], lb[head], ub[head]
        while True:
            infeasibility = np.maximum(lbb - xb, xb - ubb)
            # leaving row: dual steepest edge over the primal infeasibilities
            score = np.where(infeasibility > FEASIBILITY_TOL,
                             infeasibility ** 2 / self.weights, -1.0)
            r = score.argmax() if score.size else 0
            if not score.size or score[r] < 0.0:
                x[head] = xb
                return Status.OPTIMAL
            if self.pivots >= limit:
                return Status.NUMERICALLY_UNSTABLE
            leaving = int(head[r])
            to_lower = xb[r] < lbb[r]
            target = lbb[r] if to_lower else ubb[r]
            sign = -1.0 if to_lower else 1.0
            # the pivot row; ``toward`` is sign * row, so a column is eligible
            # when its ``toward * way`` is above the pivot tolerance
            row = binv[r] @ mat
            eligible = row * way < -_PIVOT_TOL if to_lower else row * way > _PIVOT_TOL
            if free is not None:
                eligible |= free & (np.abs(row) > _PIVOT_TOL)
            candidates = eligible.nonzero()[0]
            if not candidates.size:
                # the row proves infeasibility only if it is B^-1's row r;
                # an updated inverse that fails is inverted afresh first
                unit = row[head]
                unit[r] -= 1.0
                if not self.updates or np.abs(unit).max() <= _RESIDUAL_TOL:
                    return Status.INFEASIBLE
                self.refactor()
                x, binv, d = self.x, self.binv, self.d
                xb = x[head]
                continue
            # entering column: Harris two-pass ratio test, largest pivot wins
            t = sign * row[candidates]
            k = 0
            if t.size > 1:
                dj = d[candidates]
                relaxed = (dj + np.copysign(_DUAL_TOL, t)) / t
                k = np.where(dj / t <= relaxed.min(), np.abs(t), -1.0).argmax()
            q = int(candidates[k])
            alpha = binv @ mat[:, q]
            pivot = alpha[r]
            theta_d = sign * max(d[q] / t[k], 0.0)
            theta_p = (xb[r] - target) / pivot
            xb -= theta_p * alpha
            xb[r] = x[q] + theta_p
            lbb[r], ubb[r] = lb[q], ub[q]
            x[leaving] = target
            d -= theta_d * row
            d[head] = 0.0
            d[leaving] = -theta_d
            d[q] = 0.0
            head[r] = q
            way[q] = 0.0
            if free is not None:
                free[q] = False
            self.upper[leaving] = not to_lower
            way[leaving] = (1.0 if to_lower else -1.0) * self.movable[leaving]
            binv[r] /= pivot
            alpha[r] = 0.0
            binv -= alpha[:, None] * binv[r]
            self.weights = np.einsum("ij,ij->i", binv, binv)
            self.pivots += 1
            self.updates += 1


# ----------------------------------------------------------------------
# the solve entry point
# ----------------------------------------------------------------------

def _verify(model: MilpModel, sol: Solution) -> None:
    """Defensive check in original units: rows, variable bounds and binary
    integrality; downgrade to NUMERICALLY_UNSTABLE on failure."""
    values = sol.values
    for var in model.variables.values():
        value = values[var.name]
        if (value < var.lb - FEASIBILITY_TOL * (1.0 + abs(var.lb))
                or value > var.ub + FEASIBILITY_TOL * (1.0 + abs(var.ub))
                or var.binary and abs(value - round(value)) > FEASIBILITY_TOL):
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
    """Best-first branch and bound over the model's binary variables; a model
    without binaries is solved as its root relaxation.

    The root starts from the slack basis unless it is already solved (an
    :class:`EmbeddedSolver` solves it from its kept root).  Branching
    picks the most fractional binary (ties: lowest variable index); nodes are
    explored in proven-bound order, so the first incumbent that matches the
    best outstanding bound is optimal.  Each child re-solves from its
    parent's optimal basis, which a bound change leaves dual feasible, and
    from the updated inverse that parent's LP ended on, so a node inverts
    only when a residual check finds that inverse drifted.  A heap node is a
    solved LP state (:class:`_Simplex`).  A child the simplex cannot solve
    ends the search NUMERICALLY_UNSTABLE instead of being dropped as if
    pruned.  Exceeding ``node_budget`` returns BUDGET_EXCEEDED carrying the
    incumbent and the remaining gap.  The reported values come from one
    fresh inversion of the incumbent's basis (:meth:`_Lp.values`), binaries
    rounded to exactly 0 or 1.  An unbounded relaxation makes a model with
    binaries UNBOUNDED only when some binary assignment is feasible, which
    the same search under a zero objective decides; otherwise the model is
    INFEASIBLE.
    """
    lp = _Lp.of(model)
    root = lp.root()
    stats = SolveStats()
    stats.simplex_iterations += root.pivots
    stats.nodes += 1
    feasibility = root.status is Status.UNBOUNDED and lp.binaries.size > 0
    cost = np.zeros_like(lp.cost) if feasibility else lp.cost
    if feasibility:
        root = _Simplex(lp, cost, lp.lb, lp.ub).solve()
        stats.simplex_iterations += root.pivots
    if root.status is not Status.OPTIMAL:
        return Solution(root.status, None, {}, stats)

    incumbent: _Simplex | None = None
    incumbent_obj = math.inf
    counter = 0
    heap = [(root.objective, counter, root)]
    best_bound = root.objective

    while heap:
        bound, _, node = heapq.heappop(heap)
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
            child = _Simplex(lp, cost, *lp.branch(node, branch, value)).solve(node)
            stats.simplex_iterations += child.pivots
            stats.nodes += 1
            if child.status in (Status.UNBOUNDED, Status.NUMERICALLY_UNSTABLE):
                return Solution(child.status, None, {}, stats)
            if child.status is Status.OPTIMAL and child.objective < incumbent_obj - 1e-9:
                counter += 1
                heapq.heappush(heap, (child.objective, counter, child))

    if incumbent is None:
        return Solution(Status.INFEASIBLE, None, {}, stats)
    if feasibility:
        return Solution(Status.UNBOUNDED, None, {}, stats)
    # normal termination proves optimality, so the bound closes to the incumbent
    sol = _incumbent_solution(model, lp, Status.OPTIMAL, incumbent, stats, None)
    _verify(model, sol)
    return sol


def _incumbent_solution(model: MilpModel, lp: _Lp, status: Status,
                        incumbent: _Simplex | None, stats: SolveStats,
                        bound: float | None) -> Solution:
    if incumbent is None:
        return Solution(status, None, {}, stats, bound=float(bound))
    values = lp.values(incumbent)
    objective = model.objective.evaluate(values)
    return Solution(status, objective, values, stats,
                    bound=objective if bound is None else float(bound))


class EmbeddedSolver:
    """Default engine: :func:`solve_milp` under a node budget, each root
    started from the kept root of the last model of its matrix shape whose
    root relaxation was optimal (see :meth:`_Lp.root`)."""

    def __init__(self, node_budget: int = 200_000):
        if node_budget < 1:
            raise ValueError(f"node budget must be at least 1, got {node_budget}")
        self.node_budget = node_budget
        self._roots: dict[tuple[int, int], _Lp] = {}

    def solve(self, model: MilpModel) -> Solution:
        lp = _Lp.of(model)
        if lp.root(self._roots.get(lp.mat.shape)).status is Status.OPTIMAL:
            self._roots[lp.mat.shape] = lp
        return solve_milp(model, self.node_budget)
