"""A small linear-program builder over named variables.

KEA's Optimizer step formulates Eq. 7–10 as an LP; this builder keeps the
formulation readable (variables named after machine groups, constraints named
after what they protect) and solves it with the from-scratch simplex
(:mod:`repro.optim.simplex`). It does not use ``scipy.optimize``: importing
it roughly doubles a tuning run's peak memory, and the tests cross-check the
simplex against ``scipy.optimize.linprog`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.optim.simplex import simplex_solve
from repro.utils.errors import OptimizationError

__all__ = ["LinearProgram", "LpSolution"]


@dataclass(frozen=True, slots=True)
class LpSolution:
    """Named view of an LP solution."""

    values: dict[str, float]
    objective: float
    status: str
    n_pivots: int

    @property
    def is_optimal(self) -> bool:
        """True when the solver reported optimality."""
        return self.status == "optimal"

    def __getitem__(self, name: str) -> float:
        return self.values[name]


@dataclass
class _Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=", "=="
    rhs: float


class LinearProgram:
    """Build and solve ``maximize c·x`` with named variables and constraints."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._variables: list[str] = []
        self._objective: dict[str, float] = {}
        self._lower: dict[str, float] = {}
        self._upper: dict[str, float] = {}
        self._constraints: list[_Constraint] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = np.inf,
        objective: float = 0.0,
    ) -> None:
        """Declare a variable with bounds and its objective coefficient."""
        if name in self._lower:
            raise OptimizationError(f"variable {name!r} declared twice")
        if not np.isfinite(lower):
            raise OptimizationError(f"variable {name!r} needs a finite lower bound")
        if upper < lower:
            raise OptimizationError(
                f"variable {name!r} has upper bound {upper} below lower {lower}"
            )
        self._variables.append(name)
        self._lower[name] = float(lower)
        self._upper[name] = float(upper)
        self._objective[name] = float(objective)

    def add_constraint(
        self, name: str, coeffs: dict[str, float], sense: str, rhs: float
    ) -> None:
        """Add ``sum(coeffs[v]·v) <sense> rhs`` with sense in {'<=', '>=', '=='}."""
        if sense not in ("<=", ">=", "=="):
            raise OptimizationError(f"unsupported constraint sense {sense!r}")
        unknown = set(coeffs) - set(self._lower)
        if unknown:
            raise OptimizationError(
                f"constraint {name!r} references undeclared variables: {sorted(unknown)}"
            )
        self._constraints.append(_Constraint(name, dict(coeffs), sense, float(rhs)))

    @property
    def variable_names(self) -> list[str]:
        """Declared variable names, in declaration order."""
        return list(self._variables)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _matrices(self):
        names = self._variables
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        c = np.array([self._objective[v] for v in names])
        lower = np.array([self._lower[v] for v in names])
        upper = np.array([self._upper[v] for v in names])
        a_ub_rows, b_ub = [], []
        a_eq_rows, b_eq = [], []
        for con in self._constraints:
            row = np.zeros(n)
            for var, coeff in con.coeffs.items():
                row[index[var]] = coeff
            if con.sense == "<=":
                a_ub_rows.append(row)
                b_ub.append(con.rhs)
            elif con.sense == ">=":
                a_ub_rows.append(-row)
                b_ub.append(-con.rhs)
            else:
                a_eq_rows.append(row)
                b_eq.append(con.rhs)
        a_ub = np.array(a_ub_rows) if a_ub_rows else None
        a_eq = np.array(a_eq_rows) if a_eq_rows else None
        return c, a_ub, np.array(b_ub), a_eq, np.array(b_eq), lower, upper

    def solve(self) -> LpSolution:
        """Solve the LP with the from-scratch simplex."""
        if not self._variables:
            raise OptimizationError("the LP has no variables")
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = self._matrices()
        result = simplex_solve(
            c,
            a_ub=a_ub,
            b_ub=b_ub if a_ub is not None else None,
            a_eq=a_eq,
            b_eq=b_eq if a_eq is not None else None,
            lower=lower,
            upper=upper,
        )
        values = {
            name: float(result.x[i]) if result.is_optimal else float("nan")
            for i, name in enumerate(self._variables)
        }
        return LpSolution(
            values=values,
            objective=result.objective,
            status=result.status,
            n_pivots=result.n_pivots,
        )
