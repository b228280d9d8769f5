"""Result checks computed apart from the solver: every formula here is
the benchmark's own numpy, written from the problem statements, and no
check compares against a stored copy of an earlier run's output.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import numpy as np

# relative agreement between the trace's last objective and the
# objective recomputed here from the final point
OBJECTIVE_RTOL = 1e-12


def soft(b: np.ndarray, a: float) -> np.ndarray:
    """Two-sided shrinkage max(b - a, 0) - max(-b - a, 0)."""
    return np.maximum(b - a, 0.0) - np.maximum(-b - a, 0.0)


# ---------------------------------------------------------------------------
# phase retrieval: 0.25 ||(A'x)^2 - y||^2 + gain ||x||_1
# ---------------------------------------------------------------------------

def pr_value(A: np.ndarray, y: np.ndarray, gain: float, x: np.ndarray) -> float:
    fit = (A.T @ x) ** 2 - y
    return float(0.25 * fit @ fit + gain * np.abs(x).sum())


def pr_residual(A: np.ndarray, y: np.ndarray, gain: float, x: np.ndarray) -> float:
    """Proximal-gradient residual ||x - soft(x - grad f(x), gain)|| / (1 + ||x||)."""
    u = A.T @ x
    grad = A @ (u * (u * u - y))
    return float(np.linalg.norm(x - soft(x - grad, gain)) / (1.0 + np.linalg.norm(x)))


# ---------------------------------------------------------------------------
# low-rank + sparse:
# 0.5 ||L R + D S - Y||^2 + (ridge/2)(||L||^2 + ||R||^2) + gain ||S||_1
# ---------------------------------------------------------------------------

def anomaly_value(Y, D, ridge, gain, L, R, S) -> float:
    fit = L @ R + D @ S - Y
    return float(0.5 * np.sum(fit * fit)
                 + 0.5 * ridge * (np.sum(L * L) + np.sum(R * R))
                 + gain * np.abs(S).sum())


def anomaly_residuals(Y, D, ridge, gain, L, R, S) -> dict[str, float]:
    """Relative one-round residuals ||B_k(x) - x_k|| / (1 + ||x_k||): the
    ridge solve of each factor and the scaled soft-threshold of the
    sparse block, each with the other blocks frozen at x."""
    rank = L.shape[1]
    target = Y - D @ S
    best_left = np.linalg.solve(R @ R.T + ridge * np.eye(rank), R @ target.T).T
    best_right = np.linalg.solve(L.T @ L + ridge * np.eye(rank), L.T @ target)
    col_sq = np.sum(D * D, axis=0)[:, None]
    fit = L @ R + D @ S - Y
    best_sparse = soft(col_sq * S - D.T @ fit, gain) / col_sq
    return {name: float(np.linalg.norm(best - cur) / (1.0 + np.linalg.norm(cur)))
            for name, best, cur in (("L", best_left, L), ("R", best_right, R),
                                    ("S", best_sparse, S))}


# ---------------------------------------------------------------------------
# checks shared by both applications
# ---------------------------------------------------------------------------

def trace_failures(objectives: np.ndarray, recomputed: float,
                   termination: str) -> list[str]:
    out = []
    if objectives.size < 2:
        out.append("trace holds no iteration")
    rises = np.flatnonzero(np.diff(objectives) > 0.0)
    if rises.size:
        out.append(f"objective rises at iteration {int(rises[0]) + 1}")
    last = float(objectives[-1])
    if not abs(recomputed - last) <= OBJECTIVE_RTOL * abs(last):
        out.append(f"recomputed objective {recomputed!r} differs from the "
                   f"trace's last value {last!r}")
    if termination != "tolerance":
        out.append(f"stop rule did not fire (ended by {termination!r})")
    return out


def bar_failure(name: str, value: float, bar: float) -> list[str]:
    if np.isfinite(value) and value <= bar:
        return []
    return [f"{name} {value:.3e} exceeds {bar:.1e}"]
