"""Gated optimal bipartite matching between detections and tracklets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Assignment:
    """Result of a gated matching: matched index pairs plus leftovers.

    Each detection/tracklet index appears in at most one match; matches and the
    unmatched sets partition both index ranges, and every matched pair scored
    at least the gate.
    """

    matches: tuple[tuple[int, int], ...]
    unmatched_detections: tuple[int, ...]
    unmatched_tracklets: tuple[int, ...]


def _empty_assignment(n_rows: int, n_cols: int) -> Assignment:
    return Assignment((), tuple(range(n_rows)), tuple(range(n_cols)))


def solve_assignment(sim: np.ndarray, gate: float | np.ndarray) -> Assignment:
    """Maximize total similarity over matchings whose pairs all reach the gate.

    Args:
        sim: M x N similarity scores (finite entries).
        gate: minimum admissible similarity; a scalar or an array broadcastable
            to the matrix shape (entries gated at +inf are never matched).

    Returns:
        The optimal gated assignment. Leaving a pair unmatched contributes
        zero, so only pairs that raise the total are matched; ties resolve
        deterministically for fixed inputs. An empty matrix matches nothing.
    """
    values = np.asarray(sim, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-D, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if n_rows == 0 or n_cols == 0:
        return _empty_assignment(n_rows, n_cols)
    if not np.all(np.isfinite(values)):
        raise ValueError("similarity matrix entries must be finite")

    gate_arr = np.broadcast_to(np.asarray(gate, dtype=float), values.shape)
    admissible = values >= gate_arr
    if not admissible.any():
        return _empty_assignment(n_rows, n_cols)

    # Augment with one private zero-value dummy column per row, so the solver
    # can leave anything unmatched and never takes a sub-gate pair.
    big = (min(n_rows, n_cols) + 1.0) * (float(np.abs(values[admissible]).max()) + 1.0)
    aug = np.full((n_rows, n_cols + n_rows), -big)
    aug[:, :n_cols] = np.where(admissible, values, -big)
    aug[np.arange(n_rows), n_cols + np.arange(n_rows)] = 0.0

    rows, cols = linear_sum_assignment(aug, maximize=True)
    matches = tuple(
        (int(r), int(c))
        for r, c in zip(rows, cols)
        if c < n_cols and admissible[r, c]
    )
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        matches,
        tuple(r for r in range(n_rows) if r not in matched_rows),
        tuple(c for c in range(n_cols) if c not in matched_cols),
    )
