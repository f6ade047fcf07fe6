import numpy as np
import pytest

from motrack.assignment import solve_assignment
from oracle_utils import best_gated_matching


def objective(values, assignment) -> float:
    return float(sum(values[r, c] for r, c in assignment.matches))


def pairs(assignment) -> set[tuple[int, int]]:
    return {(r, c) for r, c in assignment.matches.tolist()}


def test_dominant_diagonal():
    sim = np.array([[0.9, 0.1], [0.1, 0.9]])
    result = solve_assignment(sim, gate=0.2)
    assert pairs(result) == {(0, 0), (1, 1)}
    assert result.unmatched_detections.tolist() == []
    assert result.unmatched_tracklets.tolist() == []


def test_single_pair_below_gate_rejected():
    result = solve_assignment(np.array([[0.15]]), gate=0.2)
    assert result.matches.tolist() == []
    assert result.unmatched_detections.tolist() == [0]
    assert result.unmatched_tracklets.tolist() == [0]


def test_empty_matrix():
    result = solve_assignment(np.zeros((0, 3)), gate=0.2)
    assert result.matches.shape == (0, 2)
    assert result.unmatched_tracklets.tolist() == [0, 1, 2]
    result = solve_assignment(np.zeros((2, 0)), gate=0.2)
    assert result.unmatched_detections.tolist() == [0, 1]


@pytest.mark.parametrize("values, gate", [
    (np.zeros((0, 3)), 0.2),                       # empty
    (np.array([[0.1, 0.1]]), 0.5),                 # nothing admissible
    (np.array([[0.9, 0.2], [0.3, 0.8]]), 0.5),     # solver path
])
def test_index_arrays(values, gate):
    # Callers index with the result directly: (k, 2) matches in row order and
    # ascending unmatched index arrays, all intp.
    result = solve_assignment(values, gate)
    assert result.matches.ndim == 2 and result.matches.shape[1] == 2
    for field in (result.matches, result.unmatched_detections, result.unmatched_tracklets):
        assert field.dtype == np.intp
    assert result.matches[:, 0].tolist() == sorted(result.matches[:, 0].tolist())
    for field in (result.unmatched_detections, result.unmatched_tracklets):
        assert field.tolist() == sorted(set(field.tolist()))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.inf]]), gate=0.0)
    with pytest.raises(ValueError):
        solve_assignment(np.array([[0.5, np.nan]]), gate=0.0)


def test_non_2d_rejected():
    with pytest.raises(ValueError, match="2-D"):
        solve_assignment(np.array([0.8]), gate=0.5)
    assert solve_assignment([[0.8]], gate=0.5).matches.tolist() == [[0, 0]]


def test_prefers_total_over_cardinality():
    # One strong pair beats two weak ones when the sums say so.
    sim = np.array([[0.9, 0.25], [0.25, 0.0]])
    result = solve_assignment(sim, gate=0.2)
    assert result.matches.tolist() == [[0, 0]]


def test_matches_respect_gate_partition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, n = rng.integers(1, 8, 2)
        values = rng.uniform(0.0, 1.0, (m, n))
        gate = rng.uniform(0.0, 1.0)
        result = solve_assignment(values, gate)
        rows = result.matches[:, 0].tolist()
        cols = result.matches[:, 1].tolist()
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert sorted(rows + result.unmatched_detections.tolist()) == list(range(m))
        assert sorted(cols + result.unmatched_tracklets.tolist()) == list(range(n))
        for r, c in result.matches:
            assert values[r, c] >= gate


def test_optimal_against_exhaustive_search():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m, n = rng.integers(1, 8, 2)
        values = rng.uniform(0.0, 1.0, (m, n))
        gate = rng.uniform(0.0, 0.9)
        result = solve_assignment(values, gate)
        assert objective(values, result) == pytest.approx(
            best_gated_matching(values, gate), abs=1e-12
        )


def test_optimal_with_negative_values_and_gates():
    # GIoU-style matrices: admissible pairs may be negative, and matching one
    # must only happen when it raises the total.
    rng = np.random.default_rng(17)
    for _ in range(50):
        m, n = rng.integers(1, 7, 2)
        values = rng.uniform(-1.0, 1.0, (m, n))
        gate = rng.uniform(-0.9, 0.2)
        result = solve_assignment(values, gate)
        assert objective(values, result) == pytest.approx(
            best_gated_matching(values, gate), abs=1e-12
        )
    assert solve_assignment(np.array([[-0.3]]), gate=-0.7).matches.tolist() == []


def test_gate_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        values = rng.uniform(0.0, 1.0, (6, 5))
        sizes = [
            len(solve_assignment(values, gate).matches)
            for gate in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert sizes == sorted(sizes, reverse=True)


def test_permutation_equivariance_of_objective():
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, (5, 6))
    baseline = objective(values, solve_assignment(values, 0.2))
    for _ in range(10):
        rows = rng.permutation(5)
        cols = rng.permutation(6)
        shuffled = values[np.ix_(rows, cols)]
        assert objective(shuffled, solve_assignment(shuffled, 0.2)) == pytest.approx(
            baseline, abs=1e-12
        )


def test_per_entry_gate_array():
    values = np.array([[0.9, 0.8], [0.7, 0.6]])
    gates = np.array([[np.inf, 0.5], [0.5, np.inf]])
    result = solve_assignment(values, gates)
    assert pairs(result) == {(0, 1), (1, 0)}


def test_scalar_gate_equals_full_gate_array():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m, n = rng.integers(1, 7, 2)
        values = rng.uniform(-1.0, 1.0, (m, n))
        gate = float(rng.uniform(-0.5, 0.8))
        scalar = solve_assignment(values, gate)
        full = solve_assignment(values, np.full((m, n), gate))
        assert scalar.matches.tolist() == full.matches.tolist()
        assert scalar.unmatched_detections.tolist() == full.unmatched_detections.tolist()
    with pytest.raises(ValueError):
        solve_assignment(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        solve_assignment(np.ones((2, 3)), np.ones((1, 2, 3)))


def test_per_entry_gates_against_exhaustive_search():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m, n = rng.integers(1, 7, 2)
        values = rng.uniform(0.0, 1.0, (m, n))
        gates = rng.uniform(0.2, 0.8, (m, n))
        gates[rng.uniform(size=(m, n)) < 0.2] = np.inf  # forbidden pairs
        result = solve_assignment(values, gates)
        assert objective(values, result) == pytest.approx(
            best_gated_matching(values, gates), abs=1e-12
        )


def test_deterministic():
    rng = np.random.default_rng(33)
    values = rng.uniform(0.0, 1.0, (7, 7))
    first = solve_assignment(values, 0.3)
    for _ in range(5):
        again = solve_assignment(values, 0.3)
        assert again.matches.tolist() == first.matches.tolist()
        assert again.unmatched_detections.tolist() == first.unmatched_detections.tolist()
        assert again.unmatched_tracklets.tolist() == first.unmatched_tracklets.tolist()
