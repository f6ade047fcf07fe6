import json
import os
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import assignment
from motrack.assignment import solve_assignment
from oracle_utils import best_gated_matching, dense_assignment, solve_gated


def objective(values, assignment) -> float:
    return float(sum(values[r, c] for r, c in assignment.matches))


def pairs(assignment) -> set[tuple[int, int]]:
    return {(r, c) for r, c in assignment.matches.tolist()}


def test_dominant_diagonal():
    sim = np.array([[0.9, 0.1], [0.1, 0.9]])
    result = solve_gated(sim, 0.2)
    assert pairs(result) == {(0, 0), (1, 1)}
    assert result.unmatched_detections.tolist() == []
    assert result.unmatched_tracklets.tolist() == []


def test_single_pair_below_gate_rejected():
    result = solve_gated(np.array([[0.15]]), 0.2)
    assert result.matches.tolist() == []
    assert result.unmatched_detections.tolist() == [0]
    assert result.unmatched_tracklets.tolist() == [0]


def test_empty_matrix():
    result = solve_gated(np.zeros((0, 3)), 0.2)
    assert result.matches.shape == (0, 2)
    assert result.unmatched_tracklets.tolist() == [0, 1, 2]
    result = solve_gated(np.zeros((2, 0)), 0.2)
    assert result.unmatched_detections.tolist() == [0, 1]


@pytest.mark.parametrize("values, gate", [
    (np.zeros((0, 3)), 0.2),                       # empty
    (np.array([[0.1, 0.1]]), 0.5),                 # nothing admissible
    (np.array([[0.9, 0.2], [0.3, 0.8]]), 0.5),     # solver path
])
def test_index_arrays(values, gate):
    # Callers index with the result directly: (k, 2) matches in row order and
    # ascending unmatched index arrays, all intp.
    result = solve_gated(values, gate)
    assert result.matches.ndim == 2 and result.matches.shape[1] == 2
    for field in (result.matches, result.unmatched_detections, result.unmatched_tracklets):
        assert field.dtype == np.intp
    assert result.matches[:, 0].tolist() == sorted(result.matches[:, 0].tolist())
    for field in (result.unmatched_detections, result.unmatched_tracklets):
        assert field.tolist() == sorted(set(field.tolist()))


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        solve_assignment(np.array([[np.inf]]), np.array([[True]]))
    with pytest.raises(ValueError, match="finite"):
        solve_assignment(np.array([[0.5, np.nan]]), np.array([[False, True]]))
    with pytest.raises(ValueError, match="finite"):
        solve_assignment(np.array([[0.9, 0.8], [-np.inf, 0.7]]), np.ones((2, 2), dtype=bool))


def test_inadmissible_values_are_ignored():
    # A non-finite value on an inadmissible cell changes nothing, on the short
    # path or through the solver.
    assert solve_assignment(np.array([[0.5, np.nan]]), np.array([[True, False]])) \
        .matches.tolist() == [[0, 0]]
    values = np.array([[0.9, 0.8, np.inf], [0.7, np.nan, -np.inf]])
    result = solve_assignment(values, np.isfinite(values))
    assert result.matches.tolist() == [[0, 1], [1, 0]]
    assert result.unmatched_tracklets.tolist() == [2]


def test_non_2d_rejected():
    with pytest.raises(ValueError, match="2-D"):
        solve_assignment(np.array([0.8]), np.array([True]))
    with pytest.raises(ValueError, match="shape"):
        solve_assignment(np.ones((2, 3)), np.ones((3, 2), dtype=bool))
    assert solve_assignment([[0.8]], [[True]]).matches.tolist() == [[0, 0]]


def test_zero_similarity_at_zero_gate_matches():
    # A pair exactly at a gate of 0 is admissible and worth matching, as a 3D
    # CLEAR match at exactly the distance threshold is.
    assert solve_gated([[0.0]], 0.0).matches.tolist() == [[0, 0]]
    assert pairs(solve_gated(np.zeros((2, 2)), 0.0)) == {(0, 0), (1, 1)}
    result = solve_gated([[0.0, -0.5]], 0.0)
    assert result.matches.tolist() == [[0, 0]]
    assert result.unmatched_tracklets.tolist() == [1]


def test_prefers_total_over_cardinality():
    # One strong pair beats two weak ones when the sums say so.
    sim = np.array([[0.9, 0.25], [0.25, 0.0]])
    result = solve_gated(sim, 0.2)
    assert result.matches.tolist() == [[0, 0]]


def test_matches_respect_gate_partition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, n = rng.integers(1, 8, 2)
        values = rng.uniform(0.0, 1.0, (m, n))
        gate = rng.uniform(0.0, 1.0)
        result = solve_gated(values, gate)
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
        result = solve_gated(values, gate)
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
        result = solve_gated(values, gate)
        assert objective(values, result) == pytest.approx(
            best_gated_matching(values, gate), abs=1e-12
        )
    assert solve_gated(np.array([[-0.3]]), -0.7).matches.tolist() == []


def test_gate_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        values = rng.uniform(0.0, 1.0, (6, 5))
        sizes = [
            len(solve_gated(values, gate).matches)
            for gate in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert sizes == sorted(sizes, reverse=True)


def test_permutation_equivariance_of_objective():
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, (5, 6))
    baseline = objective(values, solve_gated(values, 0.2))
    for _ in range(10):
        rows = rng.permutation(5)
        cols = rng.permutation(6)
        shuffled = values[np.ix_(rows, cols)]
        assert objective(shuffled, solve_gated(shuffled, 0.2)) == pytest.approx(
            baseline, abs=1e-12
        )


def test_per_entry_gate_array():
    values = np.array([[0.9, 0.8], [0.7, 0.6]])
    gates = np.array([[np.inf, 0.5], [0.5, np.inf]])
    result = solve_gated(values, gates)
    assert pairs(result) == {(0, 1), (1, 0)}


def test_per_entry_gates_against_exhaustive_search():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m, n = rng.integers(1, 7, 2)
        values = rng.uniform(0.0, 1.0, (m, n))
        gates = rng.uniform(0.2, 0.8, (m, n))
        gates[rng.uniform(size=(m, n)) < 0.2] = np.inf  # forbidden pairs
        result = solve_gated(values, gates)
        assert objective(values, result) == pytest.approx(
            best_gated_matching(values, gates), abs=1e-12
        )


def test_deterministic():
    rng = np.random.default_rng(33)
    values = rng.uniform(0.0, 1.0, (7, 7))
    first = solve_gated(values, 0.3)
    for _ in range(5):
        again = solve_gated(values, 0.3)
        assert again.matches.tolist() == first.matches.tolist()
        assert again.unmatched_detections.tolist() == first.unmatched_detections.tolist()
        assert again.unmatched_tracklets.tolist() == first.unmatched_tracklets.tolist()


_GRID = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)
_GATES = st.sampled_from([-0.25, 0.0, 0.25])


@st.composite
def sparse_gated_tables(draw):
    """(values, gate) with few admissible pairs: a scalar gate with every
    other entry below it, or per-entry gates at +inf off the chosen cells.
    Values repeat (ties) and include zero; rows and columns may be empty."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = []
    if n_rows and n_cols:
        cells = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                              max_size=n_rows + 2, unique=True))
    if draw(st.booleans()):
        gate = draw(_GATES)
        values = np.full((n_rows, n_cols), gate - 0.5)
    else:
        gate = np.full((n_rows, n_cols), np.inf)
        values = np.array([draw(_GRID) for _ in range(n_rows * n_cols)]).reshape(n_rows, n_cols)
    for r, c in cells:
        values[r, c] = draw(_GRID)
        if not np.isscalar(gate):
            gate[r, c] = draw(_GATES)
    return values, gate


@settings(max_examples=300, deadline=None)
@given(sparse_gated_tables())
def test_sparse_tables_match_the_dense_solve(table):
    values, gate = table
    with mock.patch.object(assignment, "linear_sum_assignment",
                           wraps=assignment.linear_sum_assignment) as solver:
        result = solve_gated(values, gate)
    assert objective(values, result) == pytest.approx(best_gated_matching(values, gate),
                                                      abs=1e-12)
    matches, free_rows, free_cols = dense_assignment(values, gate)
    assert result.matches.tolist() == matches.tolist()
    assert result.unmatched_detections.tolist() == free_rows.tolist()
    assert result.unmatched_tracklets.tolist() == free_cols.tolist()
    # The solver runs exactly when the admissible pairs are not already a
    # matching of positive pairs.
    admissible = values >= gate
    conflict_free = (admissible.sum(axis=0) <= 1).all() and (admissible.sum(axis=1) <= 1).all() \
        and (values[admissible] > 0.0).all()
    assert solver.called == (not conflict_free)


def test_conflict_free_tables_skip_the_solver():
    with mock.patch.object(assignment, "linear_sum_assignment",
                           wraps=assignment.linear_sum_assignment) as solver:
        sim = np.array([[0.9, 0.1, 0.0], [0.1, 0.1, 0.7], [0.0, 0.0, 0.1]])
        assert solve_gated(sim, 0.5).matches.tolist() == [[0, 0], [1, 2]]
        gates = np.array([[np.inf, -0.2, np.inf], [-0.7, np.inf, np.inf]])
        result = solve_gated(np.array([[0.3, -0.1, 0.9], [-0.5, 0.8, 0.2]]) + 1.0, gates + 1.0)
        assert result.matches.tolist() == [[0, 1], [1, 0]]
        assert result.unmatched_tracklets.tolist() == [2]
        assert solve_gated(np.full((3, 2), 0.1), 0.5).matches.tolist() == []
        assert not solver.called
        # A row or column with two admissible pairs, or one worth zero, is solved.
        assert solve_gated(np.array([[0.9, 0.8]]), 0.5).matches.tolist() == [[0, 0]]
        assert solve_gated([[0.0]], 0.0).matches.tolist() == [[0, 0]]
        assert solver.call_count == 2


# --- loading the solver: each case in a fresh interpreter ---------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(code: str) -> dict:
    """The JSON object the last line of code prints, run in a new interpreter
    that imports motrack from this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_import_leaves_scipy_optimize_out():
    # Only the compiled solver module is loaded, not the scipy.optimize package.
    got = fresh_python("""
        import json, sys, time
        start = time.perf_counter()
        import motrack
        seconds = time.perf_counter() - start
        import motrack.cli
        print(json.dumps({"seconds": seconds, "optimize": "scipy.optimize" in sys.modules,
                          "lsap": "scipy.optimize._lsap" in sys.modules}))
    """)
    assert got["lsap"] and not got["optimize"]
    print(f"\nimport motrack in a fresh interpreter: {got['seconds']:.3f} s wall, "
          "scipy.optimize not imported")


@pytest.mark.parametrize("first", ["motrack", "scipy"])
def test_solver_is_scipys_function_in_either_import_order(first):
    imports = ["import motrack.assignment", "import scipy.optimize"]
    got = fresh_python(f"""
        import json
        {"; ".join(imports if first == "motrack" else imports[::-1])}
        print(json.dumps(motrack.assignment.linear_sum_assignment
                         is scipy.optimize.linear_sum_assignment))
    """)
    assert got is True


def test_solver_falls_back_to_the_package_without_a_compiled_module(tmp_path):
    got = fresh_python(f"""
        import json, sys
        from motrack import assignment
        del sys.modules["scipy.optimize._lsap"]
        before = "scipy.optimize" in sys.modules
        solver = assignment._load_solver({str(tmp_path)!r})
        import scipy.optimize
        print(json.dumps([before, solver is scipy.optimize.linear_sum_assignment]))
    """)
    assert got == [False, True]
