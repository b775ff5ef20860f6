"""Tests for the gossip graph and Metropolis-Hastings mixing."""
import numpy as np
import pytest

from orra.comm_graph import TopologyError, default_edges, metropolis_weights


def check_doubly_stochastic(w: np.ndarray, tol: float = 1e-9) -> bool:
    """True when w is square, nonnegative, and has unit row and column sums."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return False
    if (w < -tol).any():
        return False
    ones = np.ones(w.shape[0])
    return bool(
        np.abs(w.sum(axis=0) - ones).max() <= tol
        and np.abs(w.sum(axis=1) - ones).max() <= tol
    )


def neighbors(w, i):
    """The vertices that vertex i mixes with: its off-diagonal weights."""
    return [j for j in np.flatnonzero(w[i]) if j != i]


def test_default_topology_is_five_agent_ring_with_chord():
    assert default_edges() == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3))
    assert default_edges(5) == default_edges()


def test_degrees_of_default_topology():
    w = metropolis_weights(5, default_edges())
    assert [len(neighbors(w, i)) for i in range(5)] == [2, 3, 2, 3, 2]


def test_neighbors():
    w = metropolis_weights(5, default_edges())
    assert neighbors(w, 1) == [0, 2, 3]
    assert neighbors(w, 4) == [0, 3]


def test_default_edges_are_the_full_ring_for_other_sizes():
    assert default_edges(1) == ()
    assert default_edges(2) == ((0, 1), (1, 0))
    for n in (3, 4, 6, 59):
        w = metropolis_weights(n, default_edges(n))
        assert [neighbors(w, i) for i in range(n)] == [
            sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)]


def test_rejects_self_loop():
    with pytest.raises(TopologyError, match=r"^self loop at vertex 0$"):
        metropolis_weights(3, [(0, 1), (0, 0)])


def test_rejects_out_of_range_edge():
    with pytest.raises(TopologyError,
                       match=r"^edge \(0, 3\) out of range for n=3$"):
        metropolis_weights(3, [(0, 1), (0, 3)])
    with pytest.raises(TopologyError, match="out of range"):
        metropolis_weights(3, [(-1, 2), (0, 1)])


def test_disconnected_graph_rejected_by_weight_builder():
    with pytest.raises(TopologyError, match=r"^graph is disconnected$"):
        metropolis_weights(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError, match="disconnected"):
        metropolis_weights(2, [])


def test_refusals_come_edge_by_edge_then_connectivity():
    # the first bad edge is named, even in a graph that is also disconnected
    with pytest.raises(TopologyError, match="out of range"):
        metropolis_weights(4, [(0, 9), (2, 2)])
    with pytest.raises(TopologyError, match="self loop"):
        metropolis_weights(4, [(2, 2), (0, 9)])
    assert metropolis_weights(1, []).tolist() == [[1.0]]


def adjacency_weights(n, edges):
    """Metropolis weights built independently, from the adjacency matrix."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    deg = a.sum(axis=1)
    w = a / (1.0 + np.maximum.outer(deg, deg))
    return w + np.diag(1.0 - w.sum(axis=1))


def test_metropolis_weights_match_adjacency_matrix_construction():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        # a random spanning tree keeps the graph connected; then random
        # extra edges, some repeated as given and some reversed
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            edges.append((i, j))
        for _ in range(int(rng.integers(1, 4))):
            i, j = edges[int(rng.integers(0, len(edges)))]
            edges.append((j, i) if rng.random() < 0.5 else (i, j))
        order = rng.permutation(len(edges))
        edges = [edges[k] for k in order]
        w = metropolis_weights(n, edges)
        want = adjacency_weights(n, edges)
        off = ~np.eye(n, dtype=bool)
        assert (w[off] == want[off]).all()
        assert np.abs(np.diag(w) - np.diag(want)).max() <= 1e-15
        # listing each edge once, in one order, gives the same bytes
        once = sorted({(min(e), max(e)) for e in edges})
        assert metropolis_weights(n, once).tobytes() == w.tobytes()


def test_metropolis_weights_known_values():
    # On the ring+chord: deg = [2,3,2,3,2]. Edge (0,1): 1/(1+3) = 0.25.
    # Edge (0,4): 1/(1+2) = 1/3. Edge (1,3): 1/(1+3) = 0.25.
    w = metropolis_weights(5, default_edges())
    assert w[0, 1] == pytest.approx(0.25)
    assert w[0, 4] == pytest.approx(1.0 / 3.0)
    assert w[1, 3] == pytest.approx(0.25)
    assert w[0, 0] == pytest.approx(1.0 - 0.25 - 1.0 / 3.0)
    assert np.allclose(w, w.T)


def test_metropolis_weights_doubly_stochastic_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        # random spanning tree keeps the graph connected
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        extra = int(rng.integers(0, n))
        for _ in range(extra):
            i, j = rng.choice(n, size=2, replace=False)
            edges.append((int(i), int(j)))
        w = metropolis_weights(n, edges)
        assert check_doubly_stochastic(w)


def test_check_doubly_stochastic_rejects_bad_matrices():
    assert not check_doubly_stochastic(np.array([[0.5, 0.5], [0.3, 0.7]]).T * 1.1)
    assert not check_doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    assert not check_doubly_stochastic(np.ones((2, 3)))


def test_mix_preserves_sum_and_contracts_spread():
    w = metropolis_weights(5, default_edges())
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=5)
        mixed = w @ v
        assert mixed.sum() == pytest.approx(v.sum())
        assert mixed.max() - mixed.min() <= v.max() - v.min() + 1e-12


def test_repeated_mixing_converges_to_average():
    w = metropolis_weights(5, default_edges())
    v = np.array([10.0, -4.0, 3.0, 0.5, -9.5])
    target = v.mean()
    for _ in range(200):
        v = w @ v
    assert np.abs(v - target).max() < 1e-10


def test_mix_handles_matrix_valued_states():
    w = metropolis_weights(5, default_edges())
    v = np.arange(10.0).reshape(5, 2)
    mixed = w @ v
    assert mixed.shape == (5, 2)
    assert np.allclose(mixed.sum(axis=0), v.sum(axis=0))


def test_mix_shape_mismatch():
    w = metropolis_weights(5, default_edges())
    with pytest.raises(ValueError):
        w @ np.zeros(4)
