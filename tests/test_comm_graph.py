"""Tests for the gossip topology and Metropolis-Hastings mixing."""
import numpy as np
import pytest

from orra.comm_graph import (
    Topology,
    TopologyError,
    build_metropolis_weights,
    default_topology,
)


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


def test_default_topology_is_five_agent_ring_with_chord():
    topo = default_topology()
    assert topo.n == 5
    assert topo.edges == ((0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4))
    assert topo.is_connected()


def test_degrees_of_default_topology():
    topo = default_topology()
    assert [topo.degree(i) for i in range(5)] == [2, 3, 2, 3, 2]


def test_neighbors():
    topo = default_topology()
    assert topo.neighbors(1) == (0, 2, 3)
    assert topo.neighbors(4) == (0, 3)


def test_rejects_self_loop():
    with pytest.raises(TopologyError):
        Topology(3, [(0, 0)])


def test_rejects_out_of_range_edge():
    with pytest.raises(TopologyError):
        Topology(3, [(0, 3)])


def test_disconnected_graph_rejected_by_weight_builder():
    topo = Topology(4, [(0, 1), (2, 3)])
    assert not topo.is_connected()
    with pytest.raises(TopologyError):
        build_metropolis_weights(topo)


def test_metropolis_weights_known_values():
    # On the ring+chord: deg = [2,3,2,3,2]. Edge (0,1): 1/(1+3) = 0.25.
    # Edge (0,4): 1/(1+2) = 1/3. Edge (1,3): 1/(1+3) = 0.25.
    topo = default_topology()
    w = build_metropolis_weights(topo)
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
        w = build_metropolis_weights(Topology(n, edges))
        assert check_doubly_stochastic(w)


def test_check_doubly_stochastic_rejects_bad_matrices():
    assert not check_doubly_stochastic(np.array([[0.5, 0.5], [0.3, 0.7]]).T * 1.1)
    assert not check_doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    assert not check_doubly_stochastic(np.ones((2, 3)))


def test_mix_preserves_sum_and_contracts_spread():
    topo = default_topology()
    w = build_metropolis_weights(topo)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=5)
        mixed = w @ v
        assert mixed.sum() == pytest.approx(v.sum())
        assert mixed.max() - mixed.min() <= v.max() - v.min() + 1e-12


def test_repeated_mixing_converges_to_average():
    topo = default_topology()
    w = build_metropolis_weights(topo)
    v = np.array([10.0, -4.0, 3.0, 0.5, -9.5])
    target = v.mean()
    for _ in range(200):
        v = w @ v
    assert np.abs(v - target).max() < 1e-10


def test_mix_handles_matrix_valued_states():
    topo = default_topology()
    w = build_metropolis_weights(topo)
    v = np.arange(10.0).reshape(5, 2)
    mixed = w @ v
    assert mixed.shape == (5, 2)
    assert np.allclose(mixed.sum(axis=0), v.sum(axis=0))


def test_mix_shape_mismatch():
    w = build_metropolis_weights(default_topology())
    with pytest.raises(ValueError):
        w @ np.zeros(4)
