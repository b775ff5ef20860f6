"""Communication topology and gossip mixing for the battery agents.

Agents exchange dual variables over a sparse undirected graph, given as a
vertex count n and a list of (i, j) edges. Mixing uses Metropolis-Hastings
weights, which are doubly stochastic by construction for any connected
undirected graph, so repeated mixing preserves the network sum and
contracts every agent's value toward the network average.
"""
from __future__ import annotations

import numpy as np

DEFAULT_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3))


class TopologyError(ValueError):
    """Raised for malformed or disconnected communication graphs."""


def default_edges(n: int = 5) -> tuple:
    """The shipped graph: for five agents the ring with one chord (1, 3);
    for any other n the full ring 0-1-...-(n-1)-0, which is one edge for
    two agents and none for one."""
    if n == 5:
        return DEFAULT_EDGES
    return tuple((i, (i + 1) % n) for i in range(n)) if n > 1 else ()


def metropolis_weights(n: int, edges) -> np.ndarray:
    """Metropolis-Hastings weight matrix of the graph on vertices 0..n-1.

    w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, w_ii absorbs the remainder.
    An edge may be listed more than once, in either order. Raises
    TopologyError at the first self loop or out-of-range edge, and then when
    the graph is disconnected.
    """
    adj = [set() for _ in range(n)]
    for i, j in edges:
        if i == j:
            raise TopologyError(f"self loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise TopologyError(f"edge ({i}, {j}) out of range for n={n}")
        adj[i].add(j)
        adj[j].add(i)
    frontier = [0] if n else []
    reached = set(frontier)
    while frontier:
        for j in adj[frontier.pop()] - reached:
            reached.add(j)
            frontier.append(j)
    if len(reached) < n:
        raise TopologyError("graph is disconnected")
    w = np.zeros((n, n))
    for i, near in enumerate(adj):
        for j in near:
            w[i, j] = 1.0 / (1.0 + max(len(near), len(adj[j])))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w
