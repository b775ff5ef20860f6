"""Communication topology and gossip mixing for the battery agents.

Agents exchange dual variables over a sparse undirected graph. Mixing uses
Metropolis-Hastings weights, which are doubly stochastic by construction for
any connected undirected graph, so repeated mixing preserves the network sum
and contracts every agent's value toward the network average.
"""
from __future__ import annotations

import numpy as np

DEFAULT_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3))


class TopologyError(ValueError):
    """Raised for malformed or disconnected communication graphs."""


class Topology:
    """Undirected agent graph given as a vertex count and an edge list."""

    def __init__(self, n: int, edges) -> None:
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            if i == j:
                raise TopologyError(f"self loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise TopologyError(f"edge ({i}, {j}) out of range for n={n}")
            seen.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = tuple(sorted(seen))

    def degree(self, i: int) -> int:
        return sum(1 for a, b in self.edges if i in (a, b))

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return tuple(sorted(out))

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        reached = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in self.neighbors(i):
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
        return len(reached) == self.n


def default_topology(n: int = 5) -> Topology:
    """Five-agent ring with one chord; smaller n takes the ring prefix."""
    if n == 5:
        return Topology(5, DEFAULT_EDGES)
    edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)][: n - 1]
    return Topology(n, edges)


def build_metropolis_weights(topology: Topology) -> np.ndarray:
    """Metropolis-Hastings weight matrix for a connected topology.

    w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, w_ii absorbs the remainder.
    Raises TopologyError when the graph is disconnected (n > 1).
    """
    if topology.n > 1 and not topology.is_connected():
        raise TopologyError("graph is disconnected")
    n = topology.n
    w = np.zeros((n, n))
    deg = [topology.degree(i) for i in range(n)]
    for i, j in topology.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w
