"""Directed causal interference graphs.

Nodes are labeled 0..n-1. An edge (j, i) means unit j's treatment can
affect unit i's outcome, so the in-neighborhood N_i collects exactly the
units whose assignment matters for i. Self-loops (i, i) express direct
effects and are expected in most models.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "CausalGraph",
    "gen_erdos_renyi",
    "in_neighborhood",
    "save_graph",
    "load_graph",
]


class CausalGraph:
    """Immutable directed graph stored once, as its 0/1 in-adjacency CSR
    matrix `in_csr()`, whose `indices` and `indptr` are `nb_flat` and
    `nb_off`: N_i is nb_flat[nb_off[i]:nb_off[i + 1]], sorted and duplicate-free.

    Args:
        in_neighbors: one sorted, duplicate-free array of in-neighbor
            indices per node (may include the node itself).

    `self_loops` is True when every node is its own in-neighbor.
    """

    def __init__(self, in_neighbors: list[np.ndarray]):
        from scipy.sparse import csr_matrix

        self.n = len(in_neighbors)
        nbrs = [np.asarray(nb, dtype=np.int64) for nb in in_neighbors]
        self.nb_off = np.zeros(self.n + 1, dtype=np.int64)
        self.nb_off[1:] = np.cumsum([nb.size for nb in nbrs])
        self.nb_flat = np.concatenate(nbrs) if self.n else np.empty(0, dtype=np.int64)
        self.in_degrees = np.diff(self.nb_off)

        row = np.repeat(np.arange(self.n), self.in_degrees)  # node owning each slot
        bad = (self.nb_flat < 0) | (self.nb_flat >= self.n)
        if bad.any():
            raise ValueError(f"neighbor index out of range for node {row[bad.argmax()]}")
        bad = (np.diff(self.nb_flat) <= 0) & (row[1:] == row[:-1])
        if bad.any():
            raise ValueError(f"in-neighbor list of node {row[bad.argmax()]} must be sorted and duplicate-free")
        self._csr = csr_matrix((np.ones(self.nb_flat.size), self.nb_flat, self.nb_off), shape=(self.n, self.n))
        self.nb_flat, self.nb_off = self._csr.indices, self._csr.indptr  # int32 where scipy downcasts

        self.out_degrees = np.bincount(self.nb_flat, minlength=self.n)
        self.d_in = int(self.in_degrees.max()) if self.n else 0
        self.d_out = int(self.out_degrees.max()) if self.n else 0
        self.d_max = max(self.d_in, self.d_out)

        self.has_self_loop = np.zeros(self.n, dtype=bool)
        self.has_self_loop[self.nb_flat[self.nb_flat == row]] = True
        self.self_loops = bool(self.has_self_loop.all())

        # padded neighbor-index matrix for vectorized per-node reductions;
        # the sentinel column index n maps to a zero slot appended by callers
        self.nb_pad = np.full((self.n, max(self.d_in, 1)), self.n, dtype=np.int64)
        self.nb_pad[row, np.arange(row.size) - self.nb_off[row]] = self.nb_flat

    def in_csr(self):
        """The 0/1 in-adjacency matrix A (row i = N_i): A @ z counts treated
        in-neighbors per node, and exp(A @ log x) is each prod_{j in N_i} x_j."""
        return self._csr

    def in_neighborhood(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range [0, {self.n})")
        return self.nb_flat[self.nb_off[i] : self.nb_off[i + 1]]

    def edges(self) -> list[tuple[int, int]]:
        """Edge list [(src, dst), ...] sorted lexicographically."""
        dst = np.repeat(np.arange(self.n), self.in_degrees)
        order = np.lexsort((dst, self.nb_flat))
        return list(zip(self.nb_flat[order].tolist(), dst[order].tolist()))

    def __repr__(self):
        return f"CausalGraph(n={self.n}, d_in={self.d_in}, d_out={self.d_out})"


def gen_erdos_renyi(n: int, p_edge: float, self_loops: bool = True, seed=0) -> CausalGraph:
    """Directed Erdos-Renyi graph: each ordered pair (j, i), j != i, is an
    edge independently with probability p_edge.

    Self-loops, when enabled, are inserted deterministically so that every
    unit's own treatment can affect its outcome. Deterministic for a fixed
    seed: destination rows are sampled in index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("p_edge must be in [0, 1]")
    rng = np.random.default_rng(seed)
    nbrs = []
    for i in range(n):
        edge = rng.random(n) < p_edge
        edge[i] = self_loops
        nbrs.append(np.flatnonzero(edge))
    return CausalGraph(nbrs)


def in_neighborhood(g: CausalGraph, i: int) -> np.ndarray:
    return g.in_neighborhood(i)


def save_graph(g: CausalGraph, path) -> None:
    obj = {"n": g.n, "self_loops": g.self_loops, "edges": [list(e) for e in g.edges()]}
    Path(path).write_text(json.dumps(obj))


def load_graph(path) -> CausalGraph:
    """Read a graph file. n is a positive integer, each edge a pair of
    integers in [0, n) given once, and `self_loops`, when present, a bool
    that says whether every node has its self-loop edge."""
    obj = json.loads(Path(path).read_text())
    if type(obj) is not dict:
        raise ValueError("graph file: the top level is not an object")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise ValueError("graph file: n must be a positive integer")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    if type(obj["edges"]) is not list:
        raise ValueError(f"graph file: edges {obj['edges']!r} is not a list")
    for edge in obj["edges"]:
        if type(edge) is not list or len(edge) != 2 or any(type(v) is not int for v in edge):
            raise ValueError(f"graph file: edge {edge!r} is not a pair of integers")
        src, dst = edge
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"graph file: edge ({src}, {dst}) out of range")
        if (src, dst) in seen:
            raise ValueError(f"graph file: duplicate edge ({src}, {dst})")
        seen.add((src, dst))
        nbrs[dst].append(src)
    g = CausalGraph([np.array(sorted(nb), dtype=np.int64) for nb in nbrs])
    flag = obj.get("self_loops", g.self_loops)
    if type(flag) is not bool or flag != g.self_loops:
        raise ValueError(f"graph file: self_loops {flag!r} is not a bool that matches the edges")
    return g
