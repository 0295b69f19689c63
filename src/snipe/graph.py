"""Directed causal interference graphs.

Nodes are labeled 0..n-1. An edge (j, i) means unit j's treatment can
affect unit i's outcome, so the in-neighborhood N_i collects exactly the
units whose assignment matters for i. Self-loops (i, i) express direct
effects and are expected in most models.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CausalGraph",
    "DependencyIndex",
    "gen_erdos_renyi",
    "in_neighborhood",
    "dependency_index",
    "save_graph",
    "load_graph",
]


class CausalGraph:
    """Immutable directed graph stored as CSR in-neighbor lists: N_i is
    nb_flat[nb_off[i]:nb_off[i + 1]], sorted and duplicate-free.

    Args:
        in_neighbors: one sorted, duplicate-free array of in-neighbor
            indices per node (may include the node itself).
        self_loops: generator intent flag, recorded in the file format;
            derived from the edge set when omitted.
    """

    def __init__(self, in_neighbors: list[np.ndarray], self_loops: bool | None = None):
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

        self.out_degrees = np.bincount(self.nb_flat, minlength=self.n)
        self.d_in = int(self.in_degrees.max()) if self.n else 0
        self.d_out = int(self.out_degrees.max()) if self.n else 0
        self.d_max = max(self.d_in, self.d_out)

        self.has_self_loop = np.zeros(self.n, dtype=bool)
        self.has_self_loop[self.nb_flat[self.nb_flat == row]] = True
        self.self_loops = bool(self.has_self_loop.all()) if self_loops is None else bool(self_loops)

        # padded neighbor-index matrix for vectorized per-node reductions;
        # the sentinel column index n maps to a zero slot appended by callers
        self.nb_pad = np.full((self.n, max(self.d_in, 1)), self.n, dtype=np.int64)
        self.nb_pad[row, np.arange(row.size) - self.nb_off[row]] = self.nb_flat
        self._csr = None

    def in_csr(self):
        """0/1 in-adjacency as a scipy CSR matrix (row i = N_i), cached;
        (in_csr() @ z) counts treated in-neighbors per node."""
        if self._csr is None:
            from scipy.sparse import csr_matrix

            self._csr = csr_matrix(
                (np.ones(self.nb_flat.size), self.nb_flat, self.nb_off), shape=(self.n, self.n)
            )
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
        u = rng.random(n)
        nb = np.flatnonzero(u < p_edge)
        if self_loops:
            if np.searchsorted(nb, i) >= nb.size or nb[np.searchsorted(nb, i)] != i:
                nb = np.insert(nb, np.searchsorted(nb, i), i)
        else:
            pos = np.searchsorted(nb, i)
            if pos < nb.size and nb[pos] == i:
                nb = np.delete(nb, pos)
        nbrs.append(nb)
    return CausalGraph(nbrs, self_loops=self_loops)


def in_neighborhood(g: CausalGraph, i: int) -> np.ndarray:
    return g.in_neighborhood(i)


@dataclass
class DependencyIndex:
    """All ordered pairs (i, j) whose in-neighborhoods overlap, j = i
    included, sorted by (i, j).

    Pair k shares the in-neighbors inter_flat[inter_off[k]:inter_off[k + 1]]
    (ascending). Indexing gives M_i = {j : N_i intersects N_j}, the row
    pair_j[row_off[i]:row_off[i + 1]].
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    inter_flat: np.ndarray
    inter_off: np.ndarray
    row_off: np.ndarray

    def __getitem__(self, i: int) -> np.ndarray:
        return self.pair_j[self.row_off[i] : self.row_off[i + 1]]


def dependency_index(g: CausalGraph) -> DependencyIndex:
    """Exact dependency pairs: every ordered pair of units with a shared
    in-neighbor k, built from the out-lists out(k) = {i : k in N_i}, each
    contributing all |out(k)|^2 of its pairs."""
    dst = np.repeat(np.arange(g.n), g.in_degrees)
    out_flat = dst[np.argsort(g.nb_flat, kind="stable")]
    out_off = np.zeros(g.n + 1, dtype=np.int64)
    out_off[1:] = np.cumsum(g.out_degrees)
    # slot t of shared neighbor k's block is the pair (out(k)[t // c], out(k)[t % c])
    c = g.out_degrees
    wk = np.repeat(np.arange(g.n), c * c)
    t = np.arange(wk.size) - np.repeat(np.cumsum(c * c) - c * c, c * c)
    wi = out_flat[out_off[wk] + t // c[wk]]
    wj = out_flat[out_off[wk] + t % c[wk]]
    order = np.lexsort((wk, wj, wi))
    wi, wj, wk = wi[order], wj[order], wk[order]
    boundary = np.ones(wi.size, dtype=bool)
    boundary[1:] = (wi[1:] != wi[:-1]) | (wj[1:] != wj[:-1])
    starts = np.flatnonzero(boundary)
    pair_i = wi[starts]
    return DependencyIndex(
        pair_i=pair_i,
        pair_j=wj[starts],
        inter_flat=wk,
        inter_off=np.append(starts, wi.size),
        row_off=np.searchsorted(pair_i, np.arange(g.n + 1)),
    )


def save_graph(g: CausalGraph, path) -> None:
    obj = {"n": g.n, "self_loops": g.self_loops, "edges": [list(e) for e in g.edges()]}
    Path(path).write_text(json.dumps(obj))


def load_graph(path) -> CausalGraph:
    obj = json.loads(Path(path).read_text())
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError("graph file: n must be a positive integer")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for src, dst in obj["edges"]:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"graph file: edge ({src}, {dst}) out of range")
        if (src, dst) in seen:
            raise ValueError(f"graph file: duplicate edge ({src}, {dst})")
        seen.add((src, dst))
        nbrs[dst].append(src)
    return CausalGraph(
        [np.array(sorted(nb), dtype=np.int64) for nb in nbrs],
        self_loops=bool(obj.get("self_loops", False)),
    )
