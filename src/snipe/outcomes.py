"""Polynomial potential-outcomes models over binary treatment vectors.

Each unit i carries a sparse map from subsets S of its in-neighborhood
(|S| <= beta, including the empty set) to a real coefficient c[i][S]; the
outcome is Y_i(z) = sum_S c[i][S] * prod_{j in S} z_j. Since the z_j are
binary, any outcome function of at-most-beta-order interactions within
the neighborhood takes this form.

For evaluation a model caches its nonempty terms, grouped by node, as a
sparse term-incidence matrix (terms x n, row t = the members of term t).
A term's product is 1 exactly when its treated-member count reaches its
size, so `evaluate` costs one sparse product with the treatments, one
comparison and one per-node segment sum, for a single draw or a batch.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._segments import segment_sum
from .graph import CausalGraph

__all__ = [
    "DegenerateModelError",
    "OutcomesModel",
    "GroundTruth",
    "evaluate",
    "expand_power",
    "gen_experiment_model",
    "ground_truth",
    "save_model",
    "load_model",
]


class DegenerateModelError(ValueError):
    """Raised when a generated model cannot normalize its interaction terms."""


Subset = tuple[int, ...]


class OutcomesModel:
    """Sparse per-node subset-coefficient maps of order at most beta.

    Args:
        beta: maximum interaction order (>= 1).
        terms: one dict per node mapping canonically sorted index tuples
            (subset of that node's in-neighborhood) to coefficients.
        graph: the graph the model was built for; subset keys are
            validated against its in-neighborhoods.
    """

    def __init__(self, beta: int, terms: list[dict[Subset, float]], graph: CausalGraph):
        if beta < 1:
            raise ValueError("beta must be >= 1")
        if len(terms) != graph.n:
            raise ValueError("need one term map per node")
        self.beta = int(beta)
        self.graph = graph
        self.terms: list[dict[Subset, float]] = []
        for i, tmap in enumerate(terms):
            nb = set(graph.in_neighborhood(i).tolist())
            clean: dict[Subset, float] = {}
            for subset, coeff in tmap.items():
                key = tuple(int(v) for v in subset)
                if list(key) != sorted(set(key)):
                    raise ValueError(f"subset {subset} of node {i} is not sorted/duplicate-free")
                if len(key) > beta:
                    raise ValueError(f"subset {subset} of node {i} exceeds order beta={beta}")
                if not set(key) <= nb:
                    raise ValueError(f"subset {subset} of node {i} is not inside its in-neighborhood")
                clean[key] = float(coeff)
            self.terms.append(clean)
        self._flat = None

    @property
    def n(self) -> int:
        return self.graph.n

    def _flat_terms(self):
        # cached for vectorized evaluation: the per-node constant from the
        # empty subset, and the nonempty terms grouped by node as a sparse
        # term-incidence matrix (row t holds the members of term t)
        if self._flat is None:
            from scipy.sparse import csr_matrix

            const = np.zeros(self.n)
            coeffs, sizes, members, node_counts = [], [], [], np.zeros(self.n, dtype=np.int64)
            for i, tmap in enumerate(self.terms):
                for subset, coeff in sorted(tmap.items()):
                    if not subset:
                        const[i] += coeff
                        continue
                    coeffs.append(coeff)
                    sizes.append(len(subset))
                    members.extend(subset)
                    node_counts[i] += 1
            node_off = np.zeros(self.n + 1, dtype=np.int64)
            node_off[1:] = np.cumsum(node_counts)
            sizes = np.asarray(sizes, dtype=np.int64)
            mem_off = np.zeros(sizes.size + 1, dtype=np.int64)
            mem_off[1:] = np.cumsum(sizes)
            incidence = csr_matrix(
                (np.ones(mem_off[-1]), np.asarray(members, dtype=np.int64), mem_off),
                shape=(sizes.size, self.n),
            )
            self._flat = (const, np.asarray(coeffs, dtype=np.float64), sizes, incidence, node_off)
        return self._flat


@dataclass
class GroundTruth:
    """Exact estimands of a model: computed from coefficients, not samples."""

    tte: float
    ate: float
    te_alpha: dict[int, float]
    y_max: float


def evaluate(model: OutcomesModel, z: np.ndarray) -> np.ndarray:
    """Exact polynomial outcomes for one assignment (n,) or a batch (m, n).

    The cached term-incidence matrix times the treatments counts each
    term's treated members; a term is active when its count reaches its
    size, and each node sums its active terms' coefficients onto its
    constant. Raises ValueError for a wrong length or for a treatment
    outside {0, 1}, which could otherwise reach a count without every
    member being treated.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.n:
        raise ValueError(f"treatment vector length {z.shape[-1]} != n = {model.n}")
    if not ((z == 0.0) | (z == 1.0)).all():
        raise ValueError("treatments must be 0 or 1")
    const, coeffs, sizes, incidence, node_off = model._flat_terms()
    if coeffs.size == 0:
        return np.broadcast_to(const, z.shape).copy()
    counts = (incidence @ z.T).T  # (terms,) or (m, terms); exact small integers
    return const + segment_sum(np.where(counts == sizes, coeffs, 0.0), node_off)


def expand_power(weights: dict[int, float], ell: int) -> dict[Subset, float]:
    """Exact subset coefficients of (sum_j w_j z_j)**ell over binary z.

    Repeated factors collapse along the way (z_j**2 = z_j), so the result
    never contains subsets larger than ell.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    items = sorted((int(j), float(w)) for j, w in weights.items())
    cur: dict[Subset, float] = {(j,): w for j, w in items}
    for _ in range(ell - 1):
        nxt: dict[Subset, float] = {}
        for subset, coeff in cur.items():
            for j, w in items:
                if j in subset:
                    key = subset
                else:
                    key = tuple(sorted(subset + (j,)))
                nxt[key] = nxt.get(key, 0.0) + coeff * w
        cur = nxt
    return cur


def gen_experiment_model(
    g: CausalGraph, beta: int, r: float, seed, scale: float = 1.0
) -> OutcomesModel:
    """Random benchmark model: baseline + heterogeneous linear spillovers +
    normalized interaction powers up to order beta.

    Per node i the closed form is
        Y_i(z) = c0_i + sum_{j in N_i} w_ij z_j
                 + sum_{l=2..beta} (sum_j w_ij z_j / sum_j w_ij)**l,
    expanded exactly into the sparse subset-coefficient map. Draws:
    c0_i ~ U[0, scale], w_ii ~ U[0, scale], and for j != i
    w_ij = v_j |N_i| / sum_{k in out(j), k != j} |N_k| with v_j ~ U[0, scale*r],
    so each unit's total influence v_j is split among its out-neighbors in
    proportion to their in-degrees. `scale` multiplies every coefficient
    draw; r controls network relative to direct effects.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if not g.has_self_loop.all():
        raise ValueError("every node needs a self-loop so its direct effect is defined")
    rng = np.random.default_rng(seed)
    n = g.n
    c_base = rng.random(n) * scale
    c_self = rng.random(n) * scale
    v = rng.random(n) * (scale * r)

    # share v_j among out-neighbors of j (selves excluded on both sides),
    # proportional to the receiving node's in-degree
    denom = np.zeros(n)
    np.add.at(denom, g.nb_flat, np.repeat(g.in_degrees, g.in_degrees).astype(np.float64))
    denom -= g.in_degrees * g.has_self_loop  # self-loop edges do not receive influence
    denom[denom == 0.0] = 1.0

    terms: list[dict[Subset, float]] = []
    for i in range(n):
        nb = g.in_neighborhood(i)
        w = np.where(nb == i, c_self[i], v[nb] * g.in_degrees[i] / denom[nb])
        tmap: dict[Subset, float] = {(): float(c_base[i])}
        for j, wj in zip(nb.tolist(), w.tolist()):
            tmap[(j,)] = tmap.get((j,), 0.0) + wj
        if beta >= 2:
            total = float(w.sum())
            if total == 0.0:
                raise DegenerateModelError(
                    f"node {i}: zero total linear weight, cannot normalize interaction terms"
                )
            norm = {int(j): float(wj) / total for j, wj in zip(nb, w)}
            for ell in range(2, beta + 1):
                for subset, coeff in expand_power(norm, ell).items():
                    tmap[subset] = tmap.get(subset, 0.0) + coeff
        terms.append(tmap)
    return OutcomesModel(beta, terms, g)


def ground_truth(model: OutcomesModel) -> GroundTruth:
    """Exact estimands summed from the coefficient map, cross-checked
    against evaluating the model at all-ones minus all-zeros."""
    n = model.n
    tte = 0.0
    ate = 0.0
    te_alpha = {a: 0.0 for a in range(1, model.beta + 1)}
    y_max = 0.0
    for i, tmap in enumerate(model.terms):
        abs_sum = 0.0
        for subset, coeff in tmap.items():
            abs_sum += abs(coeff)
            if subset:
                tte += coeff
                te_alpha[len(subset)] += coeff
            if subset == (i,):
                ate += coeff
        y_max = max(y_max, abs_sum)
    tte /= n
    ate /= n
    te_alpha = {a: v / n for a, v in te_alpha.items()}

    ones = np.ones(n, dtype=np.int64)
    zeros = np.zeros(n, dtype=np.int64)
    direct = float(np.sum(evaluate(model, ones) - evaluate(model, zeros))) / n
    if abs(direct - tte) > 1e-10 * max(1.0, abs(tte)):
        raise AssertionError(
            f"coefficient TTE {tte} disagrees with evaluated contrast {direct}"
        )
    return GroundTruth(tte=tte, ate=ate, te_alpha=te_alpha, y_max=y_max)


def save_model(model: OutcomesModel, path) -> None:
    nodes = []
    for i, tmap in enumerate(model.terms):
        entries = [
            {"subset": list(subset), "coeff": coeff} for subset, coeff in sorted(tmap.items())
        ]
        nodes.append({"i": i, "terms": entries})
    Path(path).write_text(json.dumps({"beta": model.beta, "nodes": nodes}))


def load_model(path, graph: CausalGraph) -> OutcomesModel:
    obj = json.loads(Path(path).read_text())
    terms: list[dict[Subset, float]] = [{} for _ in range(graph.n)]
    for node in obj["nodes"]:
        i = node["i"]
        terms[i] = {tuple(t["subset"]): t["coeff"] for t in node["terms"]}
    return OutcomesModel(obj["beta"], terms, graph)
