"""Polynomial potential-outcomes models over binary treatment vectors.

Each unit i carries a sparse map from subsets S of its in-neighborhood
(|S| <= beta, including the empty set) to a real coefficient c[i][S]; the
outcome is Y_i(z) = sum_S c[i][S] * prod_{j in S} z_j. Since the z_j are
binary, any outcome function of at-most-beta-order interactions within
the neighborhood takes this form.

A model keeps its terms once, as flat arrays grouped by node, with the
nonempty terms as a sparse term-incidence matrix (terms x n, row t = the
members of term t) and the coefficients as a sparse node-by-term matrix
(n x terms, row i = node i's terms); dicts appear only at the constructor
and in `OutcomesModel.terms`, for the JSON file format. A term's product
is 1 exactly when its treated-member count reaches its size, so `evaluate`
is two sparse products around one comparison.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .design import validate_treatment_vector
from .estimators import _check_order
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
    """Sparse per-node subset-coefficient maps of order at most beta, kept
    as flat arrays: `const` (the empty-subset coefficients), the nonempty
    terms' `coeffs`, `sizes` and `incidence` rows, each node's subsets in
    sorted order, and `node_off` (node i owns terms node_off[i]:node_off[i+1]).
    `coeff_matrix` is the n x terms CSR matrix holding `coeffs` in those rows.

    Args:
        beta: maximum interaction order (>= 1).
        terms: one dict per node mapping strictly increasing index tuples
            (subsets of that node's in-neighborhood) to finite coefficients.
        graph: the graph the model was built for.
    """

    def __init__(self, beta: int, terms: list[dict[Subset, float]], graph: CausalGraph):
        from scipy.sparse import csr_matrix

        beta = _check_order(beta, "beta")
        if len(terms) != graph.n:
            raise ValueError("need one term map per node")
        self.beta, self.graph, n = beta, graph, graph.n
        keys = [key for tmap in terms for key in tmap]
        owner = np.repeat(np.arange(n), [len(tmap) for tmap in terms])
        coeff = np.fromiter(chain.from_iterable(t.values() for t in terms), float, len(keys))
        size = np.fromiter(map(len, keys), np.int64, len(keys))
        tid = np.repeat(np.arange(len(keys)), size)  # the term of each member slot
        raw = np.fromiter(chain.from_iterable(keys), float, tid.size)
        members = np.clip(np.nan_to_num(raw), 0, max(n - 1, 0)).astype(np.int64)
        # member j of node i lies in N_i when i*n + j is among the graph's edge
        # keys, which are sorted because its CSR rows are
        edges = np.repeat(np.arange(n), graph.in_degrees) * n + graph.nb_flat
        key = owner[tid] * n + members
        outside = (np.append(edges, -1)[np.searchsorted(edges, key)] != key) | (raw != members)
        unsorted = np.append(False, (tid[1:] == tid[:-1]) & (np.diff(members) <= 0))
        for bad, why in [
            (~np.isfinite(coeff), "has a non-finite coefficient"),
            (np.bincount(tid, raw != np.floor(raw), len(keys)) > 0, "has non-integer members"),
            (np.bincount(tid, outside, len(keys)) > 0, "is not inside its in-neighborhood"),
            (np.bincount(tid, unsorted, len(keys)) > 0, "is not sorted/duplicate-free"),
            (size > beta, f"exceeds order beta={beta}"),
        ]:
            if bad.any():
                t = int(bad.argmax())
                raise ValueError(f"subset {keys[t]} of node {owner[t]} {why}")

        # sort each node's terms by subset: one row of members per term,
        # padded with -1 so that a prefix sorts before its extensions
        rows = np.full((len(keys), int(size.max(initial=0))), -1)
        rows[tid, np.arange(tid.size) - np.repeat(np.cumsum(size) - size, size)] = members
        order = np.lexsort([*rows.T[::-1], owner])
        self.const = np.zeros(n)
        self.const[owner[size == 0]] += coeff[size == 0]
        order = order[size[order] > 0]
        self.coeffs, self.sizes, rows = coeff[order], size[order], rows[order]
        self.node_off = np.append(0, np.cumsum(np.bincount(owner[order], minlength=n)))
        ptr = np.append(0, np.cumsum(self.sizes))
        self.incidence = csr_matrix((np.ones(ptr[-1]), rows[rows >= 0], ptr), (order.size, n))
        self.coeff_matrix = csr_matrix((self.coeffs, np.arange(order.size), self.node_off), (n, order.size))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def terms(self) -> list[dict[Subset, float]]:
        """Per-node maps, rebuilt from the arrays on every access (read once,
        not per node): the constant under (), then subsets in sorted order."""
        members, ptr = self.incidence.indices.tolist(), self.incidence.indptr.tolist()
        subsets = [tuple(members[a:b]) for a, b in zip(ptr, ptr[1:])]
        coeffs, off = self.coeffs.tolist(), self.node_off.tolist()
        return [
            {(): c, **dict(zip(subsets[a:b], coeffs[a:b]))}
            for c, a, b in zip(self.const.tolist(), off, off[1:])
        ]

    def y_max(self) -> float:
        """Largest per-node l1 norm sum_S |c[i][S]|, each an exact math.fsum;
        it bounds |Y_i(z)| for every assignment."""
        c, off = np.abs(self.coeffs).tolist(), self.node_off.tolist()
        norms = (math.fsum([k, *c[a:b]]) for k, a, b in zip(abs(self.const).tolist(), off, off[1:]))
        return max(norms, default=0.0)


@dataclass
class GroundTruth:
    """Exact estimands of a model: computed from coefficients, not samples.
    `direct[i]` is node i's direct-effect coefficient c[i][{i}] (0 if absent)."""

    tte: float
    ate: float
    te_alpha: dict[int, float]
    y_max: float
    direct: np.ndarray


def evaluate(model: OutcomesModel, z: np.ndarray) -> np.ndarray:
    """Exact polynomial outcomes for one assignment (n,) or a batch (m, n):
    a term is active when its treated-member count (one sparse product)
    reaches its size, and each node adds its active coefficients, in term
    order, to its constant (a second sparse product). A batch's rows equal
    the single calls bit for bit. Raises ValueError for a wrong length or a
    treatment outside {0, 1}, which could reach a term's size without every
    member treated.
    """
    z = validate_treatment_vector(z, model.n).astype(np.float64)
    counts = model.incidence @ z.T  # (terms,) or (terms, m); exact small integers
    active = counts.T == model.sizes
    # a batch sums to (n, m); order="C" returns it as m C-ordered rows
    return np.add(model.const, (model.coeff_matrix @ active.T).T, order="C")


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
                key = subset if j in subset else tuple(sorted(subset + (j,)))
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
    beta = _check_order(beta, "beta")
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
    denom = g.in_csr().T @ g.in_degrees
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
    """Exact estimands as math.fsum sums over the coefficient arrays,
    cross-checked against evaluating the model at all-ones minus all-zeros."""
    n, coeffs, sizes, inc = model.n, model.coeffs, model.sizes, model.incidence
    owner = np.repeat(np.arange(n), np.diff(model.node_off))
    own = (sizes == 1) & (inc.indices[inc.indptr[:-1]] == owner)
    direct = np.zeros(n)
    direct[owner[own]] = coeffs[own]
    tte = math.fsum(coeffs.tolist()) / n
    contrast = float(np.sum(evaluate(model, np.ones(n)) - evaluate(model, np.zeros(n)))) / n
    if abs(contrast - tte) > 1e-10 * max(1.0, abs(tte)):
        raise AssertionError(f"coefficient TTE {tte} disagrees with evaluated contrast {contrast}")
    return GroundTruth(
        tte=tte,
        ate=math.fsum(direct.tolist()) / n,
        te_alpha={a: math.fsum(coeffs[sizes == a].tolist()) / n for a in range(1, model.beta + 1)},
        y_max=model.y_max(),
        direct=direct,
    )


def save_model(model: OutcomesModel, path) -> None:
    nodes = [
        {"i": i, "terms": [{"subset": list(s), "coeff": c} for s, c in tmap.items()]}
        for i, tmap in enumerate(model.terms)
    ]
    Path(path).write_text(json.dumps({"beta": model.beta, "nodes": nodes}))


def load_model(path, graph: CausalGraph) -> OutcomesModel:
    """Read a model file. beta is an integer, node ids are distinct integers
    in [0, n), each subset is a list of integers given once per node, and
    each coeff is a number; nodes left out get an empty map."""
    obj = json.loads(Path(path).read_text())
    if type(obj) is not dict:
        raise ValueError("model file: the top level is not an object")
    if type(obj["beta"]) is not int:
        raise ValueError(f"model file: beta {obj['beta']!r} is not an integer")
    terms: list = [None] * graph.n
    if type(obj["nodes"]) is not list:
        raise ValueError(f"model file: nodes {obj['nodes']!r} is not a list")
    for node in obj["nodes"]:
        if type(node) is not dict:
            raise ValueError(f"model file: node entry {node!r} is not an object")
        i = node["i"]
        if type(i) is not int or not 0 <= i < graph.n or terms[i] is not None:
            raise ValueError(f"model file: node id {i!r} is not a unique integer in [0, {graph.n})")
        terms[i] = {}
        if type(node["terms"]) is not list:
            raise ValueError(f"model file: terms {node['terms']!r} of node {i} is not a list")
        for t in node["terms"]:
            if type(t) is not dict:
                raise ValueError(f"model file: term entry {t!r} of node {i} is not an object")
            s, c = t["subset"], t["coeff"]
            if type(s) is not list or any(type(j) is not int for j in s):
                raise ValueError(f"model file: subset {s!r} of node {i} is not a list or has non-integer members")
            if type(c) not in (int, float):
                raise ValueError(f"model file: coeff {c!r} of node {i} is not a number")
            if tuple(s) in terms[i]:
                raise ValueError(f"model file: subset {s} of node {i} is given twice")
            terms[i][tuple(s)] = c
    return OutcomesModel(obj["beta"], [t or {} for t in terms], graph)
