"""Polynomial potential-outcomes models over binary treatment vectors.

Each unit i carries a sparse map from subsets S of its in-neighborhood
(|S| <= beta, including the empty set) to a real coefficient c[i][S]; the
outcome is Y_i(z) = sum_S c[i][S] * prod_{j in S} z_j. Since the z_j are
binary, any outcome function of at-most-beta-order interactions within
the neighborhood takes this form.

A model keeps its terms once, as flat arrays grouped by node, with the
nonempty terms as a sparse term-incidence matrix (terms x n, row t = the
members of term t) and the coefficients as a sparse node-by-term matrix
(n x terms, row i = node i's terms). The benchmark generator builds those
arrays directly from the graph's CSR; dicts appear only at the constructor,
which flattens them into the same store, and in `OutcomesModel.terms`, for
the JSON file format. Each node's terms are kept by size, then
lexicographically (the package's one subset order), and the store frees
each check's temporaries before the next, so a build peaks at under three
times the arrays it returns. A term's product is 1 exactly when its
treated-member count reaches its size, so `evaluate` is two sparse
products around one comparison.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
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
    terms' `coeffs`, `sizes` and `incidence` rows in (owner, size, subset)
    order, and `node_off` (node i owns terms node_off[i]:node_off[i+1]).
    `coeff_matrix` is the n x terms CSR matrix holding `coeffs` in those rows.

    Args:
        beta: maximum interaction order (>= 1).
        terms: one dict per node mapping strictly increasing index tuples
            (subsets of that node's in-neighborhood) to finite coefficients.
        graph: the graph the model was built for.
    """

    def __init__(self, beta: int, terms: list[dict[Subset, float]], graph: CausalGraph):
        if len(terms) != graph.n:
            raise ValueError("need one term map per node")
        items = [sorted(tmap.items(), key=lambda kv: (len(kv[0]), kv[0])) for tmap in terms]
        keys = [key for node in items for key, _ in node]
        owner = np.repeat(np.arange(graph.n), [len(tmap) for tmap in terms])
        coeff = np.fromiter((c for node in items for _, c in node), float, len(keys))
        size = np.fromiter(map(len, keys), np.int64, len(keys))
        raw = np.fromiter(chain.from_iterable(keys), float, int(size.sum()))
        self._store(beta, graph, owner, coeff, size, raw)

    def _store(self, beta, graph, owner, coeff, size, raw) -> None:
        """The one path into the arrays: term t of node owner[t] has
        coefficient coeff[t] and the size[t] members that follow the earlier
        terms' members in `raw` (floats, so that a non-integer is named).
        Each caller passes a node's terms in (size, subset) order, and one
        stable sort by owner groups them. Every term is validated and the two
        CSR matrices are built. Each check's temporaries are freed before the
        next is built, which bounds the peak."""
        from scipy.sparse import csr_matrix

        beta = _check_order(beta, "beta")
        self.beta, self.graph, n = beta, graph, graph.n
        start = np.cumsum(size) - size  # each term's first member in raw

        def reject(bad, why):
            if bad.any():
                t = int(bad.argmax())
                a = start[t]
                subset = tuple(int(j) if j.is_integer() else j for j in raw[a : a + size[t]].tolist())
                raise ValueError(f"subset {subset} of node {owner[t]} {why}")

        reject(~np.isfinite(coeff), "has a non-finite coefficient")
        tid = np.repeat(np.arange(size.size), size)  # the term of each member slot
        reject(np.bincount(tid, raw != np.floor(raw), size.size) > 0, "has non-integer members")
        members = np.clip(np.nan_to_num(raw), 0, max(n - 1, 0)).astype(np.int64)
        # member j of node i lies in N_i when i*n + j is among the graph's edge
        # keys, which are sorted because its CSR rows are
        edges = np.repeat(np.arange(n), graph.in_degrees) * n + graph.nb_flat
        key = owner[tid] * n + members
        outside = np.append(edges, -1)[np.searchsorted(edges, key)] != key
        del edges, key
        outside |= raw != members
        reject(np.bincount(tid, outside, size.size) > 0, "is not inside its in-neighborhood")
        del outside
        unsorted = np.append(False, (tid[1:] == tid[:-1]) & (np.diff(members) <= 0))
        reject(np.bincount(tid, unsorted, size.size) > 0, "is not sorted/duplicate-free")
        del tid, unsorted
        reject(size > beta, f"exceeds order beta={beta}")

        self.const = np.zeros(n)
        self.const[owner[size == 0]] += coeff[size == 0]
        order = np.flatnonzero(size)[np.argsort(owner[size > 0], kind="stable")]  # grouped by node
        self.coeffs, self.sizes = coeff[order], size[order]
        self.node_off = np.append(0, np.cumsum(np.bincount(owner[order], minlength=n)))
        ptr = np.append(0, np.cumsum(self.sizes))
        # each sorted term's members, gathered from where the term began
        slot = np.repeat(start[order] - ptr[:-1], self.sizes)
        slot += np.arange(ptr[-1])
        members = members[slot]
        del slot
        self.incidence = csr_matrix((np.ones(ptr[-1]), members, ptr), (order.size, n))
        del members, ptr  # freed when scipy stores its indices as int32 copies
        self.coeff_matrix = csr_matrix((self.coeffs, np.arange(order.size), self.node_off), (n, order.size))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def terms(self) -> list[dict[Subset, float]]:
        """Per-node maps, rebuilt from the arrays on every access (read once,
        not per node): the constant, then subsets in (size, subset) order."""
        members, ptr = self.incidence.indices.tolist(), self.incidence.indptr.tolist()
        subsets = [tuple(members[a:b]) for a, b in zip(ptr, ptr[1:])]
        coeffs, off = self.coeffs.tolist(), self.node_off.tolist()
        return [
            {(): c, **dict(zip(subsets[a:b], coeffs[a:b]))}
            for c, a, b in zip(self.const.tolist(), off, off[1:])
        ]

    def y_max(self) -> float:
        """Largest per-node l1 norm sum_S |c[i][S]|, each an exact math.fsum;
        it bounds |Y_i(z)| for every assignment. Only the nodes whose plain
        float sum lies within its rounding bound of the largest can hold
        the maximum, and only those are summed exactly: a float sum of m
        nonnegative terms has a relative error of at most about
        (m - 1) * eps / 2, and the slack below is over four times that.
        Rounding is monotone, so the largest fsum is the one of the largest
        exact sum."""
        count = np.diff(self.node_off)
        c, k = np.abs(self.coeffs), np.abs(self.const)
        total = np.bincount(np.repeat(np.arange(self.n), count), c, self.n) + k
        slack = 2 * (count + 2) * np.finfo(float).eps
        near = np.flatnonzero(total * (1 + slack) >= (total * (1 - slack)).max(initial=0.0))
        off = self.node_off
        return max((math.fsum([k[i], *c[off[i] : off[i + 1]].tolist()]) for i in near), default=0.0)


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


def gen_experiment_model(
    g: CausalGraph, beta: int, r: float, seed, scale: float = 1.0
) -> OutcomesModel:
    """Random benchmark model: baseline + heterogeneous linear spillovers +
    normalized interaction powers up to order beta.

    Per node i the closed form is
        Y_i(z) = c0_i + sum_{j in N_i} w_ij z_j
                 + sum_{l=2..beta} (sum_j w_ij z_j / sum_j w_ij)**l,
    expanded exactly into subset coefficients. Draws:
    c0_i ~ U[0, scale], w_ii ~ U[0, scale], and for j != i
    w_ij = v_j |N_i| / sum_{k in out(j), k != j} |N_k| with v_j ~ U[0, scale*r],
    so each unit's total influence v_j is split among its out-neighbors in
    proportion to their in-degrees. `scale` multiplies every coefficient
    draw; r controls network relative to direct effects.

    The terms are built as arrays over the graph's CSR slots: every subset
    of size <= beta of each in-neighborhood, with the linear weight plus
    each power's coefficient (`_power_coeffs`) summed in the order
    l = 2..beta. At beta <= 2 every coefficient equals a per-node dict
    expansion of the powers bit for bit.
    """
    model = OutcomesModel.__new__(OutcomesModel)
    model._store(beta, g, *_experiment_terms(g, beta, r, seed, scale))
    return model


def _experiment_terms(g: CausalGraph, beta: int, r: float, seed, scale: float):
    """The terms of `gen_experiment_model` as the store's (owner, coeff,
    size, raw) in (size, owner, subset) order, in a function of its own so
    that the subset and power temporaries are freed before the store."""
    beta = _check_order(beta, "beta")
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    if not g.has_self_loop.all():
        raise ValueError("every node needs a self-loop so its direct effect is defined")
    rng = np.random.default_rng(seed)
    n, deg, nb = g.n, g.in_degrees, g.nb_flat
    c_base = rng.random(n) * scale
    c_self = rng.random(n) * scale
    v = rng.random(n) * (scale * r)

    # share v_j among out-neighbors of j (selves excluded on both sides),
    # proportional to the receiving node's in-degree
    denom = g.in_csr().T @ deg
    denom -= deg * g.has_self_loop  # self-loop edges do not receive influence
    denom[denom == 0.0] = 1.0
    row = np.repeat(np.arange(n), deg)  # the node owning each CSR slot
    w = np.where(nb == row, c_self[row], v[nb] * deg[row] / denom[nb])

    # each row's subsets of size 1..beta as slot tuples, lexicographic, so a
    # later member is a later slot of the same row
    subsets = [np.arange(nb.size)[:, None]]
    row_end = g.nb_off[1:][row]
    for _ in range(beta - 1):
        c = subsets[-1]
        last = c[:, -1]
        more = row_end[last] - last - 1
        pick = np.repeat(np.arange(len(c)), more)
        nxt = np.arange(pick.size) - np.repeat(np.cumsum(more) - more, more) + last[pick] + 1
        subsets.append(np.column_stack([c[pick], nxt]))

    # every coefficient starts from 0.0, as a dict of sums does
    coeff = [0.0 + w] + [np.zeros(len(c)) for c in subsets[1:]]
    if beta >= 2:
        # a node's total is summed as w[a:b].sum() would be: numpy sums each
        # contiguous row of a (rows, d) block exactly like a length-d vector
        total = np.zeros(n)
        for d in np.unique(deg):
            rows = np.flatnonzero(deg == d)
            total[rows] = w[g.nb_off[rows, None] + np.arange(d)].sum(axis=1)
        if (total == 0.0).any():
            i = int((total == 0.0).argmax())
            raise DegenerateModelError(
                f"node {i}: zero total linear weight, cannot normalize interaction terms"
            )
        x = w / total[row]
        for co, c in zip(coeff, subsets):
            for a in _power_coeffs(x[c], beta):
                co += a
    size = np.repeat(np.arange(beta + 1), [n] + [len(c) for c in subsets])
    owner = np.concatenate([np.arange(n)] + [row[c[:, 0]] for c in subsets])
    raw = np.concatenate([nb[c].ravel() for c in subsets]).astype(float)
    return owner, np.concatenate([c_base, *coeff]), size, raw


def _power_coeffs(X: np.ndarray, beta: int) -> list[np.ndarray]:
    """Coefficient of prod_{j in T} z_j in (sum_j x_j z_j)**l over binary z,
    for each row T of X (members' x values) and each l = max(2, |T|)..beta:
    the sum over ways to give every member k_j >= 1 of the l factors,
    multinomial(l; k) prod_j x_j**k_j, built one member at a time. At l = 2
    this is x_a * x_a for a single and 2 * (x_b * x_a) for a pair, both
    exactly as a dict expansion sums them."""
    s = X.shape[1]
    # a[m]: the coefficient of the members so far in a product of m
    # factors, each member taking at least one
    a: dict = {0: 1.0}
    for col in range(s):
        pw = [None, X[:, col]]
        for _ in range(beta - s):
            pw.append(pw[-1] * X[:, col])
        a = {
            m: reduce(add, [math.comb(m, k) * (pw[k] * a[m - k]) for k in range(1, m + 1) if m - k in a])
            for m in range(col + 1, beta - s + col + 2)
        }
    return [a[ell] for ell in range(max(2, s), beta + 1)]


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
