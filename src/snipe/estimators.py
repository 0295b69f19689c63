"""SNIPE(beta) estimators for network-interference causal effects.

SNIPE (Structured Neighborhood Interference Polynomial Estimator) is a
weighted average of observed outcomes, (1/n) sum_i Y_i w_i(z), whose
weights depend only on the design probabilities and the treatments inside
each unit's in-neighborhood:

    w_i(z) = sum over subsets S of N_i with 1 <= |S| <= beta of
             g(S) * prod_{j in S} (z_j - p_j) / (p_j (1 - p_j)),
    g(S)   = prod_{s in S} (1 - p_s) - prod_{s in S} (-p_s),  g({}) = 0.

Under a Bernoulli design the estimator is unbiased for the total
treatment effect whenever outcomes have interaction order at most beta.
Companion estimators for the average (direct) treatment effect and for
size-alpha interaction effects reuse the same weighting machinery.

Every weight is a sum over neighborhood subsets of size <= beta, and each
such sum is read off one generating function over the neighbor slots,

    prod_{j in N_i} (1 + s x_j + t h_j),

whose coefficient of s^a t^b is E[a][b]. One kernel, _esp2, folds the
gathered neighbor slots through that product and returns one row E[alpha]:
the SNIPE weight sums the t-series of two alpha=0 rows, the direct effect
takes the alpha=0 row with the self slot removed, and the size-alpha effect
takes row alpha. No subset is ever enumerated; a draw costs
O(n * d_in * (alpha + 1) * beta). One-argument functions accept a single
assignment of shape (n,) or a batch (m, n).
"""
from __future__ import annotations

import math
import numbers
from functools import lru_cache, wraps
from itertools import combinations

import numpy as np

from .design import Design, validate_treatment_vector
from .graph import CausalGraph

__all__ = [
    "subset_coeff",
    "snipe_weight",
    "snipe_weights",
    "snipe_tte",
    "snipe_tte_uniform",
    "design_matrix",
    "design_matrix_inverse",
    "implicit_tte_weight",
    "snipe_ate",
    "snipe_cate",
    "snipe_te_alpha",
    "subsets_up_to",
]

SUBSET_GUARD = 1 << 16  # design-matrix facility refuses larger subset lattices


def subset_coeff(subset, probs) -> float:
    """Subset coefficient prod(1-p_s) - prod(-p_s); the empty set maps to 0.

    The empty case already follows from the products (1 - 1), but it is
    special-cased so the intent survives refactors.
    """
    subset = tuple(subset)
    if not subset:
        return 0.0
    p = probs.probs if isinstance(probs, Design) else np.asarray(probs, dtype=np.float64)
    ps = p[list(subset)]
    return float(np.prod(1.0 - ps) - np.prod(-ps))


def _check_order(value, name: str) -> int:
    """An interaction order (beta or alpha) as an int >= 1. A bool or a
    non-integral value is an error, not a value for int() to truncate."""
    if type(value) is bool or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return int(value)


def _centered_factors(z, design: Design) -> np.ndarray:
    # (z_j - p_j) / (p_j (1 - p_j)): the building block of every weight
    p = design.probs
    return (np.asarray(z, dtype=np.float64) - p) / (p * (1.0 - p))


def snipe_weight(g: CausalGraph, i: int, z, design: Design, beta: int) -> float:
    """Reference per-node weight: the literal sum over all subsets of N_i
    of size <= beta, enumerated by size then lexicographically."""
    beta = _check_order(beta, "beta")
    f = _centered_factors(z, design)
    nb = g.in_neighborhood(i).tolist()
    terms = []
    for k in range(1, min(beta, len(nb)) + 1):
        for subset in combinations(nb, k):
            terms.append(subset_coeff(subset, design) * float(np.prod(f[list(subset)])))
    return math.fsum(terms)


def _gather(g: CausalGraph, values: np.ndarray) -> np.ndarray:
    # (..., n) -> (..., n, d_in) neighbor slots in ascending order; padded
    # slots read an appended 0, which the kernel treats as a no-op factor
    pad = np.concatenate([values, np.zeros(values.shape[:-1] + (1,))], axis=-1)
    return pad[..., g.nb_pad]


def _esp2(vx, vh: np.ndarray, alpha: int, bmax: int) -> list[np.ndarray]:
    """Row alpha of the neighborhood generating function

        prod_j (1 + s x_j + t h_j) = sum_{a, b} E[a][b] s^a t^b

    over the gathered slots vx, vh of shape (..., n, d_in); returns
    [E[alpha][0], ..., E[alpha][bmax]], each of shape (..., n). E[a][b]
    sums prod_{T} x * prod_{V} h over disjoint slot sets |T| = a, |V| = b;
    with alpha = 0 it is the elementary symmetric polynomial e_b(h) and vx
    is not read. Slots are folded one at a time, updating the highest
    (a, b) first so every update reads the previous fold; an entry whose
    degree a + b exceeds the slots folded so far is still exactly 0 and
    is skipped.
    """
    shape = vh.shape[:-1]
    es = [[np.zeros(shape) for _ in range(bmax + 1)] for _ in range(alpha + 1)]
    es[0][0] = np.ones(shape)
    for c in range(vh.shape[-1]):
        xc = vx[..., c] if alpha else None
        hc = vh[..., c]
        for a in range(alpha, -1, -1):
            for b in range(min(bmax, c + 1 - a), -1, -1):
                if a > 0:
                    es[a][b] += xc * es[a - 1][b]
                if b > 0:
                    es[a][b] += hc * es[a][b - 1]
    return es[alpha]


def snipe_weights(g: CausalGraph, z, design: Design, beta: int) -> np.ndarray:
    """All per-node weights at once; z of shape (n,) or (m, n).

    g(S) prod_S f splits into prod_S (1-p) f - prod_S (-p) f, so the weight
    is sum_{b=1..beta} e_b((1-p) f) - e_b(-p f) over each neighborhood.
    """
    beta = _check_order(beta, "beta")
    f = _centered_factors(z, design)
    e_plus = _esp2(None, _gather(g, (1.0 - design.probs) * f), 0, beta)
    e_minus = _esp2(None, _gather(g, (-design.probs) * f), 0, beta)
    return sum(e_plus[1:]) - sum(e_minus[1:])


def _check_lengths(g: CausalGraph | None, Y, z, design: Design | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The input check of every public estimator: z holds 0/1 treatments
    of length n (g.n, unless g is None), Y has z's shape and is finite,
    and the design, when given, has length n."""
    z = validate_treatment_vector(z, np.shape(z)[-1] if g is None else g.n)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != z.shape:
        raise ValueError(f"outcomes shape {Y.shape} != treatments shape {z.shape}")
    if design is not None and design.n != z.shape[-1]:
        raise ValueError(f"design length {design.n} != n = {z.shape[-1]}")
    if not np.isfinite(Y).all():
        raise ValueError("outcomes must be finite")
    return Y, z


def _finite(fn):
    """Run fn without float warnings, so every warnings filter sees the same
    outcome: a finite result, or a ValueError naming fn past float64 range."""
    @wraps(fn)
    @np.errstate(over="ignore", invalid="ignore")
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except OverflowError:  # a Python float ** past float64 range
            out = math.inf
        if not np.isfinite(out).all():
            raise ValueError(f"{fn.__name__}: the result overflows float64 at this design")
        return out
    return checked


@_finite
def snipe_tte(g: CausalGraph, Y, z, design: Design, beta: int):
    """SNIPE(beta) total-treatment-effect point estimate (1/n) sum Y_i w_i."""
    Y, z = _check_lengths(g, Y, z, design)
    w = snipe_weights(g, z, design, beta)
    return (Y * w).mean(axis=-1)


@lru_cache(maxsize=64)
def _uniform_weight_table(p: float, beta: int, d: int) -> np.ndarray:
    # weight of t treated and m untreated neighbors (t, m <= d), where each subset of
    # k treated and l untreated ones adds c_kl: sum_k C(t, k) sum_{l <= beta - k} C(m, l) c_kl,
    # each sum_j C(x, j) c_j nested from the top as c_0 + x (c_1 + (x - 1)/2 (c_2 + ...)),
    # whose factor x - j cuts off every term past x; built in place on one grid
    a, b = (p - 1.0) / p, (-p) / (1.0 - p)
    t, m = np.arange(d + 1.0)[:, None], np.arange(d + 1.0)
    table = np.zeros((d + 1, d + 1))
    for k in range(beta, -1, -1):
        inner = 0.0
        for ell in range(beta - k, -1, -1):
            inner = (-1.0) ** (k + ell) * (a**k - b**ell) + (m - ell) / (ell + 1) * inner
        table *= (t - k) / (k + 1)
        table += inner
    return table


def _treated_counts(g: CausalGraph, z) -> np.ndarray:
    # per-node count of treated in-neighbors as exact float64 (0/1 sums
    # below 2^53), via one sparse matvec per assignment
    zf = np.asarray(z, dtype=np.float64)
    A = g.in_csr()
    if zf.ndim == 1:
        return A @ zf
    flat = zf.reshape(-1, g.n)
    return np.asarray((A @ flat.T).T).reshape(zf.shape[:-1] + (g.n,))


def snipe_tte_uniform(g: CausalGraph, Y, z, p: float, beta: int):
    """Fast path for uniform designs: the weight depends only on how many
    in-neighbors are treated, not on which ones, so a count-indexed lookup
    table evaluates the estimator in O(n) per draw after an O(d^2 beta^2)
    table build (cached across calls)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    beta = _check_order(beta, "beta")
    Y, z = _check_lengths(g, Y, z)
    try:
        table = _uniform_weight_table(float(p), beta, g.d_in)
    except OverflowError:
        raise ValueError(f"snipe_tte_uniform: the weight table overflows float64 at p={p!r}, beta={beta}") from None
    t = _treated_counts(g, z)
    # row-major position of (t, size - t) in the table collapses to
    # t * d_in + size; the float arithmetic is exact for these ranges
    flat = t * float(g.d_in) + g.in_degrees
    w = table.ravel().take(flat.astype(np.intp))
    return (Y * w).mean(axis=-1)


def subsets_up_to(neigh, beta: int) -> list[tuple[int, ...]]:
    """Canonical subset ordering: the empty set first, then sizes 1..beta,
    lexicographic within each size."""
    neigh = [int(v) for v in neigh]
    if sorted(set(neigh)) != neigh:
        raise ValueError("neighborhood must be sorted and duplicate-free")
    count = sum(math.comb(len(neigh), k) for k in range(0, min(beta, len(neigh)) + 1))
    if count > SUBSET_GUARD:
        raise ValueError(f"subset lattice of size {count} exceeds guard {SUBSET_GUARD}")
    out: list[tuple[int, ...]] = [()]
    for k in range(1, min(beta, len(neigh)) + 1):
        out.extend(combinations(neigh, k))
    return out


def design_matrix(neigh, design: Design, beta: int) -> np.ndarray:
    """Second-moment matrix of the treated-subset indicator vector: the
    (S, T) entry is prod_{j in S union T} p_j."""
    subsets = subsets_up_to(neigh, beta)
    p = design.probs
    masks = [frozenset(s) for s in subsets]
    m = len(subsets)
    M = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            union = masks[a] | masks[b]
            M[a, b] = M[b, a] = float(np.prod(p[list(union)])) if union else 1.0
    return M


def design_matrix_inverse(neigh, design: Design, beta: int) -> np.ndarray:
    """Closed-form inverse of design_matrix over the same subset ordering:

        A[S, T] = prod_{j in S} (-1/p_j) * prod_{k in T} (-1/p_k)
                  * sum over supersets U of S union T (|U| <= beta, U in the
                    lattice) of prod_{l in U} p_l / (1 - p_l).

    The product with design_matrix is verified to be the identity within
    1e-9 in max norm before returning.
    """
    subsets = subsets_up_to(neigh, beta)
    p = design.probs
    local = {v: b for b, v in enumerate(sorted(int(x) for x in neigh))}
    bits = [sum(1 << local[v] for v in s) for s in subsets]
    ratio = np.array([float(np.prod(p[list(s)] / (1.0 - p[list(s)]))) if s else 1.0 for s in subsets])
    inv_p = np.array([float(np.prod(-1.0 / p[list(s)])) if s else 1.0 for s in subsets])
    m = len(subsets)
    A = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            need = bits[a] | bits[b]
            total = 0.0
            for u in range(m):
                if bits[u] & need == need:
                    total += ratio[u]
            A[a, b] = A[b, a] = inv_p[a] * inv_p[b] * total
    M = design_matrix(neigh, design, beta)
    err = np.max(np.abs(M @ A - np.eye(m)))
    if err > 1e-9:
        raise ValueError(f"design-matrix inverse failed verification: max |MA - I| = {err}")
    return A


def implicit_tte_weight(neigh, z, design: Design, beta: int) -> float:
    """Per-node weight computed through the design-matrix route,
    <A (1 - e_first), ztilde>; a size-guarded cross-validation facility for
    snipe_weight, never used in the production estimate path."""
    subsets = subsets_up_to(neigh, beta)
    A = design_matrix_inverse(neigh, design, beta)
    z = np.asarray(z)
    ztil = np.array([float(np.prod(z[list(s)])) if s else 1.0 for s in subsets])
    target = np.ones(len(subsets))
    target[0] = 0.0
    return float((A @ target) @ ztil)


def _h_factors(z, design: Design) -> np.ndarray:
    # h_j = (p_j - z_j)/(1 - p_j), the per-neighbor factor shared by the
    # direct-effect and size-alpha estimators; |h_j| <= max(1, p/(1-p))
    p = design.probs
    return (p - np.asarray(z, dtype=np.float64)) / (1.0 - p)


def snipe_ate(g: CausalGraph, Y, z, design: Design, beta: int):
    """Average (direct) treatment effect estimate: each unit is weighted by

        (-1/p_i) * sum over subsets U of N_i with i in U, |U| <= beta of
        prod_{j in U} (p_j - z_j)/(1 - p_j).

    Requires a self-loop on every node; otherwise no direct effect exists
    in the model and the estimand is undefined.
    """
    beta = _check_order(beta, "beta")
    if not g.has_self_loop.all():
        raise ValueError("snipe_ate requires a self-loop on every node")
    Y, z = _check_lengths(g, Y, z, design)
    w = _ate_weights(g, z, design, beta)
    return (Y * w).mean(axis=-1)


def _ate_weights(g: CausalGraph, z, design: Design, beta: int) -> np.ndarray:
    # U = {i} u V with V a subset of N_i \ {i}, |V| <= beta - 1, so the
    # weight factors as (-h_i/p_i) * sum_{k=0..beta-1} e_k(h on N_i \ {i})
    h = _h_factors(z, design)
    if beta == 1:
        return -h / design.probs
    v = _gather(g, h)
    v[..., g.nb_pad == np.arange(g.n)[:, None]] = 0.0
    return (-h / design.probs) * sum(_esp2(None, v, 0, beta - 1))


def snipe_cate(g: CausalGraph, Y, z, design: Design, beta: int, D):
    """Conditional (direct) effect for a subpopulation: the snipe_ate
    per-unit weights averaged over the nodes in D only."""
    beta = _check_order(beta, "beta")
    D = np.asarray(D)
    if D.size == 0:
        raise ValueError("demographic D must be non-empty")
    if D.dtype.kind not in "iu":
        raise ValueError(f"demographic D must hold integer node ids, not {D.dtype}")
    D = np.unique(D)
    if D.min() < 0 or D.max() >= g.n:
        raise ValueError("demographic D contains out-of-range nodes")
    if not g.has_self_loop[D].all():
        raise ValueError("snipe_cate requires a self-loop on every node of D")
    Y, z = _check_lengths(g, Y, z, design)
    w = _ate_weights(g, z, design, beta)
    # np.take keeps each batch row C-ordered, so it sums as a single call does
    return np.take(Y * w, D, axis=-1).mean(axis=-1)


@_finite
def snipe_te_alpha(g: CausalGraph, Y, z, design: Design, beta: int, alpha: int):
    """Size-alpha interaction effect estimate: per unit,

        sum over T in N_i, |T| = alpha of prod_{k in T} (-1/p_k)
        * sum over supersets U of T in the order-beta lattice of
          prod_{j in U} (p_j - z_j)/(1 - p_j).

    Splitting U = T u V with V disjoint from T turns the double subset sum
    into row alpha of the neighborhood generating function with
    x = -h/p on T and h on V, summed over |V| = 0..beta-alpha.
    """
    beta, alpha = _check_order(beta, "beta"), _check_order(alpha, "alpha")
    if alpha > beta:
        raise ValueError("alpha must satisfy 1 <= alpha <= beta")
    Y, z = _check_lengths(g, Y, z, design)
    h = _h_factors(z, design)
    x = -h / design.probs  # factor for members of T
    w = sum(_esp2(_gather(g, x), _gather(g, h), alpha, beta - alpha))
    return (Y * w).mean(axis=-1)
