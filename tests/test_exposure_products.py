"""Property tests of the exposure products, prod_{j in N_i} p_j and its
relatives, which the Horvitz-Thompson estimator and the conservative
variance take as sums of logs over the graph's CSR rows: on the small
graphs of the kernel tests (empty rows, missing self-loops, tied
in-degrees, a hub and the edgeless graph), at p near 0 and 1, against
literal per-node and per-pair loops."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snipe import Design, conservative_variance, ht_tte, uniform_design
from snipe.estimators import snipe_weights

from _util import conservative_variance_reference
from test_kernel import small_graphs


def ht_reference(g, Y, z, p):
    """Literal HT contrast: per node, its fully-treated indicator over the
    product of its p_j, minus its fully-control indicator over the product
    of its 1 - p_j; returns the mean and the mean of the |terms|."""
    terms = []
    for i in range(g.n):
        nb = g.in_neighborhood(i).tolist()
        if all(z[j] == 1 for j in nb):
            terms.append(Y[i] / math.prod(p[j] for j in nb))
        if all(z[j] == 0 for j in nb):
            terms.append(-Y[i] / math.prod(1.0 - p[j] for j in nb))
    return math.fsum(terms) / g.n, math.fsum(map(abs, terms)) / g.n


def conservative_scale(g, Y, z, design, beta):
    """Sum of the |terms| that conservative_variance_reference adds, with
    each factor 1 - q and p_i bounded by 1. A plain relative check fails on
    draws whose terms cancel, for the padded products as for the logs."""
    nbrs = [set(g.in_neighborhood(i).tolist()) for i in range(g.n)]
    aw = np.abs(Y * snipe_weights(g, z, design, beta))
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if nbrs[i] & nbrs[j]:
                total += aw[i] * aw[j] + aw[i] ** 2 * (2.0 ** len(nbrs[j]) - 2.0 ** len(nbrs[j] - nbrs[i]))
    return total / g.n**2


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), design=st.sampled_from([0.01, 0.5, 0.99, "non-uniform"]), seed=st.integers(0, 2**32 - 1))
def test_exposure_products_match_literal_loops(g, design, seed):
    rng = np.random.default_rng(seed)
    d = Design(rng.uniform(0.05, 0.95, g.n)) if design == "non-uniform" else uniform_design(g.n, design)
    Z = (rng.random((4, g.n)) < d.probs).astype(np.int64)
    Z[0], Z[1] = 0, 1  # all control and all treated, whatever p
    Y = rng.uniform(-1.0, 1.0, Z.shape)
    ht_batch = ht_tte(g, Y, Z, d)
    for r in range(Z.shape[0]):
        want, scale = ht_reference(g, Y[r], Z[r], d.probs)
        single = ht_tte(g, Y[r], Z[r], d)
        # each weight carries a few ulps of exp(sum of logs); the rows of a
        # batch are summed by numpy, a single call by fsum
        assert abs(single - want) <= 1e-12 * scale
        assert abs(ht_batch[r] - single) <= 1e-12 * scale
    for beta in (1, 2, 3):
        batch = conservative_variance(g, Y, Z, d, beta)
        for r in range(Z.shape[0]):
            single = conservative_variance(g, Y[r], Z[r], d, beta)
            want = conservative_variance_reference(g, Y[r], Z[r], d, beta)
            assert abs(single - want) <= 1e-12 * conservative_scale(g, Y[r], Z[r], d, beta)
            assert batch[r] == single
