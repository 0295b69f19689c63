"""Segmented products over flattened per-node lists.

np.multiply.reduceat has two sharp edges: an offset equal to the array
length is rejected, and an empty segment yields the element at its start
index instead of 1. Padding one 1 and overwriting empty segments afterwards
gives the intended CSR semantics. Sums need no helper: they are products
with a CSR matrix.
"""
from __future__ import annotations

import numpy as np


def segment_prod(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment products along the last axis; empty segments give 1."""
    padded = np.concatenate([values, np.ones(values.shape[:-1] + (1,))], axis=-1)
    out = np.multiply.reduceat(padded, offsets[:-1], axis=-1)
    out[..., offsets[:-1] == offsets[1:]] = 1.0
    return out
