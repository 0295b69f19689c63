"""Bernoulli randomized designs and treatment vector sampling."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Design",
    "uniform_design",
    "sample",
    "validate_treatment_vector",
    "save_design",
    "load_design",
    "save_treatment",
    "load_treatment",
]


@dataclass(frozen=True)
class Design:
    """Independent per-unit treatment probabilities with a global floor.

    p_floor is the largest p such that every p_i lies in [p, 1-p]; the
    inverse-propensity weights of every estimator divide by p_i(1-p_i),
    so probabilities of exactly 0 or 1 are rejected.
    """

    probs: np.ndarray
    p_floor: float = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        if not ((probs > 0.0) & (probs < 1.0)).all():  # NaN fails too
            raise ValueError("treatment probabilities must lie strictly inside (0, 1)")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "p_floor", float(min(probs.min(), 1.0 - probs.max())))

    @property
    def n(self) -> int:
        return self.probs.size


def uniform_design(n: int, p: float) -> Design:
    """All-units-equal design; p_floor = min(p, 1-p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return Design(np.full(n, float(p)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample(design: Design, seed) -> np.ndarray:
    """One independent Bernoulli(p_i) draw per unit; deterministic per seed.

    Accepts an integer seed, a SeedSequence, or a Generator (so callers can
    hand out independent substreams for parallel replications).
    """
    rng = _as_rng(seed)
    return (rng.random(design.n) < design.probs).astype(np.int64)


def validate_treatment_vector(z: np.ndarray, n: int) -> np.ndarray:
    z = np.asarray(z)
    if z.shape[-1] != n:
        raise ValueError(f"treatment vector length {z.shape[-1]} != n = {n}")
    if not np.isin(z, (0, 1)).all():
        raise ValueError("treatment vector entries must be 0 or 1")
    return z.astype(np.int64)


def save_design(design: Design, path) -> None:
    Path(path).write_text(json.dumps({"probs": design.probs.tolist()}))


def load_design(path) -> Design:
    obj = json.loads(Path(path).read_text())
    if type(obj) is not dict:
        raise ValueError("design file: the top level is not an object")
    if type(obj["probs"]) is not list or any(type(p) not in (int, float) for p in obj["probs"]):
        raise ValueError(f"design file: probs {obj['probs']!r} is not a list of numbers")
    return Design(np.asarray(obj["probs"], dtype=np.float64))


def save_treatment(z: np.ndarray, path) -> None:
    Path(path).write_text(",".join(str(int(v)) for v in z) + "\n")


def load_treatment(path, n: int | None = None) -> np.ndarray:
    text = Path(path).read_text().strip()
    z = np.array([int(v) for v in text.split(",")], dtype=np.int64)
    return validate_treatment_vector(z, n if n is not None else z.size)
