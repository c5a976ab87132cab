"""Seeded synthetic mixture generators for clustering benchmarks.

Every draw flows through one numpy PCG64 Generator per sample, so a given
(spec, seed) pair reproduces the identical sample on any platform:

* component membership: Generator.choice on the mixture weights
* normal coordinates:   Generator.standard_normal (ziggurat), scaled/shifted
* lognormal:            exp of the normal draw
* cauchy:               inverse CDF, location + scale*tan(pi*(u - 1/2))
* cubic_uniform:        Generator.random scaled to [low, high) per coordinate

Membership is drawn first for all n rows, then coordinates are filled one
component at a time in component order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_fields, check_sequence

__all__ = [
    "FAMILIES",
    "Component",
    "MixtureSpec",
    "LabeledSample",
    "generate",
]

FAMILIES = ("normal", "lognormal", "cauchy", "cubic_uniform")


@dataclass(frozen=True)
class Component:
    """One mixture component.

    `params` is family specific: (mu, sigma) for normal and lognormal,
    (location, scale) for cauchy, (low, high) for cubic_uniform.
    """

    weight: float
    family: str
    params: tuple

    def __post_init__(self):
        check_fields(vars(self), ("weight",))
        if not self.weight > 0:
            raise InputError(f"component weight must be positive, got {self.weight}")
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        p = check_sequence(self.params, "params", numbers=True)
        object.__setattr__(self, "params", p)
        if len(p) != 2:
            raise InputError(f"{self.family} needs two parameters, got {p}")
        if self.family == "normal" and p[1] < 0:
            raise InputError(f"normal scale must be >= 0, got {p[1]}")
        if self.family in ("lognormal", "cauchy") and p[1] <= 0:
            raise InputError(f"{self.family} scale must be > 0, got {p[1]}")
        if self.family == "cubic_uniform" and p[1] <= p[0]:
            raise InputError(f"cubic_uniform needs low < high, got {p}")


@dataclass(frozen=True)
class MixtureSpec:
    """A weighted mixture of iid-coordinate components in `dim` dimensions."""

    components: tuple
    dim: int
    n: int
    seed: int

    def __post_init__(self):
        check_fields(vars(self), dim=1, n=1, seed=0)
        comps = check_sequence(self.components, "components")
        if not all(isinstance(c, Component) for c in comps):
            raise InputError(f"components must be Component records, got {comps!r}")
        object.__setattr__(self, "components", comps)
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"component weights must sum to 1, got {total}")

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])


@dataclass(frozen=True)
class LabeledSample:
    """Generated coordinates plus the component index that produced each row."""

    data: np.ndarray
    truth: np.ndarray


def _draw(rng: np.random.Generator, comp: Component, shape) -> np.ndarray:
    a, b = comp.params
    if comp.family == "normal":
        return a + b * rng.standard_normal(shape)
    if comp.family == "lognormal":
        return np.exp(a + b * rng.standard_normal(shape))
    if comp.family == "cauchy":
        return a + b * np.tan(np.pi * (rng.random(shape) - 0.5))
    if comp.family == "cubic_uniform":
        return a + (b - a) * rng.random(shape)
    raise InputError(f"unknown family {comp.family!r}")


def generate(spec: MixtureSpec) -> LabeledSample:
    """Draw a labeled sample from the mixture, deterministically per seed.

    Each row's component is drawn by weight (so realized component counts
    are random, not a fixed split); its coordinates are then iid from that
    component's family.
    """
    rng = np.random.default_rng(spec.seed)
    truth = rng.choice(len(spec.components), size=spec.n, p=spec.weights())
    data = np.empty((spec.n, spec.dim))
    for ci, comp in enumerate(spec.components):
        rows = np.flatnonzero(truth == ci)
        if rows.size:
            data[rows] = _draw(rng, comp, (rows.size, spec.dim))
    return LabeledSample(data=data, truth=truth.astype(np.intp))
