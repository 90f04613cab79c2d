"""Value types and defaults the CLI names without loading numpy or scipy.

``GraphSpec`` is a weighting scheme plus its parameters, and ``SCHEMES``,
``K_VALUES`` and ``SIGMA_MULTIPLIERS`` span the default graph grid.
``HyperParams`` holds the trade-off and solver knobs of training and online
ranking.  Each default is written here once: ``graphs`` re-exports the grid
names, ``ranker`` re-exports ``HyperParams``, and the CLI's config reads both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

SCHEMES = ("gaussian", "dot_product", "cosine", "jaccard", "tanimoto")
K_VALUES = (5, 10)
# gaussian sigmas, as multiples of the data's median pairwise distance
SIGMA_MULTIPLIERS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class GraphSpec:
    """A weighting scheme plus its parameters; realized against a dataset."""

    scheme: str
    k: int
    sigma: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.scheme == "gaussian":
            sigma = self.sigma
            if (isinstance(sigma, bool) or not isinstance(sigma, numbers.Real)
                    or not (sigma > 0 and math.isfinite(sigma))):
                raise ValueError(f"gaussian scheme requires finite sigma > 0, got {sigma!r}")
        elif self.sigma is not None:
            raise ValueError(f"sigma does not apply to the {self.scheme!r} scheme")


@dataclass(frozen=True)
class HyperParams:
    """Trade-off and solver knobs shared by offline training and online ranking."""

    alpha: float = 1.0
    beta: float = 1.0
    max_iters: int = 20
    ridge: float = 1e-8
    tol: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "ridge", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
