"""Graph specs: the five weighting schemes and their parameters.

Kept apart from ``graphs`` so that the CLI parser names the schemes without
loading the graph code that realizes them.  ``graphs`` re-exports both
names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

SCHEMES = ("gaussian", "dot_product", "cosine", "jaccard", "tanimoto")


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
