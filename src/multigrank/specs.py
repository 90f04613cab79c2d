"""Graph specs: the five weighting schemes and their parameters.

Kept apart from ``graphs`` because they need no scipy: the CLI parser names
the schemes without loading the sparse code that realizes them.  ``graphs``
re-exports both names.
"""

from __future__ import annotations

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
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.scheme == "gaussian":
            if self.sigma is None or not self.sigma > 0:
                raise ValueError("gaussian scheme requires sigma > 0")
        elif self.sigma is not None:
            raise ValueError(f"sigma does not apply to the {self.scheme!r} scheme")
