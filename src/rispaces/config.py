"""Numerical defaults used across the package.

Every default below is overridable through function arguments or CLI flags:

==============  =========  =====================================================
field           default    meaning
==============  =========  =====================================================
u_max           35.0       depth of the log grid u = 1 - Log t (t down to ~1.7e-15)
panels          600        panels of a discretized function model
sup_count       4096       node count of supremum-search grids
k_nodes         200        nodes of a sampled K-functional curve
==============  =========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Resolution:
    """One bundle of grid sizes; ``doubled()`` is the refinement used by drift checks."""

    u_max: float = 35.0
    panels: int = 600
    sup_count: int = 4096
    k_nodes: int = 200

    def doubled(self) -> "Resolution":
        # u_max stays fixed: drift measures discretization error, not domain truncation.
        return replace(
            self,
            panels=2 * self.panels,
            sup_count=2 * self.sup_count,
            k_nodes=2 * self.k_nodes,
        )


DEFAULT = Resolution()

DEFAULT_CEILING = 64.0
