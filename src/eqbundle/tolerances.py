"""Central tolerance record.

Every cutoff that the library consults lives here so that reports can echo
the exact values used and the CLI can override any of them uniformly
(--tol-<name> <value> maps onto the field <name>, dashes for underscores).
Every value must be a finite number >= 0; rank may also be None.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    # |f| <= equilibrium * (1 + |x|) declares a point an equilibrium
    equilibrium: float = 1e-9
    # Newton convergence: |F| <= newton * (1 + |x0|)
    newton: float = 1e-10
    # SVD rank cutoff; None means max(shape) * sigma_max * eps
    rank: float | None = None
    # dedup radius for multistart results, scaled by domain diameter
    cluster: float = 1e-6
    # fiber endpoint refinement: bisect the step parameter down to this
    boundary_refine: float = 1e-10
    # domain membership slack for evaluation and final point checks
    domain_slack: float = 1e-9
    # tangency residual allowed for metric arguments: |J v| <= tangent * (1 + |v|)
    tangent: float = 1e-8
    # eigenvalue split: |mu| <= zero_factor * spectral_radius counts as zero
    zero_factor: float = 1e-7
    # minimal (smallest nonzero)/(largest zero) ratio before flagging a split
    gap_min: float = 10.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None and field.name == "rank":
                continue
            try:
                valid = math.isfinite(value) and value >= 0.0
            except TypeError:
                valid = False
            if not valid:
                raise InputError(
                    f"tolerance {field.name!r} must be a finite number >= 0, got {value!r}"
                )

    def replace(self, **overrides) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in names:
                raise InputError(f"unknown tolerance name: {key!r}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOLERANCES = Tolerances()
