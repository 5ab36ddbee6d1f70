"""Central tolerance record.

Every cutoff that the library consults lives here so that reports can echo
the exact values used and the CLI can override any of them uniformly
(--tol-<name> <value> maps onto the field <name>, dashes for underscores).
Every value must be a finite number >= 0, not a bool, and is stored as a
float; rank may also be None.  __post_init__ is the one check of a value,
and replace the one check of a name, for the config, the flags and the
library alike.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InputError, _as_real


@dataclass(frozen=True)
class Tolerances:
    # |f| <= equilibrium * (1 + |x|) declares a point an equilibrium
    equilibrium: float = 1e-9
    # Newton convergence: |F| <= newton * (1 + |x0|)
    newton: float = 1e-10
    # SVD rank cutoff; None means max(shape) * eps * sigma_max
    rank: float | None = None
    # dedup radius for multistart results, scaled by domain diameter
    cluster: float = 1e-6
    # fiber endpoint refinement: the boundary search's secant ends once its
    # bracket on the step parameter is this narrow, times max(1, step)
    boundary_refine: float = 1e-10
    # domain membership slack, scaled by 1 + domain diameter, for every
    # point a command takes or makes (systems._in_domain_rows)
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
                out = _as_real(value)
            except TypeError:
                out = math.nan
            if not 0.0 <= out < math.inf:
                raise InputError(
                    f"tolerance {field.name!r} must be a finite number >= 0, got {value!r}"
                )
            object.__setattr__(self, field.name, out)

    def replace(self, **overrides) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in names:
                raise InputError(f"unknown tolerance name: {key!r}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict:
        # every value is a float or None, so dataclasses.asdict's deep copy
        # of each field has nothing to copy
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}


DEFAULT_TOLERANCES = Tolerances()
