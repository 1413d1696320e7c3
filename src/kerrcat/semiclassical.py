"""Classical metapotential geometry, phase diagram, EBK counting, WKB splitting.

All geometric quantities live in the rescaled (x, p) frame with [x, p] = i
and unit scale (lambda = 1), where the classical surface reads

    H_cl = delta r^2 / 2 - r^4 / 4 + eps2 r^2 cos(2 theta)

(energies in units of the Kerr coefficient K).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseRegion",
    "MetapotentialGeometry",
    "EbkCount",
    "classify_phase",
    "metapotential_classical",
    "geometry",
    "separatrix_area",
    "separatrix_area_double_node",
    "separatrix_area_triple_node",
    "ebk_levels_exact",
    "ebk_bound_state_count",
    "wkb_splitting",
    "classical_frame_scale",
    "to_classical_frame",
]


class PhaseRegion(enum.Enum):
    SINGLE_NODE = "single-node"
    DOUBLE_NODE = "double-node"
    TRIPLE_NODE = "triple-node"


def classify_phase(delta: float, eps2: float) -> PhaseRegion:
    """Phase of the classical metapotential; transitions at delta = +/- 2 eps2."""
    if delta < -2 * eps2:
        return PhaseRegion.SINGLE_NODE
    if delta < 2 * eps2:
        return PhaseRegion.DOUBLE_NODE
    return PhaseRegion.TRIPLE_NODE


def metapotential_classical(x, p, delta: float, eps2: float):
    """Classical metapotential surface at (x, p); zero at the origin."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = x * x + p * p
    val = delta * r2 / 2 - r2 * r2 / 4 + eps2 * (x * x - p * p)
    return val if val.shape else float(val)


@dataclass(frozen=True)
class MetapotentialGeometry:
    region: PhaseRegion
    node_distance: float
    saddle_distance: float
    node_depth: float
    saddle_depth: float
    barrier_height: float
    separatrix_area: float


def geometry(delta: float, eps2: float) -> MetapotentialGeometry:
    """Closed-form geometry of the double-well surface (zeros in single-node)."""
    region = classify_phase(delta, eps2)
    if region is PhaseRegion.SINGLE_NODE:
        return MetapotentialGeometry(region, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    node_dist = 2 * math.sqrt(delta + 2 * eps2)
    node_depth = (delta + 2 * eps2) ** 2 / 4
    if region is PhaseRegion.DOUBLE_NODE:
        saddle_dist = 0.0
        saddle_depth = 0.0
        barrier = node_depth
    else:
        saddle_dist = 2 * math.sqrt(delta - 2 * eps2)
        saddle_depth = (delta - 2 * eps2) ** 2 / 4
        barrier = 2 * delta * eps2
    return MetapotentialGeometry(region, node_dist, saddle_dist, node_depth,
                                 saddle_depth, barrier,
                                 separatrix_area(delta, eps2))


def separatrix_area_double_node(delta: float, eps2: float) -> float:
    """Lemniscate-lobe closed form, valid for -2 eps2 <= delta <= 2 eps2."""
    u = delta / (2 * eps2)
    return delta * math.acos(-u) + 2 * eps2 * math.sqrt(max(1 - u * u, 0.0))


def separatrix_area_triple_node(delta: float, eps2: float) -> float:
    """Bean-shape closed form, valid for delta >= 2 eps2."""
    return 4 * eps2 * math.sqrt(max(delta / (2 * eps2) - 1, 0.0)) \
        + 2 * delta * math.asin(math.sqrt(2 * eps2 / delta))


def separatrix_area(delta: float, eps2: float) -> float:
    """Area of one separatrix lobe (lemniscate half / bean), closed form."""
    region = classify_phase(delta, eps2)
    if region is PhaseRegion.SINGLE_NODE or eps2 == 0:
        return 0.0
    if region is PhaseRegion.DOUBLE_NODE:
        return separatrix_area_double_node(delta, eps2)
    return separatrix_area_triple_node(delta, eps2)


def ebk_levels_exact(delta: float, eps2: float) -> float:
    """In-well level estimate area/(2 pi) - 1/2 from the exact lobe area."""
    return separatrix_area(delta, eps2) / (2 * math.pi) - 0.5


@dataclass(frozen=True)
class EbkCount:
    n_exact: float          # area/2pi - 1/2, exact lobe area
    total_in_well: int      # nearest integer to n_exact, clamped >= 0
    excited_states: int     # total_in_well - 1, clamped >= 0


def ebk_bound_state_count(delta: float, eps2: float) -> EbkCount:
    """Semiclassical in-well state count from EBK action quantization.

    The integer interpretation rounds the real-valued estimate: the total
    number of in-well levels per well is round(area/2pi - 1/2) and the
    excited-state count is one less.
    """
    n_exact = ebk_levels_exact(delta, eps2)
    total = max(int(round(n_exact)), 0)
    return EbkCount(n_exact, total, max(total - 1, 0))


def wkb_splitting(delta: float, eps2: float) -> float:
    """Semiclassical tunnel splitting f cos(theta) exp(-A) of the ground pair.

    theta = (pi/2)(delta - 1) makes the splitting vanish exactly at
    delta = 2 m.  Intended validity delta >> 1; evaluable for any
    delta > 0.  The returned sign encodes the bonding/antibonding alternation
    (opposite phase to the even-minus-odd convention of
    :func:`kerrcat.spectra.tunnel_splitting`).
    """
    if delta <= 0:
        raise ValueError(f"wkb_splitting requires delta > 0, got {delta}")
    if eps2 <= 0:
        raise ValueError(f"wkb_splitting requires eps2 > 0, got {eps2}")
    r = delta / (2 * eps2)
    f = 2 * (4 * eps2) ** 2 * math.sqrt(1 / (math.pi * delta)) \
        * (1 + r) ** 1.25
    theta = math.pi / 2 * (delta - 1)
    action = 2 * eps2 * math.sqrt(r + 1) \
        + delta * math.log(math.sqrt(1 / r) + math.sqrt(1 + 1 / r))
    return f * math.cos(theta) * math.exp(-action)


def classical_frame_scale(eps2: float) -> float:
    """Phase-space scale lambda = 1 / (2 eps2) of the classical-limit frame."""
    if eps2 <= 0:
        raise ValueError("classical frame scale requires eps2 > 0")
    return 1 / (2 * eps2)


def to_classical_frame(x, p, eps2: float):
    """Rescale lambda=1 coordinates into the lambda = 1/2eps2 frame."""
    lam = classical_frame_scale(eps2)
    s = math.sqrt(lam)
    return np.asarray(x) * s, np.asarray(p) * s
