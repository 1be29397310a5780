"""Zone maps: per-chunk min/max statistics for scan pruning.

Netezza's zone maps let the FPGA skip whole extents whose value range
cannot satisfy a predicate. The accelerator's scan asks each chunk's zone
map whether a predicate range overlaps before touching the data; E10
quantifies the effect.

Integer chunks keep their bounds as Python ints (arbitrary precision):
casting an int64 extreme to float64 rounds for |v| >= 2**53, and a
rounded-down maximum can wrongly exclude a chunk whose true maximum
matches the predicate — silently dropping rows. Python compares int and
float exactly, so ``overlaps`` stays exact for mixed-type bounds too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = ["ZoneMap"]


@dataclass(frozen=True)
class ZoneMap:
    """Min/max of the non-null values of one column in one chunk.

    Bounds are Python ints for integer/bool chunks (exact at int64
    extremes) and floats for float chunks (NaN/inf excluded at build).
    """

    minimum: Union[int, float]
    maximum: Union[int, float]

    @staticmethod
    def build(
        values: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Optional["ZoneMap"]:
        """Build a zone map, or ``None`` when the chunk is all-NULL."""
        live = values if mask is None else values[~mask]
        if len(live) == 0:
            return None
        if live.dtype.kind == "f":
            finite = live[np.isfinite(live)]
            if len(finite) == 0:
                return None
            return ZoneMap(float(finite.min()), float(finite.max()))
        # Integer (and bool) chunks: int() preserves all 64 bits, where
        # float() would round beyond 2**53.
        return ZoneMap(int(live.min()), int(live.max()))

    def widen(self, other: "ZoneMap") -> "ZoneMap":
        """The zone map of a chunk holding both maps' rows.

        Equal to :meth:`build` over the combined values, without reading
        them: an extended chunk widens its map by the appended piece's.
        """
        if other.minimum >= self.minimum and other.maximum <= self.maximum:
            return self
        return ZoneMap(
            min(self.minimum, other.minimum), max(self.maximum, other.maximum)
        )

    def overlaps(self, low, high) -> bool:
        """True when [low, high] intersects [min, max].

        ``None`` bounds are open (e.g. ``x > 5`` has high=None). Bounds
        may be int or float; Python's cross-type comparison is exact, so
        no precision is lost deciding the overlap.
        """
        if low is not None and self.maximum < low:
            return False
        if high is not None and self.minimum > high:
            return False
        return True
