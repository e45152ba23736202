"""Size guards for the exhaustive algorithms.

Everything in this package enumerates: orientations are scanned as sign
vectors in {+1,-1}^E, counting polynomials as assignment vectors in
(Z/k)^E or {-k+1..k-1}^E.  The guards below refuse work whose state
space is large enough to look like a hang, and they can be lifted with
the environment variable SURFGRAPH_GUARD_OVERRIDE=1 when the caller
knows what they are asking for.
"""

import os

from .errors import TooLarge

# 2^MAX_SCAN_EDGES orientation vectors per scan.
MAX_SCAN_EDGES = 20

# Total assignments evaluated in one polynomial count, and total mask
# tests (masks times patterns and search steps) in one class scan.
MAX_ASSIGNMENTS = 10**8

# Edges for exhaustive map generation (all sigma on 2m darts).
MAX_GENERATOR_EDGES = 5


def _override() -> bool:
    return os.environ.get("SURFGRAPH_GUARD_OVERRIDE", "") == "1"


def check_orientation_scan(num_edges: int) -> None:
    if num_edges > MAX_SCAN_EDGES and not _override():
        raise TooLarge(
            f"orientation scan over 2^{num_edges} vectors exceeds the "
            f"2^{MAX_SCAN_EDGES} guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def check_class_scan(num_edges: int, per_mask: int) -> None:
    """Refuse an orientation-class scan whose total work is too large.

    The work is the 2^E sign masks times the subcube patterns and search
    steps each mask meets, estimated from sizes alone before any scan.
    """
    work = per_mask << num_edges
    if work > MAX_ASSIGNMENTS and not _override():
        raise TooLarge(
            f"orientation class scan of 2^{num_edges} sign masks against "
            f"{per_mask} patterns and search steps each, about {work} tests, "
            f"exceeds the {MAX_ASSIGNMENTS} guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def check_assignment_scan(base: int, num_edges: int) -> None:
    if base < 1:
        return
    if base**num_edges > MAX_ASSIGNMENTS and not _override():
        raise TooLarge(
            f"assignment scan over {base}^{num_edges} vectors exceeds the "
            f"{MAX_ASSIGNMENTS} guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def check_generator_size(num_edges: int) -> None:
    if num_edges > MAX_GENERATOR_EDGES and not _override():
        raise TooLarge(
            f"exhaustive generation over (2*{num_edges})! rotation systems "
            f"exceeds the m <= {MAX_GENERATOR_EDGES} guard; "
            f"set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )
