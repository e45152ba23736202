"""Size guards for the exhaustive algorithms.

Everything in this package enumerates: orientations are scanned as sign
vectors in {+1,-1}^E, counting polynomials as assignment vectors in
(Z/k)^E or {-k+1..k-1}^E.  The guards below refuse work whose state
space is large enough to look like a hang, and they can be lifted with
the environment variable SURFGRAPH_GUARD_OVERRIDE=1 when the caller
knows what they are asking for.
"""

import math
import os
from typing import Sequence

from .errors import TooLarge

# 2^MAX_SCAN_EDGES orientation vectors per scan.
MAX_SCAN_EDGES = 20

# Total assignments evaluated in one polynomial count, total mask tests
# (masks times patterns and search steps) in one class scan, total steps
# of one reciprocity pair polynomial or integral box DP, and total
# rotation systems in one labelled map scan.
MAX_ASSIGNMENTS = 10**8

# Edges for the connected census by edge extension.
MAX_GENERATOR_EDGES = 6


def _override() -> bool:
    return os.environ.get("SURFGRAPH_GUARD_OVERRIDE", "") == "1"


def check_orientation_scan(num_edges: int) -> None:
    if num_edges > MAX_SCAN_EDGES and not _override():
        raise TooLarge(
            f"orientation scan over 2^{num_edges} vectors exceeds the "
            f"2^{MAX_SCAN_EDGES} guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def _refuse(work: int, what: str) -> None:
    """Refuse, stating what and its estimate, work past MAX_ASSIGNMENTS."""
    if work > MAX_ASSIGNMENTS and not _override():
        raise TooLarge(
            f"{what} exceeds the {MAX_ASSIGNMENTS} guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def check_class_scan(num_edges: int, per_mask: int) -> None:
    """Refuse an orientation-class scan whose total work is too large.

    The work is the 2^E sign masks times the subcube patterns and search
    steps each mask meets, estimated from sizes alone before any scan.
    """
    work = per_mask << num_edges
    _refuse(
        work,
        f"orientation class scan of 2^{num_edges} sign masks against "
        f"{per_mask} patterns and search steps each, about {work} tests,",
    )


def check_pair_poly(num_edges: int, per_support: int) -> None:
    """Refuse a reciprocity pair polynomial whose whole work, estimated from
    sizes alone, is too large: each of the 2^E edge subsets takes about 3E
    steps of subset walks (components, support test, Moebius transform)
    and, as a possible support, a class count charged per_support steps,
    the patterns and search steps of one class scan."""
    check_orientation_scan(num_edges)
    work = (3 * num_edges + per_support) << num_edges
    _refuse(
        work,
        f"reciprocity pair polynomial over 2^{num_edges} edge subsets, each "
        f"{3 * num_edges} walk steps and up to {per_support} class-count steps, "
        f"about {work} steps,",
    )


def check_subset_poly(num_edges: int) -> None:
    """Refuse a polynomial by subset sum whose 2^E subset walk and k = 2, 3
    nowhere-zero counts, together bounded by 3^E steps, are too many."""
    _refuse(
        3**num_edges,
        f"subset-sum polynomial of 2^{num_edges} subsets and its k = 2, 3 counts, "
        f"bounded by 3^{num_edges} steps,",
    )


def check_assignment_scan(base: int, num_edges: int) -> None:
    if base >= 1:
        _refuse(base**num_edges, f"assignment scan over {base}^{num_edges} vectors")


def _dp_steps(values: int, tags: Sequence[int], open_sizes: Sequence[Sequence[int]]) -> int:
    """Steps of a frontier DP, one per state and value at each column.

    The states entering column j are at most the values^j assignments
    before it, and at most its tags[j] tags times, per form open there
    with a variables assigned, its a * values + 1 partial sums
    (open_sizes[j] lists those a).  The DP holds two columns' states at
    once, so the steps also bound the states it holds.
    """
    work = 0
    for j, (sums, sizes) in enumerate(zip(tags, open_sizes)):
        for a in sizes:
            sums *= a * values + 1
        work += min(values**j, sums) * values
    return work


def check_box_dp(values: int, boxes: int, open_sizes: Sequence[Sequence[int]]) -> None:
    """Refuse an integral box DP, tagged with one of boxes boxes, whose
    steps are too many."""
    work = _dp_steps(values, [boxes] * len(open_sizes), open_sizes)
    _refuse(
        work,
        f"integral box DP over {len(open_sizes)} columns of {values} values and "
        f"{boxes} boxes, about {work} steps,",
    )


def check_pair_dp(
    values: int, num_edges: int, assigned: Sequence[int], open_sizes: Sequence[Sequence[int]]
) -> None:
    """Refuse an integral pair DP whose steps, each charged the words of
    its tag, are too many.

    The tag is a mask over the 2^E orientations, fixed by the signs of
    the assigned[j] edges assigned before column j, so at most
    3^assigned[j] tags enter it.  A step ANDs, and may keep, a mask of
    ceil(2^E / 64) words: the charge bounds the masks' time and memory.
    """
    words = -(-(1 << num_edges) // 64)
    work = _dp_steps(values, [3**a for a in assigned], open_sizes) * words
    _refuse(
        work,
        f"integral pair DP over {len(open_sizes)} columns of {values} values and "
        f"masks of {words} words, about {work} word steps,",
    )


def _rooted_maps(m: int) -> int:
    """Rooted maps with m edges, all genera: a(m+1) of OEIS A000698.

    Walsh and Lehman (1972): a(n) = (2n-1)!! - sum_{k=1}^{n-1} (2k-1)!! a(n-k),
    with a(0) = 1.
    """
    odd = [1]  # odd[k] = (2k-1)!!
    a = [1]
    for n in range(1, m + 2):
        odd.append(odd[-1] * (2 * n - 1))
        a.append(odd[n] - sum(odd[k] * a[n - k] for k in range(1, n)))
    return a[m + 1]


def check_generator_size(num_edges: int) -> None:
    """Refuse a census by edge extension past MAX_GENERATOR_EDGES.

    The estimate bounds the candidates built: each (j-1)-edge class, of
    which there are at most as many as rooted maps, has (2j-2)(2j-1)
    one-edge extensions.
    """
    if num_edges > MAX_GENERATOR_EDGES and not _override():
        work = sum(_rooted_maps(j - 1) * (2 * j - 2) * (2 * j - 1) for j in range(2, num_edges + 1))
        raise TooLarge(
            f"census by edge extension to {num_edges} edges builds up to {work} "
            f"candidate maps and exceeds the m <= {MAX_GENERATOR_EDGES} guard; "
            f"set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def check_rotation_scan(num_edges: int) -> None:
    """Refuse a labelled scan of all (2m)! rotation systems past MAX_ASSIGNMENTS."""
    work = math.factorial(2 * num_edges)
    _refuse(work, f"labelled scan over (2*{num_edges})! = {work} rotation systems")
