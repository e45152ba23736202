"""Size guards for the exhaustive algorithms.

Everything in this package enumerates: orientation classes are scanned
as sign masks over {+1,-1}^E, polynomials walk the 2^E edge subsets,
and every count of tensions and flows is a frontier DP, priced in the
steps (a state entering a column times a value) that its column plan
allows.  The guards below refuse work whose state space is large enough
to look like a hang, and they can be lifted with the environment
variable SURFGRAPH_GUARD_OVERRIDE=1 when the caller knows what they are
asking for.
"""

import math
import os
from functools import lru_cache
from typing import Callable, Sequence

from .errors import TooLarge

# 2^MAX_SCAN_EDGES orientation vectors per scan.
MAX_SCAN_EDGES = 20

# Total steps of one frontier DP (word steps for the integral pair DP),
# total mask tests (masks times patterns and search steps) in one class
# scan, total steps of one subset or reciprocity pair polynomial, and
# total rotation systems in one labelled map scan.
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


def _refuse(what: str) -> None:
    """Refuse, stating what and its estimate, unless overridden.  Guards
    call it only past MAX_ASSIGNMENTS, so most calls build no text."""
    if not _override():
        raise TooLarge(
            f"{what} exceeds the {MAX_ASSIGNMENTS} guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force"
        )


def check_class_scan(num_edges: int, per_mask: int) -> None:
    """Refuse an orientation-class scan whose total work is too large.

    The work is the 2^E sign masks times the subcube patterns and search
    steps each mask meets, estimated from sizes alone before any scan.
    """
    work = per_mask << num_edges
    if work > MAX_ASSIGNMENTS:
        _refuse(
            f"orientation class scan of 2^{num_edges} sign masks against "
            f"{per_mask} patterns and search steps each, about {work} tests,"
        )


def check_cycle_search(bound: int) -> None:
    """Refuse a listing of simple cycles whose count, bounded from sizes
    alone (`ribbonmap._cycle_bound`), is too large."""
    if bound > MAX_ASSIGNMENTS:
        _refuse(f"simple cycle search over up to {bound} cycles")


def check_pair_poly(num_edges: int, per_support: int) -> None:
    """Refuse a reciprocity pair polynomial whose whole work, estimated from
    sizes alone, is too large: each of the 2^E edge subsets takes about 3E
    steps of subset walks (components, support test, Moebius transform)
    and, as a possible support, a class count charged per_support steps,
    the patterns and search steps of one class scan."""
    check_orientation_scan(num_edges)
    work = (3 * num_edges + per_support) << num_edges
    if work > MAX_ASSIGNMENTS:
        _refuse(
            f"reciprocity pair polynomial over 2^{num_edges} edge subsets, each "
            f"{3 * num_edges} walk steps and up to {per_support} class-count steps, "
            f"about {work} steps,"
        )


def check_subset_poly(num_edges: int) -> None:
    """Refuse a polynomial by subset sum whose 2^E subset walk and k = 2, 3
    nowhere-zero counts, together bounded by 3^E steps, are too many."""
    if 3**num_edges > MAX_ASSIGNMENTS:
        _refuse(
            f"subset-sum polynomial of 2^{num_edges} subsets and its k = 2, 3 counts, "
            f"bounded by 3^{num_edges} steps,"
        )


def _dp_steps(guide: Sequence, values: int, modulus: int, tags: Callable[[int], int]) -> int:
    """Steps of a frontier DP, one per state and value at each column.

    guide[j] = (a, sizes): a values are assigned before column j, and
    sizes lists, per form open there, its variables already assigned.
    The states entering column j are at most the values^j assignments
    before it, and at most tags(a) tags times, per open form with s
    variables assigned, its s * values + 1 partial sums, or its modulus
    residues if fewer.  The DP holds two columns' states at once, so the
    steps also bound the states it holds.
    """
    work = 0
    for j, (assigned, sizes) in enumerate(guide):
        states = tags(assigned)
        for s in sizes:
            states *= min(s * values + 1, modulus) if modulus else s * values + 1
        work += min(values**j, states) * values
    return work


def check_dp(
    guide: Sequence, values: int, modulus: int = 0, boxes: int = 1, edges: int = 0, spent: int = 0
) -> int:
    """Refuse a frontier DP, taking values values per column, whose
    steps, priced from its plan's guide before it starts, are too many
    with the spent steps of the DPs before it in the same call; return
    that total.

    A count mod modulus keeps no tag.  An integral box DP (modulus 0)
    keeps one of boxes boxes.  An integral pair DP keeps a mask over the
    2^edges orientations of its map, fixed by the signs of the a values
    assigned, so at most 3^a masks; a step ANDs, and may keep, a mask of
    ceil(2^edges / 64) words, and is charged them: the charge bounds the
    masks' time and memory.
    """
    work = spent + _dp_price(guide, values, modulus, boxes, edges)
    if work > MAX_ASSIGNMENTS:
        columns = f"{len(guide)} columns of {values} values"
        unit = "word steps" if edges else "steps"
        if edges:
            what = f"integral pair DP over {columns} and masks of {-(-(1 << edges) // 64)} words"
        elif modulus:
            what = f"count mod {modulus} by a frontier DP over {columns}"
        else:
            what = f"integral box DP over {columns} and {boxes} boxes"
        if spent:
            what += f", after {spent} {unit} of the DPs before it"
        _refuse(f"{what}, about {work} {unit}{' in all' if spent else ''},")
    return work


@lru_cache(maxsize=1024)  # guards run before every memo lookup, so prices repeat
def _dp_price(guide: Sequence, values: int, modulus: int = 0, boxes: int = 1, edges: int = 0) -> int:
    if edges:
        return _dp_steps(guide, values, 0, lambda a: 3**a) * -(-(1 << edges) // 64)
    return _dp_steps(guide, values, modulus, lambda a: boxes)


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
    if work > MAX_ASSIGNMENTS:
        _refuse(f"labelled scan over (2*{num_edges})! = {work} rotation systems")
