"""Every connected map with at most three edges, sorted by surface.

The generator fixes the edge pairing and grows the census one edge at
a time: every connected map with m edges is a connected map with m - 1
edges plus one edge, joining two corners or hanging off one.  It keeps
one representative per isomorphism class.  This script builds the
census for 0..3 edges, stratifies it by (vertices, edges, faces,
genus), and tallies the orientation classes across each stratum.
"""

from collections import Counter

from surfgraph import (
    CorpusSpec,
    OrientationClass,
    corpus_stats,
    count_class,
    generate,
)

print("connected maps by edge count:")
per_edge = {}
for m in range(4):
    maps = list(generate(CorpusSpec(edges=m)))
    per_edge[m] = maps
    print(f"  {m} edges: {len(maps)} isomorphism classes")
print()

print("stratified by (V, E, F, components, genus):")
all_maps = [g for maps in per_edge.values() for g in maps]
stats = corpus_stats(iter(all_maps))
for key, n in stats.items():
    v, e, f, c, genus = key
    print(f"  V={v} E={e} F={f} c={c} genus={genus}: {n} maps")
print()

print("orientation class sizes per stratum (summed over its maps):")
tally: dict[tuple, Counter] = {}
for g in all_maps:
    d = g.euler
    key = (d.v_count, d.e_count, d.f_count, d.c, d.g)
    row = tally.setdefault(key, Counter())
    for cls in OrientationClass:
        row[cls.name] += count_class(g, cls)
for key in sorted(tally):
    v, e, f, c, genus = key
    row = tally[key]
    cells = "  ".join(f"{name}={row[name]}" for name in ("AO", "TCO", "BAO", "TBO"))
    print(f"  V={v} E={e} F={f} genus={genus}:  {cells}")
print()

planar = [g for g in all_maps if g.euler.g == 0]
positive = [g for g in all_maps if g.euler.g > 0]
print(f"{len(planar)} planar maps, {len(positive)} of positive genus.")
print("On every planar map the boundary acyclic orientations are exactly the")
print("acyclic ones and the totally bi-walkable ones are exactly the totally")
print("cyclic ones; genus is what lets the four classes disagree.")
for g in planar:
    assert count_class(g, OrientationClass.BAO) == count_class(g, OrientationClass.AO)
    assert count_class(g, OrientationClass.TBO) == count_class(g, OrientationClass.TCO)
