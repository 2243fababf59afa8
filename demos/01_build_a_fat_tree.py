"""Build a fat-tree and walk its equal-cost paths.

Run: python demos/01_build_a_fat_tree.py
"""

from fatflow import build_fat_tree, build_nonblocking

# a k=4 fat-tree: 4 pods, 20 switches, 16 hosts, 10 Mb/s links
topo = build_fat_tree(4, 10e6)
print(f"k={topo.k}: {len(topo.switches)} switches "
      f"({len(topo.core_switches)} core, {len(topo.agg_switches)} agg, "
      f"{len(topo.edge_switches)} edge), {len(topo.hosts)} hosts, "
      f"{len(topo.links)} unidirectional links")

# hosts in different pods see (k/2)^2 equal-cost paths, one per core switch
src, dst = topo.hosts[0], topo.hosts[-1]
paths = topo.equal_cost_paths(src, dst)
print(f"\n{src} -> {dst}: {len(paths)} equal-cost paths")
for p in paths:
    print("  ", p)

# neighbors on the same edge switch have exactly one 2-hop route
same_edge = topo.equal_cost_paths(topo.hosts[0], topo.hosts[1])
print(f"\n{topo.hosts[0]} -> {topo.hosts[1]}: {len(same_edge)} path:",
      same_edge[0])

# upstream aggregate-to-core links are where elephants get counted
ups = topo.agg_upstream_link_ids
print(f"\n{len(ups)} aggregate upstream links (= k^3/4), "
      f"e.g. {topo.links[ups[0]]}")

# the ideal baseline: every host on one non-blocking hub
star = build_nonblocking(4, 10e6)
print(f"\nstar baseline: {len(star.switches)} switch, {len(star.hosts)} hosts,"
      f" path {star.equal_cost_paths(star.hosts[0], star.hosts[9])[0]}")
