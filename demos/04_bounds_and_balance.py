"""Throughput bounds and load-balance efficiency from link-load snapshots.

Run: python demos/04_bounds_and_balance.py
"""

import math

from fatflow import build_fat_tree
from fatflow.metrics import load_bounds

topo = build_fat_tree(4, 10e6)
Mbps = 1e6


def show(name, loads):
    b = load_bounds(topo, loads)
    # an unbounded proxy is None in the report; print it as inf
    l_max, l_min = (math.inf if b[key] is None else b[key]
                    for key in ("l_max_proxy", "l_min_proxy"))
    edges, aggs = ([round(v / Mbps, 2) for v in b[key]]
                   for key in ("per_edge_load_bps", "per_agg_load_bps"))
    print(f"{name}:")
    print(f"  per-edge load/paths : {edges} Mb/s")
    print(f"  per-aggregate load  : {aggs} Mb/s")
    print(f"  throughput bounds   : best {b['t_max_bps'] / Mbps:.1f} Mb/s, "
          f"worst {b['t_min_bps'] / Mbps:.1f} Mb/s")
    print(f"  latency proxies     : {l_max:.3g} / {l_min:.3g}  (1/throughput)")
    print(f"  balance efficiency  : {b['balance_efficiency']:.4f}\n")


# perfectly balanced: every edge spreads 8 Mb/s evenly over its two uplinks
balanced = {}
for e in topo.edge_switches:
    for lid in topo.edge_uplink_ids(e):
        balanced[lid] = 4e6
show("uniform load", balanced)

# everything from pod 0 squeezed through aggregate 0
lopsided = {lid: 8e6 for lid in topo.agg_inlink_ids(topo.agg_switches[0])}
show("one-aggregate pileup", lopsided)

show("idle network", {})
