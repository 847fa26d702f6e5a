"""Anatomy of a MIDAS overlay: the paper's Figures 1-3 in ASCII.

* Figure 1 — the virtual k-d tree, peer identifiers, zones, and the links
  of one peer.
* Figure 2 — the boundary identifier patterns of Section 5.2.
* Figure 3 — the wavefront of a fast skyline query, hop by hop.

Run with::

    python examples/midas_anatomy.py
"""

import numpy as np

from repro import MidasOverlay, QueryTrace, run_fast
from repro.overlays.patterns import matches_any_pattern
from repro.queries.skyline import SkylineHandler


def zone_string(rect) -> str:
    lo = ", ".join(f"{v:.2f}" for v in rect.lo)
    hi = ", ".join(f"{v:.2f}" for v in rect.hi)
    return f"[{lo}] - [{hi}]"


def main() -> None:
    overlay = MidasOverlay(dims=2, size=12, seed=5,
                           link_policy="boundary")

    # --- Figure 1: ids, zones, links --------------------------------------
    print("=== Figure 1: the virtual k-d tree ===")
    peers = sorted(overlay.peers(), key=lambda p: p.path)
    for peer in peers:
        marker = "*" if matches_any_pattern(peer.path, 2) else " "
        print(f"  id={peer.id_string():8s}{marker} "
              f"zone {zone_string(peer.zone)}")
    print("  (* = identifier matches a boundary pattern, Section 5.2)")

    some = peers[0]
    print(f"\nlinks of peer {some.id_string()} "
          f"(one per sibling subtree depth):")
    for i, link in enumerate(some.links(), 1):
        print(f"  link {i}: -> peer {link.peer.id_string():8s} "
              f"region {zone_string(link.region.rect)}")

    # --- Figure 2: boundary patterns ---------------------------------------
    print("\n=== Figure 2: boundary-pattern identifiers ===")
    print("2-d patterns: p_h = (X0)*X?  and  p_v = (0X)*0?")
    for peer in peers:
        if matches_any_pattern(peer.path, 2):
            print(f"  {peer.id_string() or '(root)'}: "
                  f"zone touches a lower domain boundary "
                  f"at {zone_string(peer.zone)}")

    # --- Figure 3: fast skyline wavefront ----------------------------------
    print("\n=== Figure 3: fast skyline processing, hop by hop ===")
    data = np.random.default_rng(0).random((240, 2)) * 0.999
    overlay.load(data)

    trace = QueryTrace()
    result = run_fast(peers[-1], SkylineHandler(2),
                      restriction=overlay.domain(), sink=trace)

    # One ``process`` span per visited peer, opened at the hop the query
    # reached it; sorting by that hop lays out the wavefront.
    by_id = {peer.peer_id: peer for peer in peers}
    print(f"query initiated at peer {peers[-1].id_string()}; "
          f"visit order (breadth across branches):")
    visits = sorted((span for span in trace.spans if span.kind == "process"),
                    key=lambda span: span.begin)
    for order, span in enumerate(visits, 1):
        peer = by_id[span.peer]
        flag = "*" if matches_any_pattern(peer.path, 2) else " "
        print(f"  visit {order:2d}: hop {span.begin}, "
              f"peer {peer.id_string() or '(root)':8s}{flag}")
    print(f"\nskyline of {len(data)} tuples: {len(result.answer)} points, "
          f"{result.stats.latency} hops of latency, "
          f"{result.stats.processed}/{len(overlay)} peers visited")


if __name__ == "__main__":
    main()
