"""``MidasArena``'s closed-form boxes against a midpoint walk down the path.

The arena derives every link box and zone from a peer's path bits in one
product per batch of peers (``MidasArena._link_boxes``).  The walk it
replaced — halve the current cell at its midpoint level by level, and
record the half not taken — stays here as the reference.  Both the
one-row forms (``link_table``, ``zone``, ``decode_links``) and the
batched one (``link_tables``, peers of both depths mixed) must equal it
byte for byte over the size and dimension sweep of the leaf assignment:
``n = 2**D + m`` for ``m`` in {0, 1, 2**D - 1}, ``D`` up to 15, 1-4
dimensions, two seeds.
"""

import numpy as np
import pytest

from repro.common.geometry import Rect
from repro.core.regions import RectRegion
from repro.overlays import midas_arena


def walk(arena, index):
    """``(zone lo, zone hi, [(link lo, link hi) per level])`` of a peer by
    the midpoint descent of its path."""
    path, depth = arena.path_of(index), arena.depth_of(index)
    lo = [0.0] * arena.dims
    hi = [1.0] * arena.dims
    cells = []
    for level in range(depth):
        bit = (path >> (depth - 1 - level)) & 1
        j = level % arena.dims
        mid = (lo[j] + hi[j]) / 2.0
        sibling_lo, sibling_hi = lo.copy(), hi.copy()
        if bit:
            sibling_hi[j] = mid
            lo[j] = mid
        else:
            sibling_lo[j] = mid
            hi[j] = mid
        cells.append((sibling_lo, sibling_hi))
    return lo, hi, cells


def as_bytes(rows, dims):
    return np.array(rows, dtype=float).reshape(-1, dims).tobytes()


def sample(n):
    """Every peer of a small network; of a large one both ends, both
    sides of the deep/shallow boundary and a seeded spread."""
    if n <= 600:
        return list(range(n))
    extra = n - (1 << (n.bit_length() - 1))
    edges = {0, 1, n - 2, n - 1, 2 * extra - 1, 2 * extra, 2 * extra + 1}
    spread = np.random.default_rng(n).integers(0, n, 150).tolist()
    return sorted({i for i in edges | set(spread) if 0 <= i < n})


SIZES = [(1 << depth) + extra for depth in (0, 1, 2, 5, 9, 15)
         for extra in sorted({0, 1, (1 << depth) - 1}) if extra < 1 << depth]


@pytest.mark.parametrize("seed", (8, -3))
@pytest.mark.parametrize("dims", (1, 2, 3, 4))
@pytest.mark.parametrize("n", SIZES)
def test_boxes_equal_the_walk(n, dims, seed):
    arena = midas_arena(n, dims=dims, seed=seed, precompute_links=n > 600)
    indexes = sample(n)
    batched = arena.link_tables(indexes)
    for index, table in zip(indexes, batched):
        zone_lo, zone_hi, cells = walk(arena, index)
        want_lo = as_bytes([lo for lo, _ in cells], dims)
        want_hi = as_bytes([hi for _, hi in cells], dims)
        single = arena.link_table(index)
        for got in (table, single):
            lo, hi = got.bounds()
            assert lo.tobytes() == want_lo and hi.tobytes() == want_hi
            assert got.peer_ids == arena._link_targets(index)
        zone = arena.zone(index)
        assert as_bytes(zone.lo, dims) == as_bytes(zone_lo, dims)
        assert as_bytes(zone.hi, dims) == as_bytes(zone_hi, dims)
        decoded = arena.decode_links(index)
        assert [link.region for link in decoded] == [
            RectRegion(Rect(tuple(lo), tuple(hi))) for lo, hi in cells]
        assert all(type(v) is float for link in decoded
                   for v in link.region.rect.lo + link.region.rect.hi)


def test_batches_are_transient():
    """A batch leaves nothing on the arena, whose only arrays besides the
    substrate are per level: two sizes of one depth hold the same."""
    def constants(arena):
        substrate = {id(a) for a in arena._arrays()}
        return {name: value.nbytes for name, value in vars(arena).items()
                if isinstance(value, np.ndarray) and id(value) not in substrate}

    small = midas_arena(2 ** 10 + 3, dims=3, seed=1)
    large = midas_arena(2 ** 11 - 1, dims=3, seed=1)
    before = constants(large)
    large.link_tables(list(range(0, len(large), 7)))
    assert constants(large) == before == constants(small)
