"""Tile binning: map projected splats to the 16x16-pixel tiles their
bounding boxes may touch, then order each tile's list front to back.

Both steps work on the flat list of (tile, splat) entries as arrays; the
bins are split out of it at the end."""

from dataclasses import dataclass

import numpy as np

from .projection import ProjectedSplats

TILE_SIZE = 16


@dataclass
class TileGrid:
    """Per-tile lists of indices into a projected-splat list.

    bins is row-major: the bin for tile (tx, ty) sits at ty * tiles_x + tx.
    """

    tile_size: int
    tiles_x: int
    tiles_y: int
    bins: list

    def bin_at(self, tx, ty):
        return self.bins[ty * self.tiles_x + tx]


def grid_shape(width, height):
    """(tiles_x, tiles_y) of the tile grid covering a width x height image."""
    return (width + TILE_SIZE - 1) // TILE_SIZE, (height + TILE_SIZE - 1) // TILE_SIZE


def _split_bins(tiles, entries, n_tiles):
    # entries grouped by tile, in tile order, become one list per tile.
    ends = np.cumsum(np.bincount(tiles, minlength=n_tiles)).tolist()
    flat = entries.tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


def assign_tiles(projected, width, height):
    """Bin splats by bounding-box overlap; bins come back unsorted.

    A splat lands in every tile whose pixel rectangle intersects the closed
    square [mean2d - radius, mean2d + radius]. Tile rectangles are treated
    as half-open ([16*tx, 16*tx + 16) and likewise in y), which makes the
    floor arithmetic below exact at shared edges. Within a bin, splats
    keep their order in `projected`.

    Args:
        projected: ProjectedSplats, or a list of ProjectedGaussian.
    """
    p = ProjectedSplats.of(projected)
    tiles_x, tiles_y = grid_shape(width, height)
    # Tile ranges per splat, clamped to the grid while still floats so the
    # cast to integers cannot overflow.
    r = p.radius[:, None]
    last = np.array([tiles_x - 1, tiles_y - 1])
    lo = np.clip(np.floor((p.mean2d - r) / TILE_SIZE), 0, last + 1).astype(np.int64)
    hi = np.clip(np.floor((p.mean2d + r) / TILE_SIZE), -1, last).astype(np.int64)
    span = np.maximum(0, hi - lo + 1)
    tx0, ty0 = lo[:, 0], lo[:, 1]
    nx = span[:, 0]
    count = nx * span[:, 1]
    # One entry per (splat, tile) pair, splat-major, then a stable sort by
    # tile, which keeps each bin in splat order.
    splat = np.repeat(np.arange(len(p)), count)
    offset = np.arange(splat.size) - np.repeat(np.cumsum(count) - count, count)
    tile = ((ty0[splat] + offset // nx[splat]) * tiles_x
            + tx0[splat] + offset % nx[splat])
    order = np.argsort(tile, kind="stable")
    return TileGrid(tile_size=TILE_SIZE, tiles_x=tiles_x, tiles_y=tiles_y,
                    bins=_split_bins(tile[order], splat[order], tiles_x * tiles_y))


def sort_bins(grid: TileGrid, projected):
    """Front-to-back ordering per bin: depth ascending, ties by source index.

    Every bin is ordered by one lexsort over the flat (tile, depth, source
    index) keys. The tie-break keeps the ordering fully deterministic,
    which both the compositing passes and the golden-image tests rely on.
    """
    p = ProjectedSplats.of(projected)
    n_tiles = len(grid.bins)
    lens = np.array([len(b) for b in grid.bins], dtype=np.int64)
    tile = np.repeat(np.arange(n_tiles), lens)
    entries = np.fromiter((i for b in grid.bins for i in b), dtype=np.int64,
                          count=int(lens.sum()))
    order = np.lexsort((p.source_index[entries], p.depth[entries], tile))
    return TileGrid(
        tile_size=grid.tile_size,
        tiles_x=grid.tiles_x,
        tiles_y=grid.tiles_y,
        bins=_split_bins(tile[order], entries[order], n_tiles),
    )
