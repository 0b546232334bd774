"""Tile binning: map projected splats to the 16x16-pixel tiles their
bounding boxes may touch, then order each tile's list front to back.

Both steps work on the flat list of (tile, splat) entries as arrays, and
the grid keeps it in that form; the per-tile lists are derived from it
on demand."""

from dataclasses import dataclass

import numpy as np

from .projection import ProjectedSplats

TILE_SIZE = 16


@dataclass
class TileGrid:
    """The (tile, splat) entries of a tile grid, flat and grouped by tile.

    entry_tile (E,) holds row-major tile ids in ascending order, the tile
    (tx, ty) being ty * tiles_x + tx; entry_splat (E,) holds the matching
    indices into a projected-splat list, in bin order within each tile.
    """

    tile_size: int
    tiles_x: int
    tiles_y: int
    entry_tile: np.ndarray
    entry_splat: np.ndarray

    @property
    def bins(self):
        """One list of projected-splat indices per tile, row-major."""
        n_tiles = self.tiles_x * self.tiles_y
        ends = np.cumsum(np.bincount(self.entry_tile, minlength=n_tiles)).tolist()
        flat = self.entry_splat.tolist()
        return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


def grid_shape(width, height):
    """(tiles_x, tiles_y) of the tile grid covering a width x height image."""
    return (width + TILE_SIZE - 1) // TILE_SIZE, (height + TILE_SIZE - 1) // TILE_SIZE


def assign_tiles(projected: ProjectedSplats, width, height):
    """Bin splats by bounding-box overlap; bins come back unsorted.

    A splat lands in every tile whose pixel rectangle intersects the closed
    square [mean2d - radius, mean2d + radius]. Tile rectangles are treated
    as half-open ([16*tx, 16*tx + 16) and likewise in y), which makes the
    floor arithmetic below exact at shared edges. Within a bin, splats
    keep their row order in `projected`.
    """
    tiles_x, tiles_y = grid_shape(width, height)
    # Tile ranges per splat, clamped to the grid while still floats so the
    # cast to integers cannot overflow.
    mean2d, r = projected.mean2d, projected.radius[:, None]
    last = np.array([tiles_x - 1, tiles_y - 1])
    lo = np.clip(np.floor((mean2d - r) / TILE_SIZE), 0, last + 1).astype(np.int64)
    hi = np.clip(np.floor((mean2d + r) / TILE_SIZE), -1, last).astype(np.int64)
    span = np.maximum(0, hi - lo + 1)
    tx0, ty0 = lo[:, 0], lo[:, 1]
    nx = span[:, 0]
    count = nx * span[:, 1]
    # One entry per (splat, tile) pair, splat-major, then a stable sort by
    # tile, which keeps each bin in splat order.
    splat = np.repeat(np.arange(len(projected)), count)
    offset = np.arange(splat.size) - np.repeat(np.cumsum(count) - count, count)
    tile = ((ty0[splat] + offset // nx[splat]) * tiles_x
            + tx0[splat] + offset % nx[splat])
    order = np.argsort(tile, kind="stable")
    return TileGrid(tile_size=TILE_SIZE, tiles_x=tiles_x, tiles_y=tiles_y,
                    entry_tile=tile[order], entry_splat=splat[order])


def sort_bins(grid: TileGrid, projected: ProjectedSplats):
    """Front-to-back ordering per bin: depth ascending, ties by source index.

    Every bin is ordered by one lexsort over the flat (tile, depth, source
    index) keys. The tie-break keeps the ordering fully deterministic,
    which both the compositing passes and the golden-image tests rely on.
    """
    splat = grid.entry_splat
    order = np.lexsort((projected.source_index[splat], projected.depth[splat],
                        grid.entry_tile))
    return TileGrid(
        tile_size=grid.tile_size,
        tiles_x=grid.tiles_x,
        tiles_y=grid.tiles_y,
        entry_tile=grid.entry_tile[order],
        entry_splat=splat[order],
    )
