"""Tests for tile assignment and per-tile depth ordering: assign_tiles
emits each bin front to back, with each row's image offset when given,
in one stable sort of its entries by tile id."""

import numpy as np
from numpy.testing import assert_allclose

from splatgrad.raster_forward import TILE_SIZE, assign_tiles

from helpers import stack_projected


def make_projected(mean2d, radius, depth, source_index):
    """A stack_projected entry with an identity cov2d."""
    return ([0.0, 0.0, depth], mean2d, np.eye(2), depth, radius, source_index)


def brute_force_bins(projected, width, height):
    """O(G*T) membership oracle: test every (splat, tile) rectangle pair."""
    tiles_x = -(-width // TILE_SIZE)
    tiles_y = -(-height // TILE_SIZE)
    bins = [[] for _ in range(tiles_x * tiles_y)]
    for idx, (mean2d, radius) in enumerate(zip(projected.mean2d, projected.radius)):
        x0, x1 = mean2d[0] - radius, mean2d[0] + radius
        y0, y1 = mean2d[1] - radius, mean2d[1] + radius
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                rx0, rx1 = tx * TILE_SIZE, (tx + 1) * TILE_SIZE
                ry0, ry1 = ty * TILE_SIZE, (ty + 1) * TILE_SIZE
                if x1 >= rx0 and x0 < rx1 and y1 >= ry0 and y0 < ry1:
                    bins[ty * tiles_x + tx].append(idx)
    return bins


class TestAssignTiles:
    def test_tile_size_is_sixteen(self):
        assert TILE_SIZE == 16

    def test_grid_shape(self):
        grid = assign_tiles(stack_projected([]), 48, 33)
        assert grid.tiles_x == 3
        assert grid.tiles_y == 3
        assert len(grid.bins) == 9

    def test_interior_splat_lands_in_one_tile(self):
        p = make_projected([8.0, 8.0], 1, 2.0, 0)
        grid = assign_tiles(stack_projected([p]), 64, 64)
        hits = [b for b in grid.bins if b]
        assert len(hits) == 1
        assert grid.bins[0] == [0]

    def test_corner_splat_lands_in_four_tiles(self):
        p = make_projected([16.0, 16.0], 2, 2.0, 0)
        grid = assign_tiles(stack_projected([p]), 64, 64)
        hits = [i for i, b in enumerate(grid.bins) if b]
        assert len(hits) == 4

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            width, height = 80, 64
            n = int(rng.integers(1, 200))
            projected = stack_projected([
                make_projected(
                    rng.uniform(-30, 110, size=2),
                    int(rng.integers(1, 40)),
                    rng.uniform(1.0, 9.0),
                    i,
                )
                for i in range(n)
            ])
            grid = assign_tiles(projected, width, height)
            expect = brute_force_bins(projected, width, height)
            assert [sorted(b) for b in grid.bins] == [sorted(b) for b in expect]

    def test_no_duplicates_within_bin(self):
        rng = np.random.default_rng(52)
        projected = stack_projected([
            make_projected(rng.uniform(0, 64, size=2), int(rng.integers(1, 50)),
                           rng.uniform(1, 5), i)
            for i in range(60)
        ])
        grid = assign_tiles(projected, 64, 64)
        for b in grid.bins:
            assert len(b) == len(set(b))


class TestSortBins:
    def test_orders_by_depth(self):
        projected = stack_projected([
            make_projected([8.0, 8.0], 2, d, i)
            for i, d in enumerate([3.0, 1.0, 2.0])
        ])
        grid = assign_tiles(projected, 16, 16)
        assert grid.bins[0] == [1, 2, 0]

    def test_equal_depths_break_by_index(self):
        projected = stack_projected([
            make_projected([8.0, 8.0], 2, 2.0, 5),
            make_projected([8.0, 8.0], 2, 2.0, 2),
        ])
        grid = assign_tiles(projected, 16, 16)
        order = grid.bins[0]
        assert [projected.source_index[i] for i in order] == [2, 5]

    def test_matches_reference_sort(self):
        # Binning is one sort of rows front to back and one stable sort by
        # tile id, also when assign_tiles adds each row's image offset to
        # its tile ids: the entries are those of the brute-force oracle
        # ordered by one lexsort over (tile, depth, source index), ties
        # kept in row order. Depths come partly from three values and
        # source indices repeat (as scene-local indices do across a
        # batch's images), so ties on both keys occur.
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            projected = stack_projected([
                make_projected(rng.uniform(0, 64, size=2), int(rng.integers(1, 20)),
                               rng.choice([2.0, 3.5, 5.0, rng.uniform(1.0, 9.0)]),
                               int(rng.integers(0, n // 2 + 1)))
                for _ in range(n)
            ])
            grid = assign_tiles(projected, 64, 64)
            for b in grid.bins:
                keys = [(projected.depth[i], projected.source_index[i]) for i in b]
                assert keys == sorted(keys)
            n_tiles = grid.tiles_x * grid.tiles_y
            image = rng.integers(0, 3, size=n)
            offset = assign_tiles(projected, 64, 64, image)
            bins = brute_force_bins(projected, 64, 64)
            tile = np.repeat(np.arange(n_tiles), [len(b) for b in bins])
            splat = np.array([i for b in bins for i in b], dtype=np.int64)
            for got, ref_tile in ((grid, tile), (offset, tile + image[splat] * n_tiles)):
                order = np.lexsort((projected.source_index[splat], projected.depth[splat],
                                    ref_tile))
                assert got.entry_tile.tolist() == ref_tile[order].tolist()
                assert got.entry_splat.tolist() == splat[order].tolist()

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(54)
        projected = stack_projected([
            make_projected(rng.uniform(0, 64, size=2), int(rng.integers(1, 20)),
                           rng.uniform(1.0, 9.0), i)
            for i in range(50)
        ])
        g1 = assign_tiles(projected, 64, 64)
        g2 = assign_tiles(projected, 64, 64)
        assert g1.bins == g2.bins

    def test_depth_key_is_camera_z(self):
        # Two splats with crossing NDC-vs-camera orderings cannot be built
        # with a shared projection matrix (the depth remap is monotone on
        # (near, far)), so instead assert the sort key reads .depth and
        # nothing else: corrupt t_cam and confirm ordering is unaffected.
        projected = stack_projected([make_projected([8.0, 8.0], 2, 1.5, 0),
                                     make_projected([8.0, 8.0], 2, 2.5, 1)])
        projected.t_cam[0] = [0.0, 0.0, 99.0]
        grid = assign_tiles(projected, 16, 16)
        assert grid.bins[0] == [0, 1]
