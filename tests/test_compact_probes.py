"""The audit's probes as a table over distinct rows.

gradcheck._probes stacks the scene once, one stepped row per
splat-coordinate probe and n rows per view probe, and _probe_rows
projects that stack once and gathers it into the probe images. Every
probe image's rows must be bitwise what projecting one scene per probe
gives (_project_stack of the expanded stack): every ProjectedSplats
field and image, and the windows formed from them. The rows _probe_rows
drops are exactly those whose footprint misses their pair's window, and
the footprints it returns are those rows' _footprints boxes. Covered:
audit seeds 0-19, the 37x23 off-centre cases and a scene where one
probe of a pair culls the splat it moves.
"""

from dataclasses import fields

import numpy as np
import pytest

from splatgrad import Gaussian3D, Splats, audit_scene, make_audit_scene
from splatgrad.gradcheck import _probe_rows, _probes
from splatgrad.projection import ProjectedSplats
from splatgrad.raster_forward import _footprints, _project_stack

from helpers import rows
from test_batched_probes import off_centre_audit_case
from test_windowed_probes import H, expand


def full_projection(splats, camera):
    """_probes' table, expanded to one scene per probe and projected by
    one _project_stack call: (projected, image, probed), image holding
    each row's probe."""
    stack, views, table, probed, _ = _probes(splats, camera, H)
    full, probe_views = expand(stack, views, table)
    n = len(splats)
    projected, stack_row = _project_stack(full, camera, np.tile(np.arange(n), len(table)),
                                          probe_views.repeat(n, axis=0))
    return projected, stack_row // n, probed


def full_windows(projected, image, probed, width, height):
    """Each pair's window from the per-probe rows: the box bounding the
    probed splat's footprints in its two images, clipped to the image."""
    box = _footprints(projected)
    pair = image // 2
    rows = (projected.source_index == probed[pair]).nonzero()[0]
    lo = np.full((len(probed), 2), np.inf)
    hi = np.full((len(probed), 2), -np.inf)
    np.minimum.at(lo, pair[rows], box[rows, :2])
    np.maximum.at(hi, pair[rows], box[rows, 2:])
    view = probed < 0
    lo[view], hi[view] = 0, (width, height)
    lo = lo.clip(0, (width, height))
    hi = hi.clip(lo, (width, height))
    return np.concatenate([lo, hi], axis=1).astype(np.int64)


def assert_rows_equal(got, got_image, want, want_image):
    for f in fields(ProjectedSplats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if a is None:
            # Probe rows leave the factors the backward pass reads behind.
            assert f.name in ("mean", "scale", "quat", "rot", "sigma", "jac", "t_proj"), f.name
            continue
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
    assert got_image.dtype == want_image.dtype and got_image.tobytes() == want_image.tobytes()


def assert_compact_matches_full(scene, camera):
    splats = Splats.of(scene)
    stack, views, table, probed, _ = _probes(splats, camera, H)
    want, want_image, want_probed = full_projection(splats, camera)
    assert probed.tobytes() == want_probed.tobytes()
    # Every probe image's rows, none dropped.
    n = len(splats)
    local = np.zeros(len(views), dtype=np.intp)
    local[table] = np.arange(n)
    rows, stack_row = _project_stack(stack, camera, local, views)
    at = np.full(len(views), -1)
    at[stack_row] = np.arange(len(stack_row))
    index = at[table].ravel()
    kept = (index >= 0).nonzero()[0]
    every = ProjectedSplats(**{f.name: getattr(rows, f.name)[index[kept]] for f in fields(rows)})
    assert_rows_equal(every, kept // n, want, want_image)
    # The windows, and the rows that reach them with their footprints.
    got, got_image, got_box, windows = _probe_rows(stack, views, table, probed, camera)
    assert windows.tobytes() == full_windows(want, want_image, probed, camera.width,
                                             camera.height).tobytes()
    box = _footprints(want)
    win = windows[want_image // 2]
    reach = (np.maximum(box[:, :2], win[:, :2]) < np.minimum(box[:, 2:], win[:, 2:])).all(axis=1)
    reached = ProjectedSplats(**{f.name: getattr(want, f.name)[reach] for f in fields(want)})
    assert_rows_equal(got, got_image, reached, want_image[reach])
    assert got_box.tobytes() == box[reach].tobytes()
    return want, want_image


@pytest.mark.parametrize("seed", range(20))
def test_compact_rows_match_full_stack_audit_seeds(seed):
    scene, camera, *_ = make_audit_scene(seed, 16 if seed % 2 == 0 else 32)
    assert_compact_matches_full(scene, camera)


@pytest.mark.parametrize("seed", range(6))
def test_compact_rows_match_full_stack_off_centre_cases(seed):
    scene, camera, *_ = off_centre_audit_case(seed)
    assert_compact_matches_full(scene, camera)


def test_compact_rows_match_full_stack_when_a_probe_culls_its_splat():
    # A splat 0.3 h in front of the near plane: the -h probes on its
    # camera-space depth (mean[2], nearly along the view axis) and on the
    # view's z translation cull it; every other probe keeps it.
    scene, camera, *_ = make_audit_scene(0)
    t_cam = np.array([0.0, 0.0, camera.near + 0.3 * H])
    scene = rows(scene) + [Gaussian3D(
        mean=camera.rotation.T @ (t_cam - camera.translation), scale=np.full(3, 0.01),
        quat=np.array([1.0, 0.2, 0.0, 0.0]), opacity=0.7, color=np.array([0.5, 0.5, 0.5]))]
    want, want_image = assert_compact_matches_full(scene, camera)
    n = len(scene)
    labels = _probes(Splats.of(scene), camera, H)[-1]["label"]
    kept = set(want_image[want.source_index == n - 1].tolist())
    culled = sorted(set(range(2 * len(labels))) - kept)
    assert [(labels[k // 2], k % 2) for k in culled] == [
        (f"gaussian[{n - 1}].mean[2]", 1), ("view[11]", 1)]


def test_probe_row_error_names_its_splat():
    # The scene renders (the quaternion's norm is 1e-5), but the -h probe
    # on quat[0] zeroes it. That probe's row sits far down the stack, and
    # the error must name the splat by its index in the scene.
    scene, camera, target, background, mask = make_audit_scene(3, 32)
    scene.quats[2] = [1e-5, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"^gaussians\[2\]\.quat norm is too small$"):
        audit_scene(scene, camera, target, background=background, pixel_mask=mask)
