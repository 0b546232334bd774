"""CPU differentiable gaussian splatting: forward rasterizer, analytic
backward pass, finite-difference audit, and an image-fitting optimizer."""

from .binning import TILE_SIZE, assign_tiles, sort_bins
from .cli import parse_scene, read_image, serialize_scene, write_image
from .core import (
    Camera,
    Gaussian3D,
    Splats,
    compose_covariance_3d,
    quat_to_rotmat,
)
from .gradcheck import (
    AUDIT_CLASSES,
    ClassCheck,
    GradReport,
    audit_scene,
    make_audit_scene,
    run_audit,
)
from .optimize import FitConfig, fit, init_random
from .proj_backward import (
    SceneGradients,
    cov2d_backward,
    covariance3d_backward,
    mean2d_backward,
    scene_backward,
    world_backward,
)
from .projection import (
    DILATION,
    ProjectedSplats,
    bounding_radius,
    camera_to_pixel,
    project_covariance,
    project_gaussian,
    project_splats,
    projection_jacobian,
    world_to_camera,
)
from .raster_backward import Splat2DGrads, accumulate_image_backward
from .raster_forward import (
    ALPHA_MAX,
    ALPHA_MIN,
    SIGMA_CUT,
    T_MIN,
    ImageBuffer,
    RenderResult,
    render,
    render_brute_force,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_MAX",
    "ALPHA_MIN",
    "AUDIT_CLASSES",
    "Camera",
    "ClassCheck",
    "DILATION",
    "FitConfig",
    "Gaussian3D",
    "GradReport",
    "ImageBuffer",
    "ProjectedSplats",
    "RenderResult",
    "SIGMA_CUT",
    "SceneGradients",
    "Splats",
    "Splat2DGrads",
    "TILE_SIZE",
    "T_MIN",
    "accumulate_image_backward",
    "assign_tiles",
    "audit_scene",
    "bounding_radius",
    "camera_to_pixel",
    "compose_covariance_3d",
    "cov2d_backward",
    "covariance3d_backward",
    "fit",
    "init_random",
    "make_audit_scene",
    "mean2d_backward",
    "parse_scene",
    "project_covariance",
    "project_gaussian",
    "project_splats",
    "projection_jacobian",
    "quat_to_rotmat",
    "read_image",
    "render",
    "render_brute_force",
    "run_audit",
    "scene_backward",
    "serialize_scene",
    "sort_bins",
    "world_backward",
    "world_to_camera",
    "write_image",
]
