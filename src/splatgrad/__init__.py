"""CPU differentiable gaussian splatting: forward rasterizer, analytic
backward pass, finite-difference audit, and an image-fitting optimizer.
Each exported function checks its inputs; the per-op math is imported
from its module, e.g. splatgrad.projection.project_covariance."""

from .cli import parse_scene, read_image, serialize_scene, write_image
from .core import Camera, Gaussian3D, Splats
from .gradcheck import (
    AUDIT_CLASSES,
    ClassCheck,
    GradReport,
    audit_scene,
    make_audit_scene,
    run_audit,
)
from .optimize import FitConfig, fit, init_random
from .proj_backward import SceneGradients, scene_backward
from .projection import DILATION, ProjectedSplats, project_splats
from .raster_backward import accumulate_image_backward
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
    "T_MIN",
    "accumulate_image_backward",
    "audit_scene",
    "fit",
    "init_random",
    "make_audit_scene",
    "parse_scene",
    "project_splats",
    "read_image",
    "render",
    "render_brute_force",
    "run_audit",
    "scene_backward",
    "serialize_scene",
    "write_image",
]
