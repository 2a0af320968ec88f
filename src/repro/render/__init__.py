"""Ray-casting renderer substrate: cameras, kernels, compositing."""

from .accel import AccelCache, shared_cache, volume_token
from .camera import BLOCK, Camera, PixelRect, orbit_camera
from .compositing import blend_background, composite_fragments, segmented_exclusive_cumprod
from .fragments import (
    FRAGMENT_DTYPE,
    FRAGMENT_NBYTES,
    PLACEHOLDER_KEY,
    fragment_sort_order,
    make_fragments,
    rgba_view,
)
from .geometry import box_contains, ray_box_intersect
from .image import image_stats, max_abs_diff, psnr
from .raycast import (
    BrickTask,
    MapStats,
    RenderConfig,
    cut_launches,
    raycast_brick,
    raycast_bricks,
    trilinear_sample,
)
from .kernels import BrickSegment, MarchPlan
from .reference import ReferenceResult, render_reference
from .shading import PhongParams, central_gradient, shade_phong
from .stitch import rgba_to_rgb8, stitch_pixels, write_ppm
from .transfer import (
    TransferFunction1D,
    bone_tf,
    default_tf,
    fire_tf,
    grayscale_tf,
)

__all__ = [
    "AccelCache",
    "BLOCK",
    "BrickSegment",
    "BrickTask",
    "Camera",
    "FRAGMENT_DTYPE",
    "FRAGMENT_NBYTES",
    "MapStats",
    "MarchPlan",
    "PLACEHOLDER_KEY",
    "PhongParams",
    "PixelRect",
    "central_gradient",
    "shade_phong",
    "ReferenceResult",
    "RenderConfig",
    "TransferFunction1D",
    "blend_background",
    "bone_tf",
    "box_contains",
    "composite_fragments",
    "default_tf",
    "fire_tf",
    "fragment_sort_order",
    "grayscale_tf",
    "image_stats",
    "cut_launches",
    "make_fragments",
    "max_abs_diff",
    "orbit_camera",
    "psnr",
    "ray_box_intersect",
    "raycast_brick",
    "raycast_bricks",
    "render_reference",
    "rgba_to_rgb8",
    "rgba_view",
    "segmented_exclusive_cumprod",
    "shared_cache",
    "stitch_pixels",
    "trilinear_sample",
    "volume_token",
    "write_ppm",
]
