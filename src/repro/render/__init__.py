"""Ray-casting renderer substrate: cameras, kernels, compositing."""

from .accel import AccelCache, invalidate_volume, shared_cache, volume_token
from .camera import BLOCK, Camera, PixelRect, orbit_camera
from .compositing import (
    blend_background,
    composite_fragments,
    composite_pixel_fragments,
    group_ranks,
    over,
    segmented_exclusive_cumprod,
)
from .fragments import (
    FRAGMENT_DTYPE,
    FRAGMENT_NBYTES,
    PLACEHOLDER_KEY,
    concat_fragments,
    drop_placeholders,
    empty_fragments,
    fragment_sort_order,
    make_fragments,
    rgba_view,
)
from .geometry import box_contains, ray_box_intersect
from .image import image_stats, max_abs_diff, mean_abs_diff, psnr
from .raycast import (
    BrickTask,
    MapStats,
    RenderConfig,
    cut_launches,
    raycast_brick,
    raycast_bricks,
    trilinear_sample,
)
from .kernels import (
    BrickSegment,
    KERNEL_CHOICES,
    KernelSpec,
    MarchPlan,
    available_backends,
    resolve_kernel,
)
from .reference import ReferenceResult, render_reference
from .shading import PhongParams, central_gradient, shade_phong
from .stitch import rgba_to_rgb8, stitch_pixels, write_ppm
from .transfer import (
    TransferFunction1D,
    bone_tf,
    default_tf,
    fire_tf,
    grayscale_tf,
    opacity_correction,
)

__all__ = [
    "AccelCache",
    "BLOCK",
    "BrickSegment",
    "BrickTask",
    "Camera",
    "FRAGMENT_DTYPE",
    "FRAGMENT_NBYTES",
    "KERNEL_CHOICES",
    "KernelSpec",
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
    "available_backends",
    "blend_background",
    "bone_tf",
    "box_contains",
    "composite_fragments",
    "composite_pixel_fragments",
    "concat_fragments",
    "default_tf",
    "drop_placeholders",
    "empty_fragments",
    "fire_tf",
    "fragment_sort_order",
    "grayscale_tf",
    "group_ranks",
    "image_stats",
    "invalidate_volume",
    "cut_launches",
    "make_fragments",
    "max_abs_diff",
    "mean_abs_diff",
    "opacity_correction",
    "orbit_camera",
    "over",
    "psnr",
    "ray_box_intersect",
    "raycast_brick",
    "raycast_bricks",
    "resolve_kernel",
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
