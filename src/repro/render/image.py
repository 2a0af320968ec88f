"""Image comparison utilities used by tests and regression checks."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["psnr", "max_abs_diff", "image_stats"]


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-channel absolute difference."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def image_stats(image: np.ndarray) -> dict[str, float]:
    """Quick summary used in example scripts' console output."""
    img = np.asarray(image, np.float64)
    alpha = img[..., 3] if img.shape[-1] == 4 else np.ones(img.shape[:-1])
    return {
        "mean_alpha": float(alpha.mean()),
        "covered_fraction": float((alpha > 1e-3).mean()),
        "max_value": float(img.max()),
        "min_value": float(img.min()),
    }
