"""The out-of-place degradation operators and the serial directory loop that
the in-place, concurrent ones replaced.

Kept only as the reference ``test_degrade.py`` compares the library with:
every step of each imaging model allocates a fresh array, and
``degrade_directory`` loads, degrades and saves one image after another.
The library must return and write the same bytes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter

from tucker_adapters.runfiles import write_atomic
from tucker_adapters.degrade import (
    MODE_DEFAULTS,
    LowLightParams,
    OverexposeParams,
    ScatterParams,
    _check_image,
    _image_seed,
    load_depth,
    load_image,
    save_image,
)


def _crf(x: np.ndarray, gamma: float, inverse: bool) -> np.ndarray:
    return x ** (1.0 / gamma) if inverse else x ** gamma


def scatter(img: np.ndarray, depth: np.ndarray | None,
            params: ScatterParams = ScatterParams()) -> np.ndarray:
    """Blend toward atmospheric light by per-pixel transmission."""
    img = _check_image(img)
    params.validate()
    if depth is None:
        warnings.warn("no depth map; assuming constant depth d_max / 2")
        depth = np.full(img.shape[:2], params.d_max / 2.0)
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != img.shape[:2]:
        raise ValueError(
            f"depth shape {depth.shape} does not match image {img.shape[:2]}")
    t = np.exp(-params.beta * np.minimum(depth, params.d_max))[..., None]
    a = np.asarray(params.atmospheric_light)[None, None, :]
    return np.clip(img * t + a * (1.0 - t), 0.0, 1.0)


def low_light(img: np.ndarray,
              params: LowLightParams = LowLightParams()) -> np.ndarray:
    """Darken through the sensor chain with signal-dependent noise."""
    img = _check_image(img)
    params.validate()
    rng = np.random.default_rng(params.seed)
    signal = params.gain * params.exposure_time * params.brightness * img
    shot = rng.standard_normal(img.shape) * np.sqrt(params.shot_noise * signal)
    read = rng.standard_normal(img.shape) * (params.read_noise / 255.0)
    noisy = _crf(np.clip(signal + shot + read, 0.0, 1.0), params.gamma,
                 params.crf_inverse)
    if params.denoise_strength > 0.0:
        smoothed = uniform_filter(noisy, size=(3, 3, 1), mode="nearest")
        blended = (params.detail_preservation * noisy
                   + (1.0 - params.detail_preservation) * smoothed)
        noisy = ((1.0 - params.denoise_strength) * noisy
                 + params.denoise_strength * blended)
    return np.clip(noisy, 0.0, 1.0)


def overexpose(img: np.ndarray,
               params: OverexposeParams = OverexposeParams()) -> np.ndarray:
    """Saturate the sensor, then add bloom and a warm color shift."""
    img = _check_image(img)
    params.validate()
    rng = np.random.default_rng(params.seed)
    signal = params.gain * params.exposure_multiplier * img
    # the overexposure block parameterizes only sigma_read; the
    # signal-proportional shot term reuses it as the variance coefficient
    shot = rng.standard_normal(img.shape) * np.sqrt(params.read_noise * signal)
    read = rng.standard_normal(img.shape) * params.read_noise
    s = np.clip(signal + shot + read, 0.0, params.saturation)
    if params.bloom_strength > 0.0:
        mask = (s >= params.saturation).astype(np.float64)
        glow = gaussian_filter(mask, sigma=(2.0, 2.0, 0.0), truncate=2.5,
                               mode="nearest")
        s = s + params.bloom_strength * glow
    s = s * np.asarray(params.color_shift)[None, None, :]
    return np.clip(_crf(np.clip(s, 0.0, 1.0), params.gamma,
                        params.crf_inverse), 0.0, 1.0)


def degrade_directory(mode: str, input_dir: str | Path, output_dir: str | Path,
                      depth_dir: str | Path | None = None, seed: int = 0,
                      overrides: dict | None = None) -> dict:
    """Degrade every .ppm image in a directory; returns the manifest.

    Each image gets its own RNG stream derived from (seed, image index), so
    outputs are byte-identical across reruns and independent of ordering.
    """
    if mode not in MODE_DEFAULTS:
        raise ValueError(f"mode must be one of {sorted(MODE_DEFAULTS)}")
    input_dir, output_dir = Path(input_dir), Path(output_dir)
    images = sorted(input_dir.glob("*.ppm"))
    if not images:
        raise FileNotFoundError(f"no .ppm images under {input_dir}")
    output_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, src in enumerate(images):
        img = load_image(src)
        kwargs = dict(overrides or {})
        if mode == "scattering":
            params = ScatterParams(**kwargs)
            depth = None
            if depth_dir is not None:
                candidate = Path(depth_dir) / (src.stem + ".pgm")
                if candidate.exists():
                    depth = load_depth(candidate)
            out = scatter(img, depth, params)
        elif mode == "lowlight":
            params = LowLightParams(**kwargs, seed=_image_seed(seed, idx))
            out = low_light(img, params)
        else:
            params = OverexposeParams(**kwargs, seed=_image_seed(seed, idx))
            out = overexpose(img, params)
        dst = output_dir / src.name
        save_image(dst, out)
        record = {"input": str(src), "output": str(dst), "mode": mode,
                  "params": asdict(params)}
        entries.append(record)
    manifest = {"mode": mode, "seed": seed, "count": len(entries),
                "images": entries}
    write_atomic(output_dir / "manifest.json", json.dumps(manifest, indent=2))
    return manifest
