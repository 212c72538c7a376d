"""Physical image-degradation synthesis: scattering, low-light, overexposure.

Imaging models
--------------
Scattering (participating medium along the line of sight):
    I = J * t + A * (1 - t),   t = exp(-beta * min(d, d_max))
so each pixel is a convex blend between the clear image J and the global
atmospheric light A, weighted by the transmission t of its depth d.

Low light (sensor chain):
    signal  S = G * T * L,  L = B * J            (irradiance proxy)
    noise   N = N_shot + N_read
    output  I = CRF(clip(S + N, 0, 1))
Shot noise is Poisson with variance proportional to the signal; at these
signal levels it is modelled as heteroscedastic Gaussian with variance
alpha_shot * S. Read noise is signal-independent Gaussian; its Table value
is specified in 8-bit digital numbers and is divided by 255 here. The camera
response CRF(i) = i**gamma darkens a normalized signal for gamma > 1, which
is the convention used by default; set ``crf_inverse=True`` for i**(1/gamma).

Overexposure:
    I = CRF(clip(G * T_e * L + N_shot + N_read, 0, S_sat))
followed by bloom (Gaussian-blurred saturation mask added with strength B_s)
and a per-channel color shift.

All operators are deterministic per seed and map [0,1] images into [0,1].
Images are float64 arrays of shape (H, W, 3); depth maps are float64 (H, W)
in meters. ``degrade_directory`` runs a directory's images concurrently, one
per CPU available to the process, and writes the bytes and manifest a serial
run would; a failing image skips those not yet begun and writes no manifest.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter

from .config import ConfigError, check_ranges, write_atomic


class _Params:
    """A parameter set whose ``RANGES`` table holds each field's interval."""

    def validate(self):
        check_ranges(self, self.RANGES)
        return self


@dataclass
class ScatterParams(_Params):
    RANGES = {"beta": "[0, inf)", "atmospheric_light": "[0, 1]",
              "d_max": "[0, inf)"}

    beta: float = 0.01                 # scattering coefficient [1/m]
    atmospheric_light: tuple[float, float, float] = (0.95, 0.95, 1.0)
    d_max: float = 200.0               # depth clamp [m]
    particle_size: float = 0.1        # recorded for provenance; not in the model


@dataclass
class LowLightParams(_Params):
    # the finite caps keep the signal and its noise from overflowing
    RANGES = {"brightness": "[0, 1e6]", "exposure_time": "(0, 1e6]",
              "gain": "(0, 1e6]", "shot_noise": "[0, 1e6]",
              "read_noise": "[0, 1e6]", "gamma": "(0, inf)",
              "denoise_strength": "[0, 1]", "detail_preservation": "[0, 1]"}

    brightness: float = 0.15           # B: irradiance attenuation
    exposure_time: float = 0.15        # T
    gain: float = 8.0                  # G
    shot_noise: float = 0.4            # alpha_shot: variance = alpha_shot * S
    read_noise: float = 3.0            # sigma_read in 8-bit DN
    gamma: float = 2.2
    denoise_strength: float = 0.75     # D_s: blend toward the smoothed image
    detail_preservation: float = 0.7   # P_d: fraction of the original kept
    crf_inverse: bool = False          # use i**(1/gamma) instead of i**gamma
    seed: int = 0


@dataclass
class OverexposeParams(_Params):
    # the finite caps keep the signal and its noise from overflowing
    RANGES = {"exposure_multiplier": "(0, 1e6]", "gain": "(0, 1e6]",
              "saturation": "(0, 1]", "read_noise": "[0, 1e6]",
              "gamma": "(0, inf)", "bloom_strength": "[0, inf)",
              "color_shift": "[0, inf)"}

    exposure_multiplier: float = 2.5   # T_e
    gain: float = 1.5                  # G
    saturation: float = 0.9            # S_sat: full-well clip level
    read_noise: float = 0.015          # sigma_read, already normalized
    gamma: float = 2.0
    bloom_strength: float = 0.3        # B_s
    color_shift: tuple[float, float, float] = (1.0, 0.96, 0.92)
    crf_inverse: bool = False
    seed: int = 0


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must be (H, W, 3), got {img.shape}")
    return img


def _crf(x: np.ndarray, gamma: float, inverse: bool) -> np.ndarray:
    """Apply the camera response to ``x`` in place; returns ``x``."""
    return np.power(x, 1.0 / gamma if inverse else gamma, out=x)


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
    t = np.minimum(depth, params.d_max)
    t = np.exp(np.multiply(-params.beta, t, out=t), out=t)[..., None]
    out = np.multiply(img, t)
    out += np.multiply(params.atmospheric_light, np.subtract(1.0, t, out=t))
    return np.clip(out, 0.0, 1.0, out=out)


def low_light(img: np.ndarray,
              params: LowLightParams = LowLightParams()) -> np.ndarray:
    """Darken through the sensor chain with signal-dependent noise."""
    img = _check_image(img)
    params.validate()
    rng = np.random.default_rng(params.seed)
    # C-ordered, so standard_normal(out=) fills them as standard_normal(shape)
    noisy, draw, term = (np.empty(img.shape) for _ in range(3))
    np.multiply(params.gain * params.exposure_time * params.brightness, img, out=noisy)
    np.sqrt(np.multiply(params.shot_noise, noisy, out=term), out=term)
    noisy += np.multiply(rng.standard_normal(out=draw), term, out=term)
    noisy += np.multiply(rng.standard_normal(out=draw),
                         params.read_noise / 255.0, out=draw)
    _crf(np.clip(noisy, 0.0, 1.0, out=noisy), params.gamma, params.crf_inverse)
    if params.denoise_strength > 0.0:
        keep, strength = params.detail_preservation, params.denoise_strength
        smoothed = uniform_filter(noisy, (3, 3, 1), mode="nearest", output=term)
        blended = np.multiply(keep, noisy, out=draw)
        blended += np.multiply(1.0 - keep, smoothed, out=smoothed)
        noisy *= 1.0 - strength
        noisy += np.multiply(strength, blended, out=blended)
    return np.clip(noisy, 0.0, 1.0, out=noisy)


def overexpose(img: np.ndarray,
               params: OverexposeParams = OverexposeParams()) -> np.ndarray:
    """Saturate the sensor, then add bloom and a warm color shift."""
    img = _check_image(img)
    params.validate()
    rng = np.random.default_rng(params.seed)
    s, draw, term = (np.empty(img.shape) for _ in range(3))
    np.multiply(params.gain * params.exposure_multiplier, img, out=s)
    # the overexposure block parameterizes only sigma_read; the
    # signal-proportional shot term reuses it as the variance coefficient
    np.sqrt(np.multiply(params.read_noise, s, out=term), out=term)
    s += np.multiply(rng.standard_normal(out=draw), term, out=term)
    s += np.multiply(rng.standard_normal(out=draw), params.read_noise, out=draw)
    np.clip(s, 0.0, params.saturation, out=s)
    if params.bloom_strength > 0.0:
        mask = np.greater_equal(s, params.saturation, out=draw)
        glow = gaussian_filter(mask, sigma=(2.0, 2.0, 0.0), truncate=2.5,
                               mode="nearest", output=term)
        s += np.multiply(params.bloom_strength, glow, out=glow)
    s *= np.asarray(params.color_shift)[None, None, :]
    _crf(np.clip(s, 0.0, 1.0, out=s), params.gamma, params.crf_inverse)
    return np.clip(s, 0.0, 1.0, out=s)


# ---------------------------------------------------------------------------
# Portable pixmap / graymap IO (8-bit PPM images, 16-bit PGM depth in mm)
# ---------------------------------------------------------------------------

class PnmError(ValueError):
    """Malformed or truncated PNM file; message carries the byte offset."""


# the maxval, channels and sample dtype of each binary format
_PNM = {"P6": (255, 3, np.dtype(np.uint8)), "P5": (65535, 1, np.dtype(">u2"))}


def _read_pnm(path: str | Path, magic: str) -> np.ndarray:
    """The (height, width, channels) samples of a binary PNM file of format
    ``magic``."""
    expected, channels, dtype = _PNM[magic]
    data = Path(path).read_bytes()
    if not data.startswith(magic.encode()):
        raise PnmError(f"{path}: expected {magic} header at byte 0")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PnmError(f"{path}: truncated header at byte {pos}")
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise PnmError(f"{path}: bad header token at byte {start}") from None
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"{path}: nonpositive dimensions {width}x{height}")
    if maxval != expected:
        raise PnmError(f"{path}: unsupported maxval {maxval} (only {expected})")
    need = width * height * channels * dtype.itemsize
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise PnmError(f"{path}: truncated payload at byte {pos + len(payload)} "
                       f"(need {pos + need} bytes)")
    return np.frombuffer(payload, dtype=dtype).reshape(height, width, channels)


def _write_pnm(path: str | Path, magic: str, samples: np.ndarray) -> None:
    """Write (height, width[, channels]) float samples in [0, maxval] of
    format ``magic``, each rounded, in place, to the nearest integer."""
    maxval, _, dtype = _PNM[magic]
    data = np.round(samples, out=samples).astype(dtype)
    h, w = samples.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode())
        fh.write(data.tobytes())


def save_image(path: str | Path, img: np.ndarray) -> None:
    """Write a [0,1] float image as 8-bit binary PPM (round(v * 255))."""
    _write_pnm(path, "P6", np.clip(_check_image(img), 0.0, 1.0) * 255.0)


def load_image(path: str | Path) -> np.ndarray:
    return _read_pnm(path, "P6").astype(np.float64) / 255.0


def save_depth(path: str | Path, depth: np.ndarray) -> None:
    """Write a depth map in meters as 16-bit big-endian PGM in millimeters."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError(f"depth must be 2-D, got shape {depth.shape}")
    if np.any(~np.isfinite(depth)) or np.any(depth < 0):
        raise ValueError("depth must be finite and non-negative")
    _write_pnm(path, "P5", np.clip(depth * 1000.0, 0, 65535))


def load_depth(path: str | Path) -> np.ndarray:
    return _read_pnm(path, "P5")[..., 0].astype(np.float64) / 1000.0


# ---------------------------------------------------------------------------
# Batch pipeline with manifest
# ---------------------------------------------------------------------------

MODE_DEFAULTS = {"scattering": ScatterParams, "lowlight": LowLightParams,
                 "overexposure": OverexposeParams}


def degrade_directory(mode: str, input_dir: str | Path, output_dir: str | Path,
                      depth_dir: str | Path | None = None, seed: int = 0,
                      overrides: dict | None = None) -> dict:
    """Degrade every .ppm image in a directory; returns the manifest.

    Each image gets its own RNG stream derived from (seed, image index), so
    outputs are byte-identical across reruns and independent of ordering.
    """
    if mode not in MODE_DEFAULTS:
        raise ValueError(f"mode must be one of {sorted(MODE_DEFAULTS)}")
    if seed < 0:
        raise ConfigError(f"seed: must lie in [0, inf), got {seed!r}")
    if "seed" in (overrides or {}):
        raise ConfigError("seed: each image's seed derives from the directory seed")
    params = MODE_DEFAULTS[mode](**(overrides or {})).validate()
    input_dir, output_dir = Path(input_dir), Path(output_dir)
    images = sorted(input_dir.glob("*.ppm"))
    if not images:
        raise FileNotFoundError(f"no .ppm images under {input_dir}")
    output_dir.mkdir(parents=True, exist_ok=True)
    stop = threading.Event()

    # calls IO and operators by their module-global names: wrappers see them
    def degrade_one(idx: int, src: Path) -> dict | None:
        if stop.is_set():
            return None
        try:
            img = load_image(src)
            if mode == "scattering":
                pgm = None if depth_dir is None else Path(depth_dir) / f"{src.stem}.pgm"
                depth = load_depth(pgm) if pgm and pgm.exists() else None
                out, image_params = scatter(img, depth, params), params
            else:
                image_params = replace(params, seed=_image_seed(seed, idx))
                out = (low_light(img, image_params) if mode == "lowlight"
                       else overexpose(img, image_params))
            save_image(output_dir / src.name, out)
        except BaseException:
            stop.set()
            raise
        return {"input": str(src), "output": str(output_dir / src.name),
                "mode": mode, "params": asdict(image_params)}

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(min(len(images), cpus)) as pool:
        futures = [pool.submit(degrade_one, i, src) for i, src in enumerate(images)]
        try:
            # a failed image began before any skipped one (None): its error is first
            entries = [future.result() for future in futures]
        finally:
            stop.set()
    manifest = {"mode": mode, "seed": seed, "count": len(entries),
                "images": entries}
    write_atomic(output_dir / "manifest.json", json.dumps(manifest, indent=2))
    return manifest


def _image_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])

