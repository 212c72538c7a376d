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
in meters. ``degrade_directory`` maps a directory's images over
``config.forked_map``, one contiguous share per CPU available to the
process, and writes the bytes and manifest a serial run would. The first
failing image's error is raised unchanged and no manifest is written; the
images before it in its share are written whole, and a share still running
is killed, which can leave a ``.tmp`` file but never a part under an
image's name. A warning raised in a forked child, such as that of a missing
depth map, goes to that child's stderr under the filters it inherited; a
caller that records warnings does not see it.

Memory: an image in flight holds its input, its output and at most one
full-size filter buffer (the denoise ``uniform_filter`` output, or the bloom
``gaussian_filter`` output of a bool mask). Every stage that needs a
temporary per pixel runs over blocks of whole rows of about ``_BLOCK_BYTES``;
each element goes through the same operations in the same order as in the
whole-image form, and the noise is drawn in its order, so the bytes do not
depend on the block size.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter

from .config import ConfigError, check_ranges, forked_map, write_atomic


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


# Bytes of one (rows, W, 3) float64 scratch block: a stage that needs a
# temporary per pixel runs over blocks of whole rows of about this size.
_BLOCK_BYTES = 256 * 1024


def _row_blocks(shape: tuple[int, ...]) -> tuple[int, list[slice]]:
    """The row count of a block of an (H, W, 3) image, and the slices of
    whole rows, in order, that cover it; the last may be shorter."""
    step = max(1, _BLOCK_BYTES // max(1, 8 * shape[1] * shape[2]))
    return step, [slice(r, min(r + step, shape[0]))
                  for r in range(0, shape[0], step)]


def _sensor(img: np.ndarray, scale: float, shot: float, read: float,
            high: float, seed: int) -> np.ndarray:
    """clip(S + N_shot + N_read, 0, high) for S = scale * img, with N_shot
    of variance shot * S and N_read of deviation read.

    Every shot-noise draw of the seed's stream precedes every read-noise
    draw, each in row order: the draws of two whole-image
    ``standard_normal`` calls.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(img.shape)
    step, blocks = _row_blocks(img.shape)
    # C-ordered, so standard_normal(out=) fills them in row order
    draw, term = np.empty((2, step) + img.shape[1:])
    for rows in blocks:
        s, n = out[rows], rows.stop - rows.start
        np.multiply(scale, img[rows], out=s)
        t = np.sqrt(np.multiply(shot, s, out=term[:n]), out=term[:n])
        s += np.multiply(rng.standard_normal(out=draw[:n]), t, out=t)
    for rows in blocks:
        s, d = out[rows], draw[:rows.stop - rows.start]
        s += np.multiply(rng.standard_normal(out=d), read, out=d)
        np.clip(s, 0.0, high, out=s)
    return out


def scatter(img: np.ndarray, depth: np.ndarray | None,
            params: ScatterParams = ScatterParams()) -> np.ndarray:
    """Blend toward atmospheric light by per-pixel transmission."""
    img = _check_image(img)
    params.validate()
    if depth is None:
        warnings.warn("no depth map; assuming constant depth d_max / 2")
        depth = np.broadcast_to(params.d_max / 2.0, img.shape[:2])
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != img.shape[:2]:
        raise ValueError(
            f"depth shape {depth.shape} does not match image {img.shape[:2]}")
    out = np.empty(img.shape)
    step, blocks = _row_blocks(img.shape)
    trans = np.empty((step, img.shape[1], 1))
    haze = np.empty((step,) + img.shape[1:])
    for rows in blocks:
        n = rows.stop - rows.start
        t = np.minimum(depth[rows, :, None], params.d_max, out=trans[:n])
        np.exp(np.multiply(-params.beta, t, out=t), out=t)
        o = np.multiply(img[rows], t, out=out[rows])
        o += np.multiply(params.atmospheric_light, np.subtract(1.0, t, out=t),
                         out=haze[:n])
        np.clip(o, 0.0, 1.0, out=o)
    return out


def low_light(img: np.ndarray,
              params: LowLightParams = LowLightParams()) -> np.ndarray:
    """Darken through the sensor chain with signal-dependent noise."""
    img = _check_image(img)
    params.validate()
    noisy = _sensor(img, params.gain * params.exposure_time * params.brightness,
                    params.shot_noise, params.read_noise / 255.0, 1.0,
                    params.seed)
    _crf(noisy, params.gamma, params.crf_inverse)
    if params.denoise_strength > 0.0:
        keep, strength = params.detail_preservation, params.denoise_strength
        smoothed = uniform_filter(noisy, (3, 3, 1), mode="nearest")
        step, blocks = _row_blocks(img.shape)
        scratch = np.empty((step,) + img.shape[1:])
        for rows in blocks:
            x, sm = noisy[rows], smoothed[rows]
            blended = np.multiply(keep, x, out=scratch[:rows.stop - rows.start])
            blended += np.multiply(1.0 - keep, sm, out=sm)
            x *= 1.0 - strength
            x += np.multiply(strength, blended, out=blended)
    return np.clip(noisy, 0.0, 1.0, out=noisy)


def overexpose(img: np.ndarray,
               params: OverexposeParams = OverexposeParams()) -> np.ndarray:
    """Saturate the sensor, then add bloom and a warm color shift."""
    img = _check_image(img)
    params.validate()
    # the overexposure block parameterizes only sigma_read; the
    # signal-proportional shot term reuses it as the variance coefficient
    s = _sensor(img, params.gain * params.exposure_multiplier,
                params.read_noise, params.read_noise, params.saturation,
                params.seed)
    if params.bloom_strength > 0.0:
        glow = gaussian_filter(np.greater_equal(s, params.saturation),
                               sigma=(2.0, 2.0, 0.0), truncate=2.5,
                               mode="nearest", output=np.float64)
        s += np.multiply(params.bloom_strength, glow, out=glow)
    s *= np.asarray(params.color_shift)[None, None, :]
    # a positive power (gamma or 1/gamma) of a value in [0, 1] stays in it
    return _crf(np.clip(s, 0.0, 1.0, out=s), params.gamma, params.crf_inverse)


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
    count = width * height * channels
    need = count * dtype.itemsize
    if len(data) < pos + need:
        raise PnmError(f"{path}: truncated payload at byte {max(pos, len(data))} "
                       f"(need {pos + need} bytes)")
    return np.frombuffer(data, dtype=dtype, count=count,
                         offset=pos).reshape(height, width, channels)


def _write_pnm(path: str | Path, magic: str, samples: np.ndarray) -> None:
    """Write (height, width[, channels]) float samples in [0, maxval] of
    format ``magic``, each rounded, in place, to the nearest integer."""
    maxval, _, dtype = _PNM[magic]
    data = np.round(samples, out=samples).astype(dtype)
    h, w = samples.shape[:2]
    header = f"{magic}\n{w} {h}\n{maxval}\n".encode()
    write_atomic(Path(path), b"".join((header, data)))


def save_image(path: str | Path, img: np.ndarray) -> None:
    """Write a [0,1] float image as 8-bit binary PPM (round(v * 255))."""
    samples = np.clip(_check_image(img), 0.0, 1.0)
    samples *= 255.0
    _write_pnm(path, "P6", samples)


def load_image(path: str | Path) -> np.ndarray:
    img = _read_pnm(path, "P6").astype(np.float64)
    img /= 255.0
    return img


def save_depth(path: str | Path, depth: np.ndarray) -> None:
    """Write a depth map in meters as 16-bit big-endian PGM in millimeters."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError(f"depth must be 2-D, got shape {depth.shape}")
    if np.any(~np.isfinite(depth)) or np.any(depth < 0):
        raise ValueError("depth must be finite and non-negative")
    _write_pnm(path, "P5", np.clip(depth * 1000.0, 0, 65535))


def load_depth(path: str | Path) -> np.ndarray:
    depth = _read_pnm(path, "P5")[..., 0].astype(np.float64)
    depth /= 1000.0
    return depth


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
    if depth_dir is not None and not Path(depth_dir).is_dir():
        raise ConfigError(f"depth_dir: {depth_dir} is not a directory")
    input_dir, output_dir = Path(input_dir), Path(output_dir)
    images = sorted(input_dir.glob("*.ppm"))
    if not images:
        raise FileNotFoundError(f"no .ppm images under {input_dir}")
    output_dir.mkdir(parents=True, exist_ok=True)
    # calls IO and operators by their module-global names: wrappers see them
    def degrade_one(item: tuple[int, Path]) -> dict:
        idx, src = item
        img = load_image(src)
        if mode == "scattering":
            pgm = None if depth_dir is None else Path(depth_dir) / f"{src.stem}.pgm"
            depth = load_depth(pgm) if pgm and pgm.exists() else None
            if depth is not None and depth.shape != img.shape[:2]:
                raise ValueError(f"{pgm}: depth shape {depth.shape} does not "
                                 f"match image {src} {img.shape[:2]}")
            out = scatter(img, depth, params)
            image_params = params
        else:
            image_params = replace(params, seed=_image_seed(seed, idx))
            out = (low_light(img, image_params) if mode == "lowlight"
                   else overexpose(img, image_params))
        del img  # save_image's buffer takes the input's place
        save_image(output_dir / src.name, out)
        return {"input": str(src), "output": str(output_dir / src.name),
                "mode": mode, "params": asdict(image_params)}

    entries = forked_map(degrade_one, list(enumerate(images)))
    manifest = {"mode": mode, "seed": seed, "count": len(entries),
                "images": entries}
    write_atomic(output_dir / "manifest.json", json.dumps(manifest, indent=2))
    return manifest


def _image_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])

