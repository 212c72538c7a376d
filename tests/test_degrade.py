"""Degradation operators: identities, bounds, determinism, byte equality
with the out-of-place reference, per-call memory, PNM IO and the forked
batch."""

import dataclasses
import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reference_degrade as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tucker_adapters import degrade
from tucker_adapters.degrade import (
    MODE_DEFAULTS,
    LowLightParams,
    OverexposeParams,
    PnmError,
    ScatterParams,
    degrade_directory,
    load_depth,
    load_image,
    low_light,
    overexpose,
    save_depth,
    save_image,
    scatter,
)


@pytest.fixture
def img():
    rng = np.random.default_rng(0)
    return rng.uniform(0.05, 0.95, size=(12, 16, 3))


@pytest.fixture
def depth(img):
    rng = np.random.default_rng(1)
    return rng.uniform(0.5, 300.0, size=img.shape[:2])


# ---------------------------------------------------------------------------
# Scattering
# ---------------------------------------------------------------------------

def test_scatter_zero_beta_is_identity(img, depth):
    out = scatter(img, depth, ScatterParams(beta=0.0))
    assert np.array_equal(out, img)


def test_scatter_scalar_oracle():
    # beta=0.01, d=200 (at the clamp), J=0.5, A=0.95:
    # I = 0.5 e^-2 + 0.95 (1 - e^-2), evaluated independently
    expected = 0.5 * math.exp(-2.0) + 0.95 * (1.0 - math.exp(-2.0))
    assert abs(expected - 0.8890991225435243) < 1e-15  # frozen oracle value
    img = np.full((2, 2, 3), 0.5)
    out = scatter(img, np.full((2, 2), 200.0),
                  ScatterParams(beta=0.01, atmospheric_light=(0.95, 0.95, 0.95)))
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_scatter_depth_clamp(img):
    p = ScatterParams(beta=0.01, d_max=200.0)
    near = scatter(img, np.full(img.shape[:2], 200.0), p)
    far = scatter(img, np.full(img.shape[:2], 5000.0), p)
    assert np.array_equal(near, far)


def test_scatter_atmospheric_fixed_point(depth):
    img = np.full((12, 16, 3), 0.95)
    out = scatter(img, depth, ScatterParams(beta=0.3,
                                            atmospheric_light=(0.95, 0.95, 0.95)))
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_scatter_convex_blend_bounds(img, depth):
    p = ScatterParams(beta=0.02)
    out = scatter(img, depth, p)
    a = np.asarray(p.atmospheric_light)[None, None, :]
    lo = np.minimum(img, np.broadcast_to(a, img.shape))
    hi = np.maximum(img, np.broadcast_to(a, img.shape))
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_scatter_monotone_in_beta(img, depth):
    a = np.asarray(ScatterParams().atmospheric_light)[None, None, :]
    weak = scatter(img, depth, ScatterParams(beta=0.005))
    strong = scatter(img, depth, ScatterParams(beta=0.05))
    gap_weak = np.abs(np.broadcast_to(a, img.shape) - weak)
    gap_strong = np.abs(np.broadcast_to(a, img.shape) - strong)
    assert np.all(gap_strong <= gap_weak + 1e-12)


def test_scatter_missing_depth_warns(img):
    with pytest.warns(UserWarning, match="constant depth"):
        out = scatter(img, None, ScatterParams(beta=0.01))
    assert out.shape == img.shape


def test_scatter_dimension_mismatch(img):
    with pytest.raises(ValueError, match="depth shape"):
        scatter(img, np.zeros((3, 3)), ScatterParams())


# ---------------------------------------------------------------------------
# Low light
# ---------------------------------------------------------------------------

def test_low_light_unit_chain_identity(img):
    p = LowLightParams(brightness=1.0, exposure_time=1.0, gain=1.0,
                       shot_noise=0.0, read_noise=0.0, gamma=1.0,
                       denoise_strength=0.0)
    np.testing.assert_allclose(low_light(img, p), img, atol=1e-12)


def test_low_light_black_stays_black():
    p = LowLightParams(shot_noise=0.0, read_noise=0.0)
    out = low_light(np.zeros((4, 4, 3)), p)
    assert np.array_equal(out, np.zeros((4, 4, 3)))


def test_low_light_seeded_determinism(img):
    a = low_light(img, LowLightParams(seed=42))
    b = low_light(img, LowLightParams(seed=42))
    c = low_light(img, LowLightParams(seed=43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_low_light_darkens_pointwise(img):
    # noiseless chain (denoise idle), G*T*B < 1, gamma > 1
    p = LowLightParams(shot_noise=0.0, read_noise=0.0, denoise_strength=0.0)
    assert p.gain * p.exposure_time * p.brightness < 1.0
    out = low_light(img, p)
    assert np.all(out <= img + 1e-12)


def test_low_light_range_and_crf_switch(img):
    out = low_light(img, LowLightParams(seed=7))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    bright = low_light(img, LowLightParams(shot_noise=0.0, read_noise=0.0,
                                           denoise_strength=0.0,
                                           crf_inverse=True))
    dark = low_light(img, LowLightParams(shot_noise=0.0, read_noise=0.0,
                                         denoise_strength=0.0))
    assert np.all(bright >= dark - 1e-12)  # i**(1/g) >= i**g on [0,1]


# ---------------------------------------------------------------------------
# Overexposure
# ---------------------------------------------------------------------------

def test_overexpose_full_saturation_constant():
    img = np.random.default_rng(2).uniform(0.3, 1.0, size=(6, 6, 3))
    p = OverexposeParams(exposure_multiplier=100.0, gain=1.0, read_noise=0.0,
                         gamma=1.0, bloom_strength=0.0,
                         color_shift=(1.0, 1.0, 1.0))
    out = overexpose(img, p)
    np.testing.assert_allclose(out, p.saturation, atol=1e-12)


def test_overexpose_monotone_below_saturation():
    img = np.linspace(0.0, 0.3, 48).reshape(4, 4, 3)
    p = OverexposeParams(exposure_multiplier=2.0, gain=1.0, read_noise=0.0,
                         bloom_strength=0.0, color_shift=(1.0, 1.0, 1.0))
    out = overexpose(img, p)
    flat_in, flat_out = img.ravel(), out.ravel()
    order = np.argsort(flat_in)
    assert np.all(np.diff(flat_out[order]) >= -1e-12)


def test_overexpose_seeded_determinism(img):
    a = overexpose(img, OverexposeParams(seed=9))
    b = overexpose(img, OverexposeParams(seed=9))
    assert np.array_equal(a, b)


def test_overexpose_range_with_defaults(img):
    out = overexpose(img, OverexposeParams(seed=1))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_overexpose_bloom_brightens_near_saturation():
    img = np.zeros((9, 9, 3))
    img[4, 4] = 1.0
    base = OverexposeParams(read_noise=0.0, gamma=1.0,
                            color_shift=(1.0, 1.0, 1.0), bloom_strength=0.0)
    glow = OverexposeParams(read_noise=0.0, gamma=1.0,
                            color_shift=(1.0, 1.0, 1.0), bloom_strength=0.5)
    without = overexpose(img, base)
    with_bloom = overexpose(img, glow)
    assert with_bloom[4, 5, 0] > without[4, 5, 0]


def unit(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


def positive(hi):
    return unit(0.0, hi, exclude_min=True)


def triple(lo, hi):
    return st.tuples(unit(lo, hi), unit(lo, hi), unit(lo, hi))


def images(max_side=6):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side),
                       st.just(3))
    return arrays(np.float64, shapes, elements=unit())


@settings(max_examples=60)
@given(img=images(), depth_scale=unit(0.0, 400.0), seed=st.integers(0, 2**16),
       scatter_params=st.builds(ScatterParams, beta=unit(0.0, 1.0),
                                atmospheric_light=triple(0.0, 1.0),
                                d_max=unit(0.0, 500.0)),
       low=st.builds(LowLightParams, brightness=unit(0.0, 2.0),
                     exposure_time=positive(2.0), gain=positive(20.0),
                     shot_noise=unit(0.0, 2.0), read_noise=unit(0.0, 50.0),
                     gamma=unit(0.1, 5.0), denoise_strength=unit(),
                     detail_preservation=unit(), crf_inverse=st.booleans(),
                     seed=st.integers(0, 2**16)),
       over=st.builds(OverexposeParams, exposure_multiplier=positive(5.0),
                      gain=positive(5.0), saturation=positive(1.0),
                      read_noise=unit(0.0, 0.2), gamma=unit(0.1, 5.0),
                      bloom_strength=unit(0.0, 1.0),
                      color_shift=triple(0.0, 1.5), crf_inverse=st.booleans(),
                      seed=st.integers(0, 2**16)))
def test_operators_stay_finite_in_unit_range(img, depth_scale, seed,
                                             scatter_params, low, over):
    depth = depth_scale * np.random.default_rng(seed).uniform(size=img.shape[:2])
    for out in (scatter(img, depth, scatter_params), low_light(img, low),
                overexpose(img, over)):
        assert out.shape == img.shape
        assert np.all(np.isfinite(out))
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_operators_stay_finite_with_capped_fields_at_their_bounds(img, depth):
    """No accepted parameter set overflows: with every field that has a
    finite upper bound set to it, each operator still maps into [0, 1]."""
    for cls, op in ((ScatterParams, lambda p: scatter(img, depth, p)),
                    (LowLightParams, lambda p: low_light(img, p)),
                    (OverexposeParams, lambda p: overexpose(img, p))):
        caps = {}
        for name, text in cls.RANGES.items():
            if text.endswith("]"):
                hi, old = float(text[1:-1].split(",")[1]), getattr(cls(), name)
                caps[name] = (hi,) * len(old) if isinstance(old, tuple) else hi
        out = op(cls(**caps))
        assert np.all(np.isfinite(out))
        assert out.min() >= 0.0 and out.max() <= 1.0


def in_range(cls, name, cap):
    """Floats inside field ``name``'s ``RANGES`` interval of ``cls`` and at
    most ``cap``, closed finite ends drawn on purpose."""
    text = cls.RANGES.get(name, "(-inf, inf)")
    lo, hi = map(float, text[1:-1].split(","))
    open_hi = text[-1] == ")" and hi <= cap
    hi = min(hi, cap)
    ends = [v for v, closed in ((lo, text[0] == "["), (hi, not open_hi))
            if closed and math.isfinite(v)]
    inside = st.floats(lo if math.isfinite(lo) else None,
                       hi if math.isfinite(hi) else None,
                       exclude_min=math.isfinite(lo) and text[0] == "(",
                       exclude_max=math.isfinite(hi) and open_hi,
                       allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(ends), inside) if ends else inside


def params_in_ranges(cls, cap=math.inf):
    """Parameter sets of ``cls`` with every field inside its interval and
    every float at most ``cap``."""
    fields = {}
    for f in dataclasses.fields(cls):
        default = getattr(cls(), f.name)
        if isinstance(default, bool):
            fields[f.name] = st.booleans()
        elif f.name == "seed":
            fields[f.name] = st.integers(0, 2**32 - 1)
        elif isinstance(default, tuple):
            fields[f.name] = st.tuples(*[in_range(cls, f.name, cap)] * len(default))
        else:
            fields[f.name] = in_range(cls, f.name, cap)
    return st.builds(cls, **fields)


def assert_reference_bytes(op, *args, block_rows=None):
    """``op`` returns the bytes its out-of-place reference returns and
    leaves its arguments as they were; with ``block_rows`` given, ``op``
    runs its pointwise stages over blocks of that many rows."""
    before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    block_bytes = (degrade._BLOCK_BYTES if block_rows is None
                   else block_rows * 8 * 3 * args[0].shape[1])
    with warnings.catch_warnings(), \
            mock.patch.object(degrade, "_BLOCK_BYTES", block_bytes):
        warnings.simplefilter("ignore")
        want = getattr(reference, op.__name__)(*args)
        got = op(*args)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), op.__name__
    for a, b in zip(args, before):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=80)
@given(img=images(), depth=st.none() | st.floats(0.0, 500.0),
       cap=st.sampled_from([1.0, 4.0, math.inf]),
       block_rows=st.none() | st.integers(1, 4), data=st.data())
def test_operators_return_the_reference_bytes(img, depth, cap, block_rows,
                                              data):
    """Two thirds of the examples keep every float at most 1 or 4, where
    few pixels clip; the others range over whole intervals, extremes
    included. About half run over blocks of 1-4 rows, so that an image of
    up to 6 rows spans several blocks and often ends in a shorter one."""
    if depth is not None:
        depth = np.random.default_rng(0).uniform(0.0, depth, size=img.shape[:2])
    assert_reference_bytes(scatter, img, depth,
                           data.draw(params_in_ranges(ScatterParams, cap)),
                           block_rows=block_rows)
    assert_reference_bytes(low_light, img,
                           data.draw(params_in_ranges(LowLightParams, cap)),
                           block_rows=block_rows)
    assert_reference_bytes(overexpose, img,
                           data.draw(params_in_ranges(OverexposeParams, cap)),
                           block_rows=block_rows)


@pytest.mark.parametrize("crf_inverse", [False, True])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 2.2])
def test_operator_edge_settings_return_the_reference_bytes(img, depth,
                                                           crf_inverse, gamma):
    """The branches a random draw may miss: no denoise, no bloom, full-well
    saturation at 1, and exponents numpy may special-case; in one block, and
    in blocks of 5 rows (12 = 5 + 5 + 2, and 16 = 5 + 5 + 5 + 1 rows when
    transposed)."""
    for rows in (None, 5):
        for low in (LowLightParams(seed=3, gamma=gamma, crf_inverse=crf_inverse),
                    LowLightParams(seed=3, gamma=gamma, crf_inverse=crf_inverse,
                                   denoise_strength=0.0)):
            assert_reference_bytes(low_light, img, low, block_rows=rows)
        for over in (OverexposeParams(seed=4, gamma=gamma, crf_inverse=crf_inverse),
                     OverexposeParams(seed=4, gamma=gamma, crf_inverse=crf_inverse,
                                      bloom_strength=0.0, saturation=1.0),
                     OverexposeParams(seed=4, gamma=gamma, crf_inverse=crf_inverse,
                                      saturation=1.0, exposure_multiplier=50.0)):
            assert_reference_bytes(overexpose, img, over, block_rows=rows)
        assert_reference_bytes(scatter, img, depth, ScatterParams(beta=0.02),
                               block_rows=rows)
        assert_reference_bytes(scatter, img.transpose(1, 0, 2), depth.T,
                               ScatterParams(beta=0.02), block_rows=rows)
        assert_reference_bytes(low_light, img.transpose(1, 0, 2),
                               LowLightParams(), block_rows=rows)


def vga_scene(height=480):
    rng = np.random.default_rng(5)
    return (rng.uniform(0.0, 1.0, size=(height, 640, 3)),
            rng.uniform(0.5, 300.0, size=(height, 640)))


def test_operators_return_the_reference_bytes_over_default_blocks():
    """37 rows of 640 pixels span several blocks of the default size and
    end in a shorter one."""
    img, depth = vga_scene(37)
    step, blocks = degrade._row_blocks(img.shape)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < step
    assert_reference_bytes(scatter, img, depth, ScatterParams(beta=0.02))
    assert_reference_bytes(scatter, img, None, ScatterParams(beta=0.02))
    assert_reference_bytes(low_light, img, LowLightParams(seed=3))
    assert_reference_bytes(overexpose, img, OverexposeParams(seed=4))


@pytest.mark.parametrize("op, bound", [("scatter", 1.15), ("low_light", 2.25),
                                       ("overexpose", 2.25)])
def test_operator_peak_allocation_on_a_vga_image(op, bound):
    """A call holds its output, at most one full-size filter buffer and
    blocks of scratch: its peak allocation, in image sizes, stays within
    ``bound``."""
    img, depth = vga_scene()
    args = (img, depth) if op == "scatter" else (img,)
    getattr(degrade, op)(*args)  # first-call set-up is not the operator's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = getattr(degrade, op)(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == img.shape
    assert (peak - start) / img.nbytes <= bound


def test_param_validation_errors(img):
    with pytest.raises(ValueError, match="saturation"):
        overexpose(img, OverexposeParams(saturation=0.0))
    with pytest.raises(ValueError, match="beta"):
        scatter(img, None, ScatterParams(beta=-1.0))
    with pytest.raises(ValueError, match="gamma:"):
        low_light(img, LowLightParams(gamma=0.0))


# ---------------------------------------------------------------------------
# PNM IO
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(img=images(max_side=9))
def test_image_roundtrip_quantization_bound(tmp_path_factory, img):
    path = tmp_path_factory.mktemp("pnm") / "x.ppm"
    save_image(path, img)
    back = load_image(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 1.0 / 510.0 + 1e-12


def test_white_pixel_roundtrip_exact(tmp_path):
    path = tmp_path / "w.ppm"
    save_image(path, np.ones((1, 1, 3)))
    assert np.array_equal(load_image(path), np.ones((1, 1, 3)))


def test_image_header_with_comment(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
    img = load_image(path)
    assert img.shape == (1, 2, 3)
    assert np.array_equal(img, np.zeros((1, 2, 3)))


def test_image_truncated_payload_error(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(PnmError, match="byte"):
        load_image(path)


def test_image_bad_magic_and_maxval(tmp_path):
    path = tmp_path / "b.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PnmError, match="P6"):
        load_image(path)
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(PnmError, match="maxval"):
        load_image(path)


@settings(max_examples=60)
@given(depth=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                    elements=unit(0.0, 65.535)))
def test_depth_roundtrip_millimeter_quantization(tmp_path_factory, depth):
    path = tmp_path_factory.mktemp("pnm") / "d.pgm"
    save_depth(path, depth)
    back = load_depth(path)
    assert back.shape == depth.shape
    assert np.max(np.abs(back - depth)) <= 0.0005 + 1e-12


def test_depth_rejects_negative(tmp_path):
    with pytest.raises(ValueError, match="non-negative"):
        save_depth(tmp_path / "n.pgm", np.array([[-1.0]]))


# ---------------------------------------------------------------------------
# Batch pipeline
# ---------------------------------------------------------------------------

def test_degrade_directory_identity_preset(tmp_path, img):
    src = tmp_path / "in"
    src.mkdir()
    for i in range(3):
        save_image(src / f"img_{i}.ppm", img)
    manifest = degrade_directory("scattering", src, tmp_path / "out",
                                 seed=0, overrides={"beta": 0.0})
    assert manifest["count"] == 3
    for i in range(3):
        a = (src / f"img_{i}.ppm").read_bytes()
        b = (tmp_path / "out" / f"img_{i}.ppm").read_bytes()
        assert a == b


def test_degrade_directory_deterministic_bytes(tmp_path, img):
    src = tmp_path / "in"
    src.mkdir()
    save_image(src / "img.ppm", img)
    degrade_directory("lowlight", src, tmp_path / "o1", seed=5)
    degrade_directory("lowlight", src, tmp_path / "o2", seed=5)
    assert ((tmp_path / "o1" / "img.ppm").read_bytes()
            == (tmp_path / "o2" / "img.ppm").read_bytes())
    assert (tmp_path / "o1" / "manifest.json").exists()


def test_degrade_directory_uses_depth(tmp_path, img, depth):
    src, dep = tmp_path / "in", tmp_path / "depth"
    src.mkdir(), dep.mkdir()
    save_image(src / "img.ppm", img)
    save_depth(dep / "img.pgm", depth)
    with_depth = degrade_directory("scattering", src, tmp_path / "o1",
                                   depth_dir=dep, seed=0)
    without = degrade_directory("scattering", src, tmp_path / "o2", seed=0)
    assert ((tmp_path / "o1" / "img.ppm").read_bytes()
            != (tmp_path / "o2" / "img.ppm").read_bytes())


def test_degrade_directory_empty_error(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        degrade_directory("lowlight", tmp_path / "empty", tmp_path / "out")


def six_image_directory(tmp_path):
    """Six images, four with depth maps; the last two have none."""
    src, dep = tmp_path / "in", tmp_path / "depth"
    src.mkdir(), dep.mkdir()
    rng = np.random.default_rng(11)
    for i in range(6):
        save_image(src / f"view{i}.ppm", rng.uniform(0.0, 1.0, size=(9, 14, 3)))
        if i < 4:
            save_depth(dep / f"view{i}.pgm", rng.uniform(1.0, 60.0, size=(9, 14)))
    return src, dep


def written(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("cpus", [None, {0}, set(range(8)), "no affinity call",
                                  {0, 1, 2}])
@pytest.mark.parametrize("mode", sorted(MODE_DEFAULTS))
def test_degrade_directory_writes_the_serial_loop_bytes(tmp_path, monkeypatch,
                                                        forks, mode, cpus):
    """Files and manifest equal the serial reference loop's, with the CPUs
    the process may use left as they are, cut to one, raised above the
    image count, unknown to the platform, or three; each CPU after the
    first forks one worker, up to one per image."""
    n_forks = 0 if cpus == "no affinity call" else min(
        6, len(cpus or os.sched_getaffinity(0))) - 1
    if cpus == "no affinity call":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    elif cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    src, dep = six_image_directory(tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the two images without depth maps
        want_manifest = reference.degrade_directory(mode, src, out, dep, seed=7)
        want = written(out)
        for path in out.iterdir():
            path.unlink()
        manifest = degrade_directory(mode, src, out, dep, seed=7)
    assert manifest == want_manifest
    assert written(out) == want
    assert json.loads(want["manifest.json"])["count"] == 6
    assert len(forks) == n_forks


@pytest.mark.parametrize("cpus,bad_view,exactly", [
    ({0}, 2, {0, 1}), ({0, 1}, 2, None), ({0, 1}, 4, {0, 1, 2, 3})],
    ids=["cpus0", "cpus1", "in a child's share"])
def test_degrade_directory_stops_at_a_truncated_image(tmp_path, monkeypatch,
                                                      cpus, bad_view, exactly):
    """A truncated image raises its PnmError, whether it falls in this
    process's share of the six or in a forked child's, and no manifest is
    written. The images before it in its share are written whole; with one
    CPU, or in the last share, as in the serial loop, no image after it is
    written. A share killed partway leaves no part under an image's name."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    src, _ = six_image_directory(tmp_path)
    degrade_directory("lowlight", src, tmp_path / "whole", seed=1)
    whole = written(tmp_path / "whole")
    bad = src / f"view{bad_view}.ppm"
    bad.write_bytes(bad.read_bytes()[:-10])
    out = tmp_path / "out"
    with pytest.raises(PnmError, match=re.escape(str(bad))):
        degrade_directory("lowlight", src, out, seed=1)
    assert not (out / "manifest.json").exists()
    images = {p.name: p.read_bytes() for p in out.glob("*.ppm")}
    assert {p: whole[p] for p in images} == images
    assert {"view0.ppm", "view1.ppm"} <= set(images) and bad.name not in images
    if exactly is not None:
        assert {p.name for p in out.iterdir()} == {f"view{i}.ppm" for i in exactly}


def test_an_interrupted_write_leaves_no_part_under_the_images_name(
        tmp_path, monkeypatch, img):
    """PNM files are written under a temporary name and renamed into place:
    a write that raises partway leaves no file under the image's name."""
    write_bytes = Path.write_bytes

    def cut_short(path, data):
        write_bytes(path, data[:len(data) // 2])
        raise OSError(f"cut short: {path.name}")

    monkeypatch.setattr(Path, "write_bytes", cut_short)
    with pytest.raises(OSError, match="cut short"):
        save_image(tmp_path / "a.ppm", img)
    assert [p.name for p in tmp_path.iterdir()] == ["a.ppm.tmp"]
