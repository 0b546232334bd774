"""Command-line front end plus the scene and image file formats.

Scene files are JSON with an explicit version field; unknown fields are
rejected by name so convention drift (say, a different quaternion order)
fails loudly instead of rendering garbage. Images are binary PPM, the
simplest format that is bit-exact without a codec dependency.
"""

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .core import (SPLAT_FIELDS, Camera, Splats, as_background, as_finite, as_integer,
                   as_real)
from .gradcheck import run_audit
from .optimize import FitConfig, fit
from .raster_forward import ImageBuffer, render, render_brute_force

_TOP_FIELDS = ("version", "camera", "background", "gaussians")


def _check_keys(obj, keys, path):
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must be an object")
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown field {path}.{key}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"missing field {path}.{key}")


def _finite(value, path):
    value = as_real(value, path)
    if not np.isfinite(value):
        raise ValueError(f"{path} must be finite")
    return value


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path} must be an integer")
    return value


def _vector(value, n, path):
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{path} must be a list of {n} numbers")
    return np.array([_finite(item, f"{path}[{k}]") for k, item in enumerate(value)])


def _check_values(scene, camera, background):
    """Raise ValueError prefixed scene. unless the values may be in a scene
    file: the camera passes Camera.validate, the background as_background
    and the Splats Splats.validate."""
    try:
        camera.validate()
        as_background(background)
        scene.validate()
    except ValueError as exc:
        raise ValueError(f"scene.{exc}") from None


def parse_scene(data):
    """Parse a scene document into (scene, camera, background), scene a
    Splats.

    Accepts str or UTF-8 bytes. Raises ValueError naming the offending
    field (e.g. scene.gaussians[3].scale) on any syntax error, unknown or
    missing field, or type-invariant violation; the rows are stacked once
    and the values checked as serialize_scene checks them.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scene file is not valid JSON: {exc}") from None
    _check_keys(doc, _TOP_FIELDS, "scene")
    # type(...) is int: True and 1.0 compare equal to 1 but are not 1.
    if type(doc["version"]) is not int or doc["version"] != 1:
        raise ValueError(f"scene.version must be 1, got {doc['version']!r}")

    # The camera's keys are its fields; the view is 16 numbers, row-major.
    cam = doc["camera"]
    _check_keys(cam, [f.name for f in fields(Camera)], "scene.camera")
    values = {}
    for f in fields(Camera):
        path = f"scene.camera.{f.name}"
        if f.type is np.ndarray:
            values[f.name] = _vector(cam[f.name], 16, path).reshape(4, 4)
        else:
            values[f.name] = (_integer if f.type is int else _finite)(cam[f.name], path)
    camera = Camera(**values)
    background = _vector(doc["background"], 3, "scene.background")

    if not isinstance(doc["gaussians"], list):
        raise ValueError("scene.gaussians must be a list")
    # A splat's keys are the SPLAT_FIELDS row names; a 0-d field is a number.
    columns = {name: [] for name, _, _ in SPLAT_FIELDS}
    for i, item in enumerate(doc["gaussians"]):
        _check_keys(item, columns, f"scene.gaussians[{i}]")
        for name, _, shape in SPLAT_FIELDS:
            path = f"scene.gaussians[{i}].{name}"
            columns[name].append(_vector(item[name], *shape, path) if shape
                                 else _finite(item[name], path))
    scene = Splats(**{attr: np.reshape(columns[name], (len(doc["gaussians"]),) + shape)
                      for name, attr, shape in SPLAT_FIELDS})
    _check_values(scene, camera, background)
    return scene, camera, background


def serialize_scene(scene, camera: Camera, background):
    """Scene document, scene a Splats or a list of Gaussian3D, as a JSON
    string. Floats keep full precision, so parse(serialize(x)) reproduces
    x exactly. The values are checked first, as parse_scene checks them,
    so every document it returns parses."""
    splats = Splats.of(scene)
    _check_values(splats, camera, background)
    # The keys in field order; the view keeps its place as 16 numbers.
    cam = {f.name: getattr(camera, f.name) for f in fields(Camera)}
    cam["view"] = camera.view.ravel().tolist()
    names = [name for name, _, _ in SPLAT_FIELDS]
    rows = zip(*(getattr(splats, attr).tolist() for _, attr, _ in SPLAT_FIELDS))
    doc = {"version": 1, "camera": cam, "background": [float(c) for c in background],
           "gaussians": [dict(zip(names, row)) for row in rows]}
    return json.dumps(doc, indent=2)


def write_image(buffer: ImageBuffer, path):
    """Write a binary PPM (P6, maxval 255).

    Channel bytes are floor(clamp(v, 0, 1) * 255 + 0.5): round half away
    from zero, fixed explicitly so golden files match across platforms.
    A width or height that is not a whole number at least 1, or channels
    that are not finite or whose shape is not (height, width, 3), raise
    ValueError naming them before the file is opened.
    """
    width = as_integer(buffer.width, "width", 1)
    height = as_integer(buffer.height, "height", 1)
    channels = as_finite(buffer.channels, (height, width, 3), "channels")
    quantized = np.clip(channels, 0.0, 1.0)
    quantized *= 255.0
    quantized += 0.5
    # The values are non-negative, so the cast's truncation is the floor.
    quantized = quantized.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_image(path):
    """Read a binary PPM (P6, maxval 255) as a (height, width, 3) float
    array in [0, 1]. A truncated header, a width, height or maxval that is
    not a whole number at least 1, or a payload of the wrong size raises
    ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated image header")
        tokens.append(data[start:pos])
    if tokens[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    for name, token in zip(("width", "height", "maxval"), tokens[1:]):
        if not (token.isdigit() and int(token) >= 1):
            raise ValueError(f"{path}: image {name} must be a whole number at least 1")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    payload = data[pos + 1 :]
    if len(payload) != width * height * 3:
        raise ValueError(f"{path}: payload size does not match header")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return pixels.reshape(height, width, 3) / 255.0


def _default_fit_camera(width, height):
    return Camera(
        view=np.eye(4),
        fx=float(max(width, height)),
        fy=float(max(width, height)),
        cx=(width - 1) / 2.0,
        cy=(height - 1) / 2.0,
        width=width,
        height=height,
        near=0.1,
        far=100.0,
    )


def _cmd_render(args):
    with open(args.scene, "r", encoding="utf-8") as fh:
        text = fh.read()
    scene, camera, background = parse_scene(text)
    renderer = render_brute_force if args.brute_force else render
    result = renderer(scene, camera, background)
    write_image(result.image, args.output)
    if args.aux:
        trans = result.aux.final_T
        gray = ImageBuffer(
            width=camera.width,
            height=camera.height,
            channels=np.repeat(trans[:, :, None], 3, axis=2),
        )
        write_image(gray, args.aux)
    return 0


def _cmd_gradcheck(args):
    seeds = [args.seed] if args.seed is not None else list(range(20))
    reports = {}
    ok = True
    for seed in seeds:
        report = run_audit(seed, h=args.h, rel_tol=args.tol_rel, abs_tol=args.tol_abs)
        reports[seed] = report
        ok = ok and report.passed
        print(f"seed {seed}:")
        print(report.to_text())
    if args.report:
        payload = {str(seed): r.to_dict() for seed, r in reports.items()}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def _cmd_fit(args):
    target = read_image(args.target)
    height, width = target.shape[:2]
    camera = _default_fit_camera(width, height)
    config = FitConfig(
        n_gaussians=args.gaussians, iterations=args.iters, seed=args.seed
    )
    scene, history = fit(target, camera, config)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_scene(scene, camera, np.asarray(config.background)))
        fh.write("\n")
    if args.loss_out:
        with open(args.loss_out, "w", encoding="utf-8") as fh:
            for value in history:
                fh.write(f"{value!r}\n")
    return 0


def main(argv=None):
    """Entry point. Returns 0 on success, 1 on audit failure, 2 on bad
    input (argparse uses 2 for usage errors as well)."""
    parser = argparse.ArgumentParser(
        prog="splatgrad",
        description="CPU differentiable gaussian splatting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="render a scene file to a PPM image")
    p_render.add_argument("scene", help="scene JSON file")
    p_render.add_argument("-o", "--output", required=True, help="output PPM path")
    p_render.add_argument(
        "--aux", help="also write the final transmittance as a grayscale PPM"
    )
    p_render.add_argument(
        "--brute-force", action="store_true",
        help="bypass tiling and composite every pixel against every splat",
    )

    p_check = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_check.add_argument(
        "--seed", type=int, default=None,
        help="audit a single seed (default: seeds 0 through 19)",
    )
    p_check.add_argument("--h", type=float, default=1e-5, help="probe step size")
    p_check.add_argument("--tol-rel", type=float, default=1e-4)
    p_check.add_argument("--tol-abs", type=float, default=1e-8)
    p_check.add_argument("--report", help="write the structured report as JSON")

    p_fit = sub.add_parser("fit", help="fit splats to a PPM target image")
    p_fit.add_argument("target", help="target PPM image")
    p_fit.add_argument("-n", "--gaussians", type=int, default=100)
    p_fit.add_argument("--iters", type=int, default=1000)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("-o", "--output", required=True, help="fitted scene JSON path")
    p_fit.add_argument("--loss-out", help="write per-iteration loss, one per line")

    args = parser.parse_args(argv)
    try:
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        return _cmd_fit(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
