"""The package's public names: every entry of splatgrad.__all__ resolves
and appears once, so a name dropped from the imports but left in
__all__ fails here instead of at a caller's star import; each is named
in README.md or imported from the package by a test or benchmark file,
so the surface holds only what users and tests call; and README's
"Public API" list is __all__.

Every public function has a row in the contract table below: each bad
input that applies to its arguments raises ValueError naming the field.
"""

import ast
import inspect
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import splatgrad
from splatgrad import (
    Camera,
    FitConfig,
    ImageBuffer,
    Splats,
    accumulate_image_backward,
    audit_scene,
    fit,
    init_random,
    make_audit_scene,
    parse_scene,
    project_splats,
    read_image,
    render,
    render_brute_force,
    run_audit,
    scene_backward,
    serialize_scene,
    write_image,
)

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    missing = [name for name in splatgrad.__all__ if not hasattr(splatgrad, name)]
    assert missing == []


def test_every_public_name_appears_once():
    repeated = [name for name, n in Counter(splatgrad.__all__).items() if n > 1]
    assert repeated == []


def _top_level_imports(root):
    """Names the files under tests/ and perfbench/ take from the package
    top level, as `from splatgrad import X` or `splatgrad.X`."""
    used = set()
    for path in sorted(root.glob("tests/**/*.py")) + sorted(root.glob("perfbench/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "splatgrad" and not node.level:
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "splatgrad"):
                used.add(node.attr)
    return used


def test_every_public_name_is_used():
    # The public surface holds what users and tests call: a name the
    # README does not document and no test or benchmark file imports from
    # the package belongs in its module only.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = _top_level_imports(ROOT)
    unused = [name for name in splatgrad.__all__
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_readme_public_api_list_is_all():
    # The list is the "## Public API" section's `- \`name\`` items.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(splatgrad.__all__)
    assert len(listed) == len(set(listed))


# The contract table. A row names a public function, a factory of valid
# keyword arguments (given pytest's tmp_path) and, per argument, its bad
# cases: (case, make, field), make turning the valid value into the bad
# one and field a pattern the ValueError's message must contain. Each
# case breaks one argument, and the valid arguments pass.


def _scene():
    """Two splats in front of _camera()."""
    return Splats(means=[[0.1, 0.0, 3.0], [-0.2, 0.1, 4.0]], scales=np.full((2, 3), 0.2),
                  quats=[[1.0, 0.0, 0.0, 0.0]] * 2, opacities=[0.6, 0.7],
                  colors=np.full((2, 3), 0.5))


def _camera():
    return Camera(view=np.eye(4), fx=8.0, fy=8.0, cx=3.5, cy=3.5, width=8, height=8,
                  near=0.1, far=100.0)


def _set(obj, attr, value, index=None):
    """obj with attr, or attr[index], set to value after construction,
    past its constructor's checks."""
    if index is None:
        setattr(obj, attr, value)
    else:
        getattr(obj, attr)[index] = value
    return obj


def _first(a, value):
    """A float copy of the array a with its first entry set to value."""
    a = np.array(a, dtype=np.float64)
    a.flat[0] = value
    return a


SCENE = [
    ("nan", lambda s: _set(s, "means", np.nan, (1, 0)), r"gaussians\[1\]\.mean"),
    ("inf", lambda s: _set(s, "colors", np.inf, (1, 2)), r"gaussians\[1\]\.color"),
    ("wrong-shape", lambda s: _set(s, "means", s.means[:, :2]), r"\bmeans\b"),
    ("non-positive-scale", lambda s: _set(s, "scales", 0.0, (1, 1)), r"gaussians\[1\]\.scale"),
    ("zero-quaternion", lambda s: _set(s, "quats", 0.0, 1), r"gaussians\[1\]\.quat"),
]
CAMERA = [
    ("nan", lambda c: _set(c, "fx", np.nan), r"camera\.fx"),
    ("inf", lambda c: _set(c, "cy", np.inf), r"camera\.cy"),
    ("wrong-shape", lambda c: _set(c, "view", np.eye(3)), r"camera\.view"),
    ("zero-size", lambda c: _set(c, "width", 0), r"camera\.width"),
    ("negative-size", lambda c: _set(c, "height", -2), r"camera\.height"),
    ("non-integral-size", lambda c: _set(c, "width", 7.5), r"camera\.width"),
    ("non-positive-scale", lambda c: _set(c, "fy", 0.0), r"camera\.fy"),
]


def _array(field):
    return [("nan", lambda a: _first(a, np.nan), field),
            ("inf", lambda a: _first(a, np.inf), field),
            ("wrong-shape", lambda a: np.asarray(a)[:-1], field)]


def _background(field):
    """A background: a finite 3-vector with every channel in [0, 1]."""
    return _array(field) + [("out-of-range", lambda a: _first(a, 1.5), field)]


def _positive(field):
    """A step or tolerance: finite and positive."""
    return [(case, lambda _, v=value: v, field)
            for case, value in (("nan", np.nan), ("inf", np.inf), ("zero", 0.0),
                                ("negative", -1.0))]


def _count(field, minimum=0):
    """A whole number at least minimum; zero is bad too when minimum > 0."""
    values = [("nan", np.nan), ("inf", np.inf), ("negative", -1), ("non-integral", 2.5)]
    return [(case, lambda _, v=value: v, field)
            for case, value in values + [("zero-size", 0)] * (minimum > 0)]


def _config(*names):
    """FitConfig cases on the fields names: counts, learning rates and
    the background."""
    cases = []
    for name in names:
        if name.startswith("lr_"):
            kinds = [c for c in _positive(name) if c[0] != "zero"]
        elif name == "background":
            kinds = _background(name)
        else:
            kinds = _count(name)
        cases += [(f"{name}-{case}", lambda c, f=name, m=make: replace(c, **{f: m(getattr(c, f))}),
                   rf"config\.{name}") for case, make, _ in kinds]
    return cases


def _document(edit):
    """_DOC edited by edit(doc) as a JSON document."""
    doc = json.loads(_DOC)
    edit(doc)
    return json.dumps(doc)


_DOC = serialize_scene(_scene(), _camera(), np.zeros(3))
DOCUMENT = [
    ("nan", lambda _: _document(lambda d: d["camera"].update(fx=np.nan)),
     r"scene\.camera\.fx"),
    ("inf", lambda _: _document(lambda d: d["gaussians"][1].update(mean=[0.0, np.inf, 3.0])),
     r"scene\.gaussians\[1\]\.mean"),
    ("wrong-shape", lambda _: _document(lambda d: d["gaussians"][1].update(quat=[1.0, 0.0, 0.0])),
     r"scene\.gaussians\[1\]\.quat"),
    ("out-of-range", lambda _: _document(lambda d: d.update(background=[0.0, 1.5, 0.0])),
     r"scene\.background"),
    ("zero-size", lambda _: _document(lambda d: d["camera"].update(width=0)),
     r"scene\.camera\.width"),
    ("negative-size", lambda _: _document(lambda d: d["camera"].update(height=-1)),
     r"scene\.camera\.height"),
    ("non-integral-size", lambda _: _document(lambda d: d["camera"].update(width=7.5)),
     r"scene\.camera\.width"),
    ("non-positive-scale",
     lambda _: _document(lambda d: d["gaussians"][1].update(scale=[0.2, -0.1, 0.2])),
     r"scene\.gaussians\[1\]\.scale"),
    ("zero-quaternion",
     lambda _: _document(lambda d: d["gaussians"][1].update(quat=[0.0, 0.0, 0.0, 0.0])),
     r"scene\.gaussians\[1\]\.quat"),
]


def _ppm(path, data):
    path.write_bytes(data)
    return path


PPM = [
    ("truncated-header", lambda p: _ppm(p, b"P6\n2 2"), r"header"),
    ("payload-size", lambda p: _ppm(p, b"P6\n2 2\n255\n" + bytes(11)), r"payload"),
    ("zero-size", lambda p: _ppm(p, b"P6\n0 2\n255\n"), r"width"),
    ("negative-size", lambda p: _ppm(p, b"P6\n2 -2\n255\n" + bytes(12)), r"height"),
    ("non-integral-size", lambda p: _ppm(p, b"P6\n2.5 2\n255\n" + bytes(12)), r"width"),
]
BUFFER = [
    ("nan", lambda b: _set(b, "channels", _first(b.channels, np.nan)), r"channels"),
    ("inf", lambda b: _set(b, "channels", _first(b.channels, np.inf)), r"channels"),
    ("wrong-shape", lambda b: _set(b, "channels", b.channels[:, :1]), r"channels"),
    ("zero-size", lambda b: _set(b, "width", 0), r"width"),
    ("negative-size", lambda b: _set(b, "height", -2), r"height"),
    ("non-integral-size", lambda b: _set(b, "width", 1.5), r"width"),
]


def _rendered(tmp_path):
    scene, camera = _scene(), _camera()
    return dict(scene=scene, camera=camera, result=render(scene, camera, np.zeros(3)),
                d_image=np.ones((8, 8, 3)))


def _renders(tmp_path):
    return dict(scene=_scene(), camera=_camera(), background=np.zeros(3))


def _fits(tmp_path):
    return dict(target=np.full((8, 8, 3), 0.5), camera=_camera(),
                config=FitConfig(n_gaussians=2, iterations=1), init=None)


def _audits(tmp_path):
    return dict(scene=_scene(), camera=_camera(), target=np.full((8, 8, 3), 0.5),
                background=np.zeros(3), h=1e-5, rel_tol=1e-4, abs_tol=1e-8,
                pixel_mask=np.ones((8, 8)))


def _ppm_path(tmp_path):
    return dict(path=_ppm(tmp_path / "in.ppm", b"P6\n2 2\n255\n" + bytes(12)))


CONTRACT = [
    (render, _renders, {"scene": SCENE, "camera": CAMERA, "background": _background("background")}),
    (render_brute_force, _renders,
     {"scene": SCENE, "camera": CAMERA, "background": _background("background")}),
    (project_splats,
     lambda p: dict(splats=_scene(), camera=_camera(), view=np.tile(np.eye(4), (2, 1, 1))),
     {"splats": SCENE, "camera": CAMERA, "view": _array("view")}),
    (accumulate_image_backward,
     lambda p: {k: v for k, v in _rendered(p).items() if k != "camera"},
     {"scene": SCENE, "d_image": _array("d_image")}),
    (scene_backward, _rendered,
     {"scene": SCENE, "camera": CAMERA, "d_image": _array("d_image")}),
    (audit_scene, _audits,
     {"scene": SCENE, "camera": CAMERA, "target": _array("target"),
      "background": _background("background"), "h": _positive("h"),
      "rel_tol": _positive("rel_tol"), "abs_tol": _positive("abs_tol"),
      "pixel_mask": _array("pixel_mask")}),
    (make_audit_scene, lambda p: dict(seed=0, image_size=16),
     {"seed": _count("seed"), "image_size": _count("image_size", minimum=4)}),
    (run_audit, lambda p: dict(seed=0, h=1e-5, rel_tol=1e-4, abs_tol=1e-8),
     {"seed": _count("seed"), "h": _positive("h"), "rel_tol": _positive("rel_tol"),
      "abs_tol": _positive("abs_tol")}),
    (fit, _fits,
     {"target": _array("target"), "camera": CAMERA,
      "config": _config("iterations", "n_gaussians", "seed", "lr_mean", "lr_quat",
                        "background")}),
    (fit, lambda p: dict(_fits(p), init=_scene()),
     {"init": SCENE}),
    (init_random,
     lambda p: dict(config=FitConfig(n_gaussians=2), camera=_camera(),
                    target=np.full((8, 8, 3), 0.5)),
     {"config": _config("n_gaussians", "seed"), "camera": CAMERA, "target": _array("target")}),
    (parse_scene, lambda p: dict(data=_DOC), {"data": DOCUMENT}),
    (serialize_scene, _renders,
     {"scene": SCENE, "camera": CAMERA, "background": _background("background")}),
    (read_image, _ppm_path, {"path": PPM}),
    (write_image,
     lambda p: dict(buffer=ImageBuffer(width=2, height=2, channels=np.zeros((2, 2, 3))),
                    path=p / "out.ppm"),
     {"buffer": BUFFER}),
]


def test_every_public_function_has_a_row():
    public = {name for name in splatgrad.__all__
              if inspect.isfunction(getattr(splatgrad, name))}
    rows = {fn.__name__ for fn, _, _ in CONTRACT}
    assert sorted(public - rows) == []
    assert sorted(rows - public) == []


@pytest.mark.parametrize("fn, valid", [pytest.param(fn, valid, id=fn.__name__)
                                       for fn, valid, _ in CONTRACT])
def test_valid_arguments_pass(fn, valid, tmp_path):
    fn(**valid(tmp_path))


@pytest.mark.parametrize("fn, valid, arg, make, field", [
    pytest.param(fn, valid, arg, make, field, id=f"{fn.__name__}-{arg}-{case}")
    for fn, valid, cases in CONTRACT for arg, arg_cases in cases.items()
    for case, make, field in arg_cases])
def test_bad_input_names_its_field(fn, valid, arg, make, field, tmp_path):
    kwargs = valid(tmp_path)
    kwargs[arg] = make(kwargs[arg])
    with pytest.raises(ValueError, match=field):
        fn(**kwargs)
