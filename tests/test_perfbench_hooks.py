"""The benchmark's span hooks still find what they wrap.

perfbench/spans.py wraps module attributes such as
raster_forward.project_gaussian and gradcheck.compose_covariance_3d that
nothing under src/ calls. Deleting one breaks the benchmark, not the
library, so this test keeps every (module, attribute) it names resolving.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_boundary_resolves():
    boundaries = _load_spans().BOUNDARIES
    assert boundaries
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in boundaries
               if not callable(getattr(module, attr, None))]
    assert missing == []
