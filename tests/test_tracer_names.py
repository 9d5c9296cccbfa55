"""Every name that perfbench's tracer patches is still where it looks for it.

``perfbench/tracing.py`` replaces functions by attribute (of a module, a
class or a dict), so a renamed or dropped import would break only a traced
benchmark run; this test catches it in the tier-1 suite.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_tracer_patches_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [(getattr(owner, "__name__", "dict"), attr) for owner, attr, *_ in tracing.PATCHES
               if not (attr in owner if isinstance(owner, dict) else hasattr(owner, attr))]
    assert tracing.PATCHES and not missing
