"""The benchmark's tracer must still find every qddsim attribute it wraps.

`perfbench/tracer.py` replaces each (owner, attribute) of its TRACED list
by a timing wrapper and puts the original back afterwards. A refactor that
removes or renames one of those attributes breaks the benchmark's traced
run; these checks catch it in the ordinary test suite.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402


def test_every_traced_attribute_exists():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in tracer.TRACED
        if attr not in owner.__dict__
    ]
    assert not missing


def test_install_then_uninstall_restores_originals():
    originals = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        t.uninstall()
    restored = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
    assert all(r is o for r, o in zip(restored, originals))
