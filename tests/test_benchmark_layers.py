"""Every function and cache the benchmark's layer table names exists in the
package and is bound where the tracer will patch it.

`perfbench/layers.py` names its spans and caches as strings, so a rename
in the package breaks every benchmark run without failing any other test:
`layers.cache_counts()` runs in each worker.  The table is read, never
changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import robustlrs.cli  # noqa: F401  (loads every module the tracer patches)

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_layers",
                                                  LAYERS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LAYERS = _layers()


@pytest.mark.parametrize("span", LAYERS.SPANS, ids=lambda s: s[0])
def test_span_resolves(span):
    _, module, path, scope, _, _ = span
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = getattr(owner, attr)
    assert callable(fn)
    if outer:
        return                   # a method: the tracer patches the class
    binders = [importlib.import_module(m) for m in scope or (module,)]
    assert any(vars(m).get(attr) is fn for m in binders), (module, path)


@pytest.mark.parametrize("cache", LAYERS.LRU_CACHES, ids=".".join)
def test_lru_cache_resolves(cache):
    mod, fn = cache
    info = getattr(importlib.import_module(f"robustlrs.{mod}"),
                   fn).cache_info()
    assert info.currsize >= 0


def test_cache_counts_runs():
    counts = LAYERS.cache_counts()
    assert sorted(counts) == sorted(f"{m}.{f}" for m, f in LAYERS.LRU_CACHES)
