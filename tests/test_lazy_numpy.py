"""NumPy is loaded on demand: Figure 5 never imports it, sweeps do.

``repro.cache.semantics`` resolves NumPy on the first array-side call
instead of at import, so the per-event Figure 5 path pays neither the
import time nor its resident memory.  Each check runs in a fresh
interpreter, where ``sys.modules`` shows exactly what the path loaded.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(code):
    """Run ``code`` in a new interpreter; return its last stdout line
    parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_figure5_path_never_imports_numpy():
    result = run_fresh("""
        import json, sys
        from repro.evalharness.figure5 import figure5_table
        rows = figure5_table(names=("queen",))
        print(json.dumps({
            "numpy": "numpy" in sys.modules,
            "rows": len(rows),
        }))
    """)
    assert result["rows"] >= 1
    assert result["numpy"] is False


def test_sweep_loads_numpy_and_picks_the_vectorized_kernel():
    pytest.importorskip("numpy")
    result = run_fresh("""
        import json, sys
        from repro.cache.cache import CacheConfig
        from repro.cache.replay import replay_trace
        from repro.cache.stackdist import replay_trace_sweep
        from repro.evalharness.artifacts import resolve_artifact
        from repro.evalharness.figure5 import figure5_options
        from repro.programs import get_benchmark

        bench = get_benchmark("queen")
        trace = resolve_artifact(bench.name, bench.source,
                                 figure5_options(),
                                 bench.expected_output).trace
        configs = [
            CacheConfig(size_words=size, associativity=assoc)
            for size in (32, 64, 256) for assoc in (1, 2, 4)
        ]
        serial = [replay_trace(trace, config) for config in configs]
        before = "numpy" in sys.modules
        swept = replay_trace_sweep(trace, configs)
        after = "numpy" in sys.modules

        import repro.cache.vectorized as vectorized
        calls = []
        real = vectorized.vector_profile_pass

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        vectorized.vector_profile_pass = counting
        again = replay_trace_sweep(trace, configs)
        print(json.dumps({
            "before": before,
            "after": after,
            "vectorized_calls": len(calls),
            "identical": swept == serial and again == serial,
        }))
    """)
    assert result["before"] is False
    assert result["after"] is True
    assert result["vectorized_calls"] > 0
    assert result["identical"] is True
