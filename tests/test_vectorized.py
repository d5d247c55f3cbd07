"""Property suite for the set-major vectorized replay kernels.

The contract under test mirrors ``tests/test_stackdist.py`` one level
down: :func:`repro.cache.vectorized.vector_profile_pass` must rebuild
the scalar profiler's :class:`StackDistanceProfile` **bit-identically**
— same totals, same histograms, same reconstructed ``CacheStats`` for
every associativity — whether the NumPy kernel or the scalar fallback
ends up doing the work.  The geometry battery
deliberately includes the degenerate shapes (one set, one way, lines
wider than the address range) where segmented-scan bugs hide.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.replay import MinConfig, replay_trace
from repro.cache.stackdist import (
    flavor_key,
    profile_pass,
    replay_trace_sweep,
)
from repro.cache.vectorized import (
    VECTOR_ASSOC_CAP_LIMIT,
    vector_available,
    vector_profile_pass,
)
from repro.vm.trace import FLAG_KILL, FLAG_WRITE, TraceBuffer
from test_stackdist import (
    BATTERY,
    FLAG_CHOICES,
    GEOMETRIES,
    _assert_identical,
    make_trace,
    traces,
)

requires_numpy = pytest.mark.skipif(
    not vector_available(), reason="NumPy not importable"
)


class TestPropertyEquivalence:
    """Forced ``engine="vectorized"`` versus the serial replay.

    The forced engine routes unsupported specs through the same
    fallbacks as ``auto`` (fallback, never failure), so the whole
    battery — every honor_bypass/honor_kill/write_policy combination
    over every degenerate geometry — runs through one assertion.
    """

    @settings(max_examples=60, deadline=None)
    @given(events=traces)
    def test_byte_identical_across_battery(self, events):
        _assert_identical(make_trace(events), BATTERY, "vectorized")

    @settings(max_examples=30, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 100000),
                st.sampled_from(FLAG_CHOICES),
            ),
            max_size=120,
        )
    )
    def test_sparse_address_space(self, events):
        _assert_identical(make_trace(events), BATTERY, "vectorized")

    def test_degenerate_geometries_with_annotations(self):
        """One set, one way, wide lines — with bypass and kill traffic
        (the probe/mutation path) exercised deterministically."""
        events = []
        for address in (0, 3, 1, 0, 7, 3, 1, 1, 0, 5, 7, 2):
            events.append((address, 0))
            events.append((address, FLAG_WRITE))
            events.append((address, FLAG_KILL))
        trace = make_trace(events)
        degenerate = [
            CacheConfig(size_words=size, line_words=lw, associativity=assoc,
                        policy="lru", write_policy=wp)
            for size, lw, assoc in GEOMETRIES
            for wp in ("writeback", "writethrough")
        ]
        _assert_identical(trace, degenerate, "vectorized")


class TestFuzzerTraces:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_generated_programs_round_trip(self, seed):
        """Real compiler-emitted traces (bypass/kill annotated by the
        unified pipeline) score identically under the vector kernels."""
        from repro.robustness.generator import generate_program
        from repro.unified.pipeline import CompilationOptions, compile_source
        from repro.vm.memory import RecordingMemory

        generated = generate_program(seed)
        program = compile_source(
            generated.source,
            CompilationOptions(scheme="unified", promotion="aggressive"),
        )
        memory = RecordingMemory()
        program.run(memory=memory)
        _assert_identical(memory.buffer, BATTERY, "vectorized")


def _profile_stats(profile, assoc_cap):
    return [profile.stats_for(a).as_dict() for a in range(1, assoc_cap + 1)]


class TestKernelSelection:
    """The ``info`` side channel plus the fallback ladder."""

    FLAVOR = (1, True, True, "writeback")

    def _columns(self):
        events = [(3, 0), (5, FLAG_WRITE), (3, FLAG_KILL), (9, 0),
                  (5, 0), (3, FLAG_WRITE), (1, FLAG_KILL | FLAG_WRITE)]
        return make_trace(events).to_columns()

    @requires_numpy
    def test_numpy_kernel_reported_and_identical(self):
        columns = self._columns()
        info = {}
        got = vector_profile_pass(columns, self.FLAVOR, 4, 4, info=info)
        want = profile_pass(columns, self.FLAVOR, 4, 4)
        assert info["kernel"] == "numpy"
        assert _profile_stats(got, 4) == _profile_stats(want, 4)

    def test_oversize_assoc_cap_delegates_to_scalar(self):
        columns = self._columns()
        info = {}
        cap = VECTOR_ASSOC_CAP_LIMIT + 1
        got = vector_profile_pass(columns, self.FLAVOR, 1, cap, info=info)
        want = profile_pass(columns, self.FLAVOR, 1, cap)
        assert info["kernel"] == "stackdist"
        assert _profile_stats(got, cap) == _profile_stats(want, cap)

    def test_flavor_key_shape_matches_kernel_contract(self):
        """The dispatcher hands ``flavor_key`` tuples straight to the
        kernel; both sides must agree on the layout."""
        config = CacheConfig(size_words=16, line_words=2, associativity=2,
                             policy="lru", write_policy="writethrough")
        flavor = flavor_key(config, True, True)
        line_words, honor_bypass, honor_kill, write_policy = flavor
        assert line_words == 2
        assert write_policy == "writethrough"
        assert isinstance(honor_bypass, bool)
        assert isinstance(honor_kill, bool)


class TestDispatch:
    def test_forced_vectorized_falls_back_not_fails(self):
        """Specs outside the stack-distance model (FIFO, Random, MIN,
        demote-kill) route through the sweeps/multi core — the forced
        vector engine never raises the way ``stackdist`` does."""
        trace = make_trace([(3, 0), (5, FLAG_WRITE), (3, FLAG_KILL),
                            (5, 0), (3, 0)])
        specs = [
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="lru"),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="fifo"),
            CacheConfig(size_words=8, line_words=1, associativity=8,
                        policy="random", seed=7),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="lru", kill_mode="demote"),
            MinConfig(size_words=16, line_words=1, associativity=2),
        ]
        swept = replay_trace_sweep(trace, specs, engine="vectorized")
        for spec, got in zip(specs, swept):
            if isinstance(spec, MinConfig):
                continue  # covered by the multi-replay battery
            want = replay_trace(trace, spec)
            assert got.as_dict() == want.as_dict()

    def test_forced_vectorized_without_numpy(self, monkeypatch):
        """With NumPy gone the forced vectorized pass delegates to the
        scalar profiler, bit-identically."""
        import repro.cache.vectorized as vectorized

        monkeypatch.setattr(vectorized, "_np", None)
        kernels = []
        original = vectorized.vector_profile_pass

        def recording(*args, **kwargs):
            info = {}
            profile = original(*args, info=info, **kwargs)
            kernels.append(info["kernel"])
            return profile

        monkeypatch.setattr(vectorized, "vector_profile_pass", recording)
        trace = make_trace([(a, f) for a in (0, 3, 1, 0, 3)
                            for f in (0, FLAG_WRITE, FLAG_KILL)])
        configs = [
            CacheConfig(size_words=16, line_words=1, associativity=a,
                        policy="lru")
            for a in (1, 2, 4)
        ]
        _assert_identical(trace, configs, "vectorized")
        assert kernels and set(kernels) == {"stackdist"}

    def test_empty_trace(self):
        _assert_identical(TraceBuffer(), BATTERY, "vectorized")

