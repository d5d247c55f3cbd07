"""Execution budgets: runaway programs terminate with clean errors.

An unbounded loop, unbounded recursion, or a runaway reference stream
must surface as :class:`ResourceExhausted` — catchable both as the new
:class:`repro.errors.ReproError` and as the legacy ``VMError`` — never
as a hang or a host OOM.
"""

import pytest

import repro.errors
from repro.lang.errors import ResourceExhausted, VMError
from repro.unified.pipeline import compile_source
from repro.vm import machine as machine_mod
from repro.vm.machine import set_default_max_steps
from repro.vm.memory import RecordingMemory
from repro.vm.trace import TraceBuffer

INFINITE_LOOP = """
int main() {
    int x;
    x = 0;
    while (1) { x = x + 1; }
    return x;
}
"""

INFINITE_RECURSION = """
int f(int n) { return f(n + 1); }
int main() { return f(0); }
"""


class TestFuel:
    def test_infinite_loop_raises_resource_exhausted(self):
        program = compile_source(INFINITE_LOOP)
        with pytest.raises(ResourceExhausted, match="exceeded"):
            program.run(max_steps=50_000)

    def test_resource_exhausted_is_both_roots(self):
        program = compile_source(INFINITE_LOOP)
        with pytest.raises(VMError):
            program.run(max_steps=50_000)
        with pytest.raises(repro.errors.ReproError) as excinfo:
            program.run(max_steps=50_000)
        assert isinstance(excinfo.value, repro.errors.ResourceExhausted)
        assert excinfo.value.stage == "limits"

    def test_budget_is_not_charged_to_healthy_programs(self):
        program = compile_source(
            "int main() { int i; int s; s = 0;"
            " for (i = 0; i < 10; i = i + 1) { s = s + i; }"
            " return s; }"
        )
        assert program.run(max_steps=10_000).return_value == 45

    def test_default_budget_is_tunable(self):
        program = compile_source(INFINITE_LOOP)
        original = machine_mod.DEFAULT_MAX_STEPS
        try:
            set_default_max_steps(20_000)
            with pytest.raises(ResourceExhausted):
                program.run()
        finally:
            set_default_max_steps(original)

    def test_set_default_none_keeps_current(self):
        original = machine_mod.DEFAULT_MAX_STEPS
        assert set_default_max_steps(None) == original


class TestRecursion:
    def test_infinite_recursion_raises_resource_exhausted(self):
        program = compile_source(INFINITE_RECURSION)
        with pytest.raises(ResourceExhausted, match="recursion"):
            program.run()

    def test_bounded_recursion_still_works(self):
        program = compile_source(
            "int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }"
            "int main() { return f(10); }"
        )
        assert program.run().return_value == 3628800


class TestTraceBuffer:
    def test_trace_cap_raises_resource_exhausted(self):
        buffer = TraceBuffer(max_events=4)
        for index in range(4):
            buffer.append(index, 0)
        with pytest.raises(ResourceExhausted, match="trace buffer"):
            buffer.append(99, 0)

    def test_uncapped_buffer_keeps_appending(self):
        buffer = TraceBuffer(max_events=None)
        for index in range(10_000):
            buffer.append(index, 0)
        assert len(buffer) == 10_000

    def test_recording_memory_threads_cap(self):
        from repro.unified.pipeline import CompilationOptions

        program = compile_source(
            "int g; int main() { int i;"
            " for (i = 0; i < 100; i = i + 1) { g = i; }"
            " return g; }",
            CompilationOptions(promotion="none"),
        )
        memory = RecordingMemory(max_events=8)
        with pytest.raises(ResourceExhausted):
            program.run(memory=memory)

    def test_fused_vm_raises_exactly_at_the_ninth_event(self):
        from repro.unified.pipeline import CompilationOptions

        program = compile_source(
            "int g; int main() { int i;"
            " for (i = 0; i < 100; i = i + 1) { g = i; }"
            " return g; }",
            CompilationOptions(promotion="none"),
        )
        full = RecordingMemory()
        program.run(memory=full)
        assert len(full.buffer) > 9
        memory = RecordingMemory(max_events=8)
        vm = program.machine(memory=memory)
        assert vm._fast_handlers is not None  # the fused table runs
        with pytest.raises(ResourceExhausted, match="trace buffer"):
            vm.run()
        assert list(memory.buffer) == list(full.buffer)[:8]
        # A cap the whole trace fits under never fires.
        exact = RecordingMemory(max_events=len(full.buffer))
        program.run(memory=exact)
        assert list(exact.buffer) == list(full.buffer)


class TestRunKwargs:
    def test_max_steps_flows_through_run(self):
        program = compile_source(INFINITE_LOOP)
        with pytest.raises(ResourceExhausted):
            program.run(max_steps=12_345)
        # None falls back to the (large) module default: budget large
        # enough that a small healthy program never trips it.
        small = compile_source("int main() { return 7; }")
        assert small.run(max_steps=None).return_value == 7
