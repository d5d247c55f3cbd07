"""Trace encoding and memory-system wrapper tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.instructions import RefClass, RefInfo, RefOrigin, RegionKind
from repro.vm.trace import (
    FLAG_AMBIGUOUS,
    FLAG_BYPASS,
    FLAG_INSTRUCTION,
    FLAG_KILL,
    FLAG_WRITE,
    ORIGIN_SHIFT,
    TraceBuffer,
    TraceEvent,
    encode_flags,
    origin_from_flags,
)
from repro.vm.memory import FlatMemory, RecordingMemory, StreamingMemory


def make_ref(bypass=False, kill=False, ambiguous=False,
             origin=RefOrigin.USER):
    ref = RefInfo("t", RegionKind.DIRECT, origin=origin)
    ref.ref_class = RefClass.AMBIGUOUS if ambiguous else RefClass.UNAMBIGUOUS
    ref.bypass = bypass
    ref.kill = kill
    return ref


class TestFlagEncoding:
    def test_roundtrip_all_flags(self):
        for bypass in (False, True):
            for kill in (False, True):
                for ambiguous in (False, True):
                    for origin in RefOrigin:
                        for is_write in (False, True):
                            ref = make_ref(bypass, kill, ambiguous, origin)
                            flags = encode_flags(ref, is_write)
                            event = TraceEvent.from_packed(99, flags)
                            assert event.is_write == is_write
                            assert event.bypass == bypass
                            assert event.kill == kill
                            assert event.ambiguous == ambiguous
                            assert event.origin == origin

    def test_flag_bits_disjoint(self):
        bits = [FLAG_WRITE, FLAG_BYPASS, FLAG_KILL, FLAG_AMBIGUOUS]
        for index, bit in enumerate(bits):
            for other in bits[index + 1:]:
                assert bit & other == 0

    def test_origin_from_flags(self):
        ref = make_ref(origin=RefOrigin.SPILL)
        assert origin_from_flags(encode_flags(ref, False)) is RefOrigin.SPILL


class TestTraceBuffer:
    def test_append_and_len(self):
        buffer = TraceBuffer()
        buffer.append(5, 0)
        buffer.append(6, FLAG_WRITE)
        assert len(buffer) == 2
        assert list(buffer) == [(5, 0), (6, FLAG_WRITE)]

    def test_events_view(self):
        buffer = TraceBuffer()
        buffer.append(7, FLAG_WRITE | FLAG_BYPASS)
        event = buffer.events()[0]
        assert event.address == 7
        assert event.is_write and event.bypass

    def test_events_cached_and_invalidated_on_append(self):
        buffer = TraceBuffer()
        buffer.append(7, FLAG_WRITE)
        first = buffer.events()
        assert buffer.events() is first
        buffer.append(8, 0)
        second = buffer.events()
        assert second is not first
        assert [event.address for event in second] == [7, 8]

    def test_to_columns_cached_and_invalidated_on_append(self):
        buffer = TraceBuffer()
        buffer.append(3, FLAG_KILL)
        buffer.append(4, FLAG_WRITE)
        addresses, flags = buffer.to_columns()
        assert list(addresses) == [3, 4]
        assert list(flags) == [FLAG_KILL, FLAG_WRITE]
        assert buffer.to_columns() is buffer.to_columns()
        again = buffer.to_columns()
        assert again == buffer.to_columns()
        buffer.append(5, 0)
        addresses, flags = buffer.to_columns()
        assert list(addresses) == [3, 4, 5]
        assert list(flags) == [FLAG_KILL, FLAG_WRITE, 0]

    def test_set_partition_refreshed_after_append(self):
        pytest.importorskip("numpy")
        buffer = TraceBuffer()
        for address in (0, 1, 2):
            buffer.append(address, 0)
        assert buffer.set_partition(2).tolist() == [0, 2, 1]
        assert buffer.set_partition(2) is buffer.set_partition(2)
        buffer.append(4, 0)
        assert buffer.set_partition(2).tolist() == [0, 2, 3, 1]

    def test_summary_counts(self):
        buffer = TraceBuffer()
        buffer.append(1, 0)
        buffer.append(2, FLAG_WRITE)
        buffer.append(3, FLAG_BYPASS | FLAG_AMBIGUOUS)
        buffer.append(4, FLAG_KILL)
        summary = buffer.summary()
        assert summary["total"] == 4
        assert summary["reads"] == 3
        assert summary["writes"] == 1
        assert summary["bypassed"] == 1
        assert summary["killed"] == 1
        assert summary["ambiguous"] == 1
        assert summary["unambiguous"] == 3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.builds(
            lambda low, origin, instruction: (
                low | origin << ORIGIN_SHIFT
                | (FLAG_INSTRUCTION if instruction else 0)
            ),
            st.integers(0, 15), st.integers(0, 3), st.booleans(),
        ),
        max_size=300,
    ))
    def test_summary_matches_per_event_count(self, flag_bytes):
        buffer = TraceBuffer()
        for address, flags in enumerate(flag_bytes):
            buffer.append(address, flags)
        expected = {
            "total": 0, "reads": 0, "writes": 0, "bypassed": 0,
            "killed": 0, "ambiguous": 0, "unambiguous": 0,
            "instructions": 0,
            "by_origin": {origin.value: 0 for origin in RefOrigin},
        }
        for flags in flag_bytes:
            if flags & FLAG_INSTRUCTION:
                expected["instructions"] += 1
                continue
            event = TraceEvent.from_packed(0, flags)
            expected["total"] += 1
            expected["writes" if event.is_write else "reads"] += 1
            expected["bypassed"] += event.bypass
            expected["killed"] += event.kill
            expected[
                "ambiguous" if event.ambiguous else "unambiguous"
            ] += 1
            expected["by_origin"][event.origin.value] += 1
        assert buffer.summary() == expected


class TestMemorySystems:
    def test_flat_memory_read_default_zero(self):
        memory = FlatMemory()
        assert memory.read(1234, make_ref()) == 0

    def test_flat_memory_write_read(self):
        memory = FlatMemory()
        memory.write(10, 99, make_ref())
        assert memory.read(10, make_ref()) == 99

    def test_recording_memory_captures_everything(self):
        memory = RecordingMemory()
        memory.write(10, 1, make_ref())
        memory.read(10, make_ref(bypass=True))
        assert len(memory.buffer) == 2
        events = list(memory.buffer.events())
        assert events[0].is_write
        assert events[1].bypass

    def test_recording_memory_is_functional(self):
        memory = RecordingMemory()
        memory.write(10, 7, make_ref())
        assert memory.read(10, make_ref()) == 7

    def test_streaming_memory_feeds_cache(self):
        from repro.cache.cache import Cache

        cache = Cache(size_words=4, associativity=4)
        memory = StreamingMemory(cache)
        memory.write(3, 1, make_ref())
        memory.read(3, make_ref())
        assert cache.stats.refs_total == 2
        assert cache.stats.hits == 1

    def test_poke_is_not_traced(self):
        memory = RecordingMemory()
        memory.poke(5, 55)
        assert len(memory.buffer) == 0
        assert memory.peek(5) == 55
