"""Outside-in layer probes for the ``repro`` package.

The benchmark measures each layer by wrapping that layer's public entry
points from here, without editing ``src/``.  A probe names a function
(``module:name``) or a method (``module:Class.name``).  Installing it
replaces the function in its defining module *and* in every loaded
``repro`` module that bound it with ``from x import y``, so the callers'
own names reach the wrapper.  :meth:`Probes.restore` puts every original
back, including bindings made by modules imported after installation.

Spans are kept in memory as ``[name, layer, start, end, parent]`` rows
(``parent`` is the index of the enclosing span or ``-1``) and written
out once when the traced process ends; :func:`summarize` turns them into
the per-layer metrics.
"""

import functools
import importlib
import statistics
import sys
import time

#: Layers reported with a self-time share of the traced wall.
SHARE_LAYERS = ("compile", "vm", "trace", "cache", "staticcheck",
                "artifacts", "robustness")


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.samples = {}
        self._open = []
        #: MiniC source -> expected output, filled on the first compile.
        self.benchmark_outputs = None
        #: id(module) -> (module, expected output) for compiled programs
        #: whose source is a registered benchmark.
        self.program_outputs = {}

    def begin(self, name, layer):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def add_span(self, name, layer, start, end):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, start, end, parent])

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def dump(self):
        return {"spans": self.spans, "counters": self.counters,
                "samples": self.samples}


class Probe:
    """One wrapped entry point.

    ``span`` is the metric stem of the span the call records, or a
    callable of the call's arguments returning it.  ``before(args,
    kwargs)`` may return state handed to ``after(recorder, args,
    kwargs, result, state)``; ``after`` records counters.
    ``only_in`` limits the rebinding to the defining module, for stage
    functions that count only when ``compile_source`` calls them.
    """

    def __init__(self, target, span, layer, before=None, after=None,
                 only_in=False):
        self.target = target
        self.span = span
        self.layer = layer
        self.before = before
        self.after = after
        self.only_in = only_in


def _wrap(recorder, probe, function):
    span, layer = probe.span, probe.layer
    before, after = probe.before, probe.after

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        index = recorder.begin(span(args) if callable(span) else span, layer)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, args, kwargs, result, state)
        return result

    return wrapper


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _rebind(modules, old, new):
    """Point every module-level name bound to ``old`` at ``new``."""
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is old:
                namespace[name] = new


class Probes:
    """Installed probes; :meth:`restore` undoes every patch."""

    def __init__(self):
        self._functions = []
        self._attributes = []

    def restore(self):
        for original, wrapper in self._functions:
            _rebind(_repro_modules(), wrapper, original)
        for owner, name, original in self._attributes:
            setattr(owner, name, original)
        self._functions = []
        self._attributes = []


def install(recorder, probes):
    """Patch every probe's target; return the :class:`Probes` handle."""
    resolved = []
    for probe in probes:
        module_name, qualname = probe.target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(module, class_name)
            resolved.append((probe, module, owner, attribute))
        else:
            resolved.append((probe, module, None, qualname))
    handle = Probes()
    modules = _repro_modules()
    for probe, module, owner, attribute in resolved:
        if owner is not None:
            raw = vars(owner)[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(_wrap(recorder, probe, raw.__func__))
            else:
                patched = _wrap(recorder, probe, raw)
            handle._attributes.append((owner, attribute, raw))
            setattr(owner, attribute, patched)
            continue
        original = getattr(module, attribute)
        wrapper = _wrap(recorder, probe, original)
        handle._functions.append((original, wrapper))
        _rebind([module] if probe.only_in else modules, original, wrapper)
    return handle


# ----------------------------------------------------------------------
# Counters recorded at the layer boundaries
# ----------------------------------------------------------------------


def _benchmark_outputs():
    """MiniC source -> expected output for every registered program."""
    from repro.programs import (
        BENCHMARK_NAMES,
        EXTRA_BENCHMARK_NAMES,
        get_benchmark,
    )

    outputs = {}
    for name in BENCHMARK_NAMES + EXTRA_BENCHMARK_NAMES:
        bench = get_benchmark(name)
        outputs[bench.source] = tuple(bench.expected_output)
    return outputs


def _after_compile(recorder, args, kwargs, result, state):
    recorder.count("compile.calls")
    if recorder.benchmark_outputs is None:
        recorder.benchmark_outputs = _benchmark_outputs()
    source = args[0] if args else kwargs.get("source")
    expected = recorder.benchmark_outputs.get(source)
    if expected is not None:
        # The entry holds the module, so its id cannot be reused.
        recorder.program_outputs[id(result.module)] = (result.module,
                                                       expected)


def _vm_span(args):
    return "vm.sink_run" if args[0].instruction_sink is not None else "vm.run"


def _before_vm(args, kwargs):
    vm = args[0]
    buffer = getattr(vm.memory, "buffer", None)
    return vm.steps, (len(buffer) if buffer is not None else 0)


def _after_vm(recorder, args, kwargs, result, state):
    vm = args[0]
    steps_before, refs_before = state
    recorder.count("vm.steps", result.steps - steps_before)
    buffer = getattr(vm.memory, "buffer", None)
    if buffer is not None:
        recorder.count("vm.refs", len(buffer) - refs_before)
    entry = recorder.program_outputs.get(id(vm.module))
    if entry is not None:
        recorder.count("check.program_outputs")
        if tuple(result.output) != entry[1]:
            recorder.count("check.output_mismatches")


def _counting(counter):
    def after(recorder, args, kwargs, result, state):
        recorder.count(counter)
    return after


def _counting_len(counter, position, keyword):
    def after(recorder, args, kwargs, result, state):
        value = args[position] if len(args) > position else kwargs[keyword]
        if hasattr(value, "__len__"):
            recorder.count(counter, len(value))
    return after


def _before_vector(args, kwargs):
    # The kernel fills an ``info`` dict when given one; supplying it
    # changes no result and exposes the fallback counts.
    if len(args) > 6:
        return args[6] if args[6] is not None else {}
    if kwargs.get("info") is None:
        kwargs["info"] = {}
    return kwargs["info"]


def _after_vector(recorder, args, kwargs, result, state):
    recorder.count("cache.vectorized_events", len(args[0][0]))
    recorder.count("cache.vectorized_fallback_events",
                   int(state.get("fallback_events", 0)))
    recorder.count("cache.kernel." + str(state.get("kernel", "unknown")))


def _before_resolve(args, kwargs):
    return args[0].hits, args[0].misses


def _after_resolve(recorder, args, kwargs, result, state):
    store = args[0]
    recorder.count("artifacts.hits", store.hits - state[0])
    recorder.count("artifacts.misses", store.misses - state[1])


def _after_supervisor(recorder, args, kwargs, result, state):
    event = args[1] if len(args) > 1 else kwargs.get("event")
    if event == "retry":
        recorder.count("parallel.retries")
    elif event == "quarantine":
        recorder.count("parallel.quarantined")


def _before_check(args, kwargs):
    return time.perf_counter()


def _after_check(recorder, args, kwargs, result, state):
    recorder.sample("robustness.check", time.perf_counter() - state)


_PIPE = "repro.unified.pipeline:"

#: Every probe, grouped by layer.  Stage functions are rebound only in
#: the pipeline module, so they count only as ``compile_source`` stages.
PROBES = (
    Probe(_PIPE + "compile_source", "compile", "compile",
          after=_after_compile),
    Probe(_PIPE + "parse_program", "lang.frontend", "compile", only_in=True),
    Probe(_PIPE + "analyze", "lang.frontend", "compile", only_in=True),
    Probe(_PIPE + "build_module", "ir.lower", "compile", only_in=True),
    Probe(_PIPE + "build_cfg", "ir.lower", "compile", only_in=True),
    Probe(_PIPE + "verify_module", "ir.lower", "compile", only_in=True),
    Probe(_PIPE + "analyze_aliases", "analysis.alias", "compile",
          only_in=True),
    Probe(_PIPE + "allocate_module", "regalloc.alloc", "compile",
          only_in=True),
    Probe(_PIPE + "classify_references", "unified.annotate", "compile",
          only_in=True),
    Probe(_PIPE + "annotate_unified", "unified.annotate", "compile",
          only_in=True),
    Probe(_PIPE + "annotate_conventional", "unified.annotate", "compile",
          only_in=True),
    Probe(_PIPE + "verify_annotations", "unified.annotate", "compile",
          only_in=True),
    Probe("repro.vm.machine:Machine.run", _vm_span, "vm",
          before=_before_vm, after=_after_vm),
    Probe("repro.vm.reference:ReferenceMachine.run", _vm_span, "vm",
          before=_before_vm, after=_after_vm),
    Probe("repro.vm.trace:TraceBuffer.summary", "trace.summary", "trace",
          after=_counting("trace.summary_calls")),
    Probe("repro.vm.trace:TraceBuffer.from_bytes", "trace.decode", "trace",
          after=_counting_len("trace.bytes", 1, "data")),
    Probe("repro.cache.replay:replay_trace", "cache.replay_trace", "cache",
          after=_counting_len("cache.replay_trace_events", 0, "trace")),
    Probe("repro.evalharness.unifiedcache:replay_combined",
          "cache.replay_combined", "cache",
          after=_counting_len("cache.replay_combined_events", 0, "trace")),
    Probe("repro.cache.stackdist:replay_trace_sweep", "cache.sweep", "cache",
          after=_counting_len("cache.sweep_specs", 1, "specs")),
    Probe("repro.cache.vectorized:vector_profile_pass", "cache.vectorized",
          "cache", before=_before_vector, after=_after_vector),
    Probe("repro.cache.stackdist:profile_pass", "cache.stackdist", "cache"),
    Probe("repro.cache.semantics:fifo_sweep", "cache.lanes", "cache"),
    Probe("repro.cache.semantics:random_sweep", "cache.lanes", "cache"),
    Probe("repro.cache.semantics:min_sweep", "cache.lanes", "cache"),
    Probe("repro.cache.replay:replay_trace_multi", "cache.multi", "cache"),
    Probe("repro.cache.hierarchy:hierarchy_stats", "cache.hierarchy",
          "cache"),
    Probe("repro.staticcheck.mustmay:analyze_module", "staticcheck",
          "staticcheck"),
    Probe("repro.staticcheck.linter:lint_module", "staticcheck",
          "staticcheck"),
    Probe("repro.staticcheck.crossval:cross_validate", "staticcheck",
          "staticcheck"),
    Probe("repro.staticcheck.predictor:predict_program", "staticcheck",
          "staticcheck"),
    Probe("repro.evalharness.artifacts:ArtifactCache.resolve",
          "artifacts.resolve", "artifacts",
          before=_before_resolve, after=_after_resolve),
    Probe("repro.evalharness.artifacts:ArtifactCache._load",
          "artifacts.load", "artifacts"),
    Probe("repro.evalharness.artifacts:ArtifactCache._store",
          "artifacts.store", "artifacts"),
    Probe("repro.evalharness.parallel:Supervisor.record",
          "parallel.record", "parallel", after=_after_supervisor),
    Probe("repro.robustness.differential:check_source", "robustness.check",
          "robustness", before=_before_check, after=_after_check),
)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

#: Span stems reported as total seconds (``<stem>_s`` / ``<stem>.s``).
TIMED_SPANS = (
    "compile", "lang.frontend", "ir.lower", "analysis.alias",
    "regalloc.alloc", "unified.annotate", "vm.run", "vm.sink_run",
    "trace.summary", "trace.decode", "cache.replay_trace",
    "cache.replay_combined", "cache.sweep", "cache.vectorized",
    "cache.stackdist", "cache.lanes", "cache.multi", "cache.hierarchy",
    "staticcheck", "artifacts.load", "artifacts.store", "cli.import",
)

#: Per-event replay spans; their self time is ``cache.replay_self_share``.
REPLAY_SPANS = ("cache.replay_trace", "cache.replay_combined")

#: Counters reported as they are.
COUNTERS = (
    "compile.calls", "vm.steps", "vm.refs", "trace.summary_calls",
    "trace.bytes", "cache.replay_trace_events",
    "cache.replay_combined_events", "cache.sweep_specs",
    "artifacts.hits", "artifacts.misses", "parallel.retries",
    "parallel.quarantined", "staticcheck.calls",
)


def span_metric(stem):
    return stem + ("_s" if "." in stem else ".s")


def upper_percentile(values, beyond=10):
    """The highest order statistic with at least ``beyond`` samples
    above it, or ``None`` unless there are ``2 * beyond`` samples or
    more (with fewer, that statistic lies below the median)."""
    if len(values) < 2 * beyond:
        return None
    return sorted(values)[len(values) - beyond - 1]


def check_latency(checks):
    """Median and upper percentile of per-program ``check_source``
    latencies; the upper value is the slowest check when too few ran
    for :func:`upper_percentile`."""
    if not checks:
        return 0.0, 0.0
    upper = upper_percentile(checks)
    return (statistics.median(checks),
            max(checks) if upper is None else upper)


def summarize(dump, traced_wall):
    """Per-layer metrics of one traced process, and the replay engines
    that ran in it.

    A name's time counts each call once: a span nested inside a span of
    the same name (recursion, a probe calling a probe of the same
    stage) adds nothing.  A layer's self time is its spans' durations
    minus the time its direct child spans cover, so nested spans of
    the same layer add up to that layer's wall.  Check latencies are
    left to :func:`check_latency`, which pools them over samples.
    """
    spans = dump["spans"]
    counters = dict(dump["counters"])
    totals = {}
    self_time = {}
    children = [0.0] * len(spans)
    top_level = 0.0
    for name, layer, start, end, parent in spans:
        duration = end - start
        if parent < 0:
            top_level += duration
        else:
            children[parent] += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            totals[name] = totals.get(name, 0.0) + duration
            if name == "staticcheck":
                counters["staticcheck.calls"] = (
                    counters.get("staticcheck.calls", 0) + 1)
    replay_self = 0.0
    for index, (name, layer, start, end, parent) in enumerate(spans):
        exclusive = (end - start) - children[index]
        self_time[layer] = self_time.get(layer, 0.0) + exclusive
        if name in REPLAY_SPANS:
            replay_self += exclusive

    metrics = {}
    for stem in TIMED_SPANS:
        metrics[span_metric(stem)] = totals.get(stem, 0.0)
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    vm_seconds = metrics["vm.run_s"] + metrics["vm.sink_run_s"]
    metrics["vm.steps_per_s"] = (
        metrics["vm.steps"] / vm_seconds if vm_seconds else 0.0)
    events = counters.get("cache.vectorized_events", 0)
    metrics["cache.vectorized_fallback_share"] = (
        counters.get("cache.vectorized_fallback_events", 0) / events
        if events else 0.0)
    metrics["robustness.checks"] = len(
        dump["samples"].get("robustness.check", []))
    for layer in SHARE_LAYERS:
        metrics[layer + ".self_share"] = (
            self_time.get(layer, 0.0) / traced_wall)
    metrics["cache.replay_self_share"] = replay_self / traced_wall
    metrics["unaccounted_share"] = 1.0 - top_level / traced_wall
    metrics["check.program_outputs"] = counters.get(
        "check.program_outputs", 0)
    metrics["check.output_mismatches"] = counters.get(
        "check.output_mismatches", 0)
    # Which replay engines ran, and which vectorized kernel they chose.
    engines = {name for name, layer, *_rest in spans if layer == "cache"}
    engines.update("kernel=" + name[len("cache.kernel."):]
                   for name in counters if name.startswith("cache.kernel."))
    return metrics, sorted(engines)
