"""Run one ``repro`` command-line entry point with the layer probes on.

    python3 perfbench/child.py SPANS_OUT MODULE:FUNCTION [ARG ...]

imports ``MODULE`` (recorded as the ``cli.import`` span), installs
:data:`tracer.PROBES`, calls ``FUNCTION([ARG ...])`` exactly as the
console script would, restores the originals and writes the spans and
counters to ``SPANS_OUT`` as JSON.  The exit status is the entry
point's.
"""

import importlib
import json
import sys
import time

import tracer


def main(argv):
    spans_out, entry, arguments = argv[0], argv[1], argv[2:]
    module_name, function_name = entry.split(":")
    recorder = tracer.Recorder()
    start = time.perf_counter()
    module = importlib.import_module(module_name)
    recorder.add_span("cli.import", "cli", start, time.perf_counter())
    probes = tracer.install(recorder, tracer.PROBES)
    try:
        status = getattr(module, function_name)(arguments)
    finally:
        probes.restore()
        with open(spans_out, "w") as handle:
            json.dump(recorder.dump(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
