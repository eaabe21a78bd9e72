"""Span recorder for the traced benchmark run.

The recorder wraps library functions at every module attribute that holds
them (``covertppm.polar.sc_decode`` and ``covertppm.codec.sc_decode``, ...),
records one span per call (name, start, end, parent span) in memory, and puts
the originals back when the ``installed`` block ends.  No file of the library
changes.  Per-layer metrics are computed from the spans afterwards:

    F.calls    number of calls
    F.total_s  time busy
    F.self_s   busy time minus the time covered by traced child spans

plus three work counts read from the call arguments.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

#: traced functions as "<module>.<function>", named by the covertppm module
#: that defines them
TRACED: tuple[str, ...] = (
    "codec.build_session", "codec.encode_block", "codec.transmit_block",
    "codec.decode_block", "codec.run_chain",
    "codec.level_llr_sampler",  # the closure make_level_llr_sampler returns
    "polar.construct_code", "polar.sc_decode", "polar.polar_transform",
    "levels.msd_rate_plan", "levels.level_llrs", "levels.select_positions_batch",
    "ppm.transmit_super", "ppm.frame_from_bits", "ppm.ppm_output_divergence",
    "extractor.make_field", "extractor.is_irreducible", "extractor.inv",
    "extractor.bits_to_int", "extractor.int_to_bits",
    "adversary.covertness_estimate", "adversary.detect_linear_code",
    "adversary.distinct_column_set",
)
SAMPLER = "codec.level_llr_sampler"


def _llrs_drawn(args, kwargs):
    return args[0] if args else kwargs["count"]


def _bits_decoded(args, kwargs):
    return len(args[0] if args else kwargs["channel_llrs"])


def _symbols_sampled(args, kwargs):
    frame = args[1] if len(args) > 1 else kwargs["frame"]
    return frame.ell * frame.m


# work count name -> (traced function, how to read the count from its call)
WORK_COUNTS = {
    "codec.level_llr_sampler.llrs": ("codec.level_llr_sampler", _llrs_drawn),
    "polar.sc_decode.bits": ("polar.sc_decode", _bits_decoded),
    "ppm.transmit_super.symbols": ("ppm.transmit_super", _symbols_sampled),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = [f"{fn}.{part}" for fn in TRACED
             for part in ("calls", "total_s", "self_s")]
    return names + list(WORK_COUNTS)


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


@contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each triple; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


class SpanRecorder:
    """In-memory spans of the traced library calls of one process."""

    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self._stack: list[int] = []
        self._counters = {fn: (key, read) for key, (fn, read) in WORK_COUNTS.items()}

    def wrap(self, name: str, fn):
        counter = self._counters.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function wherever a covertppm module holds it.

        Every attribute of a loaded ``covertppm`` module that is one of the
        traced functions is replaced, so that callers which imported it by
        name (``covertppm.codec.sc_decode``) see the wrapper too.
        """
        wrappers = {}  # id of the original -> its wrapper
        for name in TRACED:
            if name == SAMPLER:
                continue
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"covertppm.{module}"), attr)
            wrappers[id(fn)] = self.wrap(name, fn)
        make_sampler = importlib.import_module("covertppm.codec").make_level_llr_sampler

        def make_traced_sampler(*args, **kwargs):
            return self.wrap(SAMPLER, make_sampler(*args, **kwargs))

        wrappers[id(make_sampler)] = make_traced_sampler
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "covertppm" or name.startswith("covertppm.")]
        replacements = [(mod, attr, wrappers[id(value)])
                        for mod in modules for attr, value in vars(mod).items()
                        if id(value) in wrappers]
        with patched(replacements):
            yield self

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = dict.fromkeys(per_layer_names(), 0)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[idx]
        out.update(self.counts)
        return out
