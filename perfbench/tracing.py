"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the package, on the module-level name
each caller actually looks up (for example ``hyporom.rom.driver.thin_svd``,
not ``hyporom.pod.thin_svd``), and removed again when the traced pass ends.
Spans are kept in memory as ``[name, start, end, parent, pass_id, arg]``
and written out when the run ends.  ``arg`` is the computed byte size of
the first argument for SVD and contraction spans, the mode cap for the
benchmark's build and replay stage spans, and 0 otherwise.
"""

import contextlib
import csv
import gzip
import time

import hyporom.fom.driver as fom_driver
import hyporom.rom.burgers as rom_burgers
import hyporom.rom.context as rom_context
import hyporom.rom.driver as rom_driver
import hyporom.rom.swe_hll as rom_swe_hll
import hyporom.rom.swe_lf as rom_swe_lf
import hyporom.snapshots as snapshots

NAME, START, END, PARENT, PASS, ARG = range(6)
_MISSING = object()


def _first_nbytes(args):
    return args[0].nbytes


# (owner, attribute, span name, nbytes_of); the owner is the module or
# class whose namespace the calling code reads the name from.
_TARGETS = [
    (fom_driver, "cfl_dt", "fom.cfl", None),
    (snapshots.SnapshotRecorder, "record", "snapshots.record", None),
    (snapshots.SnapshotRecorder, "finalize", "snapshots.record", None),
    (rom_driver, "thin_svd", "pod.svd", _first_nbytes),
    (rom_driver, "window_transfer", "pod.transfer", None),
    (rom_driver, "deim_offline", "deim.select", None),
    (rom_driver, "time_average", "rom.average", None),
    (rom_driver, "build_swe_context", "rom.context", None),
    (rom_driver, "assemble_burgers_rom", "rom.assemble", None),
    (rom_driver, "assemble_swe_lf_rom", "rom.assemble", None),
    (rom_driver, "assemble_swe_hll_rom", "rom.assemble", None),
    (rom_driver, "rom_burgers_step", "online.step", None),
    (rom_driver, "rom_swe_lf_step", "online.step", None),
    (rom_driver, "rom_swe_hll_step", "online.step", None),
    (rom_burgers, "contract_quadratic", "online.contract", _first_nbytes),
    (rom_swe_lf, "contract_quadratic", "online.contract", _first_nbytes),
    (rom_swe_hll, "contract_quadratic", "online.contract", _first_nbytes),
    (rom_swe_lf, "refresh_u", "online.refresh", None),
    (rom_swe_lf, "refresh_f", "online.refresh", None),
    (rom_swe_hll, "refresh_u", "online.refresh", None),
    (rom_swe_hll, "refresh_alphas", "online.refresh", None),
    (rom_context, "deim_online_values", "deim.online", None),
]


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = -1

    def wrap(self, name, fn, nbytes_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id,
                    nbytes_of(args) if nbytes_of else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name, arg=0):
        """Span around a block of the benchmark's own code (stage spans)."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.pass_id, arg]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, model):
        """Wrap every traced layer entry point, plus the model's own
        ``step`` and ``fields``, for the duration of the block."""
        targets = _TARGETS + [(model, "step", "fom.step", None),
                              (model, "fields", "snapshots.fields", None)]
        saved = []
        try:
            for owner, attr, name, nbytes_of in targets:
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr,
                        self.wrap(name, getattr(owner, attr), nbytes_of))
            yield
        finally:
            for owner, attr, old in reversed(saved):
                if old is _MISSING:
                    delattr(owner, attr)      # instance attribute shadowing a method
                else:
                    setattr(owner, attr, old)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path):
        own = self.self_times()
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "pass",
                          "arg", "self"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], repr(s[START]), repr(s[END]),
                              s[PARENT], s[PASS], s[ARG], repr(own[i])])
