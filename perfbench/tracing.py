"""Spans around the program's public functions, for the traced run only.

`Tracer.install()` replaces each listed function, in every frustoval module
that holds a reference to it, with a wrapper that records a span; `remove()`
puts the originals back. Spans stay in memory until the run writes them out.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Functions called once per file, list or row. Per-number helpers such as
# dataset.fnum are left unwrapped: a span per float would swamp what it measures.
WRAPPED = {
    "dataset": ("read_poses", "write_poses", "read_pairs", "write_pairs", "read_predictions",
                "write_predictions", "parse_cambridge", "parse_sevenscenes", "write_histogram",
                "write_subspace_table", "write_report", "write_curve"),
    "pairgen": ("generate_pairs", "bin_histogram", "subspace_stats"),
    "metrics": ("evaluate", "match_predictions", "naive_predictor", "error_curve"),
    "synth": ("generate_trajectory", "synth_predict"),
    "geometry": ("quat_rows", "translation_rows"),
    "frustum": ("camera_grid", "camera_planes", "camera_corners"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, stage id]
        self._stack = []
        self.stage_id = ""
        self._patched = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.stage_id])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("frustoval") and m is not None]
        for short, names in WRAPPED.items():
            home = sys.modules[f"frustoval.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def remove(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def totals(spans, offset=0):
    """Summed duration and summed self time (duration minus the part its
    direct children cover) per span name. `spans` is Tracer.spans[offset:]."""
    dur, self_time = {}, {}
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= offset:
            child[s[3] - offset] += s[2] - s[1]
    for k, s in enumerate(spans):
        d = s[2] - s[1]
        dur[s[0]] = dur.get(s[0], 0.0) + d
        self_time[s[0]] = self_time.get(s[0], 0.0) + d - child[k]
    return dur, self_time
