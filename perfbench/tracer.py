"""Spans around polarmhw's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the traced modules at
each name a caller looks it up by: the defining module and every polarmhw
module that imported it (so `cli.enumerate_zero_split`, `mhw.encode` and
`channel.scl_decode_batch` are all wrapped).  Each call appends one span
(name, start, end, parent, note) to an in-memory list; `uninstall()` puts
the originals back.  `layer_metrics` turns the spans into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("construction", "bound", "bitops", "sctree", "listdec", "mhw", "channel", "cli")

# Per-node arithmetic of the scalar SC engines: called millions of times per
# command, so a span on each would time the tracer rather than the layer.
SKIP = {"sctree.f_combine", "sctree.g_combine", "sctree.beta_combine", "sctree.hard_decision"}


def _diag_call(args, kwargs):
    return bool(kwargs.get("with_diagnostics", args[4] if len(args) > 4 else False))


# Counters read from a call's arguments or return value.
NOTES = {
    "listdec.scl_decode_batch": lambda a, k, r: len(a[0]),
    "mhw.zero_split_subset": lambda a, k, r: [len(r[0]), r[2]],
    "mhw.enumerate_zero_split": lambda a, k, r: r.count,
    "mhw.write_enumeration": lambda a, k, r: os.path.getsize(a[0]),
    "mhw.scl_global_search": lambda a, k, r: a[1] if len(a) > 1 else k["L"],
    "listdec.constrained_scl": lambda a, k, r: r[1].discarded if _diag_call(a, k) else None,
    "bound.bound_count": lambda a, k, r: len(r.triggers),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent, None)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[index] = (name, start, end, parent, note(args, kwargs, result) if note else None)
            return result

        return traced

    def install(self):
        package = [m for key, m in sys.modules.items() if key == "polarmhw" or key.startswith("polarmhw.")]
        for short in MODULES:
            module = sys.modules[f"polarmhw.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or name in SKIP:
                    continue
                wrapped = self._wrap(name, fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
                            self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def dump(self, path):
        """Write the spans as JSON: one [name, start, end, parent, note] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, fh)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times (s), counters and ratios from one traced replay."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[k]

    def picked(*names):
        return [k for k, s in enumerate(spans) if s[0] in names]

    def total(*names):
        return sum(dur[k] for k in picked(*names))

    def notes(*names):
        return [spans[k][4] for k in picked(*names)]

    def minus(parent_name, child_name):
        """Time of parent_name spans not covered by their child_name children."""
        out = total(parent_name)
        for k, s in enumerate(spans):
            if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name:
                out -= dur[k]
        return out

    def ratio(num, den):
        return num / den if den else 0.0

    walks = notes("mhw.zero_split_subset")
    leaves = sum(n[0] for n in walks)
    kills = sum(n[1] for n in walks)
    filtered_leaves = sum(
        s[4][0]
        for s in spans
        if s[0] == "mhw.zero_split_subset" and s[3] >= 0 and spans[s[3]][0] == "mhw.enumerate_zero_split"
    )
    searches = notes("listdec.constrained_scl")
    sc = ("sctree.sc_decode", "sctree.sc_retrace", "sctree.sc_replay")
    orders = ("construction.polarization_weight_order", "construction.gaussian_approx_order")
    return {
        "listdec.batch_s": total("listdec.scl_decode_batch"),
        "listdec.batch_frames": sum(notes("listdec.scl_decode_batch")),
        "channel.noise_s": minus("channel.simulate_fer", "listdec.scl_decode_batch"),
        "channel.estimate_s": total("channel.render_fer_csv"),
        "mhw.walk_s": total("mhw.zero_split_subset"),
        "mhw.leaves": leaves,
        "mhw.kills": kills,
        "mhw.forks": sum(n[0] + n[1] - 1 for n in walks),
        "mhw.kill_ratio": ratio(kills, leaves + kills),
        "mhw.filter_s": minus("mhw.enumerate_zero_split", "mhw.zero_split_subset"),
        "mhw.kept_ratio": ratio(sum(notes("mhw.enumerate_zero_split")), filtered_leaves),
        "mhw.write_s": total("mhw.write_enumeration"),
        "mhw.write_bytes": sum(notes("mhw.write_enumeration")),
        "bitops.encode_s": total("bitops.encode"),
        "bitops.encode_calls": len(picked("bitops.encode")),
        "mhw.subset_s": total("mhw.enumerate_subset_scl"),
        "mhw.subset_searches": sum(1 for n in searches if n is not None),
        "mhw.subset_fallbacks": sum(1 for n in searches if n is None),
        "listdec.discarded": sum(n for n in searches if n is not None),
        "mhw.global_s": total("mhw.scl_global_search"),
        "mhw.global_list_width": sum(notes("mhw.scl_global_search")),
        "mhw.exhaustive_s": total("mhw.exhaustive_mhw"),
        "listdec.scalar_s": total("listdec.scl_decode"),
        "listdec.scalar_calls": len(picked("listdec.scl_decode")),
        "sctree.sc_s": total(*sc),
        "sctree.sc_calls": len(picked(*sc)),
        "construction.order_s": total(*orders),
        "construction.order_calls": len(picked(*orders)),
        "construction.construct_s": total("construction.construct_pw", "construction.construct_ga"),
        "bound.count_s": total("bound.bound_count"),
        "bound.count_calls": len(picked("bound.bound_count")),
        "bound.triggers": sum(notes("bound.bound_count")),
        "cli.overhead_s": sum(dur[k] - child[k] for k in picked("cli.main")),
    }
