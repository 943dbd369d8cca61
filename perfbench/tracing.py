"""In-process span tracing of dstgap's layer functions.

`Tracer.install()` replaces each function named in LAYERS, wherever a
dstgap module holds a reference to it, with a wrapper that records a span
(name, start, end, parent) in memory; `uninstall()` puts the originals back.
Self time of a span is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "dstgap"

# (module, function): the layer boundaries a span is recorded at
LAYERS = (
    ("families", "zk_objects"),
    ("families", "subset_objects"),
    ("families", "default_j_sets"),
    ("model", "validate_objects"),
    ("model", "build_instance"),
    ("model", "instance_to_dict"),
    ("model", "instance_to_json"),
    ("model", "instance_sha256"),
    ("model", "instance_from_dict"),
    ("model", "instance_from_json"),
    ("cli", "load_instance"),
    ("flows", "max_flow_value"),
    ("flows", "verify_feasibility"),
    ("flows", "path_witness"),
    ("flows", "check_path_witness"),
    ("integral", "certify_gap"),
    ("integral", "solve_structured"),
    ("integral", "brute_force_opt"),
    ("lp", "solve_lp_exact"),
    ("simplex", "solve_lp"),
    ("bounds", "verify_ja_bound"),
    ("bounds", "verify_kb_bound"),
    ("bounds", "alpha_asymptotics"),
)

# layer -> (counter name, how to read it from the layer's return value)
RESULT_COUNTERS = {
    "integral.solve_structured": ("integral.structured_nodes",
                                  lambda result: result.nodes),
}


def metric_names() -> set:
    """Every per-layer metric a traced round can produce."""
    names = {counter for counter, _ in RESULT_COUNTERS.values()}
    for mod_name, fn_name in LAYERS:
        names |= {f"{mod_name}.{fn_name}_s", f"{mod_name}.{fn_name}.calls"}
    return names


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, round]
        self.counters = []   # (round, name, value)
        self.round = 0
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.round])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                self.counters.append((self.round, counter[0], counter[1](result)))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(module, fn_name)
            wrappers[id(original)] = (original,
                                      self._wrap(f"{mod_name}.{fn_name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def round_totals(self, round_no: int) -> dict:
        """Per-layer self seconds, call counts and counters of one round."""
        spans = self.spans
        child_time = {}
        for s in spans:
            if s[4] == round_no and s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        out = {}
        for i, s in enumerate(spans):
            if s[4] != round_no:
                continue
            own = (s[2] - s[1]) - child_time.get(i, 0.0)
            out[f"{s[0]}_s"] = out.get(f"{s[0]}_s", 0.0) + own
            out[f"{s[0]}.calls"] = out.get(f"{s[0]}.calls", 0) + 1
        for r, name, value in self.counters:
            if r == round_no:
                out[name] = out.get(name, 0) + value
        return out

    def span_records(self) -> list:
        return [{"name": n, "start": a, "end": b, "parent": p, "round": r}
                for n, a, b, p, r in self.spans]
