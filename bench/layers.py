"""Span tracing of coverzeta's layers, installed from outside the package.

Each hook replaces a public function at the name its caller looks up (for
example ``coverzeta.herbrand.eta_at_one``), records a span around the call
and restores the original on ``uninstall``.  A hook whose name no longer
exists is reported as skipped.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("specfile", "voltage", "serre", "snf", "picard", "groupring", "zeta", "herbrand", "census", "cli")


def _matrix_bits(dec) -> int:
    """Largest entry of the Smith transforms, in bits."""
    best = 0
    for name in ("left", "left_inverse", "right", "right_inverse"):
        for row in getattr(dec, name, ()):
            for x in row:
                best = max(best, abs(x).bit_length())
    return best


def _sweep_classes(args, result) -> int:
    return args[1].p ** args[1].dimension  # _fixed_point_count(cover, q, f_lift)


def _subsets(args, result) -> int:
    return 2 ** len(args[0])  # ring_determinant(entries, zero)


# (module, attribute path, span name, counter of the call or None)
HOOKS = (
    ("coverzeta.cli", "load_spec", "specfile.load", None),
    ("coverzeta.cli", "load_base", "specfile.load", None),
    ("coverzeta.cli", "derive", "voltage.derive", None),
    ("coverzeta.census", "derive", "voltage.derive", None),
    ("coverzeta.census", "connected_by_voltage_criterion", "voltage.criterion", None),
    ("coverzeta.serre", "SerreGraph.laplacian_matrix", "serre.laplacian", None),
    ("coverzeta.serre", "SerreGraph.is_connected", "serre.is_connected", None),
    ("coverzeta.picard", "smith_normal_form", "snf.smith", None),
    ("coverzeta.picard", "integer_determinant", "snf.bareiss", None),
    ("coverzeta.zeta", "integer_determinant", "snf.bareiss", None),
    ("coverzeta.herbrand", "picard_module", "picard.module", None),
    ("coverzeta.herbrand", "sylow_p_module", "picard.sylow", None),
    ("coverzeta.herbrand", "elementary_quotient", "picard.elementary_quotient", None),
    ("coverzeta.herbrand", "eigenspace_order_A", "picard.order_A", None),
    ("coverzeta.herbrand", "eigenspace_dim_C", "picard.dim_C", None),
    ("coverzeta.picard", "_fixed_point_count", "picard.sweep", _sweep_classes),
    ("coverzeta.herbrand", "picard_factors", "picard.factors", None),
    ("coverzeta.herbrand", "spanning_tree_count", "picard.tree_count", None),
    ("coverzeta.herbrand", "trivial_character_check", "picard.trivial_character", None),
    ("coverzeta.zeta", "ring_determinant", "groupring.ring_det", _subsets),
    ("coverzeta.groupring", "ring_determinant", "groupring.ring_det", _subsets),
    ("coverzeta.herbrand", "eta_at_one", "zeta.eta_at_one", None),
    ("coverzeta.zeta", "eta_at_one", "zeta.eta_at_one", None),
    ("coverzeta.zeta", "eta_polynomial", "zeta.eta_polynomial", None),
    ("coverzeta.herbrand", "l_value", "zeta.l_value", None),
    ("coverzeta.herbrand", "duality_check", "zeta.duality", None),
    ("coverzeta.cli", "build_report", "herbrand.report", None),
    ("coverzeta.census", "build_report", "herbrand.report", None),
    ("coverzeta.cli", "run_census", "census.run", None),
    ("coverzeta.census", "census_row", "census.row", None),
)

# Per-layer metrics: (name, unit, kind, span name).  Kinds: "incl" sums span
# durations, "self" sums durations minus child spans, "calls" counts spans,
# "layer" is the self time of every span of that layer.  Times and counts
# are per operation (a report, or a census row).
PER_LAYER = (
    [(f"{layer}.self_s", "s/op", "layer", layer) for layer in LAYERS if layer not in ("herbrand", "cli", "specfile")]
    + [
        ("snf.smith_s", "s/op", "incl", "snf.smith"),
        ("snf.smith_calls", "1/op", "calls", "snf.smith"),
        ("snf.bareiss_s", "s/op", "incl", "snf.bareiss"),
        ("snf.bareiss_calls", "1/op", "calls", "snf.bareiss"),
        ("picard.module_s", "s/op", "incl", "picard.module"),
        ("picard.transport_self_s", "s/op", "self", "picard.module"),
        ("picard.order_A_s", "s/op", "incl", "picard.order_A"),
        ("picard.dim_C_s", "s/op", "incl", "picard.dim_C"),
        ("picard.sweep_s", "s/op", "incl", "picard.sweep"),
        ("groupring.ring_det_s", "s/op", "incl", "groupring.ring_det"),
        ("groupring.ring_det_calls", "1/op", "calls", "groupring.ring_det"),
        ("zeta.eta_at_one_s", "s/op", "incl", "zeta.eta_at_one"),
        ("zeta.eta_at_one_calls", "1/op", "calls", "zeta.eta_at_one"),
        ("zeta.l_value_s", "s/op", "incl", "zeta.l_value"),
        ("zeta.l_value_calls", "1/op", "calls", "zeta.l_value"),
        ("zeta.duality_s", "s/op", "incl", "zeta.duality"),
        ("voltage.derive_s", "s/op", "incl", "voltage.derive"),
        ("serre.laplacian_s", "s/op", "incl", "serre.laplacian"),
        ("serre.is_connected_calls", "1/op", "calls", "serre.is_connected"),
        ("herbrand.report_self_s", "s/op", "self", "herbrand.report"),
        ("census.io_self_s", "s/op", "self", "census.run"),
        ("cli.self_s", "s/op", "self", "cli.main"),
        ("specfile.load_s", "s/op", "incl", "specfile.load"),
    ]
)
# Metrics that are not span sums: the largest Smith transform entry, the
# classes swept and cofactor subsets per operation, and the tracing cost.
COUNTED = (
    ("snf.max_coeff_bits", "bits"),
    ("picard.sweep_classes", "1/op"),
    ("groupring.ring_det_subsets", "1/op"),
    ("trace.overhead_s", "ref_s"),
)


class Tracer:
    """Span recorder for one process; ``op`` tags spans with an operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.skipped: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.counts[name] += counter(args, result)
            if name == "snf.smith":
                self.max_bits = max(self.max_bits, _matrix_bits(result))
            return result

        return traced

    def install(self) -> None:
        self.skipped = []
        for module, path, name, counter in HOOKS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans, per operation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer: dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[k]
            calls[name] += 1
            layer[name.split(".")[0]] += end - start - child[k]
        table = {"incl": incl, "self": own, "calls": calls, "layer": layer}
        ops = max(ops, 1)
        out = {name: (table[kind][key] / ops, unit) for name, unit, kind, key in PER_LAYER}
        counted = {
            "snf.max_coeff_bits": self.max_bits,
            "picard.sweep_classes": self.counts["picard.sweep"] / ops,
            "groupring.ring_det_subsets": self.counts["groupring.ring_det"] / ops,
            "trace.overhead_s": overhead_s,
        }
        out.update({name: (counted[name], unit) for name, unit in COUNTED})
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
