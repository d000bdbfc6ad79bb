"""The layers the traced run times, and what each layer metric should move.

A layer is a nasharcs module.  The traced run wraps each public function
below in a span named "<layer>.<name>", and each module's import in a span
named "<layer>.module".  Spans are recorded from outside the package, so
time spent in `rational` shows up under the graph and cycles calls that
use it, apart from its own import.
"""
from __future__ import annotations

LAYERS = (
    "errors", "rational", "graph", "cycles", "order",
    "generators", "classify", "arcs", "cli",
)

# (module, attribute, span name): every layer function the CLI commands
# reach, plus the internal calls the certifier makes across layers.
TRACED = (
    ("graph", "parse_graph", "graph.parse_graph"),
    ("graph", "graph_is_negative_definite", "graph.is_negative_definite"),
    ("graph", "serialize_graph", "graph.serialize_graph"),
    ("cycles", "fundamental_cycle", "cycles.fundamental_cycle"),
    ("cycles", "ray_basis", "cycles.ray_basis"),
    ("cycles", "is_rational", "cycles.is_rational"),
    ("cycles", "serialize_ray_basis", "cycles.serialize_ray_basis"),
    ("order", "relation_matrix", "order.relation_matrix"),
    ("order", "serialize_relation_matrix", "order.serialize_relation_matrix"),
    ("generators", "an_graph", "generators.an_graph"),
    ("classify", "is_minimal", "classify.is_minimal"),
    ("classify", "is_an", "classify.is_an"),
    ("classify", "certify_minimal", "classify.certify_minimal"),
    ("classify", "decompose_minimal", "classify.decompose_minimal"),
    ("classify", "contracts_to_empty", "classify.contracts_to_empty"),
    ("classify", "serialize_certificate", "classify.serialize_certificate"),
    ("arcs", "sample_arc", "arcs.sample_arc"),
    ("arcs", "contact_order", "arcs.contact_order"),
    ("arcs", "defining_residual", "arcs.defining_residual"),
    ("arcs", "separation_check", "arcs.separation_check"),
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.emit"),
)

# Per-layer metric -> (end-to-end metrics it should move, workloads where
# it matters).  Written down before any optimisation is measured.
SHOULD_MOVE = {
    "graph.parse_graph_s": ("nothing (control)", "all"),
    "graph.is_negative_definite_s": (
        "wall_s, items_per_s",
        "analyze_negdef (indefinite jobs almost entirely); little on certify_minimal",
    ),
    "cycles.ray_basis_s": ("wall_s, items_per_s", "analyze_negdef"),
    "cycles.fundamental_cycle_s": ("wall_s, items_per_s", "analyze_negdef"),
    "cycles.is_rational_s": ("wall_s, items_per_s", "analyze_negdef"),
    "order.relation_matrix_s": (
        "items_per_s", "analyze_negdef; about 4 % on certify_minimal"),
    "order.serialize_relation_matrix_s": ("wall_s", "analyze_negdef"),
    "classify.is_minimal_s": ("nothing (control)", "certify_minimal, analyze_negdef"),
    "classify.certify_minimal_s": ("items_per_s, wall_s", "certify_minimal"),
    "classify.decompose_minimal_s": (
        "explains classify.certify_minimal_s", "certify_minimal"),
    "classify.contracts_to_empty_s": (
        "explains classify.certify_minimal_s", "certify_minimal"),
    "classify.serialize_certificate_s": ("wall_s", "certify_minimal"),
    "arcs.sample_arc_s": ("items_per_s", "an_arcs"),
    "arcs.contact_order_s": ("items_per_s", "an_arcs"),
    "arcs.defining_residual_s": ("items_per_s", "an_arcs"),
    "arcs.separation_check_s": ("items_per_s", "an_arcs (--against jobs)"),
    "cli.import_s": ("job_p50_s", "all, more so as jobs get short"),
    "cli.emit_s": ("wall_s, peak_rss_mb", "analyze_negdef, certify_minimal"),
    "<layer>.self_s": ("wall_s, cpu_s", "the workloads where that layer runs"),
    "counts": (
        "none: explain cost, change only with the maths or the format",
        "per workload",
    ),
    "trace.unattributed_s, trace.overhead_s": ("tracing quality", "all"),
}
