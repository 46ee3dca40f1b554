"""repro.lint — cross-layer static analysis for the pruning pipeline.

The subsystem has four parts:

- a diagnostics model (:mod:`repro.lint.diagnostics`): rule id, severity,
  layer, location, message, fix hint, and stable fingerprints;
- a rule registry (:mod:`repro.lint.registry`) with per-rule
  enable/disable and facet-based applicability (netlist / RTL circuit /
  MATE collections);
- rules across three layers: netlist structure
  (:mod:`repro.lint.rules_netlist`), RTL and synthesis cross-checks
  (:mod:`repro.lint.rules_rtl`), and the static MATE soundness checker
  (:mod:`repro.lint.static_mate`) that proves masking terms without
  simulation;
- a runner (:mod:`repro.lint.runner`) with baseline suppression files and
  text/JSON reporters, exposed as ``python -m repro.lint``.

Typical library use::

    from repro import lint

    report = lint.run_lint(lint.LintTarget.for_netlist(netlist))
    if report.has_errors:
        print(lint.render_text(report))
"""

from repro.util.lazy import lazy_exports

# Submodules load on first use: netlist validation imports
# ``repro.lint.registry`` and must not pay for the static MATE checker.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "baseline": ("load_baseline", "write_baseline"),
        "diagnostics": ("Diagnostic", "LintReport", "Severity"),
        "registry": (
            "LintConfig",
            "LintRule",
            "LintTarget",
            "RuleRegistry",
            "default_registry",
            "rule",
        ),
        "reporters": ("render_json", "render_text"),
        "runner": ("run_lint",),
        "static_mate": (
            "MateAudit",
            "StaticMateChecker",
            "StaticMateVerdict",
            "audit_mates",
        ),
    },
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "LintRule",
    "LintTarget",
    "MateAudit",
    "RuleRegistry",
    "Severity",
    "StaticMateChecker",
    "StaticMateVerdict",
    "audit_mates",
    "default_registry",
    "load_baseline",
    "render_json",
    "render_text",
    "rule",
    "run_lint",
    "write_baseline",
]
