"""Rule registry and lint targets.

A :class:`LintRule` couples a stable id with the layer it reasons about, a
default severity, the target facets it needs (``netlist``, ``circuit``,
``mates``), and a check function ``check(target, config) -> iterable of
Diagnostic``. Rules register themselves into the process-global registry via
the :func:`rule` decorator at import time; :func:`default_registry` imports
all built-in rule modules and returns that registry.

A :class:`LintTarget` bundles whatever artifacts are available for one
design — the gate-level netlist, the word-level RTL circuit it came from,
and discovered MATEs — so cross-layer rules can correlate them. Rules whose
required facets are missing are skipped (and recorded on the report).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.mate import Mate
    from repro.core.search import SearchResult
    from repro.netlist.netlist import Netlist
    from repro.rtl.circuit import RtlCircuit


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs shared by all rules."""

    #: Budget for the static MATE checker's exhaustive stage: the check is
    #: skipped (``info``) when more than this many free variables survive
    #: the implication closure and the difference-propagation pruning.
    mate_budget_bits: int = 16
    #: Stage-2 decision procedure for the static MATE checker: ``"enum"``
    #: (budget-capped enumeration) or ``"sat"`` (unbounded CDCL proof).
    mate_engine: str = "enum"
    #: Maximum literals printed per MATE counterexample before eliding.
    counterexample_wires: int = 12
    #: Conflict cap per exact-coverage SAT query (``None`` = unbounded).
    coverage_max_conflicts: int | None = None
    #: Interval claims the ``prune.*`` ground-truth rules sample per kind
    #: (dead intervals, equivalence pairs); each sampled claim costs one or
    #: two real injections.
    prune_samples: int = 12
    #: Interval certificates the zero-simulation checker re-derives.
    prune_cert_samples: int = 24
    #: Cycles re-derived per sampled certificate (ends always included).
    prune_cert_cycles: int = 4
    #: RNG seed for all ``prune.*`` sampling.
    prune_seed: int = 0
    #: Statically-dead (register, cycle) points the ``dataflow.dead-refuted``
    #: ground-truth rule injects per target; the ``dataflow.claim-invalid``
    #: re-derivation checks *every* claim (it costs zero simulations).
    dataflow_samples: int = 12
    #: RNG seed for ``dataflow.*`` sampling.
    dataflow_seed: int = 0


@dataclass
class LintTarget:
    """The artifacts one lint run reasons about."""

    name: str
    netlist: "Netlist | None" = None
    circuit: "RtlCircuit | None" = None
    #: ``(fault_wire, mate)`` pairs to audit with the static MATE checker.
    mates: tuple[tuple[str, "Mate"], ...] = ()
    #: Fault wires the search left uncovered (``no_mate``); the exact
    #: coverage rule decides whether a masking condition exists at all.
    unmatched: tuple[str, ...] = ()
    #: Def-use pruning audit bundle (:class:`repro.prune.PruneAudit`):
    #: equivalence map, golden trace/reads, and a lazy ground-truth
    #: campaign for the ``prune.*`` rules.
    prune: "object | None" = None
    #: Static dataflow audit bundle (:class:`repro.prune.DataflowAudit`):
    #: program CFG, static prune map, and a lazy ground-truth campaign for
    #: the ``dataflow.*`` rules.
    dataflow: "object | None" = None

    @classmethod
    def for_netlist(cls, netlist: "Netlist", name: str | None = None) -> "LintTarget":
        """Target holding only a gate-level netlist."""
        return cls(name=name or netlist.name, netlist=netlist)

    @classmethod
    def for_circuit(
        cls,
        circuit: "RtlCircuit",
        netlist: "Netlist | None" = None,
        name: str | None = None,
    ) -> "LintTarget":
        """Target holding an RTL circuit (plus its synthesized netlist, if
        available, which enables the cross-layer synth rules)."""
        return cls(name=name or circuit.name, circuit=circuit, netlist=netlist)

    @classmethod
    def for_mates(
        cls,
        netlist: "Netlist",
        mates: Iterable["Mate"],
        name: str | None = None,
    ) -> "LintTarget":
        """Target auditing a MATE collection against its netlist.

        Each MATE is checked once per fault wire it covers.
        """
        pairs = tuple(
            (wire, mate) for mate in mates for wire in sorted(mate.fault_wires)
        )
        return cls(name=name or netlist.name, netlist=netlist, mates=pairs)

    @classmethod
    def for_search(
        cls,
        netlist: "Netlist",
        search: "SearchResult",
        name: str | None = None,
    ) -> "LintTarget":
        """Target auditing every MATE a search produced, per fault wire."""
        pairs = tuple(
            (result.wire, mate)
            for result in search.wire_results
            for mate in result.mates
        )
        unmatched = tuple(
            result.wire
            for result in search.wire_results
            if result.status == "no_mate"
        )
        return cls(
            name=name or search.netlist_name,
            netlist=netlist,
            mates=pairs,
            unmatched=unmatched,
        )

    @classmethod
    def for_prune(
        cls,
        audit: "object",
        netlist: "Netlist | None" = None,
        name: str | None = None,
    ) -> "LintTarget":
        """Target auditing a def-use equivalence map against ground truth."""
        target_name = name or getattr(audit, "target_name", "prune")
        return cls(name=target_name, netlist=netlist, prune=audit)

    @classmethod
    def for_dataflow(
        cls,
        audit: "object",
        netlist: "Netlist | None" = None,
        name: str | None = None,
    ) -> "LintTarget":
        """Target auditing a static dataflow map against ground truth."""
        target_name = name or getattr(audit, "target_name", "dataflow")
        return cls(name=target_name, netlist=netlist, dataflow=audit)

    def facets(self) -> frozenset[str]:
        """Which facets this target can offer to rules."""
        present = set()
        if self.netlist is not None:
            present.add("netlist")
        if self.circuit is not None:
            present.add("circuit")
        if self.mates:
            present.add("mates")
        if self.unmatched:
            present.add("unmatched")
        if self.prune is not None:
            present.add("prune")
        if self.dataflow is not None:
            present.add("dataflow")
        return frozenset(present)


CheckFunction = Callable[[LintTarget, LintConfig], Iterable[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """One registered static-analysis rule."""

    id: str
    layer: str
    severity: Severity
    summary: str
    requires: tuple[str, ...]
    check: CheckFunction
    #: Free-form grouping labels; ``validate`` marks the structural rules
    #: the legacy :func:`repro.netlist.validate.validate_netlist` runs.
    tags: frozenset[str] = field(default_factory=frozenset)

    def applicable(self, target: LintTarget) -> bool:
        """True when the target offers every facet this rule needs."""
        return set(self.requires) <= target.facets()

    def diagnostic(
        self,
        location: str,
        message: str,
        hint: str = "",
        severity: Severity | None = None,
    ) -> Diagnostic:
        """Build a finding attributed to this rule."""
        return Diagnostic(
            rule=self.id,
            severity=severity or self.severity,
            layer=self.layer,
            location=location,
            message=message,
            hint=hint,
        )


class RuleRegistry:
    """An ordered, id-indexed collection of lint rules."""

    def __init__(self) -> None:
        self._rules: dict[str, LintRule] = {}

    def register(self, rule: LintRule) -> LintRule:
        """Add a rule; duplicate ids are rejected."""
        if rule.id in self._rules:
            raise ValueError(f"duplicate lint rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def __iter__(self) -> Iterator[LintRule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def get(self, rule_id: str) -> LintRule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(
                f"unknown lint rule {rule_id!r} (known: {sorted(self._rules)})"
            ) from None

    def ids(self) -> list[str]:
        """All registered rule ids, in registration order."""
        return list(self._rules)

    def expand(self, patterns: Iterable[str]) -> list[str]:
        """Expand ids and ``fnmatch`` globs to concrete rule ids, in order.

        Exact ids pass through; a pattern containing ``*``/``?``/``[`` is
        matched against every registered id. Unknown ids and globs that
        match nothing both raise, so typos fail loudly instead of silently
        skipping a rule.
        """
        from fnmatch import fnmatchcase

        expanded: list[str] = []
        for pattern in patterns:
            if any(ch in pattern for ch in "*?["):
                matched = [
                    rule_id
                    for rule_id in self._rules
                    if fnmatchcase(rule_id, pattern)
                ]
                if not matched:
                    raise KeyError(
                        f"lint rule pattern {pattern!r} matches nothing "
                        f"(known: {sorted(self._rules)})"
                    )
                expanded.extend(
                    rule_id for rule_id in matched if rule_id not in expanded
                )
            elif pattern not in self._rules:
                raise KeyError(
                    f"unknown lint rule {pattern!r} (known: {sorted(self._rules)})"
                )
            elif pattern not in expanded:
                expanded.append(pattern)
        return expanded

    def select(
        self,
        enable: Iterable[str] | None = None,
        disable: Iterable[str] = (),
        tags: Iterable[str] | None = None,
    ) -> list[LintRule]:
        """Resolve an enable/disable selection to a concrete rule list.

        ``enable=None`` means "all rules". Entries in either list may be
        exact ids or glob patterns (see :meth:`expand`); unknown ids and
        globs matching nothing raise. ``tags`` restricts the result to
        rules carrying at least one of the tags.
        """
        enabled = None if enable is None else self.expand(enable)
        banned = set(self.expand(disable))
        chosen = (
            list(self._rules.values())
            if enabled is None
            else [self._rules[rule_id] for rule_id in enabled]
        )
        chosen = [rule for rule in chosen if rule.id not in banned]
        if tags is not None:
            wanted = set(tags)
            chosen = [rule for rule in chosen if rule.tags & wanted]
        return chosen


#: Process-global registry the built-in rule modules register into.
_DEFAULT_REGISTRY = RuleRegistry()


def rule(
    id: str,  # noqa: A002 - mirrors the diagnostic field name
    layer: str,
    severity: Severity,
    summary: str,
    requires: tuple[str, ...],
    tags: Iterable[str] = (),
    registry: RuleRegistry | None = None,
) -> Callable[[CheckFunction], CheckFunction]:
    """Decorator: register ``check(target, config)`` as a lint rule."""

    def decorate(check: CheckFunction) -> CheckFunction:
        (registry or _DEFAULT_REGISTRY).register(
            LintRule(
                id=id,
                layer=layer,
                severity=severity,
                summary=summary,
                requires=requires,
                check=check,
                tags=frozenset(tags),
            )
        )
        return check

    return decorate


def registered_rule(rule_id: str) -> LintRule:
    """A rule already in the process-global registry (imports nothing).

    Rule checks look themselves up through this, so running one rule never
    loads the other rule modules.
    """
    return _DEFAULT_REGISTRY.get(rule_id)


#: The built-in rule modules, relative to :mod:`repro.lint`.
RULE_MODULES = (
    "rules_dataflow",
    "rules_netlist",
    "rules_prune",
    "rules_rtl",
    "rules_synth",
    "static_mate",
)


def default_registry(modules: Iterable[str] = RULE_MODULES) -> RuleRegistry:
    """The registry of built-in rules, with ``modules`` imported into it.

    Importing a rule module registers its rules; repeat imports are no-ops.
    Narrowing ``modules`` keeps a caller from loading rule modules it never
    selects from (:func:`repro.netlist.validate_netlist` loads only
    ``rules_netlist``, the home of every ``validate``-tagged rule).
    """
    for name in modules:
        importlib.import_module(f"repro.lint.{name}")
    return _DEFAULT_REGISTRY
