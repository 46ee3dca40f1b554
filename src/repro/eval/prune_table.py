"""Cross-layer pruning accounting table (`python -m repro.eval prune`).

For each named (core, program) workload the table folds all three pruning
layers over the full (flip-flop × cycle) fault space of the campaign's
golden run: the gate-level MATE layer (replayed trigger vectors), the
architecture-level def-use layer (dead intervals plus equivalence
followers), and the binary-level static dataflow layer (trace-independent
register liveness anchored onto cycles), with every pairwise overlap and
the triple intersection separated out — the cross-layer picture the
paper's title promises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import context
from repro.prune import (
    PruneAccounting,
    account,
    get_equivalence_map,
    get_mate_vectors,
)

#: Workloads tabulated by default (one per core keeps the cold-cache cost
#: of the MATE replay bounded; ``--all-programs`` covers the rest).
DEFAULT_TARGETS = ("avr-fib", "msp430-fib")
ALL_TARGETS = ("avr-fib", "avr-conv", "msp430-fib", "msp430-conv")


def account_target(
    target_name: str, with_mates: bool = True, with_static: bool = True
) -> PruneAccounting:
    """The accounting row for one named workload."""
    core = target_name.partition("-")[0]
    equivalence_map = get_equivalence_map(target_name)
    mate_vectors = get_mate_vectors(target_name) if with_mates else None
    static_map = None
    if with_static:
        from repro.prune import get_static_map

        static_map = get_static_map(target_name)
    return account(
        target_name,
        context.get_netlist(core),
        equivalence_map,
        mate_vectors,
        static_map=static_map,
    )


@dataclass
class PruneTableReport:
    """The assembled cross-layer pruning table."""

    rows: list[PruneAccounting]

    def format(self) -> str:
        """Render as aligned text."""
        lines = [
            "Cross-layer fault-space pruning "
            "(gate-level MATE × def-use × static dataflow)",
            "",
            f"{'workload':<14s}{'points':>10s}{'mate':>10s}{'defuse':>10s}"
            f"{'static':>9s}{'m&d':>9s}{'m&s':>8s}{'d&s':>8s}{'all':>7s}"
            f"{'reps':>8s}{'remaining':>11s}",
            "-" * 104,
        ]
        for row in self.rows:
            lines.append(
                f"{row.target:<14s}{row.space_points:>10d}{row.mate_pruned:>10d}"
                f"{row.defuse_pruned:>10d}{row.static_pruned:>9d}"
                f"{row.both:>9d}{row.static_mate:>8d}{row.static_defuse:>8d}"
                f"{row.all_layers:>7d}{row.representatives:>8d}"
                f"{row.remaining:>11d}"
            )
        lines.append("")
        for row in self.rows:
            lines.append(
                f"{row.target}: def-use prunes {100 * row.defuse_fraction:.1f}% "
                f"alone, static {100 * row.static_fraction:.1f}% alone, "
                f"all layers {100 * row.union_fraction:.1f}% "
                f"({row.space_points - row.remaining} of {row.space_points})"
            )
        return "\n".join(lines)


def build_prune_table(
    targets: tuple[str, ...] = DEFAULT_TARGETS,
    with_mates: bool = True,
    with_static: bool = True,
) -> PruneTableReport:
    """Accounting rows for the requested named workloads."""
    return PruneTableReport(
        rows=[
            account_target(name, with_mates=with_mates, with_static=with_static)
            for name in targets
        ]
    )
