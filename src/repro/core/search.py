"""Heuristic MATE search (paper Sec. 4).

For every possibly-faulty wire:

1. enumerate propagation paths (killer-set signatures, depth-bounded,
   arrival-pin faulty sets — :mod:`repro.core.paths`);
2. generate conjunctions of up to ``max_terms`` collected gate-masking
   terms as MATE candidates (capped at ``max_candidates`` per wire),
   most-promising-first;
3. filter: a candidate must kill every path signature (cheap bitmask OR)
   and be literal-consistent;
4. verify: an exact **contamination fixpoint** over the cone — walk the
   cone gates in topological order, tracking which wires can still carry
   the fault given the candidate's literals; gates whose (actual)
   contaminated-pin set has a masking term implied by the candidate stop
   the fault. The candidate is an actual MATE iff no endpoint (DFF D pin or
   primary output) stays contaminated.

Step 4 is what lets MATEs reason through reconvergence: e.g. a register
hold-mux whose *other* arm is cleaned by the same candidate that blocks the
read path — without it, every hold-mux register would look unmaskable.

The paper's heuristic parameters are the defaults: depth 8, at most 4 terms
per MATE, at most 100 000 candidates per faulty wire.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field

from repro.core.cone import FaultCone, compute_fault_cone
from repro.core.implication import (
    UNKNOWN,
    ClosureChain,
    IdLiteral,
    ImplicationEngine,
)
from repro.core.mate import Mate, MateSet
from repro.core.paths import PathEnumeration, enumerate_paths, wire_level_terms
from repro.netlist.netlist import Netlist
from repro.obs import counter, histogram, progress_iter, span

#: How many of the strongest terms get implication-closure coverage.
_CLOSURE_TOP_K = 200
#: How many greedy set-cover seeds to grow MATE candidates from.
_GREEDY_SEEDS = 32


@dataclass(frozen=True)
class SearchParameters:
    """Heuristic knobs of the MATE search (paper defaults)."""

    #: How many gates deep to enumerate fault-propagation paths.
    depth: int = 8
    #: Maximum number of gate-masking terms conjoined into one MATE.
    max_terms: int = 4
    #: Candidate budget per faulty wire.
    max_candidates: int = 100_000
    #: DFS step budget per faulty wire during path enumeration.
    max_path_steps: int = 500_000
    #: Exact contamination checks budget per faulty wire.
    max_exact_checks: int = 4_000
    #: Stop collecting further MATEs for a wire once this many were found.
    max_mates_per_wire: int = 64


@dataclass
class WireSearchResult:
    """Per-faulty-wire outcome of the search."""

    wire: str
    dff_name: str
    status: str  # "found" | "no_mate" | "unmaskable" | "aborted"
    cone_gates: int
    num_terms: int
    num_signatures: int
    candidates_tried: int
    exact_checks: int = 0
    mates: list[Mate] = field(default_factory=list)


@dataclass
class SearchResult:
    """Whole-netlist outcome (the data behind Table 1)."""

    netlist_name: str
    parameters: SearchParameters
    wire_results: list[WireSearchResult]
    runtime_seconds: float
    #: Static soundness audit of the found MATEs (``find_mates(audit=True)``);
    #: a :class:`repro.lint.static_mate.MateAudit` or ``None`` when not run.
    audit: object | None = None

    @property
    def num_faulty_wires(self) -> int:
        """Number of analyzed fault sites (Table 1: 'Faulty Wires')."""
        return len(self.wire_results)

    @property
    def num_unmaskable(self) -> int:
        """Wires with a provably unkillable path (Table 1: '#Unmaskable')."""
        return sum(1 for r in self.wire_results if r.status == "unmaskable")

    @property
    def num_aborted(self) -> int:
        """Wires whose path enumeration hit the step budget."""
        return sum(1 for r in self.wire_results if r.status == "aborted")

    @property
    def num_candidates(self) -> int:
        """Total candidates tried (Table 1: '#MATE candid.')."""
        return sum(r.candidates_tried for r in self.wire_results)

    @property
    def num_mates(self) -> int:
        """Total MATEs found, counted per wire (Table 1: '#MATE')."""
        return sum(len(r.mates) for r in self.wire_results)

    def cone_sizes(self) -> list[int]:
        """Fault-cone gate counts, one per analyzed wire."""
        return [r.cone_gates for r in self.wire_results]

    @property
    def average_cone_gates(self) -> float:
        """Mean fault-cone size (Table 1: 'Avg. Cone')."""
        sizes = self.cone_sizes()
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def median_cone_gates(self) -> float:
        """Median fault-cone size (Table 1: 'Med. Cone')."""
        sizes = self.cone_sizes()
        return statistics.median(sizes) if sizes else 0.0

    def mate_set(self) -> MateSet:
        """All found MATEs, deduplicated/grouped by literal conjunction."""
        mate_set = MateSet()
        for result in self.wire_results:
            for mate in result.mates:
                mate_set.add(mate)
        return mate_set


class _ContaminationChecker:
    """Exact per-candidate masking check over one fault cone.

    The candidate's literals are first closed under implication (a literal
    like ``in_exec = 0`` forces every enable gated by it); the cone is then
    walked topologically, tracking contaminated wires. A gate output stays
    clean when (a) its value is *forced* by the implied literals (hence
    independent of the fault), (b) the function is independent of its
    contaminated pins, or (c) a gate-masking term for the actual
    contaminated-pin set is satisfied by the implied literals.

    Wires are the engine's dense ids throughout. Tainted and untainted
    closures each resume from the closure of the previous candidate's
    longest shared literal prefix (:class:`ClosureChain`).
    """

    def __init__(
        self, netlist: Netlist, cone: FaultCone, engine: ImplicationEngine
    ) -> None:
        self.netlist = netlist
        self.cone = cone
        self.engine = engine
        wire_id = engine.wire_id
        self._tainted = ClosureChain(engine, engine.taint_mask(cone.cone_wires))
        self._untainted = ClosureChain(engine)
        #: Per cone gate, in topological order: (gate, output id, [(pin, input id)]).
        self._gates = [
            (
                gate,
                wire_id(gate.output),
                [(pin, wire_id(wire)) for pin, wire in gate.inputs.items()],
            )
            for gate in cone.cone_gates
        ]
        self._fault_ids = {wire_id(wire) for wire in cone.fault_wires}
        self._endpoint_ids = {wire_id(wire) for wire in cone.endpoint_wires}
        # (gate name, frozen contaminated-pin set) -> GM terms over wire ids
        # (None means the output is independent of those pins).
        self._gm_cache: dict[
            tuple[str, frozenset[str]], list[list[IdLiteral]] | None
        ] = {}
        self._masks_cache: dict[frozenset[tuple[str, int]], bool] = {}

    def _gm(self, gate, faulty: frozenset[str]) -> list[list[IdLiteral]] | None:
        key = (gate.name, faulty)
        if key not in self._gm_cache:
            terms = wire_level_terms(self.netlist, gate, faulty)
            self._gm_cache[key] = (
                None if terms is None
                else [self.engine.literals_of(term) for term in terms]
            )
        return self._gm_cache[key]

    def closure(self, literals: dict[str, int]) -> bytes | bytearray | None:
        """Untainted implication closure of ``literals`` over wire ids."""
        return self._untainted.close(self.engine.literals_of(literals.items()))

    def masks(self, literals: dict[str, int]) -> bool:
        """True iff the conjunction provably masks the fault this cycle."""
        key = frozenset(literals.items())
        cached = self._masks_cache.get(key)
        if cached is None:
            cached = self._masks(literals)
            self._masks_cache[key] = cached
        return cached

    def _masks(self, literals: dict[str, int]) -> bool:
        if self.cone.fault_wire_is_endpoint:
            return False
        known = self._tainted.close(self.engine.literals_of(literals.items()))
        if known is None:
            return False  # contradictory conjunction can never trigger
        contaminated = set(self._fault_ids)
        for gate, output, pins in self._gates:
            if known[output] != UNKNOWN:
                continue  # value forced by the candidate: fault-independent
            faulty = frozenset(pin for pin, wire in pins if wire in contaminated)
            if not faulty:
                continue
            terms = self._gm(gate, faulty)
            if terms is None:
                continue  # output independent of the contaminated pins
            if any(all(known[w] == v for w, v in term) for term in terms):
                continue  # killed here by the candidate
            contaminated.add(output)
        return not (contaminated & self._endpoint_ids)


def _search_wire(
    netlist: Netlist,
    wire: str,
    dff_name: str,
    params: SearchParameters,
    engine: ImplicationEngine,
) -> WireSearchResult:
    cone = compute_fault_cone(netlist, wire)
    with span("enumerate-paths"):
        enumeration = enumerate_paths(
            netlist,
            wire,
            depth=params.depth,
            max_steps=params.max_path_steps,
            cone=cone,
        )
    histogram("search.cone.gates").observe(cone.num_gates)
    histogram("search.paths.terms").observe(len(enumeration.terms))
    histogram("search.paths.signatures").observe(len(enumeration.signatures))
    base = dict(
        wire=wire,
        dff_name=dff_name,
        cone_gates=cone.num_gates,
        num_terms=len(enumeration.terms),
        num_signatures=len(enumeration.signatures),
    )
    if enumeration.unmaskable:
        return WireSearchResult(status="unmaskable", candidates_tried=0, **base)
    if enumeration.aborted:
        return WireSearchResult(status="aborted", candidates_tried=0, **base)
    if not enumeration.signatures:
        # The fault propagates nowhere: benign in every cycle.
        mate = Mate((), [wire])
        return WireSearchResult(
            status="found", candidates_tried=0, mates=[mate], **base
        )

    checker = _ContaminationChecker(netlist, cone, engine)
    with span("generate-candidates"):
        mates, tried, exact = _generate_candidates(enumeration, checker, wire, params)
    status = "found" if mates else "no_mate"
    return WireSearchResult(
        status=status, candidates_tried=tried, exact_checks=exact, mates=mates, **base
    )


def record_search_metrics(result: "SearchResult | WireSearchResult") -> None:
    """Fold a search outcome into the global metrics registry.

    Called per wire during a live search; :mod:`repro.eval.context` also
    calls it with a whole cached :class:`SearchResult` so the CLI's
    ``--metrics-out`` reports candidate counters even on warm cache hits.
    """
    results = (
        result.wire_results if isinstance(result, SearchResult) else [result]
    )
    wires = counter("search.wires.analyzed")
    generated = counter("search.candidates.generated")
    filtered = counter("search.candidates.filtered")
    verified = counter("search.candidates.verified")
    for wire_result in results:
        wires.inc()
        counter(f"search.wires.{wire_result.status}").inc()
        generated.inc(wire_result.candidates_tried)
        filtered.inc(wire_result.exact_checks)
        verified.inc(len(wire_result.mates))


def _generate_candidates(
    enumeration: PathEnumeration,
    checker: _ContaminationChecker,
    wire: str,
    params: SearchParameters,
) -> tuple[list[Mate], int, int]:
    signatures = enumeration.signatures
    num_signatures = len(signatures)
    full_mask = (1 << num_signatures) - 1

    # Per-term bitmask over the signatures it kills.
    coverage: list[int] = [0] * len(enumeration.terms)
    for sig_index, signature in enumerate(signatures):
        bit = 1 << sig_index
        for term_id in signature:
            coverage[term_id] |= bit

    # Only terms that kill at least one signature are useful; order them by
    # decreasing coverage so promising combinations are tried first.
    useful = [t for t in range(len(enumeration.terms)) if coverage[t]]
    useful.sort(key=lambda t: coverage[t].bit_count(), reverse=True)

    # Augment the strongest terms with *implied* coverage: a term also kills
    # every signature killable by any term its implication closure entails
    # (e.g. a state literal entails every enable that state forces shut).
    engine = checker.engine
    term_ids = [engine.literals_of(t) for t in enumeration.terms]
    term_codes = [frozenset(2 * w + v for w, v in t) for t in term_ids]
    for term_id in useful[:_CLOSURE_TOP_K]:
        codes = engine.term_closure(enumeration.terms[term_id])
        if codes is None:
            coverage[term_id] = 0  # unsatisfiable term: useless
            continue
        closure = set(codes)
        implied = 0
        for other in range(len(enumeration.terms)):
            if coverage[other] and term_codes[other] <= closure:
                implied |= coverage[other]
        coverage[term_id] |= implied
    useful = [t for t in useful if coverage[t]]
    useful.sort(key=lambda t: coverage[t].bit_count(), reverse=True)

    mates: list[Mate] = []
    #: Term sets of the MATEs found, filed under their smallest term id:
    #: a found set can only be inside a combo that holds its anchor.
    found_by_anchor: dict[int, list[frozenset[int]]] = {}

    def extends_found(combo: tuple[int, ...] | frozenset[int]) -> bool:
        """True iff ``combo`` contains an already-found MATE's terms."""
        anchored = [
            found for term_id in combo for found in found_by_anchor.get(term_id, ())
        ]
        return bool(anchored) and any(found <= set(combo) for found in anchored)

    def add_found(combo_set: frozenset[int]) -> None:
        found_by_anchor.setdefault(min(combo_set), []).append(combo_set)

    tried = 0
    exact_checks = 0

    def merge_literals(combo: tuple[int, ...]) -> dict[str, int] | None:
        literals: dict[str, int] = {}
        for term_id in combo:
            for term_wire, value in enumeration.terms[term_id]:
                if literals.get(term_wire, value) != value:
                    return None
                literals[term_wire] = value
        return literals

    # Killer terms per signature (for joint-closure coverage in phase 1).
    sig_killers: list[list[list[IdLiteral]]] = [
        [term_ids[t] for t in signature] for signature in signatures
    ]

    def joint_mask(literals: dict[str, int], pending: int) -> int:
        """Signatures killed under the *joint* implication closure.

        Terms can be synergistic: two literals together may imply killer
        values that neither implies alone (e.g. a write-enable plus an
        opcode class pinning the decoded register address). Only the
        ``pending`` (still-uncovered) signatures are examined.
        """
        closure = checker.closure(literals)
        if closure is None:
            return 0
        mask = 0
        for index, killers in enumerate(sig_killers):
            if not (pending >> index) & 1:
                continue
            if any(all(closure[w] == v for w, v in t) for t in killers):
                mask |= 1 << index
        return mask

    # Set-cover preprocessing: a signature with exactly one remaining killer
    # makes that killer *mandatory* — every MATE must contain it (e.g. the
    # write-enable of a register's hold mux). Seed every greedy combo with
    # the mandatory terms.
    mandatory: list[int] = []
    for signature in signatures:
        alive = [t for t in signature if coverage[t]]
        if len(alive) == 1 and alive[0] not in mandatory:
            mandatory.append(alive[0])
    mandatory_literals = merge_literals(tuple(mandatory))
    if len(mandatory) > params.max_terms or mandatory_literals is None:
        return [], 0, 0  # the forced picks alone are impossible

    # Phase 1 — greedy set cover from each of the strongest seeds: the
    # highest-impact MATEs usually consist of one dominating term (a state
    # or enable literal) plus a few specific path blockers, which plain
    # size-ordered enumeration only reaches deep into the size-4 space.
    checked: set[frozenset[int]] = set()

    def try_exact(combo: list[int], literals: dict[str, int]) -> bool:
        """Run the exact contamination check once per distinct combo."""
        nonlocal exact_checks
        combo_set = frozenset(combo)
        if combo_set in checked:
            return False
        checked.add(combo_set)
        if extends_found(combo_set):
            return False
        exact_checks += 1
        if checker.masks(literals):
            mates.append(Mate(tuple(literals.items()), [wire]))
            add_found(combo_set)
            return True
        return False

    #: Exact checks are stronger than coverage, so prefixes with only a few
    #: uncovered signatures are worth checking as they are.
    near_cover_slack = params.max_terms * 2

    for seed in useful[:_GREEDY_SEEDS]:
        if exact_checks >= params.max_exact_checks:
            break
        if len(mates) >= params.max_mates_per_wire:
            break
        combo = list(dict.fromkeys([*mandatory, seed]))
        if len(combo) > params.max_terms:
            break
        literals = merge_literals(tuple(combo))
        if literals is None:
            continue
        mask = 0
        for term_id in combo:
            mask |= coverage[term_id]
        if mask != full_mask:
            mask |= joint_mask(literals, full_mask & ~mask)
        tried += 1
        done = False
        while True:
            uncovered = (full_mask & ~mask).bit_count()
            if uncovered <= near_cover_slack:
                if try_exact(combo, literals) or uncovered == 0:
                    done = True
            if done or len(combo) >= params.max_terms:
                break
            if exact_checks >= params.max_exact_checks:
                break
            best, best_gain, best_literals = None, 0, None
            for term_id in useful:
                if term_id in combo:
                    continue
                gain = (coverage[term_id] & ~mask).bit_count()
                if gain > best_gain:
                    extended = merge_literals((*combo, term_id))
                    if extended is None:
                        continue
                    best, best_gain, best_literals = term_id, gain, extended
            if best is None:
                break
            combo.append(best)
            literals = best_literals
            mask |= coverage[best]
            if mask != full_mask:
                mask |= joint_mask(literals, full_mask & ~mask)

    # Phase 2 — systematic enumeration, smallest conjunctions first.
    budget_exhausted = False
    for size in range(1, params.max_terms + 1):
        if budget_exhausted or size > len(useful):
            break
        if len(mates) >= params.max_mates_per_wire:
            break
        for combo in itertools.combinations(useful, size):
            if (
                tried >= params.max_candidates
                or exact_checks >= params.max_exact_checks
                or len(mates) >= params.max_mates_per_wire
            ):
                budget_exhausted = True
                break
            # A superset of an already-found MATE term set is redundant.
            if found_by_anchor and extends_found(combo):
                continue
            tried += 1
            mask = 0
            for term_id in combo:
                mask |= coverage[term_id]
            if mask != full_mask:
                continue
            literals = merge_literals(combo)
            if literals is None:
                continue
            exact_checks += 1
            if not checker.masks(literals):
                continue
            mates.append(Mate(tuple(literals.items()), [wire]))
            add_found(frozenset(combo))
    return mates, tried, exact_checks


def find_mates(
    netlist: Netlist,
    faulty_wires: dict[str, str] | None = None,
    params: SearchParameters | None = None,
    audit: bool = False,
) -> SearchResult:
    """Run the MATE search for a set of faulty wires.

    ``faulty_wires`` maps fault wire → owning DFF name; by default every
    flip-flop Q output in the netlist is a faulty wire (the paper's
    flip-flop-level SEU fault model). With ``audit=True`` every found MATE
    is re-proven by the static soundness checker
    (:mod:`repro.lint.static_mate`) after the search; the aggregate lands
    in :attr:`SearchResult.audit`.
    """
    params = params or SearchParameters()
    if faulty_wires is None:
        faulty_wires = {dff.q: name for name, dff in netlist.dffs.items()}

    engine = ImplicationEngine(netlist)
    results: list[WireSearchResult] = []
    started = time.perf_counter()
    with span("mate-search", netlist=netlist.name, wires=len(faulty_wires)):
        for wire, dff_name in progress_iter(
            faulty_wires.items(), label=f"mate-search {netlist.name}"
        ):
            with span("wire"):
                result = _search_wire(netlist, wire, dff_name, params, engine)
            record_search_metrics(result)
            results.append(result)
    audit_result = None
    if audit:
        from repro.lint.static_mate import audit_mates

        pairs = [(r.wire, mate) for r in results for mate in r.mates]
        with span("mate-audit", netlist=netlist.name, mates=len(pairs)):
            audit_result = audit_mates(netlist, pairs, implications=engine)
        counter("search.audit.refuted").inc(audit_result.refuted)
    return SearchResult(
        netlist_name=netlist.name,
        parameters=params,
        wire_results=results,
        runtime_seconds=time.perf_counter() - started,
        audit=audit_result,
    )


def faulty_wires_for_dffs(
    netlist: Netlist, exclude_register_file: bool = False
) -> dict[str, str]:
    """Fault-wire map for all DFFs, optionally excluding the register file
    (the paper's "FF" vs. "FF w/o RF" input sets)."""
    excluded = netlist.register_file_dffs() if exclude_register_file else set()
    return {
        dff.q: name
        for name, dff in netlist.dffs.items()
        if name not in excluded
    }
