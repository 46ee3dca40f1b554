"""Shared, cached experiment artifacts: cores, traces, MATE searches.

Synthesis is cheap, but 8500-cycle full-wire traces and whole-netlist MATE
searches are not — they are cached in memory (per process) and on disk
(``.repro_cache/``) keyed by the netlist content hash and the heuristic
parameters, so benchmarks and the CLI can re-run instantly.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cpu.avr import AvrSystem, synthesize_avr
from repro.cpu.msp430 import Msp430System, synthesize_msp430
from repro.netlist.json_io import netlist_content_hash
from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.programs import avr_conv, avr_fib, msp430_conv, msp430_fib
from repro.sim.simulator import Simulator

# Campaigns build their targets through this module's netlist, simulator
# and hash memos; numpy, the MATE search and traces are imported by the
# functions that need them, so that path never loads them.
if TYPE_CHECKING:
    from repro.core.mate import Mate
    from repro.core.search import SearchParameters, SearchResult
    from repro.trace.trace import Trace

#: The paper's trace length for both test programs.
TRACE_CYCLES = 8500

CORES = ("avr", "msp430")
PROGRAMS = ("fib", "conv")

_CACHE_DIR = Path(__file__).resolve().parents[3] / ".repro_cache"


def cache_dir() -> Path:
    """The on-disk artifact cache directory (created on demand)."""
    _CACHE_DIR.mkdir(exist_ok=True)
    return _CACHE_DIR


def _atomic_write(path: Path, writer) -> None:
    """Write a cache file atomically: temp file in the same dir + rename.

    A crash (or SIGKILL) mid-write must never leave a truncated artifact at
    the final path — readers either see the complete previous version or
    the complete new one. ``writer`` receives the open binary temp file.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _discard_corrupt(path: Path, what: str, exc: Exception) -> None:
    """Warn about, count, and delete an unreadable cache artifact."""
    warnings.warn(
        f"discarding corrupt {what} cache {path.name}: {exc}",
        RuntimeWarning,
        stacklevel=3,
    )
    counter("context.cache.corrupt").inc()
    try:
        path.unlink()
    except OSError:
        pass


@lru_cache(maxsize=None)
def get_netlist(core: str) -> Netlist:
    """Synthesized netlist of one evaluation core (memoized)."""
    if core not in CORES:
        raise ValueError(f"unknown core {core!r} (expected one of {CORES})")
    with span("synthesize", core=core):
        if core == "avr":
            return synthesize_avr()
        return synthesize_msp430()


@lru_cache(maxsize=None)
def get_simulator(core: str) -> Simulator:
    """Compiled simulator of one core (memoized)."""
    return Simulator(get_netlist(core))


@lru_cache(maxsize=None)
def netlist_hash(core: str) -> str:
    """Content hash keying all cached artifacts of a core."""
    return netlist_content_hash(get_netlist(core))


def make_system(core: str, program: str, halt: bool = False):
    """Fresh testbench running the given test program."""
    if core == "avr":
        words = {"fib": avr_fib, "conv": avr_conv}[program](halt=halt)
        return AvrSystem(words, halt_on_sleep=halt)
    words = {"fib": msp430_fib, "conv": msp430_conv}[program](halt=halt)
    return Msp430System(words, halt_on_cpuoff=halt)


@lru_cache(maxsize=None)
def get_trace(core: str, program: str, cycles: int = TRACE_CYCLES) -> Trace:
    """Full-wire execution trace (free-running program), disk-cached."""
    import numpy as np

    from repro.trace.trace import Trace

    path = cache_dir() / f"trace_{core}_{program}_{cycles}_{netlist_hash(core)}.npz"
    if path.exists():
        try:
            data = np.load(path, allow_pickle=False)
            wires = [str(w) for w in data["wires"]]
            trace = Trace.from_matrix(wires, data["matrix"])
        except Exception as exc:  # truncated zip, missing keys, bad dtype
            _discard_corrupt(path, "trace", exc)
        else:
            counter("context.trace.cache.hit").inc()
            return trace
    counter("context.trace.cache.miss").inc()
    simulator = get_simulator(core)
    with span("trace-record", core=core, program=program, cycles=cycles):
        result = simulator.run(make_system(core, program), max_cycles=cycles)
    assert result.trace is not None
    _atomic_write(
        path,
        lambda fh: np.savez_compressed(
            fh,
            wires=np.array(result.trace.wire_names),
            matrix=result.trace.columns(result.trace.wire_names),
        ),
    )
    return result.trace


# ----------------------------------------------------------------------
# MATE search caching
# ----------------------------------------------------------------------
#: Bump when the search algorithm changes in ways SearchParameters doesn't
#: capture (killer expansion limits, checker semantics, ...).
SEARCH_ALGORITHM_VERSION = 3


def _params_key(params: SearchParameters) -> str:
    blob = json.dumps(
        {**params.__dict__, "_algo": SEARCH_ALGORITHM_VERSION}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


def _search_to_json(result: SearchResult) -> str:
    doc = {
        "netlist": result.netlist_name,
        "runtime_seconds": result.runtime_seconds,
        "wires": [
            {
                "wire": r.wire,
                "dff": r.dff_name,
                "status": r.status,
                "cone_gates": r.cone_gates,
                "num_terms": r.num_terms,
                "num_signatures": r.num_signatures,
                "candidates_tried": r.candidates_tried,
                "exact_checks": r.exact_checks,
                "mates": [list(m.literals) for m in r.mates],
            }
            for r in result.wire_results
        ],
    }
    return json.dumps(doc)


def _search_from_json(text: str, params: SearchParameters) -> SearchResult:
    from repro.core.mate import Mate
    from repro.core.search import SearchResult, WireSearchResult

    doc = json.loads(text)
    wires = []
    for r in doc["wires"]:
        mates = [
            Mate([(w, v) for w, v in literals], [r["wire"]])
            for literals in r["mates"]
        ]
        wires.append(
            WireSearchResult(
                wire=r["wire"],
                dff_name=r["dff"],
                status=r["status"],
                cone_gates=r["cone_gates"],
                num_terms=r["num_terms"],
                num_signatures=r["num_signatures"],
                candidates_tried=r["candidates_tried"],
                exact_checks=r["exact_checks"],
                mates=mates,
            )
        )
    return SearchResult(
        netlist_name=doc["netlist"],
        parameters=params,
        wire_results=wires,
        runtime_seconds=doc["runtime_seconds"],
    )


#: Searches completed this process, keyed by (core, FF-set label). The
#: ``--lint-report`` option of ``python -m repro.eval`` audits these so a
#: campaign archives the static-soundness report alongside its metrics.
_COMPLETED_SEARCHES: dict[tuple[str, str], SearchResult] = {}


def completed_searches() -> dict[tuple[str, str], SearchResult]:
    """Searches loaded or run so far: ``(core, "FF"|"noRF") -> result``."""
    return dict(_COMPLETED_SEARCHES)


@lru_cache(maxsize=None)
def get_search(
    core: str,
    exclude_register_file: bool,
    params: SearchParameters | None = None,
) -> SearchResult:
    """MATE search result for one (core, FF-set) input, disk-cached."""
    from repro.core.search import (
        SearchParameters,
        faulty_wires_for_dffs,
        find_mates,
        record_search_metrics,
    )

    params = params or SearchParameters()
    suffix = "noRF" if exclude_register_file else "FF"
    path = cache_dir() / (
        f"mates_{core}_{suffix}_{netlist_hash(core)}_{_params_key(params)}.json"
    )
    if path.exists():
        try:
            # Replay the cached aggregates into the registry under the same
            # span path a live search uses, so metrics exports stay
            # meaningful on warm caches (counters then report *loaded*
            # search work).
            with span("mate-search", netlist=core, cached=True):
                result = _search_from_json(path.read_text(), params)
        except Exception as exc:  # truncated/garbled JSON, missing keys
            _discard_corrupt(path, "search", exc)
        else:
            counter("context.search.cache.hit").inc()
            record_search_metrics(result)
            _COMPLETED_SEARCHES[(core, suffix)] = result
            return result
    counter("context.search.cache.miss").inc()
    netlist = get_netlist(core)
    wires = faulty_wires_for_dffs(netlist, exclude_register_file=exclude_register_file)
    result = find_mates(netlist, faulty_wires=wires, params=params)
    text = _search_to_json(result)
    _atomic_write(path, lambda fh: fh.write(text.encode()))
    _COMPLETED_SEARCHES[(core, suffix)] = result
    return result


def get_fault_wires(core: str, exclude_register_file: bool) -> list[str]:
    """Fault-space wires for one (core, FF-set) input."""
    from repro.core.search import faulty_wires_for_dffs

    return list(
        faulty_wires_for_dffs(
            get_netlist(core), exclude_register_file=exclude_register_file
        )
    )


def get_mates(core: str, exclude_register_file: bool) -> list[Mate]:
    """Deduplicated MATE list for one (core, FF-set) input."""
    return get_search(core, exclude_register_file).mate_set().mates()


def clear_disk_cache() -> int:
    """Delete all cached artifacts; returns the number of files removed."""
    removed = 0
    if _CACHE_DIR.exists():
        for path in _CACHE_DIR.iterdir():
            path.unlink()
            removed += 1
    return removed


__all__ = [
    "CORES",
    "PROGRAMS",
    "TRACE_CYCLES",
    "cache_dir",
    "clear_disk_cache",
    "completed_searches",
    "get_fault_wires",
    "get_mates",
    "get_netlist",
    "get_search",
    "get_simulator",
    "get_trace",
    "make_system",
]
