"""Pins the exact MATE search output on both cores.

``bench/expected.json`` pins only MATE *counts*; a change to the
implication engine or the candidate loop could find other MATEs in the
same number, or spend the budgets differently, without moving them. This
digest covers, per wire, the status, ``candidates_tried``,
``exact_checks`` and every found MATE's literals in discovery order.

The wires are the seed-1 search wires of ``python -m bench.analysis``
(``bench.analysis.search_wires``), written out so that a change to the
seeding cannot silently change what is pinned.
"""

import hashlib

import pytest

from repro.core.search import find_mates

SEARCH_DFFS = {
    "avr": (
        "rstack0_b5", "rstack0_b7", "rstack0_b3",
        "rstack1_b10", "rstack1_b0", "rstack1_b3",
    ),
    "msp430": (
        "mar_b15", "mar_b12", "dstaddr_b15",
        "dstaddr_b6", "dstval_b8", "srcval_b2",
    ),
}

EXPECTED_DIGESTS = {
    "avr": "7f70a15d2e83463b",
    "msp430": "d551ce559b3018d0",
}


def search_digest(result) -> str:
    """Short sha256 over each wire's status, budgets spent and MATEs."""
    digest = hashlib.sha256()
    for wire in result.wire_results:
        mates = [mate.literals for mate in wire.mates]
        line = (
            wire.wire, wire.status, wire.candidates_tried,
            wire.exact_checks, mates,
        )
        digest.update(repr(line).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module", params=["avr", "msp430"])
def searched(request, avr_sim, msp430_sim):
    core = request.param
    netlist = {"avr": avr_sim, "msp430": msp430_sim}[core].netlist
    wires = {netlist.dffs[name].q: name for name in SEARCH_DFFS[core]}
    return core, find_mates(netlist, faulty_wires=wires, audit=True)


def test_search_output_is_pinned(searched):
    core, result = searched
    assert search_digest(result) == EXPECTED_DIGESTS[core]


def test_found_mates_survive_the_static_audit(searched):
    _core, result = searched
    assert result.num_mates > 0
    assert result.audit.refuted == 0
