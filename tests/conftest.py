"""Shared fixtures and property-test generators.

Fixtures cover the paper scenario in various sizes; the Hypothesis
strategies at the bottom generate arbitrary master relations, editing
rules and probe keys for the store-parity property tests
(``tests/test_store_parity.py``) — values are drawn from a small,
collision-prone alphabet so normalised keys overlap, buckets carry
duplicates, and ambiguous correction values actually occur.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro import CerFix, CertaintyMode
from repro.core.rule import EditingRule, MasterColumn, MatchPair
from repro.master import MasterDataManager
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.scenarios import hospital, uk_customers as uk


@pytest.fixture(scope="session")
def paper_master():
    return uk.paper_master()


@pytest.fixture(scope="session")
def paper_ruleset():
    return uk.paper_ruleset()


@pytest.fixture(scope="session")
def extended_ruleset():
    return uk.paper_ruleset(extended=True)


@pytest.fixture(scope="session")
def paper_manager(paper_master):
    return MasterDataManager(paper_master)


@pytest.fixture(scope="session")
def uk_master_100():
    return uk.generate_master(100, seed=11)


@pytest.fixture(scope="session")
def uk_workload(uk_master_100):
    return uk.generate_workload(uk_master_100, 120, rate=0.25, seed=12)


@pytest.fixture()
def paper_engine(paper_ruleset, paper_master):
    return CerFix(
        paper_ruleset,
        paper_master,
        mode=CertaintyMode.SCENARIO,
        scenario=uk.scenario_tuples(paper_master),
    )


@pytest.fixture(scope="session")
def hospital_master():
    return hospital.generate_master(40, seed=3)


@pytest.fixture(scope="session")
def hospital_ruleset():
    return hospital.hospital_ruleset()


def street_variants(dirty: Relation, truth: Relation, every: int = 3) -> tuple[Relation, Relation]:
    """``dirty``/``truth`` plus a copy of every ``every``-th row whose
    truth differs only in ``str``. A uk rule always fixes ``str`` from
    the master data, so no question asks for it: each copy has an
    answer key of its own but replays its original's transcript."""
    position = truth.schema.position("str")
    extra = range(0, len(truth), every)
    truth_rows = truth.raw_tuples()
    variants = [
        truth_rows[i][:position] + (f"{truth_rows[i][position]} (alt)",) + truth_rows[i][position + 1:]
        for i in extra
    ]
    dirty_rows = dirty.raw_tuples()
    return (
        Relation(dirty.schema, list(dirty_rows) + [dirty_rows[i] for i in extra]),
        Relation(truth.schema, list(truth_rows) + variants),
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies for the store-parity property tests
# ---------------------------------------------------------------------------

#: Deliberately collision-prone: pairs that normalise together under
#: casefold / digits / alnum / collapse_spaces, plus empties and typos.
PROBE_VALUE_ALPHABET = (
    "EH8 4AH", "eh84ah", "EH84AH", "DH1 3LE", "dh13le",
    "0791724858", "0791 724 858", "131", "191",
    "Mike", "mike", "M.", "Dur", "Durham", "durham ",
    "", " ", "20 Baker St", "20 baker st",
)

MATCH_OPS = ("exact", "casefold", "digits", "alnum", "collapse_spaces")

#: Fixed probe-test schema: two key columns, one correction column.
PROBE_MASTER_SCHEMA = Schema("pm", ["k0", "k1", "v"])


def probe_values() -> st.SearchStrategy[str]:
    return st.sampled_from(PROBE_VALUE_ALPHABET)


def master_relations(min_rows: int = 0, max_rows: int = 24) -> st.SearchStrategy[Relation]:
    """Master relations over :data:`PROBE_MASTER_SCHEMA` with heavy key
    collision (so shard buckets, duplicates and ambiguity all occur)."""
    row = st.tuples(probe_values(), probe_values(), probe_values())
    return st.lists(row, min_size=min_rows, max_size=max_rows).map(
        lambda rows: Relation(PROBE_MASTER_SCHEMA, rows)
    )


def probe_rules() -> st.SearchStrategy[EditingRule]:
    """Editing rules over the probe schema: 1 or 2 match pairs, each
    with an arbitrary match operator, correcting column ``v``."""

    def build(ops: list[str]) -> EditingRule:
        match = tuple(
            MatchPair(f"a{i}", f"k{i}", op) for i, op in enumerate(ops)
        )
        return EditingRule("pr", match, "b", MasterColumn("v"))

    return st.lists(st.sampled_from(MATCH_OPS), min_size=1, max_size=2).map(build)


@st.composite
def probe_cases(draw) -> tuple[Relation, EditingRule, dict[str, str]]:
    """(master relation, rule, probe values) for one differential probe.

    Probe keys are biased toward values that exist in the master so
    hits are common, but arbitrary alphabet values (guaranteed misses,
    normalisation collisions) are drawn too.
    """
    master = draw(master_relations())
    rule = draw(probe_rules())
    values: dict[str, str] = {}
    for i, attr in enumerate(rule.lhs_attrs):
        if len(master) and draw(st.booleans()):
            pos = draw(st.integers(0, len(master) - 1))
            values[attr] = master.tuples()[pos][i]
        else:
            values[attr] = draw(probe_values())
    return master, rule, values
