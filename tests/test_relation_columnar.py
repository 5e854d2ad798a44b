"""Property-based parity: the columnar Relation vs a naive row store.

The columnar representation (per-column interning dictionaries + id
arrays, see :mod:`repro.relational.relation`) is an optimisation, not a
semantics change: every public operation must behave exactly as if rows
were stored as plain tuples. This suite drives random mutation
sequences against both representations and checks full observational
equivalence — including the type-aware interning corner (``1`` /
``1.0`` / ``True`` compare equal but must decode back to exactly what
was stored), index/scan lookup parity, and the pickle round trip.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RelationError
from repro.relational.relation import Relation
from repro.relational.schema import Schema

ATTRS = ("a", "b", "c")

# Small pools force collisions: interning, index buckets and the
# 1/1.0/True type-confusion corner all get exercised constantly.
values = st.one_of(
    st.sampled_from([0, 1, 2, True, False, 1.0, 0.0, None]),
    st.sampled_from(["", "x", "EH8 4AH", "eh8 4ah", "020", 20, "Ldn"]),
    st.integers(min_value=-3, max_value=3),
)
rows = st.tuples(values, values, values)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), rows),
        st.tuples(st.just("extend"), st.lists(rows, max_size=5)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=999),  # position seed
            st.sampled_from(ATTRS),
            values,
        ),
        st.tuples(
            st.just("delete"),
            st.lists(st.integers(min_value=0, max_value=999), max_size=4),
        ),
    ),
    max_size=12,
)


def _apply(ops) -> tuple[Relation, list[tuple]]:
    """Run one operation sequence against both representations."""
    relation = Relation(Schema("r", ATTRS))
    reference: list[tuple] = []
    for op in ops:
        if op[0] == "append":
            relation.append(op[1])
            reference.append(op[1])
        elif op[0] == "extend":
            relation.extend(op[1])
            reference.extend(op[1])
        elif op[0] == "update":
            _, seed, attr, value = op
            if not reference:
                continue
            pos = seed % len(reference)
            relation.update_cell(pos, attr, value)
            i = ATTRS.index(attr)
            reference[pos] = reference[pos][:i] + (value,) + reference[pos][i + 1 :]
        else:  # delete
            if not reference:
                continue
            drop = sorted({seed % len(reference) for seed in op[1]})
            relation.delete_rows(drop)
            reference = [t for i, t in enumerate(reference) if i not in drop]
    return relation, reference


def _same_value(x, y) -> bool:
    """Equality that refuses 1 == 1.0 == True: decoding must return the
    stored object, not an equal impostor from another row."""
    return x.__class__ is y.__class__ and x == y


def _same_tuples(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        len(x) == len(y) and all(_same_value(a, b) for a, b in zip(x, y))
        for x, y in zip(xs, ys)
    )


@settings(max_examples=60, deadline=None)
@given(operations)
def test_mutation_sequence_matches_row_store(ops):
    relation, reference = _apply(ops)
    assert len(relation) == len(reference)
    assert _same_tuples(relation.tuples(), reference)
    assert _same_tuples([r.values for r in relation.rows()], reference)
    for i in range(len(reference)):
        assert _same_tuples([relation.row(i).values], [reference[i]])
    for pos, name in enumerate(ATTRS):
        column = [t[pos] for t in reference]
        assert _same_tuples([tuple(relation.column(name))], [tuple(column)])
        assert relation.active_domain(name) == set(column)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_predicate_mask_matches_per_row_evaluation(ops):
    relation, reference = _apply(ops)
    predicate = lambda v: isinstance(v, str) or v == 1  # noqa: E731
    for pos, name in enumerate(ATTRS):
        expected = [bool(predicate(t[pos])) for t in reference]
        assert relation.predicate_mask(name, predicate) == expected
    # a type-aware predicate must see the stored object, not a
    # hash-equal stand-in from another row
    is_bool = lambda v: isinstance(v, bool)  # noqa: E731
    expected = [isinstance(t[0], bool) for t in reference]
    assert relation.predicate_mask("a", is_bool) == expected


@settings(max_examples=60, deadline=None)
@given(operations)
def test_project_and_select_match_row_store(ops):
    relation, reference = _apply(ops)
    projected = relation.project(("c", "a"))
    assert _same_tuples(projected.tuples(), [(t[2], t[0]) for t in reference])
    # projections snapshot the rows: growing the base leaves them alone
    relation.append((1, 2, 3))
    assert _same_tuples(projected.tuples(), [(t[2], t[0]) for t in reference])
    reference.append((1, 2, 3))
    predicate = lambda v: isinstance(v, int) and not isinstance(v, bool)  # noqa: E731
    selected = relation.select(lambda r: predicate(r["b"]))
    assert _same_tuples(selected.tuples(), [t for t in reference if predicate(t[1])])


@settings(max_examples=60, deadline=None)
@given(operations, rows)
def test_lookup_matches_scan_lookup(ops, probe):
    relation, reference = _apply(ops)
    for attrs, key in ((("a",), (probe[0],)), (("a", "c"), (probe[0], probe[2]))):
        indexed = relation.lookup(attrs, key)
        scanned = relation.scan_lookup(attrs, key)
        assert _same_tuples(
            [r.values for r in indexed], [r.values for r in scanned]
        )
    # mutation invalidates the index; the next lookup sees the new row
    relation.append(probe)
    reference.append(probe)
    hits = relation.lookup(ATTRS, probe)
    assert any(_same_tuples([r.values], [probe]) for r in hits)


@settings(max_examples=40, deadline=None)
@given(operations)
def test_pickle_round_trip_preserves_rows_and_mutability(ops):
    relation, reference = _apply(ops)
    clone = pickle.loads(pickle.dumps(relation))
    assert _same_tuples(clone.tuples(), reference)
    # the clone keeps working: interning, indexes and mutation all live
    clone.append(("EH8 4AH", 1, True))
    assert len(clone) == len(reference) + 1
    assert _same_tuples([clone.row(len(reference)).values], [("EH8 4AH", 1, True)])
    assert clone.lookup(("a",), ("EH8 4AH",))
    assert _same_tuples(relation.tuples(), reference)  # original untouched


def test_unhashable_values_are_stored_uninterned():
    relation = Relation(Schema("r", ATTRS))
    relation.append(([1, 2], "x", 0))
    relation.append(([1, 2], "x", 0))
    assert relation.tuples() == [([1, 2], "x", 0), ([1, 2], "x", 0)]
    assert relation.column("a") == [[1, 2], [1, 2]]
    mask = relation.predicate_mask("a", lambda v: isinstance(v, list))
    assert mask == [True, True]


def test_delete_rejects_out_of_range_positions():
    relation = Relation(Schema("r", ATTRS), [(1, 2, 3)])
    with pytest.raises(RelationError):
        relation.delete_rows([5])
    with pytest.raises(RelationError):
        relation.update_cell(7, "a", 0)


#: Cells that compare equal across types or signs: 1 / 1.0 / True, 0.0 / -0.0.
_TYPED_ROWS = [(-0.0, 1, "x"), (0.0, 1.0, "x"), (1, True, "x"), (-0.0, 1, "x"), (0.0, 1.0, "x")]


@pytest.mark.parametrize("form", ["tuple", "list", "mapping", "row", "extend"])
def test_ingestion_paths_agree_with_every_view(form):
    """Plain tuples skip coercion; every ingestion path must still give
    ``raw_tuples``, ``row`` and ``column`` one answer, typed."""
    from repro.relational.row import Row

    schema = Schema("r", ATTRS)
    convert = {
        "tuple": tuple,
        "list": list,
        "mapping": lambda r: dict(zip(ATTRS, r)),
        "row": lambda r: Row(schema, r),
        "extend": tuple,
    }[form]
    rows = [convert(r) for r in _TYPED_ROWS]
    if form == "extend":
        relation = Relation(schema, rows[:1])
        relation.extend(rows[1:])
    else:
        relation = Relation(schema, rows)
    by_row = [repr(relation.row(i).values) for i in range(len(rows))]
    assert [repr(r) for r in relation.raw_tuples()] == by_row
    columns = [relation.column(a) for a in ATTRS]
    assert [repr(r) for r in zip(*columns)] == by_row
    assert [type(r[1]) for r in relation.raw_tuples()] == [int, float, bool, int, float]
    # Rows with equal ids materialise as one shared tuple.
    raw = relation.raw_tuples()
    assert raw[3] is raw[0] and raw[4] is raw[1]
    with pytest.raises(RelationError):
        Relation(schema, [convert((1, 2))])
