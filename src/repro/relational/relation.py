"""Relations: schema-typed, columnar collections of rows with lazy hash indexes.

Storage is columnar with per-column value interning: each attribute owns a
:class:`ColumnDict` (distinct values stored once, plus lazily computed
per-operator normalised arrays) and a row is just one compact value-id per
column. The public API is unchanged from the row-oriented version —
:class:`~repro.relational.row.Row` views, ``lookup``/``project``/``select``,
``tuples()``/``raw_tuples()`` and pickling all behave identically — but the
hot paths become set-at-a-time column passes:

* index builds compose pre-normalised id-arrays (``normalize_value`` runs
  once per *distinct* column value, not once per row per probe),
* ``tuples()``/``raw_tuples()`` serve a cached materialisation that is
  invalidated on mutation, and
* pickling ships columns + dictionaries instead of row tuples, so repeated
  values cross process boundaries once.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import RelationError
from repro.relational.index import HashIndex
from repro.relational.normalize import normalize_value
from repro.relational.row import Row
from repro.relational.schema import Schema


class ColumnDict:
    """Interning dictionary for one column.

    ``values`` maps value-id → value; ``_ids`` maps ``(type, value)`` → id
    so values that compare equal across types (``1`` / ``1.0`` / ``True``)
    keep distinct ids and decode back to exactly what was stored.
    Unhashable values cannot be interned and get a fresh id each time.

    ``normalized(op)`` returns the parallel array value-id → normalised
    value for one match operator, computed lazily per op and extended
    incrementally as new values are interned — this is what lets the
    relation hand :meth:`HashIndex.build_prenormalized` ready-made keys.
    """

    __slots__ = ("values", "_ids", "_norms")

    def __init__(self, values: Iterable[Any] = ()):
        self.values: list[Any] = []
        self._ids: dict[tuple, int] = {}
        self._norms: dict[str, list[Any]] = {}
        for value in values:
            self.intern(value)

    def intern(self, value: Any) -> int:
        """The id for ``value``, allocating (and normalising) if new."""
        try:
            key = (value.__class__, value)
            vid = self._ids.get(key)
        except TypeError:  # unhashable: store without interning
            key = None
            vid = None
        if vid is None:
            vid = len(self.values)
            self.values.append(value)
            if key is not None:
                self._ids[key] = vid
            for op, norm in self._norms.items():
                norm.append(normalize_value(value, op))
        return vid

    def id_of(self, value: Any) -> int | None:
        """The id ``value`` was interned under, or None (not interned,
        or unhashable)."""
        try:
            return self._ids.get((value.__class__, value))
        except TypeError:
            return None

    def intern_all(self, values: Sequence[Any]) -> list[int]:
        """The ids of ``values``, in order (:meth:`intern` for a whole
        column): one dictionary lookup per cell, and the allocating
        path only for cells not yet interned."""
        try:
            get = self._ids.get
            found = [get((v.__class__, v)) for v in values]
        except TypeError:  # an unhashable cell: intern one by one
            return [self.intern(v) for v in values]
        intern = self.intern
        return [vid if vid is not None else intern(v) for vid, v in zip(found, values)]

    def copy(self) -> "ColumnDict":
        """An independent dictionary with the same ids (normalised
        arrays are left to rebuild lazily)."""
        out = ColumnDict.__new__(ColumnDict)
        out.values = list(self.values)
        out._ids = dict(self._ids)
        out._norms = {}
        return out

    def normalized(self, op: str) -> list[Any]:
        """The id → normalised-value array for ``op`` (lazily computed)."""
        norm = self._norms.get(op)
        if norm is None:
            norm = [normalize_value(v, op) for v in self.values]
            self._norms[op] = norm
        return norm

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"ColumnDict({len(self.values)} values)"


class Relation:
    """An in-memory columnar relation.

    Rows are stored as one value-id per column (see :class:`ColumnDict`);
    :meth:`rows` yields :class:`Row` views on demand. Hash indexes are
    built lazily per (attribute list, operator list) from pre-normalised
    column arrays and invalidated on mutation, so callers never see a
    stale index.

    >>> s = Schema("r", ["a", "b"])
    >>> rel = Relation(s, [(1, "x"), (2, "y")])
    >>> rel.lookup(("a",), (2,))[0]["b"]
    'y'
    """

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any] | Row | Mapping[str, Any]] = ()):
        self.schema = schema
        self._dicts: list[ColumnDict] = [ColumnDict() for _ in range(len(schema))]
        self._cols: list[list[int]] = [[] for _ in range(len(schema))]
        self._nrows = 0
        self._indexes: dict[tuple, HashIndex] = {}
        self._mat: list[tuple] | None = None
        self._version = 0
        self.extend(rows)

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        dicts: Sequence[ColumnDict],
        cols: Sequence[list[int]],
        nrows: int | None = None,
    ) -> "Relation":
        """A relation over ready-made columns: ``dicts[p]`` decodes the
        ids in ``cols[p]``. Both are taken over, not copied (a dictionary
        may be shared — they are append-only, so ids stay valid)."""
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._dicts = list(dicts)
        relation._cols = list(cols)
        relation._nrows = nrows if nrows is not None else len(cols[0]) if cols else 0
        relation._indexes = {}
        relation._mat = None
        relation._version = 0
        return relation

    # -- mutation --------------------------------------------------------

    def append(self, row: Sequence[Any] | Row | Mapping[str, Any]) -> int:
        """Add one row; returns its position. Invalidates indexes."""
        values = self._coerce(row)
        for col, d, value in zip(self._cols, self._dicts, values):
            col.append(d.intern(value))
        self._nrows += 1
        self._indexes.clear()
        self._mat = None
        self._version += 1
        return self._nrows - 1

    def extend(self, rows: Iterable[Sequence[Any] | Row | Mapping[str, Any]]) -> None:
        """Add many rows, interning column by column. Plain tuples of the
        right arity skip :meth:`_coerce`. Invalidates indexes once."""
        arity = len(self.schema)
        coerced = [
            r if r.__class__ is tuple and len(r) == arity else self._coerce(r)
            for r in rows
        ]
        if not coerced:
            return
        for pos, (col, d) in enumerate(zip(self._cols, self._dicts)):
            col.extend(d.intern_all([t[pos] for t in coerced]))
        self._nrows += len(coerced)
        self._indexes.clear()
        self._mat = None
        self._version += 1

    def update_cell(self, position: int, attr: str, value: Any) -> None:
        """Replace one cell in place. Invalidates indexes."""
        pos = self.schema.position(attr)
        col = self._cols[pos]
        try:
            col[position]
        except IndexError:
            raise RelationError(f"relation {self.schema.name!r} has no row {position}") from None
        col[position] = self._dicts[pos].intern(value)
        self._indexes.clear()
        self._mat = None
        self._version += 1

    def delete_rows(self, positions: Iterable[int]) -> None:
        """Remove rows by position. Invalidates indexes.

        Positions of the remaining rows shift down, so any stored row
        references (e.g. audit provenance) refer to the relation version
        at the time they were recorded — snapshot semantics. Interned
        values stay in the column dictionaries (ids are never reused);
        value-level views (``column``, ``active_domain``) read the id
        arrays, so dropped values do not leak into them.
        """
        drop = set(positions)
        bad = [p for p in drop if not 0 <= p < self._nrows]
        if bad:
            raise RelationError(f"relation {self.schema.name!r} has no rows {sorted(bad)}")
        if not drop:
            return
        keep = [i for i in range(self._nrows) if i not in drop]
        self._cols = [[col[i] for i in keep] for col in self._cols]
        self._nrows = len(keep)
        self._indexes.clear()
        self._mat = None
        self._version += 1

    def _coerce(self, row: Sequence[Any] | Row | Mapping[str, Any]) -> tuple:
        if isinstance(row, Row):
            if row.schema != self.schema:
                raise RelationError(
                    f"row of schema {row.schema.name!r} cannot join relation {self.schema.name!r}"
                )
            return row.values
        if isinstance(row, Mapping):
            return Row.from_dict(self.schema, row).values
        values = tuple(row)
        if len(values) != len(self.schema):
            raise RelationError(
                f"row arity {len(values)} does not match schema {self.schema.name!r} arity {len(self.schema)}"
            )
        return values

    # -- access ----------------------------------------------------------

    def _materialized(self) -> list[tuple]:
        """Row tuples decoded from the columns, cached until mutation.
        Rows with equal ids share one tuple, so a duplicate-heavy
        relation materialises as pointers to its distinct rows."""
        mat = self._mat
        if mat is None:
            if not self._cols:
                mat = [()] * self._nrows
            else:
                keys = list(zip(*self._cols))
                distinct = dict.fromkeys(keys)
                if len(distinct) < len(keys):
                    dict_values = [d.values for d in self._dicts]
                    for key in distinct:
                        distinct[key] = tuple(v[i] for v, i in zip(dict_values, key))
                    mat = list(map(distinct.__getitem__, keys))
                else:
                    decoded = [
                        [d.values[i] for i in col] for d, col in zip(self._dicts, self._cols)
                    ]
                    mat = list(zip(*decoded))
            self._mat = mat
        return mat

    def row(self, position: int) -> Row:
        """The :class:`Row` at ``position``."""
        mat = self._mat
        if mat is not None:
            try:
                return Row(self.schema, mat[position])
            except IndexError:
                raise RelationError(
                    f"relation {self.schema.name!r} has no row {position}"
                ) from None
        try:
            values = tuple(d.values[col[position]] for d, col in zip(self._dicts, self._cols))
        except IndexError:
            raise RelationError(f"relation {self.schema.name!r} has no row {position}") from None
        if not self._cols and not -self._nrows <= position < self._nrows:
            raise RelationError(f"relation {self.schema.name!r} has no row {position}")
        return Row(self.schema, values)

    def rows(self) -> Iterator[Row]:
        """Iterate rows as :class:`Row` views."""
        schema = self.schema
        for values in self._materialized():
            yield Row(schema, values)

    def tuples(self) -> list[tuple]:
        """The raw value tuples (a shallow copy; mutation-safe)."""
        return list(self._materialized())

    def raw_tuples(self) -> Sequence[tuple]:
        """The raw value tuples *without* a copy — a read-only borrow for
        hot probe paths (an O(|relation|) copy per probe would dominate).
        Callers must not mutate the returned list."""
        return self._materialized()

    def column(self, name: str) -> list[Any]:
        """All values of one attribute, in row order."""
        pos = self.schema.position(name)
        values = self._dicts[pos].values
        return [values[i] for i in self._cols[pos]]

    def column_ids(self, name: str) -> tuple[ColumnDict, list[int]]:
        """One attribute's dictionary and value ids, in row order: equal
        ids are equal values of one type. A read-only borrow, like
        :meth:`raw_tuples`."""
        pos = self.schema.position(name)
        return self._dicts[pos], self._cols[pos]

    def predicate_mask(self, name: str, predicate: Callable[[Any], bool]) -> list[bool]:
        """Per-row truth of ``predicate`` over one column — evaluated
        once per *distinct* value (the column dictionary), then fanned
        out over the row positions. The column-wise filter primitive:
        detectors run their conditions over the dictionary instead of
        re-testing every cell."""
        pos = self.schema.position(name)
        verdicts = [bool(predicate(v)) for v in self._dicts[pos].values]
        return [verdicts[i] for i in self._cols[pos]]

    def active_domain(self, name: str) -> set:
        """The set of distinct values of one attribute."""
        pos = self.schema.position(name)
        values = self._dicts[pos].values
        return {values[i] for i in set(self._cols[pos])}

    def project(self, names: Sequence[str], name: str | None = None) -> "Relation":
        """A new relation with just ``names`` (duplicates kept)."""
        schema = self.schema.project(names, name)
        positions = [self.schema.position(n) for n in names]
        # Dictionaries are shared: they are append-only (ids are stable),
        # so growth through either relation cannot corrupt the other.
        return Relation.from_columns(
            schema,
            [self._dicts[p] for p in positions],
            [list(self._cols[p]) for p in positions],
            self._nrows,
        )

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """A new relation with the rows satisfying ``predicate``."""
        schema = self.schema
        keep = [
            i for i, t in enumerate(self._materialized()) if predicate(Row(schema, t))
        ]
        return Relation.from_columns(
            schema, self._dicts, [[col[i] for i in keep] for col in self._cols], len(keep)
        )

    # -- indexing --------------------------------------------------------

    def index_on(self, attrs: Sequence[str], ops: Sequence[str] | None = None) -> HashIndex:
        """Return (building lazily) the hash index on ``attrs`` / ``ops``."""
        attrs = self.schema.require(attrs)
        ops = tuple(ops) if ops is not None else ("exact",) * len(attrs)
        key = (attrs, ops)
        index = self._indexes.get(key)
        if index is None:
            index = HashIndex(attrs, ops)
            if attrs:
                ncols = []
                for a, op in zip(attrs, ops):
                    pos = self.schema.position(a)
                    norm = self._dicts[pos].normalized(op)
                    ncols.append([norm[i] for i in self._cols[pos]])
                index.build_prenormalized(zip(*ncols))
            else:
                index.build_prenormalized(() for _ in range(self._nrows))
            self._indexes[key] = index
        return index

    def lookup(
        self,
        attrs: Sequence[str],
        values: Sequence[Any],
        ops: Sequence[str] | None = None,
    ) -> list[Row]:
        """Rows matching ``values`` on ``attrs`` under the given operators."""
        index = self.index_on(attrs, ops)
        return [self.row(pos) for pos in index.lookup(values)]

    def scan_lookup(
        self,
        attrs: Sequence[str],
        values: Sequence[Any],
        ops: Sequence[str] | None = None,
    ) -> list[Row]:
        """Index-free equivalent of :meth:`lookup` (for the index ablation)."""
        attrs = self.schema.require(attrs)
        probe = HashIndex(attrs, ops)  # reused only for key normalisation
        target = probe.key_of(values)
        positions = [self.schema.position(a) for a in attrs]
        out = []
        for i, t in enumerate(self._materialized()):
            if probe.key_of(tuple(t[p] for p in positions)) == target:
                out.append(self.row(i))
        return out

    # -- dunder ----------------------------------------------------------

    def __reduce__(self):
        """Pickle as (schema, column dictionaries, id columns): indexes
        and the materialisation cache are derived, rebuilt lazily on
        first use, and shipping them (e.g. to batch worker processes or
        sharded sub-relations) would dwarf the data itself. Repeated
        values ship once — the dictionary — instead of once per row."""
        return (
            _rebuild_columnar,
            (self.schema, [d.values for d in self._dicts], self._cols, self._nrows),
        )

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self)} rows)"


def _rebuild_columnar(
    schema: Schema, dict_values: Sequence[Sequence[Any]], cols: Sequence[Sequence[int]], nrows: int
) -> Relation:
    """Unpickle target: reattach known-good columns without re-interning
    row by row; indexes start empty and rebuild lazily on first probe."""
    dicts = []
    for values in dict_values:
        d = ColumnDict.__new__(ColumnDict)
        d.values = list(values)
        ids: dict[tuple, int] = {}
        for vid, value in enumerate(d.values):
            try:
                ids.setdefault((value.__class__, value), vid)
            except TypeError:
                pass
        d._ids = ids
        d._norms = {}
        dicts.append(d)
    return Relation.from_columns(schema, dicts, [list(c) for c in cols], nrows)
