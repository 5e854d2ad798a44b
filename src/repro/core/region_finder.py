"""The region finder (paper Fig. 1): top-k certain regions.

Searches attribute sets ascending by size (the paper ranks regions
"ascendingly by the number of attributes"), prunes with two sound
filters — every region must contain the *mandatory* attributes (those no
rule can fix), and must be syntactically closed (the rule graph can in
principle reach every attribute) — then certifies candidates with the
exact machinery of :mod:`repro.core.certainty`.

When an attribute set is not certain unconditionally, the finder harvests
the *safe* value combinations (those whose chase completes) and condenses
them into a pattern tableau: per-attribute generalisation rewrites groups
of safe combinations into wildcard / ``≠c`` / constant conditions while
preserving the matched set exactly. This is how the demo's ``AC ≠ 0800``
pattern (rule ϕ9) resurfaces in the region tableau.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import BudgetExceededError
from repro.core.certainty import (
    CertaintyMode,
    FreshValue,
    Scenario,
    candidate_combos,
    fresh,
    value_partition,
)
from repro.core.inference import mandatory_attributes, syntactically_certain
from repro.core.pattern import (
    EMPTY_PATTERN,
    WILDCARD,
    Condition,
    Eq,
    NotIn,
    PatternTuple,
    Wildcard,
)
from repro.core.region import RankedRegion, Region
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.master.plane import ProbePlane
from repro.obs import trace
from repro.obs.metrics import get_registry

_WAVES = get_registry().counter("cerfix.precompute.waves")
_KEYS_FETCHED = get_registry().counter("cerfix.precompute.keys_fetched")


def harvest_safe_combos(
    attrs: Sequence[str],
    ruleset: RuleSet,
    master: MasterDataManager,
    *,
    mode: CertaintyMode = CertaintyMode.STRICT,
    scenario: Scenario | None = None,
    max_combos: int = 200_000,
) -> tuple[list[dict[str, Any]], dict[str, list[Any]], int]:
    """Enumerate the mode's universe for ``attrs``; keep chase-safe combos.

    Returns ``(safe, universe, total)`` where ``universe`` maps each
    attribute to the distinct candidate values that actually occurred in
    the enumeration (the domain over which tableau condensation reasons).
    The chases run through a :class:`ProbePlane` (``master`` itself when
    it is one), in waves over a networked store.
    """
    attrs = tuple(attrs)
    plane = master if isinstance(master, ProbePlane) else ProbePlane(master)
    names = ruleset.input_schema.names
    in_flight: deque[dict[str, Any]] = deque()  # combos awaiting their chase result
    total = 0

    def jobs() -> Iterator[tuple[dict[str, Any], tuple[str, ...]]]:
        nonlocal total
        for combo in candidate_combos(
            attrs,
            EMPTY_PATTERN,
            ruleset,
            plane,
            mode=mode,
            scenario=scenario,
            partition=value_partition(ruleset, plane),
            max_combos=max_combos,
        ):
            total += 1
            in_flight.append(combo)
            yield {n: combo.get(n, fresh(n)) for n in names}, attrs

    safe: list[dict[str, Any]] = []
    universe: dict[str, list[Any]] = {a: [] for a in attrs}
    for result in plane.chase_all(jobs(), ruleset):
        combo = in_flight.popleft()
        for a in attrs:
            if combo[a] not in universe[a]:
                universe[a].append(combo[a])
        if result.is_complete:
            safe.append(dict(combo))
    return safe, universe, total


# --------------------------------------------------------------------------
# Tableau condensation
# --------------------------------------------------------------------------


def _condition_for(values: frozenset[int], universe: Sequence[Any]) -> Condition | None:
    """The single condition matching exactly ``values`` ⊆ universe, if one
    exists in the Eq / NotIn / wildcard language; ``None`` otherwise."""
    n = len(universe)
    if len(values) == n:
        return WILDCARD
    missing = [universe[i] for i in range(n) if i not in values]
    fresh_in = any(isinstance(universe[i], FreshValue) for i in values)
    fresh_missing = any(isinstance(v, FreshValue) for v in missing)
    if fresh_in and not fresh_missing:
        # complement is a set of constants -> expressible as NotIn
        return NotIn(missing)
    if len(values) == 1:
        v = universe[next(iter(values))]
        if not isinstance(v, FreshValue):
            return Eq(v)
    return None


def condense_tableau(
    attrs: Sequence[str],
    safe_combos: Iterable[Mapping[str, Any]],
    universe: Mapping[str, Sequence[Any]],
) -> tuple[PatternTuple, ...]:
    """Condense safe value combinations into an exact pattern tableau.

    Every combination is first turned into a row of conditions (a fresh
    sentinel becomes ``NotIn(all constants)`` — "any out-of-partition
    value"). Then, repeatedly: group rows agreeing on all attributes but
    one, union their coverage on that attribute, and replace the group by
    one row whenever the union is expressible as a single condition.
    The matched set over the universe is preserved exactly at every step
    (property-tested), so the resulting tableau accepts precisely the
    safe combinations.
    """
    attrs = tuple(attrs)
    uni = {a: list(universe[a]) for a in attrs}

    rows: set[tuple[frozenset[int], ...]] = set()
    for combo in safe_combos:
        row = []
        for a in attrs:
            row.append(frozenset([uni[a].index(combo[a])]))
        rows.add(tuple(row))
    if not rows:
        return ()

    changed = True
    while changed:
        changed = False
        for pos in range(len(attrs)):
            groups: dict[tuple, set[frozenset[int]]] = {}
            for row in rows:
                key = row[:pos] + row[pos + 1 :]
                groups.setdefault(key, set()).add(row[pos])
            new_rows: set[tuple[frozenset[int], ...]] = set()
            for key, coverages in groups.items():
                union = frozenset().union(*coverages)
                merged = _condition_for(union, uni[attrs[pos]])
                if merged is not None and len(coverages) > 1:
                    new_rows.add(key[:pos] + (union,) + key[pos:])
                    changed = True
                else:
                    for cov in coverages:
                        new_rows.add(key[:pos] + (cov,) + key[pos:])
            rows = new_rows

    patterns = []
    for row in sorted(rows, key=repr):
        conds: dict[str, Condition] = {}
        for a, cov in zip(attrs, row):
            cond = _condition_for(cov, uni[a])
            # Row cells are always expressible: initial cells are singletons
            # (Eq for a constant, NotIn(constants) for the fresh sentinel,
            # wildcard when the universe is the lone fresh value), and the
            # merge loop only accepts expressible unions.
            assert cond is not None, f"inexpressible condition for {a}: {cov}"
            if not isinstance(cond, Wildcard):
                conds[a] = cond
        patterns.append(PatternTuple(conds))
    # Deduplicate while keeping deterministic order.
    seen = set()
    out = []
    for p in patterns:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


# --------------------------------------------------------------------------
# Top-k search
# --------------------------------------------------------------------------


def find_certain_regions(
    ruleset: RuleSet,
    master: MasterDataManager,
    *,
    k: int = 5,
    max_size: int | None = None,
    mode: CertaintyMode = CertaintyMode.STRICT,
    scenario: Scenario | None = None,
    max_combos: int = 200_000,
    generalize: bool = True,
    subset_budget: int = 50_000,
) -> list[RankedRegion]:
    """Compute the top-k certain regions, ranked ascending by size.

    Search proceeds level-by-level over attribute-set size starting from
    the mandatory core. At each level, candidate sets that fail the
    syntactic-closure prune are skipped; survivors are certified exactly.
    An attribute set certified *unconditionally* (wildcard tableau)
    suppresses all its strict supersets — they could only tie on a worse
    rank. ``generalize=False`` keeps only unconditional regions.

    Every probe of the call goes through one :class:`ProbePlane`, so a
    key is fetched at most once however many attribute sets need it.
    One ``precompute.attrs`` span per certified attribute set records
    its combos, safe combos, waves and keys fetched.
    """
    schema = ruleset.input_schema
    names = schema.names
    plane = ProbePlane(master)
    mandatory = sorted(mandatory_attributes(ruleset, schema))
    optional = [a for a in names if a not in mandatory]
    limit = max_size if max_size is not None else len(names)
    found: list[RankedRegion] = []
    unconditional: list[frozenset[str]] = []
    examined = 0

    for extra in range(len(optional) + 1):
        size = len(mandatory) + extra
        if size > limit:
            break
        level: list[RankedRegion] = []
        for pick in itertools.combinations(optional, extra):
            examined += 1
            if examined > subset_budget:
                raise BudgetExceededError(
                    f"region search examined more than subset_budget={subset_budget} attribute sets"
                )
            z = tuple(sorted(mandatory + list(pick)))
            zset = frozenset(z)
            if any(w < zset for w in unconditional):
                continue
            if not syntactically_certain(z, ruleset, schema):
                continue
            waves, fetched = plane.waves, plane.keys_fetched
            with trace.span("precompute.attrs", attrs=",".join(z)) as span:
                safe, universe, total = harvest_safe_combos(
                    z, ruleset, plane, mode=mode, scenario=scenario, max_combos=max_combos
                )
                waves, fetched = plane.waves - waves, plane.keys_fetched - fetched
                span.annotate(combos=total, safe=len(safe), waves=waves, keys_fetched=fetched)
            _WAVES.inc(waves)
            _KEYS_FETCHED.inc(fetched)
            if total == 0 or not safe:
                continue
            if len(safe) == total:
                level.append(
                    RankedRegion(Region(z), mode, coverage=1.0, combos_checked=total)
                )
                unconditional.append(zset)
                continue
            if not generalize:
                continue
            tableau = condense_tableau(z, safe, universe)
            if not tableau:
                continue
            level.append(
                RankedRegion(
                    Region(z, tableau),
                    mode,
                    coverage=len(safe) / total,
                    combos_checked=total,
                )
            )
        level.sort(key=lambda r: r.sort_key())
        found.extend(level)
        if len(found) >= k:
            break
    return found[:k]
