"""The chase: applying editing rules to an input tuple until fixpoint.

Given an input tuple ``t`` and a set ``V`` of *validated* attributes
(assured correct, by the user or by earlier applications), a rule
``φ: ((X, Xm) → (B, Bm), tp)`` is **safely applicable** when:

1. ``X ∪ Xp ⊆ V`` — the rule reads only validated values;
2. ``t[Xp]`` matches ``tp``;
3. at least one master tuple matches ``t[X]`` under the rule's operators;
4. every matching master tuple agrees on the correction value
   (the **uniqueness gate** — without it the fix would not be certain).

Applying it sets ``t[B]`` to the agreed value and adds ``B`` to ``V``.
Because ``V`` only grows and each self-normalising rewrite fires at most
once, the chase terminates; :func:`chase` runs rules in the rule set's
canonical order and records every step with full provenance, every
ambiguity it skipped over, and every conflict it detected (a prescribed
change to an already-validated attribute — evidence the rules and master
data are inconsistent, or a validation was wrong).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ConflictError
from repro.core.rule import EditingRule
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager


class AppStatus(enum.Enum):
    """Why a rule did or did not fire on the current state."""

    READY = "ready"  # safely applicable: a unique correction value exists
    NOT_READY = "not_ready"  # some attribute the rule reads is not validated
    PATTERN_MISS = "pattern_miss"  # the (validated) pattern attributes do not match tp
    NO_MATCH = "no_match"  # no master tuple matches t[X]
    AMBIGUOUS = "ambiguous"  # matching master tuples disagree on the value


@dataclass(frozen=True)
class Applicability:
    """The detailed outcome of testing one rule against one state."""

    status: AppStatus
    value: Any = None
    master_positions: tuple[int, ...] = ()
    candidate_values: tuple[Any, ...] = ()
    missing: tuple[str, ...] = ()

    @property
    def is_ready(self) -> bool:
        return self.status is AppStatus.READY


#: Shared outcome instances for the two payload-free misses — the chase
#: tests every rule on every sweep, and allocating a fresh frozen
#: dataclass per miss showed up in the stream profile.
_PATTERN_MISS = Applicability(AppStatus.PATTERN_MISS)
_NO_MATCH = Applicability(AppStatus.NO_MATCH)


def applicable(
    rule: EditingRule,
    values: Mapping[str, Any],
    validated: frozenset[str] | set[str],
    master: MasterDataManager,
    *,
    use_index: bool = True,
) -> Applicability:
    """Test whether ``rule`` is safely applicable to ``(values, validated)``.

    This is the single decision procedure shared by the chase, the
    certainty analysis and the consistency checker, so their notions of
    "applicable" cannot drift apart.
    """
    if not rule.reads <= validated:
        missing = tuple(a for a in rule.sorted_reads if a not in validated)
        return Applicability(AppStatus.NOT_READY, missing=missing)
    if rule.has_pattern and not rule.pattern.matches(values):
        return _PATTERN_MISS
    if rule.is_constant:
        # The manager would answer MasterMatch((), (constant,)) without
        # touching any store; skip the round trip.
        return Applicability(AppStatus.READY, value=rule.source.value)
    match = master.match(rule, values, use_index=use_index)
    if not match.positions:
        return _NO_MATCH
    if not match.is_unique:
        return Applicability(
            AppStatus.AMBIGUOUS,
            master_positions=match.positions,
            candidate_values=match.values,
        )
    return Applicability(
        AppStatus.READY, value=match.value, master_positions=match.positions
    )


@dataclass(frozen=True)
class FixStep:
    """One applied fix, with provenance for the audit trail."""

    attr: str
    old: Any
    new: Any
    rule_id: str
    master_positions: tuple[int, ...]
    normalized: bool = False  # True for a self-normalising rewrite of a validated attr

    def describe(self) -> str:
        kind = "normalized" if self.normalized else "fixed"
        via = f"rule {self.rule_id}"
        if self.master_positions:
            via += f", master tuple(s) {list(self.master_positions)}"
        return f"{self.attr}: {self.old!r} -> {self.new!r} ({kind} by {via})"


@dataclass(frozen=True)
class ConflictWitness:
    """Evidence that two certain fixes disagree.

    ``existing`` is the current (validated) value of ``attr``;
    ``prescribed`` is what ``rule_id`` wants it to be. For a consistent
    rule set and correct validations this never happens ([7], §4).
    """

    attr: str
    existing: Any
    prescribed: Any
    rule_id: str
    master_positions: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"conflict on {self.attr}: validated value {self.existing!r} but rule "
            f"{self.rule_id} (master {list(self.master_positions)}) prescribes {self.prescribed!r}"
        )


@dataclass(frozen=True)
class AmbiguityEvent:
    """A rule blocked by the uniqueness gate during a chase."""

    attr: str
    rule_id: str
    candidate_values: tuple[Any, ...]


@dataclass
class ChaseResult:
    """The outcome of one chase run."""

    values: dict[str, Any]
    validated: frozenset[str]
    steps: tuple[FixStep, ...]
    conflicts: tuple[ConflictWitness, ...]
    ambiguities: tuple[AmbiguityEvent, ...]
    all_attrs: frozenset[str]
    sweeps: int = 0

    @property
    def is_complete(self) -> bool:
        """True iff every attribute ended up validated — a certain fix."""
        return self.validated >= self.all_attrs and not self.conflicts

    @property
    def unvalidated(self) -> frozenset[str]:
        return self.all_attrs - self.validated

    @property
    def fixed_attrs(self) -> tuple[str, ...]:
        return tuple(s.attr for s in self.steps)


def chase(
    values: Mapping[str, Any],
    validated: Iterable[str],
    ruleset: RuleSet,
    master: MasterDataManager,
    *,
    strict: bool = False,
    use_index: bool = True,
    rule_order: Sequence[str] | None = None,
    max_sweeps: int | None = None,
) -> ChaseResult:
    """Run the chase from ``(values, validated)`` to fixpoint.

    ``values`` must cover every input-schema attribute (dirty values are
    fine — that is the point). ``strict=True`` raises
    :class:`~repro.errors.ConflictError` on the first conflict instead of
    recording it. ``rule_order`` overrides the canonical order (used by
    the Church–Rosser property tests). The input mapping is not mutated.
    """
    schema = ruleset.input_schema
    state = {name: values[name] for name in schema.names}
    valid: set[str] = set(validated)
    unknown = valid - set(schema.names)
    if unknown:
        from repro.errors import SchemaError

        raise SchemaError(f"validated attributes {sorted(unknown)} not in schema {schema.name!r}")

    rules: list[EditingRule] = (
        [ruleset.get(r) for r in rule_order] if rule_order is not None else list(ruleset)
    )
    steps: list[FixStep] = []
    conflicts: list[ConflictWitness] = []
    ambiguities: list[AmbiguityEvent] = []
    normalized_once: set[str] = set()  # rule ids that already rewrote their target

    # Within one chase the master data never changes, so a rule's
    # applicability depends only on the state values it reads — plus its
    # target's current value, which the conflict check compares against.
    # The fixpoint loop re-tests every rule on every sweep; skip the
    # master probe when none of those values moved since the last test.
    app_cache: dict[str, tuple[list, Applicability]] = {}

    def _test(rule: EditingRule) -> Applicability:
        key = [state[a] for a in rule.sorted_reads]
        key.append(state[rule.target])
        cached = app_cache.get(rule.rule_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        app = applicable(rule, state, valid, master, use_index=use_index)
        app_cache[rule.rule_id] = (key, app)
        return app

    # Each productive sweep validates an attribute or performs one of the
    # at-most-len(rules) normalising rewrites, so this bound is never hit;
    # it guards against a future bug turning the loop infinite.
    bound = max_sweeps if max_sweeps is not None else len(schema) + len(rules) + 2
    sweeps = 0
    changed = True
    while changed and sweeps < bound:
        changed = False
        sweeps += 1
        for rule in rules:
            if not rule.reads <= valid:
                # Not ready: every branch below would discard the
                # NOT_READY outcome, so skip the applicability test.
                continue
            target_valid = rule.target in valid
            if target_valid and (rule.is_self_normalizing is False or rule.rule_id in normalized_once):
                # Either nothing left for this rule to do, or — for a rule
                # that is not self-normalising — a potential conflict to check.
                if rule.is_self_normalizing and rule.rule_id in normalized_once:
                    continue
                app = _test(rule)
                if app.is_ready and app.value != state[rule.target]:
                    witness = ConflictWitness(
                        attr=rule.target,
                        existing=state[rule.target],
                        prescribed=app.value,
                        rule_id=rule.rule_id,
                        master_positions=app.master_positions,
                    )
                    if witness not in conflicts:
                        conflicts.append(witness)
                        if strict:
                            raise ConflictError(witness.describe(), witness=witness)
                continue
            app = _test(rule)
            if app.status is AppStatus.AMBIGUOUS:
                event = AmbiguityEvent(rule.target, rule.rule_id, app.candidate_values)
                if event not in ambiguities:
                    ambiguities.append(event)
                continue
            if not app.is_ready:
                continue
            if target_valid:
                # Self-normalising rule over a validated target: rewrite to
                # the canonical master form, at most once per rule.
                normalized_once.add(rule.rule_id)
                if app.value != state[rule.target]:
                    steps.append(
                        FixStep(
                            attr=rule.target,
                            old=state[rule.target],
                            new=app.value,
                            rule_id=rule.rule_id,
                            master_positions=app.master_positions,
                            normalized=True,
                        )
                    )
                    state[rule.target] = app.value
                    changed = True
                continue
            steps.append(
                FixStep(
                    attr=rule.target,
                    old=state[rule.target],
                    new=app.value,
                    rule_id=rule.rule_id,
                    master_positions=app.master_positions,
                )
            )
            state[rule.target] = app.value
            valid.add(rule.target)
            changed = True

    return ChaseResult(
        values=state,
        validated=frozenset(valid),
        steps=tuple(steps),
        conflicts=tuple(conflicts),
        ambiguities=tuple(ambiguities),
        all_attrs=frozenset(schema.names),
        sweeps=sweeps,
    )


# -- cross-tuple chase memoisation -------------------------------------------
#
# Every decision the chase makes reads *validated* values only: the
# readiness gate is ``reads <= validated``, the pattern constrains
# attributes in ``reads``, and master probes key on the (validated) LHS.
# Unvalidated values influence exactly one thing — the ``old`` field of
# the steps that overwrite them (each step fires regardless of the value
# it replaces). So two states with identical validated (attr, value)
# pairs produce the *same transcript up to rebinding those olds*, and a
# batch run over duplicate-heavy data can chase each distinct validated
# state once. (The point-of-entry stream deliberately does not use this:
# it is the per-tuple baseline the batch pipeline is measured against.)


def _chase_relevant(ruleset: RuleSet) -> frozenset[str]:
    """The attributes whose values can steer a chase: everything some
    rule reads (readiness, pattern, probe key) or targets (the conflict
    check compares the prescribed value against the current cell).
    Validated values *outside* this set ride along untouched."""
    cache = getattr(ruleset, "_analysis_cache", None)
    if cache is not None:
        hit = cache.get("chase_relevant")
        if hit is not None:
            return hit
    attrs: set[str] = set()
    for rule in ruleset:
        attrs |= rule.reads
        attrs.add(rule.target)
    relevant = frozenset(attrs)
    if cache is not None:
        cache["chase_relevant"] = relevant
    return relevant


def _chase_memo_key(
    values: Mapping[str, Any], validated: Iterable[str], ruleset: RuleSet
) -> tuple | None:
    """The sorted validated attribute names plus the (attr, type, value)
    triples of the *rule-relevant* ones — or None when any such value is
    unhashable/missing (caller falls back to a direct chase).

    The name list must cover every validated attribute (it determines
    ``result.validated``), but values only matter where a rule can read
    or overwrite them — keying on free payload attributes (a per-row
    item code, say) would shatter an otherwise duplicate-heavy key
    space. Types are included because values hashing equal
    (``1``/``1.0``/``True``) can still behave differently under pattern
    matching and probe normalisation."""
    relevant = _chase_relevant(ruleset)
    attrs = tuple(sorted(validated))
    try:
        key = (
            attrs,
            tuple(
                (a, values[a].__class__, values[a]) for a in attrs if a in relevant
            ),
        )
        hash(key)
    except (TypeError, KeyError):
        return None
    return key


def _rebind_chase(template: ChaseResult, values: Mapping[str, Any]) -> ChaseResult:
    """Replay a memoised transcript onto ``values``.

    Steps keep their (attr, new, rule, provenance) — only ``old`` is
    re-read from the replay state. Conflicts and ambiguities carry
    validated values exclusively, so they transfer verbatim.
    """
    state = {name: values[name] for name in template.values}
    steps = []
    for s in template.steps:
        old = state[s.attr]
        steps.append(
            FixStep(
                attr=s.attr,
                old=old,
                new=s.new,
                rule_id=s.rule_id,
                master_positions=s.master_positions,
                normalized=s.normalized,
            )
            if old != s.old
            else s
        )
        state[s.attr] = s.new
    return ChaseResult(
        values=state,
        validated=template.validated,
        steps=tuple(steps),
        conflicts=template.conflicts,
        ambiguities=template.ambiguities,
        all_attrs=template.all_attrs,
        sweeps=template.sweeps,
    )


def chase_memoized(
    values: Mapping[str, Any],
    validated: Iterable[str],
    ruleset: RuleSet,
    master: MasterDataManager,
    memo: Any,
    *,
    use_index: bool = True,
) -> ChaseResult:
    """:func:`chase`, sharing transcripts across identical validated
    states via ``memo`` (a ``get``/``put`` mapping, e.g.
    :class:`repro.cache.LRUCache`).

    The caller owns key-space hygiene for everything *not* in the key:
    one memo must only ever see one (ruleset, master content, use_index)
    configuration — the batch executor scopes its memo to a single run.
    Not valid under ``strict=True`` (a strict chase aborts mid-sweep on
    the first conflict; a memoised transcript has already run to
    fixpoint).
    """
    key = _chase_memo_key(values, validated, ruleset)
    if key is None:
        return chase(values, validated, ruleset, master, use_index=use_index)
    template = memo.get(key)
    if template is None:
        template = chase(values, validated, ruleset, master, use_index=use_index)
        memo.put(key, template)
    return _rebind_chase(template, values)
