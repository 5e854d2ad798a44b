"""Instance configuration — the demo's "Initialization" step.

"The users are required to configure an instance, which consists of two
parts: (a) a data connection … and (b) specifying the schema of input
(dirty) tuples and that of the master data." (paper §3)

Our data connection is the filesystem: an instance is a JSON document
naming both schemas, the master-data CSV, the rules file (textual
syntax of :mod:`repro.rules.parser`) and the engine options. Loading an
instance yields a ready :class:`~repro.engine.CerFix`; saving one writes
the document plus the referenced artefacts, so a configured system is a
directory you can ship.

Example document::

    {
      "name": "uk-customers",
      "input_schema":  {"name": "customer", "attributes": [
          {"name": "FN"}, {"name": "LN"}, ...]},
      "master_schema": {"name": "person", "attributes": [...]},
      "master_csv": "master.csv",
      "rules_file": "rules.txt",
      "mode": "strict",
      "strategy": "core_first",
      "precompute_regions": 5,
      "store": {"backend": "sharded", "shards": 8},
      "service": {"max_sessions": 64, "cache_size": 8192}
    }

The optional ``store`` section selects the master store backend (see
:mod:`repro.master.store`):

``{"backend": "single"}``
    the default — one in-memory relation;
``{"backend": "sharded", "shards": N}``
    probe structures hash-partitioned across N shards;
``{"backend": "sqlite", "path": "master.db"}``
    in-memory probing over a SQLite-persisted snapshot (``path``
    resolves against the instance directory; the snapshot is written or
    refreshed from ``master_csv`` on load);
``{"backend": "remote", "urls": ["http://shard0:8401", ...]}``
    probes answered by shard-server processes over HTTP (one entry per
    shard, in shard-id order — see :mod:`repro.master.remote`). An
    entry may also be a *list* of replica urls
    (``"urls": [["http://s0a:8401", "http://s0b:8501"], ...]``): every
    replica serves the same shard and the client rotates reads across
    them, failing over when one dies. The instance's ``master_csv``
    stays the authority on *content*: its digest is verified against
    what the cluster (every replica included) serves, so an instance
    can never silently clean against the wrong master version.

Every backend produces bit-identical fixes — the choice only affects
scale and durability.

The optional ``service`` section configures the async entry service
(``cerfix serve`` — see :mod:`repro.service`); its keys mirror
:class:`~repro.service.app.AsyncCerFixService`'s constructor and only
affect capacity and backpressure, never fixes.

The optional ``dirty`` section points at the DB-native dirty relation
(``cerfix clean --db``/``cerfix undo`` — see :mod:`repro.dirty`)::

    "dirty": {"db": "dirty.db", "table": "dirty", "page_rows": 4096}

``db`` resolves against the instance directory; ``table`` defaults to
``"dirty"``; ``page_rows`` bounds per-page memory (overridable by the
``CERFIX_PAGE_ROWS`` environment variable and the ``--page-rows``
flag). Page size never affects fixes — the paged path is bit-identical
to the in-memory path — only memory and archive granularity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ValidationError
from repro.core.certainty import CertaintyMode
from repro.core.ruleset import RuleSet
from repro.engine import CerFix
from repro.monitor.suggest import SuggestionStrategy
from repro.relational.csvio import read_csv, write_csv
from repro.relational.relation import Relation
from repro.relational.schema import Schema, schema_from_json, schema_to_json
from repro.rules.parser import parse_rules

_schema_to_json = schema_to_json

#: Allowed keys of the instance document's "service" section, with the
#: type each coerces to. Mirrors AsyncCerFixService's constructor.
_SERVICE_KEYS: dict[str, type] = {
    "max_sessions": int,
    "max_inflight": int,
    "max_session_pending": int,
    "cache_size": int,
    "memo_size": int,
    "max_batch": int,
    "workers": int,
    "batch_window_ms": float,
    "dispatch": str,
    "completed_retention": int,
}

_DISPATCH_MODES = ("auto", "executor", "inline")


def _validate_service(section: dict) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, raw in section.items():
        kind = _SERVICE_KEYS.get(key)
        if key == "dispatch":
            if raw not in _DISPATCH_MODES:
                raise ValidationError(
                    f"service option 'dispatch' must be one of {_DISPATCH_MODES}, got {raw!r}"
                )
            out[key] = raw
            continue
        if kind is None:
            raise ValidationError(
                f"unknown service option {key!r} "
                f"(expected one of {sorted(_SERVICE_KEYS)})"
            )
        try:
            value = kind(raw)
        except (TypeError, ValueError):
            raise ValidationError(
                f"service option {key!r} must be {kind.__name__}, got {raw!r}"
            ) from None
        if kind is int and value < 1:
            raise ValidationError(f"service option {key!r} must be >= 1, got {value}")
        if kind is float and value < 0:
            raise ValidationError(f"service option {key!r} must be >= 0, got {value}")
        out[key] = value
    return out


def _validate_dirty(section: dict) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, raw in section.items():
        if key == "db":
            if not isinstance(raw, str) or not raw:
                raise ValidationError(
                    f"dirty option 'db' must be a non-empty path, got {raw!r}"
                )
            out[key] = raw
        elif key == "table":
            if not isinstance(raw, str) or not raw:
                raise ValidationError(
                    f"dirty option 'table' must be a non-empty name, got {raw!r}"
                )
            out[key] = raw
        elif key == "page_rows":
            try:
                value = int(raw)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"dirty option 'page_rows' must be an integer, got {raw!r}"
                ) from None
            if value < 1:
                raise ValidationError(
                    f"dirty option 'page_rows' must be >= 1, got {value}"
                )
            out[key] = value
        else:
            raise ValidationError(
                f"unknown dirty option {key!r} "
                f"(expected one of ['db', 'page_rows', 'table'])"
            )
    if out and "db" not in out:
        raise ValidationError("dirty section needs a 'db' path")
    return out


def _schema_from_json(obj: dict) -> Schema:
    try:
        return schema_from_json(obj)
    except KeyError as exc:
        raise ValidationError(f"schema document missing key {exc}") from None


@dataclass
class InstanceConfig:
    """A declarative CerFix instance."""

    name: str
    input_schema: Schema
    master_schema: Schema
    master_csv: str = "master.csv"
    rules_file: str = "rules.txt"
    mode: CertaintyMode = CertaintyMode.STRICT
    strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST
    precompute_regions: int = 0
    #: Master store selection: {"backend": ..., "shards": ..., "path": ...}.
    store: dict[str, Any] = field(default_factory=dict)
    #: Async entry service options (``cerfix serve``); keys mirror
    #: :class:`~repro.service.app.AsyncCerFixService` (see _SERVICE_KEYS).
    service: dict[str, Any] = field(default_factory=dict)
    #: DB-native dirty relation: {"db": ..., "table": ..., "page_rows": ...}.
    dirty: dict[str, Any] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)

    # -- (de)serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "input_schema": _schema_to_json(self.input_schema),
            "master_schema": _schema_to_json(self.master_schema),
            "master_csv": self.master_csv,
            "rules_file": self.rules_file,
            "mode": self.mode.value,
            "strategy": self.strategy.value,
            "precompute_regions": self.precompute_regions,
            "store": self.store,
            "service": self.service,
            "dirty": self.dirty,
            "options": self.options,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InstanceConfig":
        for key in ("name", "input_schema", "master_schema"):
            if key not in obj:
                raise ValidationError(f"instance document missing {key!r}")
        try:
            mode = CertaintyMode(obj.get("mode", "strict"))
        except ValueError:
            raise ValidationError(f"unknown certainty mode {obj.get('mode')!r}") from None
        try:
            strategy = SuggestionStrategy(obj.get("strategy", "core_first"))
        except ValueError:
            raise ValidationError(f"unknown strategy {obj.get('strategy')!r}") from None
        store = dict(obj.get("store", {}))
        if store:
            from repro.master.store import STORE_BACKENDS

            backend = store.get("backend", "single")
            if backend not in STORE_BACKENDS:
                raise ValidationError(
                    f"unknown master store backend {backend!r} "
                    f"(expected one of {STORE_BACKENDS})"
                )
            if backend == "sqlite" and not store.get("path"):
                raise ValidationError("store backend 'sqlite' needs a 'path'")
            if backend == "remote":
                urls = store.get("urls")

                def _ok(entry: Any) -> bool:
                    # a slot is one url, or a non-empty replica-url list
                    if isinstance(entry, str):
                        return bool(entry)
                    return (
                        isinstance(entry, list)
                        and bool(entry)
                        and all(isinstance(u, str) and u for u in entry)
                    )

                if not isinstance(urls, list) or not urls or not all(map(_ok, urls)):
                    raise ValidationError(
                        "store backend 'remote' needs a non-empty 'urls' list "
                        "(one entry per shard, in shard-id order — each entry "
                        "a shard-server url, or a list of replica urls)"
                    )
            if "shards" in store:
                try:
                    shards = int(store["shards"])
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"store 'shards' must be an integer, got {store['shards']!r}"
                    ) from None
                if shards < 1:
                    raise ValidationError(f"store 'shards' must be >= 1, got {shards}")
                store["shards"] = shards
        return cls(
            name=obj["name"],
            input_schema=_schema_from_json(obj["input_schema"]),
            master_schema=_schema_from_json(obj["master_schema"]),
            master_csv=obj.get("master_csv", "master.csv"),
            rules_file=obj.get("rules_file", "rules.txt"),
            mode=mode,
            strategy=strategy,
            precompute_regions=int(obj.get("precompute_regions", 0)),
            store=store,
            service=_validate_service(dict(obj.get("service", {}))),
            dirty=_validate_dirty(dict(obj.get("dirty", {}))),
            options=dict(obj.get("options", {})),
        )


def save_instance(
    directory: str | Path,
    config: InstanceConfig,
    master: Relation,
    ruleset: RuleSet,
) -> Path:
    """Write an instance directory: instance.json + master CSV + rules.

    Returns the path of ``instance.json``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(master, directory / config.master_csv)
    rules_text = "\n".join(r.render() for r in ruleset) + "\n"
    (directory / config.rules_file).write_text(rules_text, encoding="utf-8")
    path = directory / "instance.json"
    path.write_text(json.dumps(config.to_json(), indent=2) + "\n", encoding="utf-8")
    return path


def _resolve_instance_document(path: str | Path) -> Path:
    """``path`` may be the ``instance.json`` file or its directory —
    one place encodes that rule, so every loader resolves relative
    artefact paths against the same base."""
    path = Path(path)
    if path.is_dir():
        path = path / "instance.json"
    if not path.exists():
        raise ValidationError(f"no instance document at {path}")
    return path


def load_instance_parts(path: str | Path) -> tuple[InstanceConfig, Relation, RuleSet]:
    """Load an instance document's raw parts without building an engine.

    ``path`` may be the ``instance.json`` file or its directory. Relative
    artefact paths resolve against the document's directory. This is the
    loader shard servers share with :func:`load_instance`: a
    ``cerfix shard-server --instance`` needs the master relation and the
    rule set, but must not pay for (or depend on) engine construction.
    """
    path = _resolve_instance_document(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: bad JSON ({exc})") from None
    config = InstanceConfig.from_json(obj)
    if config.mode is CertaintyMode.SCENARIO:
        raise ValidationError(
            "instance documents cannot use certainty mode 'scenario': the "
            "scenario universe is a programmatic generator; configure "
            "'strict' or 'anchored' and pass a scenario in code instead"
        )
    base = path.parent
    master = read_csv(base / config.master_csv, schema=config.master_schema)
    rules_text = (base / config.rules_file).read_text(encoding="utf-8")
    ruleset = RuleSet(parse_rules(rules_text), config.input_schema, config.master_schema)
    return config, master, ruleset


def load_instance(path: str | Path) -> tuple[CerFix, InstanceConfig]:
    """Load an instance document and build the engine it describes."""
    document = _resolve_instance_document(path)
    config, master, ruleset = load_instance_parts(document)
    base = document.parent
    store_cfg = config.store
    if store_cfg:
        from repro.master.store import make_store

        backend = store_cfg.get("backend", "single")
        store_path = store_cfg.get("path")
        master = make_store(
            master,
            backend,
            shards=int(store_cfg.get("shards", 4)),
            # relative snapshot paths live next to the other artefacts
            path=(base / store_path) if store_path else None,
            urls=store_cfg.get("urls"),
        )
    engine = CerFix(
        ruleset,
        master,
        mode=config.mode,
        strategy=config.strategy,
    )
    if config.precompute_regions:
        engine.precompute_regions(k=config.precompute_regions)
    return engine, config
