"""Tests for instance configuration and the explorer's JSON API."""

import json
import urllib.request

import pytest

from repro import CertaintyMode
from repro.config import InstanceConfig, load_instance, save_instance
from repro.errors import ValidationError
from repro.monitor.suggest import SuggestionStrategy
from repro.scenarios import uk_customers as uk


@pytest.fixture()
def instance_dir(tmp_path, paper_master, paper_ruleset):
    config = InstanceConfig(
        name="uk-customers",
        input_schema=uk.INPUT_SCHEMA,
        master_schema=uk.MASTER_SCHEMA,
        mode=CertaintyMode.ANCHORED,
        strategy=SuggestionStrategy.CORE_FIRST,
        precompute_regions=0,
    )
    save_instance(tmp_path, config, paper_master, paper_ruleset)
    return tmp_path


class TestInstanceConfig:
    def test_save_writes_artifacts(self, instance_dir):
        assert (instance_dir / "instance.json").exists()
        assert (instance_dir / "master.csv").exists()
        assert (instance_dir / "rules.txt").exists()
        text = (instance_dir / "rules.txt").read_text(encoding="utf-8")
        assert "phi9" in text

    def test_load_roundtrip(self, instance_dir):
        engine, config = load_instance(instance_dir)
        assert config.name == "uk-customers"
        assert len(engine.ruleset) == 9
        assert len(engine.master) == 2
        assert engine.mode is CertaintyMode.ANCHORED

    def test_loaded_engine_fixes_fig3(self, instance_dir):
        engine, _ = load_instance(instance_dir)
        session = engine.session(uk.fig3_tuple(), "t")
        truth = uk.fig3_truth()
        session.validate({a: truth[a] for a in ("AC", "phn", "type", "item")})
        session.validate({"zip": truth["zip"]})
        assert session.fixed_values() == truth

    def test_load_accepts_file_path(self, instance_dir):
        engine, _ = load_instance(instance_dir / "instance.json")
        assert len(engine.ruleset) == 9

    def test_missing_document(self, tmp_path):
        with pytest.raises(ValidationError, match="no instance document"):
            load_instance(tmp_path)

    @pytest.mark.parametrize(
        "store,backend",
        [
            ({"backend": "sharded", "shards": 3}, "sharded"),
            ({"backend": "sqlite", "path": "master.db"}, "sqlite"),
            ({}, "single"),
        ],
    )
    def test_store_section_selects_backend(
        self, tmp_path, paper_master, paper_ruleset, store, backend
    ):
        config = InstanceConfig(
            name="uk-customers",
            input_schema=uk.INPUT_SCHEMA,
            master_schema=uk.MASTER_SCHEMA,
            mode=CertaintyMode.ANCHORED,
            store=store,
        )
        save_instance(tmp_path, config, paper_master, paper_ruleset)
        engine, loaded = load_instance(tmp_path)
        assert loaded.store == store
        assert engine.master.store.backend == backend
        assert engine.master.relation.tuples() == paper_master.tuples()
        if backend == "sqlite":
            # the snapshot landed next to the other instance artefacts
            assert (tmp_path / "master.db").exists()
        # the loaded engine still fixes (the store is transparent)
        session = engine.session(uk.fig3_tuple(), "t")
        truth = uk.fig3_truth()
        session.validate({a: truth[a] for a in ("AC", "phn", "type", "item")})
        session.validate({"zip": truth["zip"]})
        assert session.fixed_values() == truth

    def test_unknown_store_backend_rejected(self):
        with pytest.raises(ValidationError, match="store backend"):
            InstanceConfig.from_json(
                {
                    "name": "x",
                    "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
                    "master_schema": {"name": "m", "attributes": [{"name": "b"}]},
                    "store": {"backend": "mongodb"},
                }
            )

    def test_sqlite_store_without_path_rejected(self):
        with pytest.raises(ValidationError, match="needs a 'path'"):
            InstanceConfig.from_json(
                {
                    "name": "x",
                    "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
                    "master_schema": {"name": "m", "attributes": [{"name": "b"}]},
                    "store": {"backend": "sqlite"},
                }
            )

    @pytest.mark.parametrize("shards", ["eight", None, 0, -3])
    def test_bad_store_shards_rejected(self, shards):
        """A malformed 'shards' value must fail document validation with
        the prettified error, not escape as a bare ValueError later."""
        with pytest.raises(ValidationError, match="shards"):
            InstanceConfig.from_json(
                {
                    "name": "x",
                    "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
                    "master_schema": {"name": "m", "attributes": [{"name": "b"}]},
                    "store": {"backend": "sharded", "shards": shards},
                }
            )

    def test_bad_json(self, tmp_path):
        (tmp_path / "instance.json").write_text("{nope", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad JSON"):
            load_instance(tmp_path)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            InstanceConfig.from_json({"name": "x"})

    def test_unknown_mode_rejected(self):
        doc = InstanceConfig(
            "x", uk.INPUT_SCHEMA, uk.MASTER_SCHEMA
        ).to_json()
        doc["mode"] = "psychic"
        with pytest.raises(ValidationError, match="unknown certainty mode"):
            InstanceConfig.from_json(doc)

    def test_scenario_mode_rejected_in_documents(self, instance_dir):
        doc = json.loads((instance_dir / "instance.json").read_text())
        doc["mode"] = "scenario"
        (instance_dir / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="scenario"):
            load_instance(instance_dir)

    def test_json_roundtrip(self):
        config = InstanceConfig(
            "x", uk.INPUT_SCHEMA, uk.MASTER_SCHEMA,
            precompute_regions=3, options={"k": 1},
        )
        back = InstanceConfig.from_json(config.to_json())
        assert back.input_schema == uk.INPUT_SCHEMA
        assert back.precompute_regions == 3
        assert back.options == {"k": 1}

    def test_precompute_applied_on_load(self, tmp_path, paper_master, paper_ruleset):
        config = InstanceConfig(
            "uk", uk.INPUT_SCHEMA, uk.MASTER_SCHEMA,
            mode=CertaintyMode.ANCHORED, precompute_regions=2,
        )
        save_instance(tmp_path, config, paper_master, paper_ruleset)
        engine, _ = load_instance(tmp_path)
        assert len(engine.regions) == 2


@pytest.fixture()
def server(paper_engine):
    with paper_engine.serve_async(port=0) as srv:
        yield srv


def _get(server, path):
    with urllib.request.urlopen(server.url + path) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    req = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestWebExplorer:
    def test_instance_summary(self, server):
        status, doc = _get(server, "/api/instance")
        assert status == 200
        assert doc["rules"] == 9
        assert doc["input_schema"][0] == "FN"

    def test_rules_listing(self, server):
        status, rules = _get(server, "/api/rules")
        assert status == 200
        assert len(rules) == 9
        assert rules[8]["id"] == "phi9"

    def test_rules_check(self, server):
        status, doc = _get(server, "/api/rules/check?samples=5")
        assert status == 200
        assert doc["consistent"] is True

    def test_regions(self, server):
        status, regions = _get(server, "/api/regions?k=2")
        assert status == 200
        assert len(regions) == 2
        assert regions[0]["attrs"] == ["AC", "item", "phn", "type", "zip"]

    def test_full_session_flow(self, server):
        truth = uk.fig3_truth()
        status, state = _post(
            server, "/api/sessions",
            {"tuple_id": "w1", "values": uk.fig3_tuple()},
        )
        assert status == 201
        assert state["suggestion"]["attrs"] == ["AC", "phn", "type", "item"]

        status, state = _post(
            server, "/api/sessions/w1/validate",
            {"assignments": {a: truth[a] for a in state["suggestion"]["attrs"]}},
        )
        assert status == 200
        assert state["values"]["FN"] == "Mark"
        assert state["suggestion"]["attrs"] == ["zip"]

        status, state = _post(
            server, "/api/sessions/w1/validate",
            {"assignments": {"zip": truth["zip"]}},
        )
        assert state["complete"] is True
        assert state["values"] == {k: str(v) for k, v in truth.items()}

        status, trace = _get(server, "/api/audit/w1")
        assert status == 200
        assert any(e["rule_id"] == "phi4" for e in trace)

    def test_audit_stats_endpoint(self, server):
        truth = uk.fig3_truth()
        _post(server, "/api/sessions", {"tuple_id": "w2", "values": uk.fig3_tuple()})
        _post(server, "/api/sessions/w2/validate",
              {"assignments": {a: truth[a] for a in ("AC", "phn", "type", "item")}})
        status, doc = _get(server, "/api/audit")
        assert status == 200
        assert doc["overall"]["tuples"] >= 1

    def test_session_state_endpoint(self, server):
        _post(server, "/api/sessions", {"tuple_id": "w3", "values": uk.fig3_tuple()})
        status, state = _get(server, "/api/sessions/w3")
        assert status == 200 and state["round"] == 0

    def test_unknown_session_404(self, server):
        status, doc = _get_error(server, "/api/sessions/nope")
        assert status == 404

    def test_duplicate_session_409(self, server):
        _post(server, "/api/sessions", {"tuple_id": "w4", "values": uk.fig3_tuple()})
        status, doc = _post(server, "/api/sessions",
                            {"tuple_id": "w4", "values": uk.fig3_tuple()})
        assert status == 409

    def test_bad_body_400(self, server):
        status, doc = _post(server, "/api/sessions", {"tuple_id": "w5"})
        assert status == 400

    def test_monitor_error_409(self, server):
        _post(server, "/api/sessions", {"tuple_id": "w6", "values": uk.fig3_tuple()})
        status, doc = _post(server, "/api/sessions/w6/validate",
                            {"assignments": {"nope": "x"}})
        assert status == 409
        assert "unknown attribute" in doc["error"]

    def test_unknown_route_404(self, server):
        status, _ = _get_error(server, "/api/teapot")
        assert status == 404


def _get_error(server, path):
    try:
        with urllib.request.urlopen(server.url + path) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
