"""Alert model: contextual factors, fuzzy assembly, catalog, CSV schema."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from fuzztriage.alerts import (
    CATEGORICAL_LEVELS,
    SPREAD_FLOOR,
    UNKNOWN_CLASS,
    Alert,
    AttackClassProfile,
    CfMode,
    ContextualFactor,
    Criticality,
    assemble,
    contextual_factor,
    core_value,
    fnv1a64,
    load_alerts_csv,
    load_catalog,
    resolve_profile,
    spread_value,
    write_alerts_csv,
)
from fuzztriage.calibration import HEIGHT_FLOOR
from fuzztriage.errors import ParseError, ValidationError

id_strings = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24
)


class TestFnv1a64:
    def test_known_vectors(self):
        # published FNV-1a 64-bit reference values
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @given(st.binary(max_size=64))
    @settings(max_examples=200)
    def test_stays_in_64_bits(self, data):
        assert 0 <= fnv1a64(data) < (1 << 64)


class TestContextualFactor:
    def test_criticality_wins(self):
        cf = contextual_factor("x", "DoS", criticality=Criticality.CRITICAL)
        assert cf.value == 1.0 and cf.mode is CfMode.CATEGORICAL

    def test_isolated(self):
        cf = contextual_factor("x", "DoS", criticality=Criticality.ISOLATED)
        assert cf.value == 0.2

    def test_hash_derived_deterministic(self):
        a = contextual_factor("alert-1", "DoS")
        b = contextual_factor("alert-1", "DoS")
        assert a.value == b.value

    def test_class_changes_factor(self):
        a = contextual_factor("alert-1", "DoS")
        b = contextual_factor("alert-1", "Bot")
        assert a.value != b.value

    @given(id_strings, id_strings)
    @settings(max_examples=200)
    def test_continuous_range(self, alert_id, cls):
        value = contextual_factor(alert_id, cls).value
        assert 0.2 <= value < 1.0 or value == 1.0

    @given(id_strings, id_strings)
    @settings(max_examples=200)
    def test_categorical_snaps(self, alert_id, cls):
        value = contextual_factor(alert_id, cls, CfMode.CATEGORICAL).value
        assert value in CATEGORICAL_LEVELS

    def test_bad_categorical_value_rejected(self):
        with pytest.raises(ValidationError):
            ContextualFactor(0.6, CfMode.CATEGORICAL)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ContextualFactor(0.1, CfMode.CONTINUOUS)


class TestCoreAndSpread:
    def test_worked_core(self):
        assert core_value(7.5, 0.8) == 6.0

    def test_identity_scaling(self):
        assert core_value(4.2, 1.0) == 4.2

    def test_zero_cvss(self):
        assert core_value(0.0, 0.7) == 0.0

    def test_core_domain(self):
        with pytest.raises(ValidationError):
            core_value(11.0, 0.8)
        with pytest.raises(ValidationError):
            core_value(5.0, 0.1)

    def test_worked_spread(self):
        assert spread_value(6.0, 0.15) == pytest.approx(0.90, abs=1e-12)

    def test_extreme_spread(self):
        assert spread_value(10.0, 0.5) == 5.0

    def test_catalog_ratio(self):
        # back-solved: a 7.8 core with sigma 1.248 implies uf 0.16
        assert spread_value(7.8, 0.16) == pytest.approx(1.248, abs=1e-12)

    def test_zero_core_floor(self):
        assert spread_value(0.0, 0.2) == SPREAD_FLOOR

    def test_spread_domain(self):
        with pytest.raises(ValidationError):
            spread_value(-1.0, 0.2)
        with pytest.raises(ValidationError):
            spread_value(5.0, 0.6)


class TestAlertValidation:
    def test_empty_id(self):
        with pytest.raises(ValidationError):
            Alert("", "DoS", 0.5)

    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            Alert("a", "DoS", 1.5)

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            Alert("a", "DoS", 0.5, label=2)


class TestCatalog:
    def test_default_catalog_loads(self):
        catalog = load_catalog()
        assert "DoS" in catalog and "benign" in catalog
        assert catalog["Heartbleed"].cvss == pytest.approx(9.8)
        assert catalog["benign"].cvss == 0.0

    def test_resolve_known(self):
        catalog = load_catalog()
        profile, novel = resolve_profile("DoS", catalog)
        assert not novel and profile.cvss > 0

    def test_resolve_unknown_uses_defaults(self):
        profile, novel = resolve_profile("QuantumExfil", {})
        assert novel
        assert profile.cvss == 5.0 and profile.uf == 0.35

    def test_custom_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("class,cvss,uf\nDoS,7.8,0.2\n")
        catalog = load_catalog(path)
        assert catalog["DoS"].uf == 0.2

    def test_duplicate_class_rejected(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("class,cvss,uf\nDoS,7.8,0.2\nDoS,5.0,0.1\n")
        with pytest.raises(ParseError):
            load_catalog(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("name,cvss,uf\nDoS,7.8,0.2\n")
        with pytest.raises(ParseError):
            load_catalog(path)

    def test_bad_row_named(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("class,cvss,uf\nDoS,high,0.2\n")
        with pytest.raises(ParseError, match="row 2"):
            load_catalog(path)

    def test_profile_domains(self):
        with pytest.raises(ValidationError):
            AttackClassProfile("X", 10.5, 0.2)
        with pytest.raises(ValidationError):
            AttackClassProfile("X", 5.0, 0.0)


class TestAlertsCsv:
    def test_round_trip(self, tmp_path):
        alerts = [
            Alert("a1", "DoS", 0.83, label=1),
            Alert("a2", "benign", 0.12, label=0, criticality=Criticality.IMPORTANT),
            Alert("a3", "Bot", 0.5),
        ]
        path = tmp_path / "alerts.csv"
        write_alerts_csv(path, alerts, header_comment="config_hash=abc seed=1")
        loaded = load_alerts_csv(path)
        assert loaded == alerts

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "alerts.csv"
        path.write_text("id,attack_class,p,label,criticality\na,DoS,0.5,,\na,Bot,0.6,,\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_alerts_csv(path)

    def test_bad_probability_row(self, tmp_path):
        path = tmp_path / "alerts.csv"
        path.write_text("id,attack_class,p,label,criticality\na,DoS,1.5,,\n")
        with pytest.raises(ParseError, match="row 2"):
            load_alerts_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "alerts.csv"
        path.write_text("id,attack_class,p,label,criticality\na,DoS,0.5\n")
        with pytest.raises(ParseError):
            load_alerts_csv(path)


class TestAssemble:
    def test_known_class(self):
        catalog = load_catalog()
        records = assemble([Alert("a1", "DoS", 0.9, label=1)], catalog, {"DoS": 0.8})
        (r,) = records
        assert r.attack_class == "DoS"
        assert not r.novel
        assert r.core == pytest.approx(catalog["DoS"].cvss * r.cf)
        assert r.spread == pytest.approx(r.core * r.uf)
        assert r.height == pytest.approx(min(0.8, 0.9))

    def test_novel_class_neutral_height(self):
        # unseen class: conservative class height 0.5, capped by p
        records = assemble([Alert("a1", "QuantumExfil", 0.9)], load_catalog(), {})
        (r,) = records
        assert r.novel and r.h_class == 0.5
        assert r.height == 0.5

    def test_zero_probability_height_floor(self):
        records = assemble([Alert("a1", "DoS", 0.0)], load_catalog(), {"DoS": 0.8})
        assert records[0].height == HEIGHT_FLOOR

    def test_benign_zero_core(self):
        records = assemble([Alert("a1", "benign", 0.7, label=0)], load_catalog(), {})
        (r,) = records
        assert r.core == 0.0
        assert r.spread == SPREAD_FLOOR

    def test_uf_scale(self):
        catalog = load_catalog()
        base = assemble([Alert("a1", "DoS", 0.9)], catalog, {"DoS": 0.8})
        scaled = assemble([Alert("a1", "DoS", 0.9)], catalog, {"DoS": 0.8}, uf_scale=1.2)
        assert scaled[0].spread == pytest.approx(base[0].spread * 1.2)

    def test_uf_scale_out_of_domain(self):
        with pytest.raises(ValidationError):
            assemble([Alert("a1", "DoS", 0.9)], load_catalog(), {}, uf_scale=0.0)
        with pytest.raises(ValidationError):
            # Infiltration uf 0.35 * 2.0 exceeds the 0.5 cap
            assemble([Alert("a1", "Infiltration", 0.9)], load_catalog(), {}, uf_scale=2.0)

    def test_criticality_overrides_hash(self):
        records = assemble(
            [Alert("a1", "DoS", 0.9, criticality=Criticality.ISOLATED)],
            load_catalog(),
            {"DoS": 0.8},
        )
        assert records[0].cf == 0.2
