"""Alert model: contextual factors, fuzzy assembly, catalog, CSV schema."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_batch, make_record
from fuzztriage.alerts import (
    CATEGORICAL_LEVELS,
    CRITICALITY_FACTORS,
    SPREAD_FLOOR,
    UNKNOWN_CLASS,
    AlertBatch,
    AttackClassProfile,
    CfMode,
    Criticality,
    PreparedAlert,
    assemble,
    contextual_factors,
    fnv1a64_batch,
    load_alerts_csv,
    load_catalog,
    resolve_profile,
)
from fuzztriage.calibration import HEIGHT_FLOOR
from fuzztriage.errors import ParseError, ValidationError
from fuzztriage.evaluation import ScenarioKind, ScenarioSpec, perturb
from fuzztriage.ranking import Method, RiskProfile, method_scores, rank, write_queue_csvs
from fuzztriage.sgfn import GaussianFuzzyNumber, ranking_index
from fuzztriage.tables import Coded

id_strings = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24
)


# --- scalar references -------------------------------------------------------
# The per-alert rules the batch kernels of ``fuzztriage.alerts`` reproduce bit
# for bit, written one alert at a time with Python integers and floats.


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (XOR then multiply, per byte)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def cf_value(
    alert_id: str,
    attack_class: str,
    mode: CfMode = CfMode.CONTINUOUS,
    criticality: Criticality | None = None,
) -> float:
    """The contextual factor of one alert: its criticality's value, else the
    hash of ``"id|class"`` mapped into [0.2, 1.0), snapped in categorical mode
    to the nearest level (the first on a tie)."""
    if criticality is not None:
        return CRITICALITY_FACTORS[criticality]
    value = 0.2 + 0.8 * (fnv1a64(f"{alert_id}|{attack_class}".encode()) / (1 << 64))
    if mode is CfMode.CATEGORICAL:
        value = min(CATEGORICAL_LEVELS, key=lambda level: abs(level - value))
    return value


# Key bytes that stress the hash kernel: NUL (also trailing, which a numpy
# ``S`` array hides), the separator and multi-byte characters.
key_bytes = st.lists(
    st.one_of(st.binary(max_size=200), st.sampled_from([b"\x00", b"a\x00", b"a\x00\x00", b"|"])),
    max_size=30,
)


class TestFnv1a64:
    def test_known_vectors(self):
        # published FNV-1a 64-bit reference values
        hashes = fnv1a64_batch([b"", b"a", b"foobar"])
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
        assert fnv1a64_batch([]).tolist() == []

    @given(key_bytes)
    @settings(max_examples=300)
    def test_stays_in_64_bits(self, keys):
        # uint64 wrap-around is the reference's mod 2**64, byte for byte
        hashes = fnv1a64_batch(keys)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [fnv1a64(key) for key in keys]

    def test_uint64_to_unit_interval_is_exact(self):
        # the kernel's float64 conversion equals Python's int / 2**64
        edges = [0, 1, 2**53 - 1, 2**53 + 1, 2**63, 2**63 + 1, 2**64 - 1]
        values = edges + np.random.default_rng(5).integers(0, 2**64, 50_000, np.uint64).tolist()
        column = np.array(values, dtype=np.uint64).astype(np.float64) / 2.0**64
        assert column.tolist() == [v / 2**64 for v in values]


def cf_of(alert_id, cls, mode=CfMode.CONTINUOUS, criticality=None):
    """The contextual factor the batch kernel gives one alert."""
    return contextual_factors([alert_id], Coded.of([cls]), [criticality], mode)[0]


class TestContextualFactor:
    def test_criticality_wins(self):
        for mode in CfMode:
            assert cf_of("x", "DoS", mode, Criticality.CRITICAL) == 1.0

    def test_isolated(self):
        assert cf_of("x", "DoS", criticality=Criticality.ISOLATED) == 0.2

    def test_hash_derived_deterministic(self):
        assert cf_of("alert-1", "DoS") == cf_of("alert-1", "DoS")

    def test_class_changes_factor(self):
        assert cf_of("alert-1", "DoS") != cf_of("alert-1", "Bot")

    @given(id_strings, id_strings)
    @settings(max_examples=200)
    def test_continuous_range(self, alert_id, cls):
        value = cf_of(alert_id, cls)
        assert 0.2 <= value < 1.0 or value == 1.0

    @given(id_strings, id_strings)
    @settings(max_examples=200)
    def test_categorical_snaps(self, alert_id, cls):
        assert cf_of(alert_id, cls, CfMode.CATEGORICAL) in CATEGORICAL_LEVELS


def assembled(cvss, uf, criticality=Criticality.CRITICAL, uf_scale=1.0):
    """The one alert of class X with the given profile and criticality."""
    catalog = {"X": AttackClassProfile("X", cvss, uf)}
    return assemble(
        ["a1"], ["X"], [0.9], catalog, {"X": 0.8}, criticalities=[criticality], uf_scale=uf_scale
    )[0]


class TestCoreAndSpread:
    def test_worked_core(self):
        assert assembled(7.5, 0.15, Criticality.IMPORTANT).core == 6.0

    def test_identity_scaling(self):
        assert assembled(4.2, 0.2, Criticality.CRITICAL).core == 4.2

    def test_zero_cvss(self):
        assert assembled(0.0, 0.2, criticality=None).core == 0.0

    def test_core_domain(self):
        with pytest.raises(ValidationError):
            assembled(11.0, 0.2)

    def test_worked_spread(self):
        spread = assembled(7.5, 0.15, Criticality.IMPORTANT).spread
        assert spread == pytest.approx(0.90, abs=1e-12)

    def test_extreme_spread(self):
        assert assembled(10.0, 0.5).spread == 5.0

    def test_catalog_ratio(self):
        # back-solved: a 7.8 core with sigma 1.248 implies uf 0.16
        assert assembled(7.8, 0.16).spread == pytest.approx(1.248, abs=1e-12)

    def test_zero_core_floor(self):
        assert assembled(0.0, 0.2).spread == SPREAD_FLOOR

    def test_spread_domain(self):
        with pytest.raises(ValidationError):
            assembled(-1.0, 0.2)
        with pytest.raises(ValidationError):
            assembled(5.0, 0.6)
        with pytest.raises(ValidationError, match="uf_scale 2.0 puts the uf of class"):
            assembled(5.0, 0.3, uf_scale=2.0)


class TestAlertValidation:
    """The per-alert rules, checked once per batch by ``assemble``."""

    def test_empty_id(self):
        with pytest.raises(ValidationError) as err:
            assemble(["a", ""], ["DoS", "DoS"], [0.5, 0.5], load_catalog(), {})
        assert str(err.value) == "alert_id must be non-empty"

    def test_bad_probability(self):
        for p in (1.5, float("nan")):
            with pytest.raises(ValidationError) as err:
                assemble(["a", "b"], ["DoS", "DoS"], [0.5, p], load_catalog(), {})
            assert str(err.value) == f"p must lie in [0, 1], got {p!r}"

    def test_bad_label(self):
        with pytest.raises(ValidationError) as err:
            assemble(["a", "b"], ["DoS", "DoS"], [0.5, 0.5], load_catalog(), {}, labels=[0, 2])
        assert str(err.value) == "label must be 0, 1, or None, got 2"

    @pytest.mark.parametrize("labels", [
        np.array([True, False, True]), [1.0, 0, None], [True, 0.0, 1], Coded((True, 0.0), [0, 1, 0])
    ])
    def test_labels_read_and_write_as_ints(self, tmp_path, labels):
        batch = assemble(["a", "b", "c"], ["DoS"] * 3, [0.9, 0.5, 0.1], load_catalog(), {},
                         labels=labels)
        expected = [1, 0, 1] if labels[2] is not None else [1, 0, None]
        assert list(batch.labels) == expected
        assert [type(y) for y in batch.labels] == [type(y) for y in expected]
        write_queue_csvs({tmp_path / "q.csv": rank(batch, Method.CONFIDENCE_ONLY)})
        with open(tmp_path / "q.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[-1] for row in rows] == ["" if y is None else str(y) for y in expected]


class TestCatalog:
    def test_default_catalog_loads(self):
        catalog = load_catalog()
        assert "DoS" in catalog and "benign" in catalog
        assert catalog["Heartbleed"].cvss == pytest.approx(9.8)
        assert catalog["benign"].cvss == 0.0

    def test_resolve_known(self):
        catalog = load_catalog()
        profile = resolve_profile("DoS", catalog)
        assert profile is catalog["DoS"] and profile.cvss > 0

    def test_resolve_unknown_uses_defaults(self):
        profile = resolve_profile("QuantumExfil", {})
        assert profile.class_name == "QuantumExfil"
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
        path = tmp_path / "alerts.csv"
        path.write_text(
            "# config_hash=abc seed=1\n"
            "id,attack_class,p,label,criticality\n"
            "a1,DoS,0.83,1,\n"
            "a2,benign,0.12,0,important\n"
            "a3,Bot,0.5,,\n"
        )
        assert load_alerts_csv(path) == {
            "ids": ["a1", "a2", "a3"],
            "classes": ["DoS", "benign", "Bot"],
            "p": [0.83, 0.12, 0.5],
            "labels": [1, 0, None],
            "criticalities": [None, Criticality.IMPORTANT, None],
        }
        batch = assemble(**load_alerts_csv(path), catalog=load_catalog(), heights={})
        assert batch.ids == ("a1", "a2", "a3") and batch.cf[1] == 0.8

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "alerts.csv"
        path.write_text("id,attack_class,p,label,criticality\na,DoS,0.5,,\na,Bot,0.6,,\n")
        with pytest.raises(ParseError) as err:
            load_alerts_csv(path)
        assert str(err.value) == f"{path}: alert 'a' at row 3 repeats row 2"

    def test_bad_probability_row(self, tmp_path):
        path = tmp_path / "alerts.csv"
        path.write_text("id,attack_class,p,label,criticality\na,DoS,1.5,,\n")
        with pytest.raises(ParseError) as err:
            load_alerts_csv(path)
        assert str(err.value) == f"{path}: bad alert row 2: p must lie in [0, 1], got 1.5"

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "alerts.csv"
        path.write_text("id,attack_class,p,label,criticality\na,DoS,0.5\n")
        with pytest.raises(ParseError):
            load_alerts_csv(path)


class TestAssemble:
    def test_known_class(self):
        catalog = load_catalog()
        records = assemble(["a1"], ["DoS"], [0.9], catalog, {"DoS": 0.8}, labels=[1])
        (r,) = records
        assert r.attack_class == "DoS"
        assert r.h_class == 0.8
        assert r.core == pytest.approx(catalog["DoS"].cvss * r.cf)
        assert r.spread == pytest.approx(r.core * r.uf)
        assert r.height == pytest.approx(min(0.8, 0.9))

    def test_novel_class_neutral_height(self):
        # unseen class: conservative class height 0.5, capped by p
        records = assemble(["a1"], ["QuantumExfil"], [0.9], load_catalog(), {})
        (r,) = records
        assert r.h_class == 0.5
        assert r.height == 0.5

    def test_zero_probability_height_floor(self):
        records = assemble(["a1"], ["DoS"], [0.0], load_catalog(), {"DoS": 0.8})
        assert records[0].height == HEIGHT_FLOOR

    def test_benign_zero_core(self):
        records = assemble(["a1"], ["benign"], [0.7], load_catalog(), {}, labels=[0])
        (r,) = records
        assert r.core == 0.0
        assert r.spread == SPREAD_FLOOR

    def test_uf_scale(self):
        catalog = load_catalog()
        base = assemble(["a1"], ["DoS"], [0.9], catalog, {"DoS": 0.8})
        scaled = assemble(["a1"], ["DoS"], [0.9], catalog, {"DoS": 0.8}, uf_scale=1.2)
        assert scaled[0].spread == pytest.approx(base[0].spread * 1.2)

    def test_uf_scale_out_of_domain(self):
        with pytest.raises(ValidationError):
            assemble(["a1"], ["DoS"], [0.9], load_catalog(), {}, uf_scale=0.0)
        with pytest.raises(ValidationError):
            # Infiltration uf 0.35 * 2.0 exceeds the 0.5 cap
            assemble(["a1"], ["Infiltration"], [0.9], load_catalog(), {}, uf_scale=2.0)

    def test_criticality_overrides_hash(self):
        records = assemble(
            ["a1"], ["DoS"], [0.9], load_catalog(), {"DoS": 0.8},
            criticalities=[Criticality.ISOLATED],
        )
        assert records[0].cf == 0.2


class TestAlertBatch:
    def batch(self):
        return make_batch(
            [
                make_record("a", 6.0, 0.9, 0.6, 0.6, h_class=0.9),
                make_record("b", 0.0, SPREAD_FLOOR, 0.3, 0.3, label=0, h_class=0.5),
            ]
        )

    def test_rows_on_demand(self):
        batch = self.batch()
        rows = list(batch)
        assert rows == [batch[0], batch[1]]
        assert rows[0] == PreparedAlert("a", "DoS", 0.6, 0.8, 0.2, 0.9, 6.0, 0.9, 0.6, 1)
        assert type(rows[0].p) is float and type(batch[1].core) is float

    def test_columns_are_read_only(self):
        batch = self.batch()
        assert batch.p.dtype == np.float64
        with pytest.raises(ValueError):
            batch.p[0] = 0.1

    def test_codes_are_read_only_copies(self):
        classes, labels = Coded(("DoS", "Bot"), [1, 0]), Coded((0, 1), [1, 1])
        batch = assemble(["a", "b"], classes, [0.5, 0.5], load_catalog(), {}, labels=labels)
        classes.codes[:], labels.codes[:] = 0, 0
        assert (batch.classes, batch.labels) == (("Bot", "DoS"), (1, 1))
        for column in (batch.classes, batch.labels):
            with pytest.raises(ValueError):
                column.codes[0] = 0

    @pytest.mark.parametrize("column", ["classes", "labels"])
    @pytest.mark.parametrize("code", [-1, 3])
    def test_codes_outside_the_names_rejected(self, column, code):
        # before, numpy's ValueError (a negative code) or an IndexError
        columns = {"classes": Coded(("DoS", "Bot"), [0]), "labels": Coded((0, 1), [1])}
        columns[column] = Coded(columns[column].names, [code])
        with pytest.raises(ValidationError, match=rf"^{column} codes must lie in range\(2\), got {code}$"):
            assemble(["a"], columns["classes"], [0.5], load_catalog(), {}, labels=columns["labels"])

    def test_catalog_is_a_read_only_copy(self):
        catalog = load_catalog()
        batch = assemble(["a1"], ["DoS"], [0.9], catalog, {"DoS": 0.8})
        catalog["DoS"] = AttackClassProfile("DoS", 1.0, 0.5)
        assert batch.catalog["DoS"] == load_catalog()["DoS"]
        assert batch.with_uf_scale(1.0).uf.tolist() == batch.uf.tolist()
        with pytest.raises(TypeError):
            batch.catalog["DoS"] = catalog["DoS"]

    def test_duplicate_ids_rejected(self):
        record = make_record("a", 6.0, 0.9, 0.6, 0.6)
        with pytest.raises(ValidationError, match="unique"):
            make_batch([record, record])

    def test_column_length_mismatch_rejected(self):
        batch = self.batch()
        columns = {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)}
        with pytest.raises(ValidationError, match="one entry per id"):
            AlertBatch(**{**columns, "spread": columns["spread"][:1]})
        with pytest.raises(ValidationError, match="one entry per id"):
            AlertBatch(**{**columns, "labels": (1,)})

    def test_with_p_recomputes_capped_height(self):
        batch = self.batch()
        shifted = batch.with_p([0.95, 0.0])
        assert shifted.p.tolist() == [0.95, 0.0]
        assert shifted.height.tolist() == [0.9, HEIGHT_FLOOR]
        for name in ("cf", "uf", "h_class", "core", "spread"):
            assert getattr(shifted, name).tolist() == getattr(batch, name).tolist()
        assert shifted.ids == batch.ids and shifted.labels == batch.labels
        assert batch.p.tolist() == [0.6, 0.3]

    def test_with_p_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            self.batch().with_p([0.5, 1.5])

    def test_empty_assembly(self):
        for cf_mode in CfMode:
            batch = assemble([], [], [], load_catalog(), {}, cf_mode=cf_mode)
            assert len(batch) == 0 and list(batch) == []
            assert batch.core.dtype == np.float64 and batch.core.shape == (0,)


# Catalog classes, the zero-core benign class, and a class the catalog
# lacks (CVSS 5.0 / uf 0.35 defaults).
SAMPLE_CLASSES = ("DoS", "PortScan", "Heartbleed", "benign", "QuantumExfil")

# The bundled catalog, or profiles drawn for some sample classes with a uf
# that every scale drawn below keeps in (0, 0.5].
catalogs = st.one_of(
    st.builds(load_catalog),
    st.dictionaries(
        st.sampled_from(SAMPLE_CLASSES), st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 0.35))
    ).map(lambda drawn: {c: AttackClassProfile(c, cvss, uf) for c, (cvss, uf) in drawn.items()}),
)


# Free-text ids and classes: any Unicode but surrogates, with NUL (also
# trailing), the "|" separator and multi-byte characters drawn often.
free_text = st.one_of(
    st.text(min_size=1, max_size=50),
    st.text(st.sampled_from("ab|\x00é€😀"), min_size=1, max_size=8),
    st.text(min_size=0, max_size=4).map(lambda text: text + "\x00"),
)


@st.composite
def assembly_inputs(draw):
    """The alert columns, keyed as ``assemble`` names them, and a heights map."""
    ids = draw(st.lists(free_text, max_size=25, unique=True))

    def column(strategy):
        return draw(st.lists(strategy, min_size=len(ids), max_size=len(ids)))

    alerts = {
        "ids": ids,
        "classes": column(st.one_of(st.sampled_from(SAMPLE_CLASSES), free_text)),
        "p": column(st.one_of(st.sampled_from([0.0, HEIGHT_FLOOR, 1.0]), st.floats(0.0, 1.0))),
        "labels": column(st.sampled_from([None, 0, 1])),
        "criticalities": column(st.one_of(st.none(), st.sampled_from(list(Criticality)))),
    }
    heights = draw(
        st.dictionaries(
            st.sampled_from(SAMPLE_CLASSES),
            st.one_of(
                st.sampled_from([HEIGHT_FLOOR, 1.0]), st.floats(0.0, 1.0, exclude_min=True)
            ),
        )
    )
    return alerts, heights


def assert_bits(column, reference):
    assert np.asarray(column, dtype=float).tobytes() == np.array(reference, dtype=float).tobytes()


class TestAssembleMatchesScalarReference:
    """The batch columns, risk-averse scores and scenario heights equal the
    per-alert scalar rules bit for bit."""

    @given(
        assembly_inputs(),
        catalogs,
        st.sampled_from(list(CfMode)),
        st.sampled_from([0.5, 1.0, 1.2]),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_columns_scores_and_scenarios(self, inputs, catalog, cf_mode, uf_scale, kappa):
        alerts, heights = inputs
        batch = assemble(
            **alerts, catalog=catalog, heights=heights, cf_mode=cf_mode, uf_scale=uf_scale
        )

        ids, classes, p = alerts["ids"], alerts["classes"], alerts["p"]
        profiles = [resolve_profile(c, catalog) for c in classes]
        cf = [
            cf_value(i, c, cf_mode, crit)
            for i, c, crit in zip(ids, classes, alerts["criticalities"])
        ]
        core = [profile.cvss * c for profile, c in zip(profiles, cf)]
        uf = [profile.uf * uf_scale for profile in profiles]
        spread = [c * u if c * u > 0.0 else SPREAD_FLOOR for c, u in zip(core, uf)]
        h_class = [heights.get(c, 0.5) for c in classes]
        height = [max(min(h, q), HEIGHT_FLOOR) for h, q in zip(h_class, p)]

        assert batch.ids == tuple(ids)
        assert batch.classes == tuple(classes)
        assert batch.labels == tuple(alerts["labels"])
        for name, reference in (
            ("p", p),
            ("cf", cf),
            ("uf", uf),
            ("h_class", h_class),
            ("core", core),
            ("spread", spread),
            ("height", height),
        ):
            assert_bits(getattr(batch, name), reference)

        reference_scores = [
            ranking_index(GaussianFuzzyNumber(c, s, h), kappa)
            for c, s, h in zip(core, spread, height)
        ]
        assert_bits(method_scores(batch, Method.RISK_AVERSE, RiskProfile(kappa)), reference_scores)
        score = dict(zip(batch.ids, reference_scores))
        reference_order = sorted(score, key=lambda i: (-score[i], i))
        assert rank(batch, Method.RISK_AVERSE, RiskProfile(kappa)).ids() == tuple(reference_order)

        for kind in ScenarioKind:
            spec = ScenarioSpec(kind, noise_sd=0.2, seed=3)
            shifted = batch.with_p(perturb(batch.p, spec))
            p_new = perturb(p, spec).tolist()
            assert_bits(shifted.p, p_new)
            assert_bits(shifted.height, [max(min(h, q), HEIGHT_FLOOR) for h, q in zip(h_class, p_new)])
            assert_bits(shifted.core, core)
            assert_bits(shifted.spread, spread)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_scores_on_many_heights(self, kappa):
        # numpy's log and log10 differ from math.log in the last bit for a
        # few heights in a thousand, so a large seeded batch shows the rule.
        rng = np.random.default_rng(11)
        n = 20_000
        height = np.concatenate([[HEIGHT_FLOOR, 1.0], rng.uniform(HEIGHT_FLOOR, 1.0, n - 2)])
        core = rng.uniform(0.0, 10.0, n)
        spread = np.maximum(core * 0.2, SPREAD_FLOOR)
        batch = make_batch(
            make_record(f"a{i}", c, s, h, h)
            for i, (c, s, h) in enumerate(zip(core.tolist(), spread.tolist(), height.tolist()))
        )
        reference = [
            ranking_index(GaussianFuzzyNumber(c, s, h), kappa)
            for c, s, h in zip(core.tolist(), spread.tolist(), height.tolist())
        ]
        assert_bits(method_scores(batch, Method.RISK_AVERSE, RiskProfile(kappa)), reference)


heights_maps = st.dictionaries(
    st.sampled_from(SAMPLE_CLASSES),
    st.one_of(st.sampled_from([HEIGHT_FLOOR, 1.0]), st.floats(0.0, 1.0, exclude_min=True)),
)


def assert_same_batch(batch, fresh):
    assert (batch.ids, batch.classes, batch.labels) == (fresh.ids, fresh.classes, fresh.labels)
    assert batch.catalog == fresh.catalog
    for name in ("p", "cf", "uf", "h_class", "core", "spread", "height", "log10_height"):
        assert_bits(getattr(batch, name), getattr(fresh, name))
    assert batch.id_rank.tolist() == fresh.id_rank.tolist()


def rebuilt(batch):
    """The batch's columns in a new batch, so that nothing derived is carried."""
    return AlertBatch(**{f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)})


# One class the catalog lacks and one the heights lack, so both fallbacks run.
FALLBACK_ALERTS = (
    {"ids": ["q", "d"], "classes": ["QuantumExfil", "DoS"], "p": [0.7, 0.9], "labels": [1, 0]},
    {"DoS": 0.8},
)


class TestBatchTransforms:
    """Each transform equals a fresh assembly bit for bit, derived columns
    included, and carries over what it leaves valid."""

    @given(
        assembly_inputs(),
        catalogs,
        st.sampled_from(list(CfMode)),
        st.sampled_from([0.5, 1.0, 1.2]),
        heights_maps,
        st.sampled_from([0.5, 0.8, 1.0, 1.2, 1.4]),
    )
    @example(FALLBACK_ALERTS, load_catalog(), CfMode.CATEGORICAL, 1.2, {"QuantumExfil": 0.3}, 0.8)
    @example(FALLBACK_ALERTS, load_catalog(), CfMode.CONTINUOUS, 1.0, {}, 1.4)
    @example(
        FALLBACK_ALERTS, {"DoS": AttackClassProfile("DoS", 4.0, 0.1)}, CfMode.CONTINUOUS, 1.0, {}, 1.2
    )
    @settings(max_examples=200, deadline=None)
    def test_transforms_equal_fresh_assembly(
        self, inputs, catalog, cf_mode, uf_scale, heights2, scale2
    ):
        alerts, heights = inputs
        alerts = dict(alerts, catalog=catalog, cf_mode=cf_mode)
        base = assemble(**alerts, heights=heights, uf_scale=uf_scale)
        log10_height, id_rank = base.log10_height, base.id_rank

        by_heights = base.with_class_heights(heights2)
        fresh = assemble(**alerts, heights=heights2, uf_scale=uf_scale)
        assert_same_batch(by_heights, fresh)
        assert by_heights.id_rank is id_rank

        by_scale = base.with_uf_scale(scale2)
        fresh = assemble(**alerts, heights=heights, uf_scale=scale2)
        assert_same_batch(by_scale, fresh)
        assert by_scale.id_rank is id_rank and by_scale.log10_height is log10_height

    @given(assembly_inputs(), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_with_p_carries_id_rank(self, inputs, shift):
        alerts, heights = inputs
        base = assemble(**alerts, catalog=load_catalog(), heights=heights)
        id_rank = base.id_rank
        shifted = base.with_p(np.minimum(base.p + shift, 1.0))
        assert shifted.id_rank is id_rank
        assert_same_batch(shifted, rebuilt(shifted))

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan"), 1.5, 3.0])
    def test_uf_scale_errors_match_assemble(self, scale):
        alerts, heights = FALLBACK_ALERTS
        catalog = load_catalog()
        with pytest.raises(ValidationError) as expected:
            assemble(**alerts, catalog=catalog, heights=heights, uf_scale=scale)
        with pytest.raises(ValidationError) as got:
            assemble(**alerts, catalog=catalog, heights=heights).with_uf_scale(scale)
        assert str(got.value) == str(expected.value)

    def test_class_height_errors_match_assemble(self):
        alerts, _ = FALLBACK_ALERTS
        with pytest.raises(ValidationError) as expected:
            assemble(**alerts, catalog=load_catalog(), heights={"DoS": 1.5})
        with pytest.raises(ValidationError) as got:
            assemble(**alerts, catalog=load_catalog(), heights={}).with_class_heights({"DoS": 1.5})
        assert str(got.value) == str(expected.value)

    def test_with_p_length_mismatch_rejected(self):
        alerts, heights = FALLBACK_ALERTS
        with pytest.raises(ValidationError, match="one entry per id"):
            assemble(**alerts, catalog=load_catalog(), heights=heights).with_p(0.5)


# Class names that CSV must quote or that hold the "|" separator, non-ASCII
# text, and the sample classes.
quoted_classes = st.one_of(
    st.sampled_from(SAMPLE_CLASSES),
    st.text(st.sampled_from(',"|é€😀 a'), min_size=1, max_size=6),
    free_text,
)
# Names that no row holds: the first is in the catalog below at a uf that
# the scale 1.2 puts past 0.5.
UNHELD_CLASSES = ("Overreach", "never,held")


def coded(draw, values, unheld):
    """``values`` as a Coded column whose shuffled names include ``unheld``."""
    names = draw(st.permutations([*dict.fromkeys(values), *unheld]))
    index = {name: n for n, name in enumerate(names)}
    return Coded(names, [index[value] for value in values])


class TestCodedInput:
    """Coded class and label columns assemble as their decoded tuples do."""

    @given(
        assembly_inputs(), st.data(), st.sampled_from(list(CfMode)),
        st.sampled_from([0.8, 1.0, 1.2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_coded_columns_match_tuples(self, tmp_path_factory, inputs, data, cf_mode, uf_scale):
        alerts, heights = inputs
        n = len(alerts["ids"])
        classes = data.draw(st.lists(quoted_classes.filter(lambda c: c not in UNHELD_CLASSES),
                                     min_size=n, max_size=n))
        catalog = {**load_catalog(), "Overreach": AttackClassProfile("Overreach", 6.0, 0.5)}
        common = dict(ids=alerts["ids"], p=alerts["p"], criticalities=alerts["criticalities"],
                      catalog=catalog, heights=heights, cf_mode=cf_mode, uf_scale=uf_scale)
        plain = assemble(classes=tuple(classes), labels=tuple(alerts["labels"]), **common)
        batch = assemble(classes=coded(data.draw, classes, UNHELD_CLASSES),
                         labels=coded(data.draw, alerts["labels"], (2,)), **common)
        assert_same_batch(batch, plain)
        assert_bits(batch.with_uf_scale(1.2).uf, plain.with_uf_scale(1.2).uf)

        folder = tmp_path_factory.mktemp("coded")
        for name, records in (("coded", batch), ("plain", plain)):
            queues = {folder / name / f"{m.value}.csv": rank(records, m) for m in Method}
            write_queue_csvs(queues, "seed=7")
        for m in Method:
            coded_bytes = (folder / "coded" / f"{m.value}.csv").read_bytes()
            assert coded_bytes == (folder / "plain" / f"{m.value}.csv").read_bytes()
