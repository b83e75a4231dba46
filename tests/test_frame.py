"""Frame ingestion, validation and diagnostics."""

import codecs
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import estimator_reference
import frame_reference
from frame_reference import (Pass, Unit, UnitDay, frame_from_passes, load_reference,
                             log_records, wells_per_site)
from msinv.datasets import packaged_subset_paths
from msinv.frame import (
    ComponentRef,
    FrameDiagnostics,
    FrameError,
    StratumDef,
    count,
    json_list,
    json_object,
    load_survey,
    number,
    read_json,
    read_strata,
    text,
    validate,
)
from test_frame_columns import assert_same_frame, write_survey

PASSES_HEADER = "component_id,facility_id,site_id,stratum,day,pass,detected,rate_kg_h,wind_m_s,altitude_m"
FRAME_HEADER = "component_id,facility_id,site_id,stratum,is_well,wells_at_site"
STRATA_HEADER = "stratum,n_sampled,n_population"


def write_files(tmp_path, passes_rows, frame_rows, strata_rows):
    p = tmp_path / "passes.csv"
    f = tmp_path / "frame.csv"
    s = tmp_path / "strata.csv"
    p.write_text("\n".join([PASSES_HEADER] + passes_rows) + "\n")
    f.write_text("\n".join([FRAME_HEADER] + frame_rows) + "\n")
    s.write_text("\n".join([STRATA_HEADER] + strata_rows) + "\n")
    return p, f, s


BASIC_FRAME = ["c1,f1,s1,A,0,0"]
BASIC_STRATA = ["A,1,2"]


class TestLoad:
    def test_counts_from_mixed_detections(self, tmp_path):
        rows = [
            "c1,f1,s1,A,10,1,1,12.5,3.0,500",
            "c1,f1,s1,A,10,2,1,14.0,3.5,510",
            "c1,f1,s1,A,10,3,0,,,",
        ]
        frame = load_survey(*write_files(tmp_path, rows, BASIC_FRAME, BASIC_STRATA))
        assert frame.passes_per_day[("c1", 10)] == 3
        assert int(frame.passes.detected.sum()) == 2
        assert frame.days_surveyed["c1"] == 1

    def test_table_row_parses_to_sizes(self, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text(STRATA_HEADER + "\nCO SWB,48,58\n")
        strata = read_strata(path)
        assert strata["CO SWB"].n_sampled == 48
        assert strata["CO SWB"].n_population == 58

    def test_detected_with_empty_rate_names_row(self, tmp_path):
        rows = ["c1,f1,s1,A,10,1,1,,3.0,500"]
        with pytest.raises(FrameError, match="row 2"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, BASIC_STRATA))

    @pytest.mark.parametrize("field", ["rate", "wind", "altitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_measurement_rejected(self, tmp_path, field, value):
        fields = {"rate": 12.5, "wind": 3.0, "altitude": 500.0, field: value}
        rows = ["c1,f1,s1,A,10,1,1,{rate},{wind},{altitude}".format(**fields)]
        with pytest.raises(FrameError, match="row 2: .* must be finite"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, BASIC_STRATA))

    def test_nondetected_must_leave_fields_empty(self, tmp_path):
        rows = ["c1,f1,s1,A,10,1,0,5.0,,"]
        with pytest.raises(FrameError, match="row 2"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, BASIC_STRATA))

    def test_unknown_component(self, tmp_path):
        rows = ["cX,f1,s1,A,10,1,0,,,"]
        with pytest.raises(FrameError, match="unknown component"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, BASIC_STRATA))

    def test_unknown_stratum(self, tmp_path):
        rows = ["c1,f1,s1,B,10,1,0,,,"]
        frame_rows = ["c1,f1,s1,B,0,0"]
        with pytest.raises(FrameError):
            load_survey(*write_files(tmp_path, rows, frame_rows, BASIC_STRATA))

    def test_duplicate_pass_key(self, tmp_path):
        rows = [
            "c1,f1,s1,A,10,1,0,,,",
            "c1,f1,s1,A,10,1,0,,,",
        ]
        with pytest.raises(FrameError, match="duplicate"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, BASIC_STRATA))

    def test_component_without_passes_rejected(self, tmp_path):
        rows = ["c1,f1,s1,A,10,1,0,,,"]
        frame_rows = ["c1,f1,s1,A,0,0", "c2,f1,s1,A,0,0"]
        with pytest.raises(FrameError, match="no passes"):
            load_survey(*write_files(tmp_path, rows, frame_rows, BASIC_STRATA))

    def test_n_sampled_must_match_registry(self, tmp_path):
        rows = ["c1,f1,s1,A,10,1,0,,,"]
        with pytest.raises(FrameError, match="n_sampled"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, ["A,2,4"]))

    def test_stratum_without_components_rejected(self, tmp_path):
        # a stratum of the table that no component names has no facilities
        rows = ["c1,f1,s1,A,10,1,0,,,"]
        with pytest.raises(FrameError, match="stratum 'Ghost': n_sampled=3 but the registry "
                                             "lists 0 distinct facilities"):
            load_survey(*write_files(tmp_path, rows, BASIC_FRAME, ["A,1,2", "Ghost,3,10"]))

    def test_stratum_cannot_mix_wells(self, tmp_path):
        rows = [
            "c1,f1,s1,A,10,1,0,,,",
            "w1,w1,s1,A,10,1,0,,,",
        ]
        frame_rows = ["c1,f1,s1,A,0,2", "w1,w1,s1,A,1,2"]
        with pytest.raises(FrameError, match="mixes well"):
            load_survey(*write_files(tmp_path, rows, frame_rows, ["A,2,4"]))

    @pytest.mark.parametrize("reader", [read_strata, frame_reference.read_strata],
                             ids=["loader", "reference"])
    def test_a_strata_table_without_rows_is_refused(self, tmp_path, reader):
        path = tmp_path / "strata.csv"
        path.write_text(STRATA_HEADER + "\n")
        with pytest.raises(FrameError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: no strata rows"

    def test_header_mismatch(self, tmp_path):
        p, f, s = write_files(tmp_path, [], BASIC_FRAME, BASIC_STRATA)
        p.write_text("bad,header\n")
        with pytest.raises(FrameError, match="header"):
            load_survey(p, f, s)

    def test_many_passes_warns(self):
        passes = tuple(
            Pass("c1", 1, i, False) for i in range(7)
        )
        with pytest.warns(UserWarning, match="more than 5"):
            frame_from_passes(
                strata={"A": StratumDef("A", 1, 1)},
                components={"c1": ComponentRef("c1", "f1", "s1", "A")},
                passes=passes,
            )


class TestDerivedCounts:
    def test_distinct_days(self):
        frame = frame_from_passes(
            strata={"A": StratumDef("A", 1, 1)},
            components={"c1": ComponentRef("c1", "f1", "s1", "A")},
            passes=(
                Pass("c1", 10, 1, False),
                Pass("c1", 42, 1, False),
                Pass("c1", 42, 2, False),
            ),
        )
        assert frame.days_surveyed["c1"] == 2
        assert frame.passes_per_day[("c1", 42)] == 2

    def test_packaged_subset_median_passes(self, subset_frame):
        per_day = subset_frame.passes_per_day
        assert float(np.median(list(per_day.values()))) == 2.0

    def test_stage1_sizes_match_registry(self, subset_frame):
        # every non-well stratum's n_sampled equals its distinct facilities
        by_stratum = {}
        for comp in subset_frame.components.values():
            if not comp.is_well:
                by_stratum.setdefault(comp.stratum, set()).add(comp.facility_id)
        for name, facs in by_stratum.items():
            assert subset_frame.strata[name].n_sampled == len(facs)


class TestUnits:
    def _frame(self):
        # a two-component well site surveyed on days 4-6, the components
        # overlapping on day 5, and a site without wells or detections
        return frame_from_passes(
            strata={"A": StratumDef("A", 1, 2), "Wells": StratumDef("Wells", 3, 10)},
            components={
                "w2": ComponentRef("w2", "w2", "site1", "Wells", is_well=True),
                "c1": ComponentRef("c1", "f1", "s1", "A"),
                "w1": ComponentRef("w1", "w1", "site1", "Wells", is_well=True),
                "w3": ComponentRef("w3", "w3", "site0", "Wells", is_well=True),
            },
            passes=(
                Pass("c1", 2, 1, True, 10.0, 3.0, 150.0),
                Pass("c1", 2, 2, False),
                Pass("c1", 1, 1, True, 20.0, 3.0, 150.0),
                Pass("w2", 5, 1, True, 30.0, 3.0, 150.0),
                Pass("w2", 6, 1, False),
                Pass("w1", 5, 2, False),
                Pass("w1", 5, 1, True, 50.0, 3.0, 150.0),
                Pass("w1", 4, 2, True, 40.0, 3.0, 150.0),
                Pass("w1", 4, 1, False),
                Pass("w3", 4, 1, False),
            ),
            wells_per_site={"s1": 0, "site1": 3, "site0": 0},
        )

    def test_measured_rates_in_canonical_order(self):
        # the detected passes (c1, 1, 1), (c1, 2, 1), (w1, 4, 2), (w1, 5, 1), (w2, 5, 1)
        frame = self._frame()
        assert frame.measured_rates.tolist() == [20.0, 10.0, 40.0, 50.0, 30.0]

    def test_components_then_sites_with_their_parts(self):
        frame = self._frame()
        # site0 has no wells and no detections: it is no unit at all
        ix = frame.index
        assert ix.ud_unit.tolist() == [0, 0, 1, 1, 1]
        assert ix.cd_ud.tolist() == [0, 1, 2, 3, 3, 4]
        assert ix.cd_q.tolist() == [1, 2, 2, 2, 1, 1]
        assert ix.pass_cd.tolist() == [0, 1, 2, 3, 4]
        assert ix.unit_wells.tolist() == [0, 3]
        assert ix.labels.tolist() == ["c1", "site1/well1"]
        # the same units, as the records the scalar reference walks
        assert estimator_reference.units(frame) == (
            Unit("c1", "A", ("f1",), 0, (
                UnitDay(1, (((0,), 1),)),
                UnitDay(2, (((1,), 2),)),
            )),
            Unit("site1", "Wells", ("site1/well1", "site1/well2", "site1/well3"), 3, (
                UnitDay(4, (((2,), 2),)),
                UnitDay(5, (((3,), 2), ((4,), 1))),
                UnitDay(6, (((), 1),)),
            )),
        )

    def test_site_spanning_strata_rejected(self):
        with pytest.raises(FrameError, match="span multiple strata"):
            frame_from_passes(
                strata={"W1": StratumDef("W1", 2, 4), "W2": StratumDef("W2", 2, 4)},
                components={
                    "w1": ComponentRef("w1", "w1", "site1", "W1", is_well=True),
                    "w2": ComponentRef("w2", "w2", "site1", "W2", is_well=True),
                },
                passes=(Pass("w1", 1, 1, False), Pass("w2", 1, 1, False)),
                wells_per_site={"site1": 2},
            )


class TestValidate:
    def test_zero_emitting_stratum_flagged(self, subset_frame):
        diag = validate(subset_frame)
        assert diag.zero_detection_strata == ("Water and Waste",)

    def test_single_day_component_count(self, tmp_path):
        rows = []
        frame_rows = []
        for i in range(17):
            rows.append(f"c{i},f{i},s{i},A,3,1,1,25.0,3.0,150")
            frame_rows.append(f"c{i},f{i},s{i},A,0,0")
        # one two-day component so the frame is not all single-day
        rows += ["cx,fx,sx,A,3,1,1,25.0,3.0,150", "cx,fx,sx,A,5,1,1,25.0,3.0,150"]
        frame_rows.append("cx,fx,sx,A,0,0")
        frame = load_survey(*write_files(tmp_path, rows, frame_rows, ["A,18,20"]))
        diag = validate(frame)
        assert len(diag.single_day_components) == 17

    def test_clean_frame_has_empty_diagnostics(self, tmp_path):
        rows = []
        frame_rows = []
        for i in range(10):
            rows.append(f"c{i},f{i},s{i},A,3,1,1,25.0,3.0,150")
            rows.append(f"c{i},f{i},s{i},A,5,1,1,25.0,3.0,150")
            frame_rows.append(f"c{i},f{i},s{i},A,0,0")
        frame = load_survey(*write_files(tmp_path, rows, frame_rows, ["A,10,12"]))
        assert validate(frame) == FrameDiagnostics((), (), (), ())


class TestRoundTrip:
    def test_write_then_load_preserves_counts(self, subset_frame, tmp_path):
        frame = subset_frame
        strata = [[s.name, s.n_sampled, s.n_population] for s in frame.strata.values()]
        wells = wells_per_site(frame.registry)
        registry = [[c.component_id, c.facility_id, c.site_id, c.stratum, int(c.is_well),
                     wells[c.site_id]] for c in frame.components.values()]
        passes = []
        for p in log_records(frame):
            c = frame.components[p.component_id]
            measured = (p.measured_rate, p.wind_speed, p.altitude)
            passes.append([p.component_id, c.facility_id, c.site_id, c.stratum, p.day_id,
                           p.pass_index, int(p.detected),
                           *("" if x is None else repr(x) for x in measured)])
        again = load_survey(*write_survey(tmp_path, strata, registry, passes))
        assert again.days_surveyed == subset_frame.days_surveyed
        assert again.passes_per_day == subset_frame.passes_per_day
        assert again.strata == subset_frame.strata
        assert log_records(again) == log_records(subset_frame)
        for f in dataclasses.fields(again.index):
            got, want = getattr(again.index, f.name), getattr(subset_frame.index, f.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        assert again.index.unit_wells.any()


    @pytest.mark.parametrize("marked", range(3))
    def test_a_byte_order_mark_is_skipped(self, tmp_path, marked):
        # Excel's "CSV UTF-8" starts the file with U+FEFF; one file at a time
        paths = [Path(p) for p in packaged_subset_paths()]   # passes, frame, strata
        copy = tmp_path / paths[marked].name
        copy.write_bytes(codecs.BOM_UTF8 + paths[marked].read_bytes())
        paths[marked] = copy
        original, again = load_survey(*packaged_subset_paths()), load_survey(*paths)
        assert (again.strata, again.components, wells_per_site(again.registry)) == (
            original.strata, original.components, wells_per_site(original.registry))
        # the reference loader reads through the same function
        assert_same_frame(again, load_reference(*packaged_subset_paths()))
        assert_same_frame(original, load_reference(*paths))


class TestConfigReader:
    @pytest.mark.parametrize("value, want", [(3, 3.0), (0.5, 0.5), ("2.5", 2.5), ("1e3", 1e3)])
    def test_number(self, value, want):
        assert number(value, "x") == want

    @pytest.mark.parametrize("value", [True, False, None, "high", [1], {}, "nan", "inf",
                                       math.nan, -math.inf, 10**400])
    def test_not_a_finite_number(self, value):
        with pytest.raises(ValueError, match="^x must be a"):
            number(value, "x")

    def test_non_finite_left_to_the_caller(self):
        assert number("inf", "x", finite=False) == math.inf
        assert math.isnan(number("nan", "x", finite=False))
        with pytest.raises(ValueError):
            number(True, "x", finite=False)

    @pytest.mark.parametrize("value, want", [(30, 30), (30.0, 30), ("30", 30), ("30.0", 30),
                                             (-2, -2), (2**60 + 1, 2**60 + 1)])
    def test_count(self, value, want):
        got = count(value, "n")
        assert (got, type(got)) == (want, int)

    @pytest.mark.parametrize("value", [30.9, "30.5", True, "many", None])
    def test_not_a_count(self, value):
        with pytest.raises(ValueError, match="^n must be a"):
            count(value, "n")

    def test_text(self):
        assert text("A", "name") == "A"
        with pytest.raises(ValueError, match="name must be a string"):
            text(5, "name")

    def test_object_names_missing_and_unknown_keys(self):
        doc = {"a": 1, "c": 3}
        assert json_object(doc, "doc", required=("a",), optional=("c",)) is doc
        assert json_object(doc, "doc") is doc
        with pytest.raises(ValueError, match="doc: missing key 'b'; unknown key 'c'"):
            json_object(doc, "doc", required=("a", "b"), optional=())
        with pytest.raises(ValueError, match="doc must be an object"):
            json_object([doc], "doc")

    def test_list(self):
        assert json_list([1], "xs") == [1]
        with pytest.raises(ValueError, match="xs must be a list"):
            json_list(5, "xs")

    def test_read_json_sources(self, tmp_path):
        doc = {"a": [1, 2]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert read_json(path) == read_json(str(path)) == doc

    @pytest.mark.parametrize("text, key", [
        ('{"a": 1, "a": 2}', "a"),
        ('{"a": 1, "b": [{"c": 1, "c": 1}]}', "c"),
    ], ids=["top-level", "nested"])
    def test_read_json_refuses_a_repeated_key(self, tmp_path, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^repeated key '{key}' in a JSON object$"):
            read_json(path)
