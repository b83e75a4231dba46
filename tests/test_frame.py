"""Frame ingestion, validation and diagnostics."""

import numpy as np
import pytest

from msinv.frame import (
    ComponentRef,
    FrameError,
    Pass,
    StratumDef,
    SurveyFrame,
    load_survey,
    read_strata,
    save_survey,
    validate,
)

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
        assert sum(1 for p in frame.passes if p.detected) == 2
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
    def test_non_finite_measurement_rejected(self, field, value):
        fields = {"rate": 12.5, "wind": 3.0, "altitude": 500.0, field: value}
        with pytest.raises(FrameError, match="finite"):
            Pass("c1", 10, 1, True, fields["rate"], fields["wind"], fields["altitude"])

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

    def test_stratum_cannot_mix_wells(self, tmp_path):
        rows = [
            "c1,f1,s1,A,10,1,0,,,",
            "w1,w1,s1,A,10,1,0,,,",
        ]
        frame_rows = ["c1,f1,s1,A,0,2", "w1,w1,s1,A,1,2"]
        with pytest.raises(FrameError, match="mixes well"):
            load_survey(*write_files(tmp_path, rows, frame_rows, ["A,2,4"]))

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
            SurveyFrame(
                strata={"A": StratumDef("A", 1, 1)},
                components={"c1": ComponentRef("c1", "f1", "s1", "A")},
                passes=passes,
            )


class TestDerivedCounts:
    def test_distinct_days(self):
        frame = SurveyFrame(
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
        assert validate(frame).is_clean()


class TestRoundTrip:
    def test_save_then_load_preserves_counts(self, subset_frame, tmp_path):
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        save_survey(subset_frame, p, f, s)
        again = load_survey(p, f, s)
        assert again.days_surveyed == subset_frame.days_surveyed
        assert again.passes_per_day == subset_frame.passes_per_day
        assert again.strata == subset_frame.strata
