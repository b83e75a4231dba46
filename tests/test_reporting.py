"""Report assembly and serialization round trips."""

import json

import pytest

from msinv.estimators import EstimatorConfig, total_inventory
from msinv.reporting import (
    KG_H_PER_KT_Y,
    read_csv_rows,
    write_decomposition_table,
    write_report_json,
    write_report_table,
)

from conftest import random_frame


@pytest.fixture()
def report():
    return total_inventory(random_frame(3), EstimatorConfig())


class TestUnits:
    def test_conversion_factor_exact(self):
        assert KG_H_PER_KT_Y == 8760.0 / 1.0e6
        assert KG_H_PER_KT_Y == pytest.approx(0.00876)


class TestSerialization:
    def test_json_and_table_agree_after_parsing(self, report, tmp_path):
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        manifest = {"command": "estimate", "seed": 0}
        write_report_json(report, jpath, manifest)
        write_report_table(report, cpath, manifest)
        doc = json.loads(jpath.read_text())
        got_manifest, rows = read_csv_rows(cpath)
        assert got_manifest == manifest
        assert doc["manifest"] == manifest
        by_name = {r["name"]: r for r in doc["strata"]}
        for row in rows[:-1]:
            ref = by_name[row["stratum"]]
            assert float(row["total_kt_y"]) == round(ref["total"], 2)
            assert float(row["var_total"]) == round(ref["var_total"], 2)
        pop = rows[-1]
        assert pop["stratum"] == "Population"
        assert float(pop["total_kt_y"]) == round(doc["total"], 2)

    def test_json_refuses_non_finite_values(self, report, tmp_path):
        report.total = float("nan")
        with pytest.raises(ValueError):
            write_report_json(report, tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_decomposition_table_shares(self, report, tmp_path):
        path = tmp_path / "d.csv"
        write_decomposition_table(report, path)
        _, rows = read_csv_rows(path)
        sources = {"stage1", "stage2", "stage3", "measurement"}
        pop_rows = [r for r in rows if r["stratum"] == "Population"]
        assert {r["source"] for r in pop_rows} == sources
        share = sum(float(r["share"]) for r in pop_rows)
        assert share == pytest.approx(1.0, rel=1e-9)
        v_total = report.var_total
        for r in pop_rows:
            assert float(r["variance_kt_y2"]) <= v_total + 1e-12

    def test_report_invariants(self, report):
        assert report.var_total == pytest.approx(
            report.var_stage1 + report.var_stage2 + report.var_stage3
            + report.var_measurement
        )
        assert report.total == pytest.approx(
            sum(r.total for r in report.strata), rel=1e-12
        )
        assert report.ci_lower <= report.total <= report.ci_upper

    def test_strata_sorted_by_total(self, report):
        totals = [r.total for r in report.strata]
        assert totals == sorted(totals)
