"""Report assembly and serialization round trips."""

import dataclasses
import itertools
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from msinv.batch import POPULATION_KEYS, STRATUM_KEYS
from msinv.estimators import EstimatorConfig, total_inventory
from msinv.measurement import McConfig, bias_corrected_inventory, run_mc
from msinv.pod import MeasurementModel, PodParams
from msinv.reporting import (
    KG_H_PER_KT_Y,
    EstimationError,
    VAR_KG_H_PER_KT_Y,
    batch_report,
    wald_ci,
    write_csv,
    write_decomposition_table,
    write_json,
    write_report_json,
    write_report_table,
)

from conftest import random_frame, read_csv_rows


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

    @pytest.mark.parametrize("write", [
        lambda report, path: write_report_json(report, path),
        lambda report, path: write_json(path, {"total": report.total}, {"seed": 0}),
    ], ids=["write_report_json", "write_json"])
    def test_json_refuses_non_finite_values(self, report, tmp_path, write):
        report.total = float("nan")
        with pytest.raises(ValueError):
            write(report, tmp_path / "r.json")
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


WRITERS = {
    "json": lambda path: write_json(path, {"total": 1.5, "rows": [1, 2]}, {"seed": 0}),
    "csv": lambda path: write_csv(path, ["a", "b"], ([i, i * 0.5] for i in range(3)),
                                  {"seed": 0}),
}


class TestOverwrite:
    """An existing artifact is cut to one byte, not to zero, and written over."""

    @pytest.mark.parametrize("kind", WRITERS)
    def test_stale_longer_file_gives_exactly_the_new_bytes(self, tmp_path, kind):
        WRITERS[kind](tmp_path / "fresh")
        path = tmp_path / "stale"
        path.write_bytes(b"stale bytes, longer than the artifact\n" * 100)
        WRITERS[kind](path)
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()

    @pytest.mark.parametrize("kind", WRITERS)
    def test_links_see_the_new_bytes_and_the_file_keeps_its_inode(self, tmp_path, kind):
        WRITERS[kind](tmp_path / "fresh")
        target, hard, soft = tmp_path / "target", tmp_path / "hard", tmp_path / "soft"
        target.write_bytes(b"x" * 10_000)
        target.chmod(0o640)
        os.link(target, hard)
        soft.symlink_to(target)
        inode = target.stat().st_ino
        WRITERS[kind](soft)
        assert soft.is_symlink()
        WRITERS[kind](hard)
        expected = (tmp_path / "fresh").read_bytes()
        assert target.read_bytes() == hard.read_bytes() == expected
        assert target.stat().st_ino == inode and target.stat().st_nlink == 2
        assert target.stat().st_mode & 0o777 == 0o640

    def test_failing_rows_leave_the_written_part_and_no_stale_tail(self, tmp_path):
        def rows():
            yield ["x", 1]
            raise RuntimeError("row 2")

        path = tmp_path / "t.csv"
        path.write_bytes(b"stale\n" * 1000)
        with pytest.raises(RuntimeError, match="row 2"):
            write_csv(path, ["a", "b"], rows(), {"seed": 0})
        assert path.read_bytes() == b'# manifest: {"seed": 0}\na,b\r\nx,1\r\n'

    def test_refused_report_leaves_the_old_file_untouched(self, report, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b"the previous report")
        report.total = float("nan")
        with pytest.raises(ValueError):
            write_report_json(report, path)
        assert path.read_bytes() == b"the previous report"

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_device_is_written_and_not_cut(self, kind):
        # only a regular file is cut: truncating /dev/null fails
        WRITERS[kind](os.devnull)


@pytest.mark.parametrize("b", [1, 3])
def test_batch_report_maps_every_part_to_its_field(b):
    # a distinct power of two per part, so that no two parts sum or scale into
    # each other; the totals of B = 3 spread by +-a around their mean, giving
    # the measurement variance a*a, exactly
    powers = (2.0 ** e for e in itertools.count(-20, 3))
    spread = {scope: next(powers) for scope in ("Population", "A", "B")}
    parts = {scope: {k: next(powers) for k in keys}
             for scope, keys in (("Population", POPULATION_KEYS), ("A", STRATUM_KEYS),
                                 ("B", STRATUM_KEYS))}
    vm = {scope: a * a if b == 3 else 0.0 for scope, a in spread.items()}

    def iterations(scope, key):
        value = parts[scope][key]
        if key == "total" and b == 3:
            return np.array([value - spread[scope], value, value + spread[scope]])
        return np.full(b, value)

    population = {k: iterations("Population", k) for k in POPULATION_KEYS}
    strata = {k: np.stack([iterations("A", k), iterations("B", k)]) for k in STRATUM_KEYS}
    report = batch_report(population, strata, ["A", "B"], {}, 0.9)

    v = VAR_KG_H_PER_KT_Y
    rows = {"Population": report, **{row.name: row for row in report.strata}}
    assert [row.name for row in report.strata] == ["A", "B"]
    for scope, row in rows.items():
        p = parts[scope]
        assert row.total == p["total"] * KG_H_PER_KT_Y
        assert row.var_stage1 == p["v1"] * v
        assert row.var_stage2 == p["v2"] * v
        assert row.var_stage3 == p["v3"] * v
        assert row.var_measurement == vm[scope] * v
        assert row.var_total == (p["v1"] + p["v2"] + p["v3"] + vm[scope]) * v
        assert row.unclipped == {"var_stage1": p["u1"] * v, "var_stage2": p["u2"] * v,
                                 "var_stage3": p["u3"] * v}
    assert report.var_design == parts["Population"]["v3stage"] * v
    assert (report.ci_lower, report.ci_upper) == wald_ci(report.total, report.var_total, 0.9)
    assert report.ci_level == 0.9


@pytest.mark.parametrize("b, big, where", [
    # one iteration: every part is finite, the stage sum v1 + v2 is not
    (1, [("Population", "v1"), ("Population", "v2")], "population ci_lower"),
    # two: the sum of a part over the iterations overflows
    (2, [("Population", "total")], "population total"),
    (2, [("B", "u1")], "stratum 'B' unclipped.var_stage1"),
], ids=["B1-stage-sum", "B2-total", "B2-stratum-unclipped"])
def test_batch_report_refuses_a_sum_that_overflows(b, big, where):
    population = {k: np.full(b, 1.0) for k in POPULATION_KEYS}
    strata = {k: np.ones((2, b)) for k in STRATUM_KEYS}
    for scope, key in big:
        (population[key] if scope == "Population" else strata[key][1])[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError) as caught:
            batch_report(population, strata, ["A", "B"], {}, 0.95)
    assert str(caught.value) == (f"non-finite {where} in the report "
                                 "(a measured rate too large to estimate with?)")


def test_batch_report_copies_no_series():
    # the one temporary a series long is the variance's deviations of the
    # stratum totals from their means
    b, names = 50_000, ["A", "B", "C"]
    rng = np.random.default_rng(0)
    population = {k: rng.random(b) for k in POPULATION_KEYS}
    strata = {k: rng.random((len(names), b)) for k in STRATUM_KEYS}
    series = max(v.nbytes for v in (*population.values(), *strata.values()))
    tracemalloc.start()
    try:
        batch_report(population, strata, names, {}, 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= series + 64 * 1024


@pytest.mark.parametrize("measurement", ["bias-correct", "mc"])
def test_report_json_is_the_report_as_written(subset_frame, measurement, tmp_path):
    cfg = EstimatorConfig(estimator="hajek", stage2="observed")
    if measurement == "mc":
        report = run_mc(subset_frame, McConfig(estimator=cfg, iterations=20, seed=3)).report
    else:
        report = bias_corrected_inventory(subset_frame, cfg)
    report.diagnostics["nested"] = {"inputs": {"passes": {"path": "p.csv"}},
                                    "list": [1, [2.5, {"x": None}]]}
    manifest = {"command": "estimate", "seed": 3}
    path = tmp_path / "report.json"
    write_report_json(report, path, manifest)
    doc = dict(dataclasses.asdict(report), manifest=manifest)
    want = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("cfg, model", [
    (EstimatorConfig(), MeasurementModel()),
    (EstimatorConfig(estimator="hajek", stage2="observed", horizon=30,
                     decomposition="printed", ci_level=0.9,
                     pod_params=PodParams(kappa=0.5, wind_offset=1.0, outer_exp=3.0)),
     MeasurementModel(d=1.1, alpha=0.7, beta=float("inf"))),
], ids=["default", "custom"])
def test_config_as_dict_equals_asdict(cfg, model):
    # the echoes are built field by field, not by dataclasses.asdict
    assert cfg.as_dict() == dataclasses.asdict(cfg)
    assert list(cfg.as_dict()) == list(dataclasses.asdict(cfg))
    assert list(cfg.as_dict()["pod_params"]) == list(dataclasses.asdict(cfg.pod_params))
    assert cfg.as_dict()["pod_params"] is not cfg.as_dict()["pod_params"]
    assert model.as_dict() == dataclasses.asdict(model)
    assert list(model.as_dict()) == list(dataclasses.asdict(model))
    mc = McConfig(estimator=cfg, iterations=2, measurement=model)
    assert mc.as_dict()["measurement"] == dataclasses.asdict(model)
