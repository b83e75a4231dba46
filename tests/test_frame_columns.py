"""The block-reading column loader against the row-by-row reference loader.

Hypothesis writes pass logs shaped like real surveys (well sites, shuffled
rows, whitespace around fields, huge and negative day numbers) and injects
faults into some, in the pass log, the registry or the strata table.  Each
draw also picks how many rows the loader reads at a time, down to one, so
that faults land on the edges of its blocks.  Both loaders must then raise
the same `FrameError` message and warn the same way, and on a valid log
every view of the frame must equal the reference's.
"""

import csv
import dataclasses
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frame_reference import (
    detected_records, load_reference, log_records, reference_diagnostics, wells_per_site,
)
from msinv import frame as frame_module
from msinv.datasets import packaged_subset_paths
from msinv.frame import (
    FRAME_HEADER, PASSES_HEADER, STRATA_HEADER, FrameError, SurveyFrame, load_survey, validate,
)

FAULTS = ("fields", "component", "hierarchy", "flag", "presence", "number", "range", "day",
          "pass", "duplicate", "no-passes", "many-passes", "idle-site", "n-sampled",
          "registry-fields", "duplicate-component", "is-well", "wells-at-site",
          "conflicting-wells", "strata-fields", "duplicate-stratum", "strata-count",
          "strata-range", "strata-huge")
# rows the loader reads at a time: a block of one, so every row is a block's
# first and last, small blocks that logs of a few dozen rows span, and the default
BLOCK_SIZES = (1, 2, 7, frame_module.BLOCK_ROWS)


# Every strategy with fixed arguments is built once, here: building them anew
# on each draw took most of the column-loader test's time.
LEAD, TRAIL = st.sampled_from(["", " "]), st.sampled_from(["", "  "])
COIN = st.booleans()
ZERO_TO_TWO, ZERO_TO_THREE, ZERO_TO_FIVE = st.integers(0, 2), st.integers(0, 3), st.integers(0, 5)
ONE_TO_TWO, ONE_TO_THREE = st.integers(1, 2), st.integers(1, 3)
# a survey's days come from one pool: a list strategy per pool, one pool per survey
DAY_LISTS = st.sampled_from([
    st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
    for pool in (range(0, 30), range(-5, 5), range(10**20, 10**20 + 9))])
PASS_NUMBERS = st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)
RATE, WIND, ALTITUDE = st.floats(0.5, 500.0), st.floats(0.0, 12.0), st.floats(50.0, 900.0)
FAULT = st.sampled_from(FAULTS)
HIERARCHY_COLUMN, VALUE_COLUMN = st.integers(1, 3), st.integers(7, 9)
BAD_FLAG = st.sampled_from(["2", "", "yes", "1.0"])
BAD_NUMBER = st.sampled_from(["abc", "nan", "inf", "-inf", "1e999", "1,5"])
BELOW_RANGE = st.sampled_from(["0", "-0.0", "-1"])
BELOW_RANGE_WIND = st.sampled_from(["-0.5", "-1e-300"])
BAD_INDEX = st.sampled_from(["x", "1.5", "", "0x10"])
BAD_WELLS = st.sampled_from(["x", "1.5", "", "-1"])
SIZE_COLUMN = st.integers(1, 2)
# (n_sampled, n_population) outside 1 <= n_sampled <= n_population
BAD_SIZES = st.sampled_from([("3", "2"), ("0", "4"), ("-1", "4")])
# n_population past the largest intp
HUGE_POPULATION = st.sampled_from([str(2**63), str(10**30)])
BLOCK_SIZE = st.sampled_from(BLOCK_SIZES)


def padded(draw, text: str) -> str:
    return draw(LEAD) + text + draw(TRAIL)


@st.composite
def surveys(draw):
    """(strata rows, registry rows, pass rows, faults injected): the three CSVs' bodies."""
    strata, registry, passes = [], [], []
    day_lists = draw(DAY_LISTS)

    def component(cid, fac, site, stratum, is_well, wells, detect):
        registry.append([cid, fac, site, stratum, str(int(is_well)), str(wells)])
        for day in draw(day_lists):
            for q in draw(PASS_NUMBERS):
                row = [padded(draw, cid), fac, site, stratum, padded(draw, str(day)), str(q)]
                if detect and draw(COIN):
                    row += [padded(draw, "1"),
                            padded(draw, repr(draw(RATE))),
                            padded(draw, repr(draw(WIND))),
                            padded(draw, repr(draw(ALTITUDE)))]
                else:
                    row += [padded(draw, "0"), "", draw(LEAD), ""]
                passes.append(row)

    for h in range(draw(ONE_TO_THREE)):
        name = f"S{h}"
        n_fac = draw(ONE_TO_THREE)
        for fi in range(n_fac):
            for ci in range(draw(ONE_TO_TWO)):
                component(f"{name}-F{fi}-C{ci}", f"{name}-F{fi}", f"{name}-SITE{fi // 2}",
                          name, False, 0, True)
        strata.append([name, str(n_fac), str(n_fac + draw(ZERO_TO_FIVE))])
    n_sites = draw(ZERO_TO_TWO)
    if n_sites:
        wells_total = facs = 0
        for si in range(n_sites):
            wells = draw(ZERO_TO_TWO)
            wells_total += wells
            for ci in range(draw(ONE_TO_TWO)):
                facs += 1
                # a site without registered wells cannot carry detections
                component(f"W{si}-C{ci}", f"W{si}-F{ci}", f"WSITE{si}", "Wells", True, wells,
                          wells > 0)
        n = max(wells_total, facs)
        strata.append(["Wells", str(n), str(n + draw(ZERO_TO_THREE))])
    passes = draw(st.permutations(passes))

    faults = [draw(FAULT) for _ in range(draw(ZERO_TO_THREE))]
    for fault in faults:
        inject(draw, fault, strata, registry, passes)
    return strata, registry, passes, faults


def inject(draw, fault, strata, registry, passes):
    if fault in REGISTRY_FAULTS:
        inject_registry(draw, fault, strata, registry)
        return
    whole = [k for k, row in enumerate(passes) if len(row) == len(PASSES_HEADER)]
    if not whole:
        return
    i = draw(st.sampled_from(whole))
    row = passes[i]
    detected = row[6].strip() == "1"
    if fault == "fields":
        passes[i] = row[:-1] if draw(COIN) else row + [""]
    elif fault == "component":
        row[0] = "nope"
    elif fault == "hierarchy":
        row[draw(HIERARCHY_COLUMN)] = "elsewhere"
    elif fault == "flag":
        row[6] = draw(BAD_FLAG)
    elif fault == "presence":
        row[draw(VALUE_COLUMN)] = "" if detected else "3.5"
    elif fault == "number" and detected:
        row[draw(VALUE_COLUMN)] = draw(BAD_NUMBER)
    elif fault == "range" and detected:
        col = draw(VALUE_COLUMN)
        row[col] = draw(BELOW_RANGE if col != 8 else BELOW_RANGE_WIND)
    elif fault in ("day", "pass"):
        row[4 if fault == "day" else 5] = draw(BAD_INDEX)
    elif fault == "duplicate":
        passes.insert(draw(st.integers(0, len(passes))), list(passes[draw(
            st.integers(0, len(passes) - 1))]))
    elif fault == "no-passes":
        cid = row[0].strip()
        passes[:] = [r for r in passes if r[0].strip() != cid] or passes
    elif fault == "many-passes":
        passes.extend(row[:5] + [str(q)] + ["0", "", "", ""] for q in range(100, 106))
    elif fault == "idle-site":
        wells = [r for r in registry if r[4] == "1"]
        if wells:
            site = wells[0][2]
            for r in registry:
                if r[2] == site and len(r) > 5:
                    r[5] = "0"
    elif fault == "n-sampled":
        strata[draw(st.integers(0, len(strata) - 1))][1] = "7"


STRATA_FAULTS = ("strata-fields", "duplicate-stratum", "strata-count", "strata-range",
                 "strata-huge")
REGISTRY_FAULTS = ("registry-fields", "duplicate-component", "is-well", "wells-at-site",
                   "conflicting-wells", *STRATA_FAULTS)


def inject_registry(draw, fault, strata, registry):
    """A fault in the registry or in the strata table."""
    table, header = (strata, STRATA_HEADER) if fault in STRATA_FAULTS else (registry,
                                                                             FRAME_HEADER)
    whole = [k for k, row in enumerate(table) if len(row) == len(header)]
    if not whole:
        return
    k = draw(st.sampled_from(whole))
    row = table[k]
    if fault in ("registry-fields", "strata-fields"):
        table[k] = row[:-1] if draw(COIN) else row + [""]
    elif fault == "duplicate-component":
        registry.insert(draw(st.integers(0, len(registry))), list(row))
    elif fault == "duplicate-stratum":
        strata.insert(draw(st.integers(0, len(strata))), [padded(draw, row[0]), *row[1:]])
    elif fault == "strata-count":
        row[draw(SIZE_COLUMN)] = draw(BAD_INDEX)
    elif fault == "strata-range":
        row[1:] = draw(BAD_SIZES)
    elif fault == "strata-huge":
        row[2] = draw(HUGE_POPULATION)
    elif fault == "is-well":
        row[4] = draw(BAD_FLAG)
    elif fault == "wells-at-site":
        row[5] = draw(BAD_WELLS)
    elif fault == "conflicting-wells":
        # another row of the same site, if there is one, says otherwise
        others = [r for r in registry if r is not row and r[2] == row[2] and len(r) == 6]
        if others:
            draw(st.sampled_from(others))[5] = "8" if row[5].strip() == "9" else "9"


def write_survey(directory: Path, strata, registry, passes):
    paths = {"passes": directory / "passes.csv", "frame": directory / "frame.csv",
             "strata": directory / "strata.csv"}
    for key, header, rows in (("passes", PASSES_HEADER, passes), ("frame", FRAME_HEADER, registry),
                              ("strata", STRATA_HEADER, strata)):
        with open(paths[key], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return paths["passes"], paths["frame"], paths["strata"]


def messages(caught) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def outcome(load, paths):
    """(the frame or None, the FrameError message or None, the warnings' messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load(*paths), None, messages(caught)
        except FrameError as exc:
            return None, str(exc), messages(caught)


def assert_same_frame(frame: SurveyFrame, ref):
    # the registry's records, built on first use: ids in registry order, every field
    assert list(frame.components.items()) == list(ref.components.items())
    assert list(wells_per_site(frame.registry).items()) == list(ref.wells_per_site.items())
    assert log_records(frame) == ref.passes
    assert detected_records(frame) == ref.detected_passes
    for f in dataclasses.fields(frame.index):
        got, want = getattr(frame.index, f.name), getattr(ref.index, f.name)
        assert got.dtype == want.dtype and np.array_equal(got, want), f.name
    for values, attr in ((frame.measured_rates, "measured_rate"),
                         (frame.wind_speeds, "wind_speed"), (frame.altitudes, "altitude")):
        assert values.dtype == float
        assert values.tolist() == [getattr(p, attr) for p in ref.detected_passes]
    assert frame.days_surveyed == ref.days_surveyed
    assert list(frame.days_surveyed) == list(ref.days_surveyed)
    assert frame.passes_per_day == ref.passes_per_day
    want = reference_diagnostics(ref, frame.strata, ref.components)
    got = validate(frame)
    assert {k: getattr(got, k) for k in want} == want


def blocks_of(rows: int):
    """The loader reading ``rows`` rows at a time."""
    return mock.patch.object(frame_module, "BLOCK_ROWS", rows)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surveys(), BLOCK_SIZE)
def test_column_loader_matches_the_row_reference(survey, block_rows):
    strata, registry, passes, _ = survey
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_survey(Path(tmp), strata, registry, passes)
        with blocks_of(block_rows):
            frame, error, warned = outcome(load_survey, paths)
        ref, ref_error, ref_warned = outcome(load_reference, paths)
    assert error == ref_error
    assert warned == ref_warned
    if error is None:
        assert_same_frame(frame, ref)


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


SUBSET = [read_rows(path) for path in reversed(packaged_subset_paths())]  # strata, frame, passes


def test_packaged_subset_matches_the_row_reference():
    paths = packaged_subset_paths()
    assert_same_frame(load_survey(*paths), load_reference(*paths))


def test_the_edge_case_survey_matches_the_row_reference():
    # padded fields, a byte-order mark, a shared site, a site with no wells
    # and no detection, a single-day component, registry rows out of id order
    paths = [Path(__file__).parent / "data" / "edge_survey" / f"{name}.csv"
             for name in ("passes", "frame", "strata")]
    assert_same_frame(load_survey(*paths), load_reference(*paths))


def fault_outcomes(faults, block_rows, draw):
    """Both loaders' (error, warnings) on the packaged subset with ``faults`` injected."""
    strata, registry, passes = ([list(row) for row in rows] for rows in SUBSET)
    for fault in faults:
        inject(draw, fault, strata, registry, passes)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_survey(Path(tmp), strata, registry, passes)
        with blocks_of(block_rows):
            _, error, warned = outcome(load_survey, paths)
        _, ref_error, ref_warned = outcome(load_reference, paths)
    return (error, warned), (ref_error, ref_warned)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3), BLOCK_SIZE, st.data())
def test_faults_in_the_packaged_subset_match_the_row_reference(faults, block_rows, data):
    got, want = fault_outcomes(faults, block_rows, data.draw)
    assert got == want


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=1, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(BLOCK_SIZE, st.data())
def test_each_fault_in_the_packaged_subset_matches_the_row_reference(fault, block_rows, data):
    # every kind on every run, which the draws above, of 1-3 kinds out of
    # 24, do not ensure; each one is refused or warned about
    got, want = fault_outcomes([fault], block_rows, data.draw)
    assert got == want
    error, warned = got
    assert error is not None or warned


@pytest.mark.parametrize("column", [4, 5])
def test_the_first_row_of_two_unparseable_values_is_named(tmp_path, column):
    # the later row's text sorts first, so only row order picks the right one
    strata, registry, passes = ([list(row) for row in rows] for rows in SUBSET)
    passes[3][column], passes[7][column] = "x", "a"
    paths = write_survey(tmp_path, strata, registry, passes)
    error = outcome(load_survey, paths)[1]
    assert error is not None and error.endswith("from 'x'")
    assert error == outcome(load_reference, paths)[1]


@pytest.mark.parametrize("column,name", [(4, "day"), (5, "pass")])
def test_an_unparseable_day_or_pass_names_the_file_and_row_once(tmp_path, column, name):
    strata, registry, passes = ([list(row) for row in rows] for rows in SUBSET)
    passes[3][column] = "xx"    # the header is row 1
    paths = write_survey(tmp_path, strata, registry, passes)
    want = f"{paths[0]} row 5: cannot parse {name} from 'xx'"
    assert outcome(load_survey, paths)[1] == want
    assert outcome(load_reference, paths)[1] == want


@pytest.mark.parametrize("tail", [b"\xff\n", b'"' + b"x" * 200_000 + b'"\n'],
                         ids=["undecodable-byte", "oversized-field"])
def test_a_pass_log_that_cannot_be_parsed_is_named_by_both_loaders(tmp_path, tail):
    paths = write_survey(tmp_path, *SUBSET)
    with open(paths[0], "ab") as fh:
        fh.write(tail)
    error = outcome(load_survey, paths)[1]
    assert error is not None and error.startswith(f"{paths[0]}: cannot parse: ")
    assert error == outcome(load_reference, paths)[1]


FILES = ("passes", "frame", "strata")      # write_survey's paths, in order


def subset_tables() -> dict[str, list[list[str]]]:
    """A copy of the packaged subset's rows, by file."""
    return dict(zip(("strata", "frame", "passes"), ([list(r) for r in rows] for rows in SUBSET)))


@pytest.mark.parametrize("fields,error", [
    ([" MS", "x", "y"], "row 4: duplicate stratum 'MS'"),
    (["G", "x", "1.5"], "row 4: cannot parse n_sampled from 'x'"),
    (["G", "12", "1.5"], "row 4: cannot parse n_population from '1.5'"),
    (["G", "0", str(2**63)], "stratum 'G': need 1 <= n_sampled <= n_population, "
                             f"got (0, {2**63})"),
    (["G", "12", str(2**63)], f"stratum 'G': n_population={2**63} is above {2**63 - 1}"),
], ids=["duplicate", "n-sampled", "n-population", "range", "intp-range"])
def test_the_first_fault_of_the_strata_table_is_named(tmp_path, fields, error):
    """A row's first fault is named, and not a later row's earlier check."""
    tables = subset_tables()
    tables["strata"][2] = fields
    tables["strata"][4] = ["MS", "x", "x"]      # a repeat, and unparseable
    paths = write_survey(tmp_path, tables["strata"], tables["frame"], tables["passes"])
    got = outcome(load_survey, paths)[1]
    assert got is not None and got.endswith(error)
    assert got == outcome(load_reference, paths)[1]


@pytest.mark.parametrize("block_rows", [1, 2, 7])
@pytest.mark.parametrize("where", ["first", "last", "later"])
@pytest.mark.parametrize("file", ["passes", "frame"])
def test_a_wrong_field_count_on_a_block_edge_is_named(tmp_path, file, where, block_rows):
    """The first short row on a block's first row, on its last, or in a later block,
    with a row of another fault a block after it."""
    tables = subset_tables()
    rows = tables[file]
    width = len(rows[0])
    k = {"first": block_rows, "last": block_rows - 1, "later": 3 * block_rows + 1}[where]
    rows[k] = rows[k][:-1]
    rows[k + block_rows + 1][0 if file == "passes" else 4] = "nope"
    paths = write_survey(tmp_path, tables["strata"], tables["frame"], tables["passes"])
    with blocks_of(block_rows):
        error = outcome(load_survey, paths)[1]
    path = paths[FILES.index(file)]
    assert error == f"{path} row {k + 2}: expected {width} fields, got {width - 1}"
    assert error == outcome(load_reference, paths)[1]


@pytest.mark.parametrize("file", FILES)
def test_an_unparseable_end_is_named_before_an_earlier_wrong_field_count(tmp_path, file):
    tables = subset_tables()
    tables[file][1].append("")
    paths = write_survey(tmp_path, tables["strata"], tables["frame"], tables["passes"])
    path = paths[FILES.index(file)]
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    for block_rows in (2, frame_module.BLOCK_ROWS):
        with blocks_of(block_rows):
            error = outcome(load_survey, paths)[1]
        assert error is not None and error.startswith(f"{path}: cannot parse: ")
        assert error == outcome(load_reference, paths)[1]


def test_at_most_one_block_of_rows_is_held_at_once(monkeypatch):
    """Every row `csv.reader` gives is counted while it lives: the loader must
    let go of each block before it reads the next, keeping only the header."""
    live = [0, 0]       # rows alive now, the most alive at once

    class Row(list):
        def __init__(self, fields):
            super().__init__(fields)
            live[0] += 1
            live[1] = max(live)

        def __del__(self):
            live[0] -= 1

    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args, **kw: map(Row, reader(*args, **kw)))
    block_rows = 16
    paths = packaged_subset_paths()
    assert len(SUBSET[1]) >= 10 * block_rows and len(SUBSET[2]) >= 10 * block_rows
    with blocks_of(block_rows):
        frame = load_survey(*paths)
    assert len(frame.passes) == len(SUBSET[2])
    assert live == [0, block_rows + 1]
