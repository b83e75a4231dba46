"""The column loader against the row-by-row reference loader.

Hypothesis writes pass logs shaped like real surveys (well sites, shuffled
rows, whitespace around fields, huge and negative day numbers) and injects
faults into some, in the pass log, the registry or the strata table.  Each
draw also picks how the files are written: `csv.writer`'s defaults or LF
line ends, which the loader splits with `str.split` unless a fault makes the
file other than plain, or every field quoted, which it reads with
`csv.reader`.  Both loaders must then raise the same `FrameError` message
and warn the same way, and on a valid log every view of the frame must
equal the reference's.
"""

import csv
import dataclasses
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
# how `write_survey` writes each file: `csv.writer`'s defaults (CRLF, quotes
# only where needed), "\n" line ends, or every field quoted
FORMS = ("default", "lf", "quote-all")
FORM = st.sampled_from(FORMS)


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
    if fault in ("number", "range"):
        # only a detected pass parses its measurements
        whole = [k for k in whole if passes[k][6].strip() == "1"]
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
    elif fault == "number":
        row[draw(VALUE_COLUMN)] = draw(BAD_NUMBER)
    elif fault == "range":
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


WRITER_OPTIONS = {"default": {}, "lf": {"lineterminator": "\n"},
                  "quote-all": {"quoting": csv.QUOTE_ALL}}


def write_survey(directory: Path, strata, registry, passes, form="default"):
    """The three files of a survey, each written in ``form`` (see `FORMS`)."""
    paths = {"passes": directory / "passes.csv", "frame": directory / "frame.csv",
             "strata": directory / "strata.csv"}
    for key, header, rows in (("passes", PASSES_HEADER, passes), ("frame", FRAME_HEADER, registry),
                              ("strata", STRATA_HEADER, strata)):
        with open(paths[key], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, **WRITER_OPTIONS[form])
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surveys(), FORM)
def test_column_loader_matches_the_row_reference(survey, form):
    strata, registry, passes, _ = survey
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_survey(Path(tmp), strata, registry, passes, form)
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


def fault_outcomes(faults, draw):
    """Both loaders' (error, warnings) on the packaged subset with ``faults``
    injected, written in a drawn form."""
    strata, registry, passes = ([list(row) for row in rows] for rows in SUBSET)
    for fault in faults:
        inject(draw, fault, strata, registry, passes)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_survey(Path(tmp), strata, registry, passes, draw(FORM))
        _, error, warned = outcome(load_survey, paths)
        _, ref_error, ref_warned = outcome(load_reference, paths)
    return (error, warned), (ref_error, ref_warned)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3), st.data())
def test_faults_in_the_packaged_subset_match_the_row_reference(faults, data):
    got, want = fault_outcomes(faults, data.draw)
    assert got == want


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=1, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_each_fault_in_the_packaged_subset_matches_the_row_reference(fault, data):
    # every kind on every run, which the draws above, of 1-3 kinds out of
    # 24, do not ensure; each one is refused or warned about
    got, want = fault_outcomes([fault], data.draw)
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


@pytest.mark.parametrize("k,later", [(1, 3), (0, 2), (4, 6), (2, 5), (1, 4), (7, 10),
                                     (7, 15), (6, 14), (22, 30)])
@pytest.mark.parametrize("file", ["passes", "frame"])
def test_a_wrong_field_count_is_named_before_a_later_fault(tmp_path, file, k, later):
    """The first short row, body row ``k``, with a row of another fault at ``later``."""
    tables = subset_tables()
    rows = tables[file]
    width = len(rows[0])
    rows[k] = rows[k][:-1]
    rows[later][0 if file == "passes" else 4] = "nope"
    paths = write_survey(tmp_path, tables["strata"], tables["frame"], tables["passes"])
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
    error = outcome(load_survey, paths)[1]
    assert error is not None and error.startswith(f"{path}: cannot parse: ")
    assert error == outcome(load_reference, paths)[1]


def test_live_rows_are_bounded_whatever_the_length(monkeypatch, tmp_path):
    """Every row the row loop reads is counted while it lives: the loader
    holds the header, the last row read and the next, however long the file.
    Both the packaged subset and a pass log ten times as long are loaded
    plain, split with `str.split`, and with every field quoted, read with
    `csv.reader`."""
    live = [0, 0]       # rows alive now, the most alive at once

    class Row(list):
        def __init__(self, fields):
            super().__init__(fields)
            live[0] += 1
            live[1] = max(live)

        def __del__(self):
            live[0] -= 1

    row_fields, reader, readers = frame_module._row_fields, csv.reader, []
    monkeypatch.setattr(frame_module, "_row_fields",
                        lambda rows, width: row_fields(map(Row, rows), width))
    monkeypatch.setattr(csv, "reader", lambda *args, **kw: readers.append(args) or reader(
        *args, **kw))
    strata, registry, passes = SUBSET
    # the log ten times over, each copy on days of its own
    longer = [[*row[:4], str(int(row[4]) + 1000 * copy), *row[5:]]
              for copy in range(10) for row in passes]
    most = []
    for log in (passes, longer):
        for form in ("default", "quote-all"):
            live[:], readers[:] = [0, 0], []
            directory = tmp_path / f"{len(log)}-{form}"
            directory.mkdir()
            frame = load_survey(*write_survey(directory, strata, registry, log, form))
            assert len(frame.passes) == len(log)
            assert live[0] == 0
            assert len(readers) == (0 if form == "default" else 3)
            most.append(live[1])
    assert most == [3] * 4


# `_split_columns`' texts: rows of `WIDTH` fields of letters and spaces, into
# which one of the characters the two tokenizers may differ on is put now and then
WIDTH = 3
FIELD = st.text(st.sampled_from(["a", "B", "é", "ж", " "]), max_size=3)
ROWS = st.lists(st.lists(FIELD, min_size=WIDTH, max_size=WIDTH), max_size=6)
SPECIAL = st.sampled_from([",", '"', "\r", "\n", "\r\n", "\0", "\ufeff"])
LINE_END = st.sampled_from(["\n", "\r\n"])
BOM = st.sampled_from(["", "\ufeff"])
LIMIT = csv.field_size_limit()
LONG_LINE = "x" * (LIMIT - 2) + ",,"    # a line of exactly the field size limit


@st.composite
def csv_texts(draw):
    """A CSV text of one kind of line end, with or without a byte-order
    mark and a final line end, and at most one special character."""
    end = draw(LINE_END)
    text = end.join(map(",".join, draw(ROWS))) + draw(st.sampled_from(["", end]))
    if draw(COIN):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(SPECIAL) + text[k:]
    return draw(BOM) + text


def reader_rows(data: bytes) -> list[list[str]]:
    """`csv.reader`'s rows of ``data``, decoded as `frame._read_columns` decodes a file."""
    return list(csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")))


def split_rows(data: bytes) -> list[list[str]] | None:
    """`_split_columns`' header and rows of ``data``, or None if it declines."""
    got = frame_module._split_columns(data, WIDTH)
    if got is None:
        return None
    header, fields, bad_width = got
    assert bad_width is None
    return [header, *(fields[i:i + WIDTH] for i in range(0, len(fields), WIDTH))]


@settings(max_examples=500, deadline=None)
@given(csv_texts() | st.text(st.sampled_from(
    [",", '"', "\r", "\n", " ", "\0", "\ufeff", "é", "ж", "a", "B"])))
@example("a,b,c\r\nd, e ,f\r\n").via("CRLF")
@example("a,b,c\rd,e,f\r").via("lone CR")
@example("a,b,c\r\nd,e,f\ng,h,i\r\n").via("a bare LF in a CRLF file")
@example("a,b,c\n\nd,e,f\n").via("a blank line")
@example("a,b,c\nd,e,f\n\n").via("a trailing blank line")
@example("a,b,c\nd,e,f").via("no final line end")
@example("a,b,c\n").via("a header only")
@example(f"a,b,c\n{LONG_LINE}\n").via("a line at the field size limit")
@example(f"a,b,c\nx{LONG_LINE}\n").via("a line over the field size limit")
@example(f"a,b,c\n{'x' * (LIMIT + 1)},,\n").via("a field over the field size limit")
def test_the_split_tokenizer_gives_what_csv_reader_gives(text):
    """`_split_columns` declines a text, or gives exactly `csv.reader`'s
    rows, which then are all `WIDTH` fields wide."""
    data = text.encode()
    rows = split_rows(data)
    if rows is not None:
        assert rows == reader_rows(data)


@pytest.mark.parametrize("text", [
    "a,b,c\r\nd, e ,f\r\n", "\ufeffa,b,c\nd,é,\n", "a,b,c\r\nd,e,f", f"a,b,c\n{LONG_LINE}\n",
], ids=["CRLF", "LF-and-BOM", "no-final-line-end", "line-at-the-limit"])
def test_plain_texts_are_split(text):
    data = text.encode()
    assert split_rows(data) == reader_rows(data)
