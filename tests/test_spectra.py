import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from specsel.cli import _write_boxplot_csv
from specsel.crossval import PressMatrix
from specsel.errors import (
    EmptyMatrix,
    IoFailure,
    LabelMismatch,
    NegativeConcentration,
    NonFiniteValue,
    NonmonotonicAxis,
    RaggedRows,
    ShapeMismatch,
    SpecselError,
)
from specsel.preprocess import IDENTITY
from specsel.regress import PcrModel, save_model
from specsel.selector import SelectionReport, train_final, write_report
from specsel.spectra import (
    ConcentrationSet,
    SpectraSet,
    _fast_chunk,
    load_concentrations,
    load_spectra,
    read_json,
    save_concentrations,
    save_matrix,
    save_spectra,
    write_json,
)

from conftest import (noiseless_mixtures, one_spectrum_csv,
                      random_spectra_set, select_columns, subset)


def write_wide_csv(path, axis, columns, labels):
    lines = ["wavenumber_cm-1," + ",".join(labels)]
    for r, wn in enumerate(axis):
        lines.append(",".join([str(wn)] + [str(col[r]) for col in columns]))
    path.write_text("\n".join(lines) + "\n")


class TestSpectraSet:
    def test_row_access_and_subset(self):
        ss = SpectraSet(np.arange(10.0), np.arange(30.0).reshape(3, 10),
                        ("a", "b", "c"))
        assert ss.matrix.shape == (3, 10)
        sub = subset(ss, [2, 0])
        assert sub.labels == ("c", "a")
        assert np.array_equal(sub.matrix[0], ss.matrix[2])

    @pytest.mark.parametrize("axis,row,error,message", [
        (np.r_[0.0, 1, 2, 3, 4, 4, 6, 7, 8, 9], np.ones(10), NonmonotonicAxis,
         "not strictly increasing at row 5"),
        (np.arange(10.0), np.ones(9), ShapeMismatch,
         re.escape("matrix has shape (1, 9), expected (1, 10)")),
        (np.arange(10.0), np.r_[1.0, 1, 1, np.nan, 1, 1, 1, 1, 1, 1],
         NonFiniteValue, "non-finite intensity in spectrum 'a'"),
        (np.arange(5.0), np.ones(5), RaggedRows,
         "at least 8 channels, got 5"),
    ], ids=["nonmonotonic_axis", "length_mismatch", "nonfinite",
            "too_short_axis"])
    def test_refuses_invalid_spectrum(self, axis, row, error, message):
        with pytest.raises(error, match=message):
            SpectraSet(axis, row[None, :], ("a",))

    def test_refuses_no_spectra(self):
        with pytest.raises(RaggedRows, match="^spectra set must contain at "
                                             "least one spectrum$"):
            SpectraSet(np.arange(10.0), np.empty((0, 10)), ())

    def test_immutable(self):
        ss = SpectraSet(np.arange(10.0), np.zeros((2, 10)), ("a", "b"))
        with pytest.raises(ValueError):
            ss.matrix[0, 0] = 1.0

    def test_matrix_stored_c_ordered(self, tmp_path):
        fortran = np.asfortranarray(np.arange(30.0).reshape(3, 10))
        ss = SpectraSet(np.arange(10.0), fortran, ("a", "b", "c"))
        assert ss.matrix.flags.c_contiguous
        assert np.array_equal(ss.matrix, fortran)
        f = tmp_path / "s.csv"
        save_spectra(f, ss)
        assert load_spectra(f).matrix.flags.c_contiguous


class TestLoadSpectra:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        axis = 400.0 + 1.7 * np.arange(500)
        cols = [rng.normal(size=500) * 1e3 for _ in range(3)]
        f = tmp_path / "s.csv"
        write_wide_csv(f, axis, cols, ["x", "y", "z"])
        first = load_spectra(f)
        g = tmp_path / "t.csv"
        save_spectra(g, first)
        second = load_spectra(g)
        assert first.labels == second.labels
        # well inside the 1e-9 relative contract: the format round-trips
        # floats exactly
        assert np.array_equal(first.matrix, second.matrix)
        assert np.array_equal(first.axis, second.axis)

    def test_two_spectra_accepted_at_load(self, tmp_path):
        # i >= 4 is enforced where cross-validation builds its matrix,
        # not at load time
        axis = np.arange(500.0)
        f = tmp_path / "s.csv"
        write_wide_csv(f, axis, [axis * 0.5, axis * 2.0], ["a", "b"])
        ss = load_spectra(f)
        assert ss.n_spectra == 2
        assert ss.n_channels == 500

    def test_column_order_is_sample_order(self, tmp_path):
        axis = np.arange(10.0)
        f = tmp_path / "s.csv"
        write_wide_csv(f, axis, [axis, axis + 1, axis + 2], ["b", "c", "a"])
        ss = load_spectra(f)
        assert ss.labels == ("b", "c", "a")
        assert np.array_equal(ss.matrix[2], axis + 2)

    def test_nonmonotonic_axis(self, tmp_path):
        f = tmp_path / "s.csv"
        write_wide_csv(f, [400, 399, 401, 402, 403, 404, 405, 406],
                       [[1] * 8], ["a"])
        with pytest.raises(NonmonotonicAxis):
            load_spectra(f)

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("wavenumber_cm-1,a\n1,2\n2,3,9\n3,4\n4,5\n5,6\n6,7\n7,8\n8,9\n")
        with pytest.raises(RaggedRows, match="row 3"):
            load_spectra(f)

    def test_garbage_cell(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("wavenumber_cm-1,a\n" +
                     "\n".join(f"{n},{'oops' if n == 4 else n}" for n in range(1, 9)) +
                     "\n")
        with pytest.raises(NonFiniteValue, match="'a'"):
            load_spectra(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("wrong,a\n1,2\n")
        with pytest.raises(IoFailure):
            load_spectra(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_spectra(tmp_path / "absent.csv")


def load_error(path):
    with pytest.raises((NonFiniteValue, RaggedRows, NonmonotonicAxis)) as info:
        load_spectra(path)
    return type(info.value), str(info.value)


NAME = st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_ ,\"-]*[A-Za-z0-9_])?",
                     fullmatch=True)
# some labels get surrounding whitespace: load strips header cells, so
# save must refuse those rather than write a file that reads back changed
LABEL = st.builds(
    lambda lead, core, trail: lead + core + trail,
    st.sampled_from(["", "", " ", "\t"]),
    NAME,
    st.sampled_from(["", "", " ", "\n"]))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestLoadSpectraErrors:
    def test_nan_data_cell(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({5: "5,nan"}))
        assert load_error(f) == (
            NonFiniteValue, f"{f}: row 5, column 'a': non-finite value 'nan'")

    def test_inf_axis_cell(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({4: "inf,40"}))
        assert load_error(f) == (
            NonFiniteValue, f"{f}: row 4, axis: non-finite value 'inf'")

    def test_axis_cell_reported_before_data_cell(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({6: "six,oops"}))
        assert load_error(f) == (
            NonFiniteValue, f"{f}: row 6, axis: cannot parse 'six' as a number")

    def test_garbage_cell_before_ragged_row(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({3: "3,oops", 7: "7,70,1"}))
        assert load_error(f) == (
            NonFiniteValue,
            f"{f}: row 3, column 'a': cannot parse 'oops' as a number")

    def test_ragged_row_before_garbage_cell(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({3: "3,30,1", 7: "7,oops"}))
        assert load_error(f) == (
            RaggedRows, f"{f}: row 3 has 3 cells, expected 2")

    def test_uniform_rows_wider_than_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv(
            {r: f"{r},{r},{r}" for r in range(2, 10)}))
        assert load_error(f) == (
            RaggedRows, f"{f}: row 2 has 3 cells, expected 2")

    def test_decreasing_axis_names_file_row(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({2: "400,1", 3: "300,1"}))
        assert load_error(f) == (
            NonmonotonicAxis,
            f"{f}: row 3, axis: not strictly increasing (400 -> 300)")

    @pytest.mark.parametrize("rows", [0, 3], ids=["header_only", "three_rows"])
    def test_short_axis_names_file(self, tmp_path, rows):
        f = tmp_path / "s.csv"
        f.write_text("wavenumber_cm-1,a\n"
                     + "".join(f"{r},1\n" for r in range(rows)))
        assert load_error(f) == (
            RaggedRows, f"{f}: axis must have at least 8 channels, got {rows}")

    def test_oversized_cell(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv({5: "5," + "9" * 200_000}))
        with pytest.raises(IoFailure, match=f"^cannot read {re.escape(str(f))}: "
                                            "field larger than field limit"):
            load_spectra(f)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           labels=st.lists(LABEL, min_size=1, max_size=4, unique=True),
           axis=st.lists(FINITE, min_size=8, max_size=20, unique=True))
    def test_save_load_identity(self, data, labels, axis):
        axis = np.sort(np.array(axis))
        matrix = data.draw(hnp.arrays(float, (len(labels), axis.size),
                                      elements=FINITE))
        spectra = SpectraSet(axis, matrix, tuple(labels))
        padded = [x for x in labels if x != x.strip()]
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "s.csv"
            if padded:
                with pytest.raises(LabelMismatch, match="whitespace"):
                    save_spectra(f, spectra)
                assert not f.exists()
                return
            save_spectra(f, spectra)
            again = load_spectra(f)
        assert again.labels == spectra.labels
        assert again.axis.tobytes() == spectra.axis.tobytes()
        assert again.matrix.tobytes() == spectra.matrix.tobytes()


class TestLoadConcentrations:
    def test_alignment_by_label(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("species,unit,s2,s0,s1\nglucose,mg/mL,2,0,1\n")
        conc = load_concentrations(f, labels=["s0", "s1", "s2"])
        assert np.array_equal(conc.matrix, [[0.0, 1.0, 2.0]])

    def test_label_mismatch(self, tmp_path):
        # missing labels in spectra order, unmatched ones in file order
        f = tmp_path / "c.csv"
        f.write_text("species,unit,s3,s0,s1,s2\nglucose,mg/mL,3,0,1,2\n")
        with pytest.raises(LabelMismatch) as info:
            load_concentrations(f, labels=["s9", "s0", "s8", "s2"])
        assert str(info.value) == (
            f"{f}: sample labels disagree with spectra "
            f"(missing ['s9', 's8'], unmatched ['s3', 's1'])")

    def test_negative_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("species,unit,s0,s1\nglucose,mg/mL,0.5,-0.1\n")
        with pytest.raises(NegativeConcentration):
            load_concentrations(f)

    def test_dimensions(self, tmp_path):
        # a 2-species x 27-sample table
        labels = [f"s{n}" for n in range(27)]
        f = tmp_path / "c.csv"
        rows = ["species,unit," + ",".join(labels)]
        rows.append("a,mg/mL," + ",".join(["1.0"] * 27))
        rows.append("b,mg/mL," + ",".join(["2.0"] * 27))
        f.write_text("\n".join(rows) + "\n")
        conc = load_concentrations(f, labels=labels)
        assert conc.n_species == 2
        assert conc.n_samples == 27

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           labels=st.lists(NAME, min_size=1, max_size=5, unique=True),
           species=st.lists(NAME, min_size=1, max_size=3, unique=True))
    def test_save_load_identity(self, data, labels, species):
        units = data.draw(st.lists(st.one_of(st.just(""), NAME),
                                   min_size=len(species),
                                   max_size=len(species)))
        matrix = data.draw(hnp.arrays(
            float, (len(species), len(labels)),
            elements=st.floats(min_value=0.0, allow_nan=False,
                               allow_infinity=False)))
        order = data.draw(st.permutations(range(len(labels))))
        conc = ConcentrationSet(matrix, tuple(species), tuple(units))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "c.csv"
            save_concentrations(f, conc, labels)
            again = load_concentrations(f)
            reordered = load_concentrations(
                f, labels=[labels[n] for n in order])
        assert (again.species, again.units) == (conc.species, conc.units)
        assert again.matrix.tobytes() == conc.matrix.tobytes()
        assert (reordered.matrix.tobytes()
                == np.ascontiguousarray(conc.matrix[:, order]).tobytes())

    def test_save_round_trip(self, tmp_path):
        conc = ConcentrationSet([[0.25, 1.5], [3.0, 0.0]], ("a", "b"),
                                ("mg/mL", "%"))
        f = tmp_path / "c.csv"
        save_concentrations(f, conc, ["s0", "s1"])
        again = load_concentrations(f, labels=["s0", "s1"])
        assert again.species == ("a", "b")
        assert again.units == ("mg/mL", "%")
        assert np.allclose(again.matrix, conc.matrix, rtol=1e-9)

    def test_save_refuses_label_load_would_strip(self, tmp_path):
        conc = ConcentrationSet([[0.25, 1.5]], ("a",), ("mg/mL",))
        f = tmp_path / "c.csv"
        with pytest.raises(LabelMismatch, match="'s1 ' has leading or trailing"):
            save_concentrations(f, conc, ["s0", "s1 "])
        assert not f.exists()

    def test_save_refuses_label_count(self, tmp_path):
        conc = ConcentrationSet([[0.25, 1.5, 2.0]], ("a",), ("mg/mL",))
        f = tmp_path / "c.csv"
        with pytest.raises(ShapeMismatch,
                           match=r"^2 labels for 3 concentration columns$"):
            save_concentrations(f, conc, ["s0", "s1"])
        assert not f.exists()

    @pytest.mark.parametrize("species,unit,message", [
        (" glucose", "mg/mL", "species ' glucose' has leading or trailing"),
        ("glucose", "mg/mL ", "unit 'mg/mL ' has leading or trailing"),
    ], ids=["species", "unit"])
    def test_save_refuses_name_load_would_strip(self, tmp_path, species,
                                                unit, message):
        conc = ConcentrationSet([[0.25, 1.5]], (species,), (unit,))
        f = tmp_path / "c.csv"
        with pytest.raises(LabelMismatch, match=message):
            save_concentrations(f, conc, ["s0", "s1"])
        assert not f.exists()


def conc_csv(path, cells):
    """Three species by two samples; ``cells`` overrides rows by 1-based
    row number."""
    lines = ["species,unit,s0,s1"]
    for r in range(2, 5):
        lines.append(cells.get(r, f"sp{r},u,{r},{r * 10}"))
    path.write_text("\n".join(lines) + "\n")


def conc_error(path):
    with pytest.raises(SpecselError) as info:
        load_concentrations(path)
    return type(info.value), str(info.value)


class TestLoadConcentrationsErrors:
    def test_nan_cell(self, tmp_path):
        f = tmp_path / "c.csv"
        conc_csv(f, {3: "sp3,u,nan,30"})
        assert conc_error(f) == (
            NonFiniteValue, f"{f}: row 3, sample 's0': non-finite value 'nan'")

    def test_garbage_cell_before_ragged_row(self, tmp_path):
        f = tmp_path / "c.csv"
        conc_csv(f, {2: "sp2,u,oops,20", 4: "sp4,u,4,40,1"})
        assert conc_error(f) == (
            NonFiniteValue,
            f"{f}: row 2, sample 's0': cannot parse 'oops' as a number")

    def test_ragged_row_before_garbage_cell(self, tmp_path):
        f = tmp_path / "c.csv"
        conc_csv(f, {2: "sp2,u,2", 4: "sp4,u,oops,40"})
        assert conc_error(f) == (
            RaggedRows, f"{f}: row 2 has 3 cells, expected 4")

    def test_negative_cell_names_species_and_sample(self, tmp_path):
        f = tmp_path / "c.csv"
        conc_csv(f, {3: "sp3,u,3,-0.5", 4: "sp4,u,-4,40"})
        assert conc_error(f) == (
            NegativeConcentration,
            f"{f}: negative concentration -0.5 for species 'sp3', "
            f"sample 's1'")

    def test_unparseable_cell_wins_over_earlier_negative(self, tmp_path):
        # the whole table is parsed before any value is checked for sign
        f = tmp_path / "c.csv"
        conc_csv(f, {2: "sp2,u,-2,20", 4: "sp4,u,4,oops"})
        assert conc_error(f) == (
            NonFiniteValue,
            f"{f}: row 4, sample 's1': cannot parse 'oops' as a number")

    def test_duplicate_species(self, tmp_path):
        f = tmp_path / "c.csv"
        conc_csv(f, {4: "sp2,u,4,40"})
        assert conc_error(f) == (
            LabelMismatch, f"{f}: duplicate species ['sp2']")

    def test_header_only(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("species,unit,s0,s1\n")
        assert conc_error(f) == (
            IoFailure, f"{f}: no species rows after the header")

    def test_oversized_cell(self, tmp_path):
        f = tmp_path / "c.csv"
        conc_csv(f, {3: "sp3,u,3," + "9" * 200_000})
        with pytest.raises(IoFailure, match=f"^cannot read {re.escape(str(f))}: "
                                            "field larger than field limit"):
            load_concentrations(f)


def chunked(monkeypatch, cells):
    """Parse ``cells`` cells per chunk; None keeps the default."""
    if cells is not None:
        monkeypatch.setattr("specsel.spectra.CHUNK_CELLS", cells)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


CHUNKS = pytest.mark.parametrize("cells", [None, 1, 7],
                                 ids=["default", "one", "seven"])


class TestChunkedReader:
    @CHUNKS
    @pytest.mark.parametrize("ending", [b"\r\n", b"\n", b"\r"],
                             ids=["crlf", "lf", "cr"])
    def test_chunk_size_changes_no_bit(self, tmp_path, monkeypatch, cells,
                                       ending):
        # two spectra make three cells a row, so seven cells are two rows
        # and the last of 701 rows is a chunk of its own
        spectra, conc, _ = noiseless_mixtures(n_samples=2, n_species=3)
        f, g = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(f, spectra)
        save_concentrations(g, conc, spectra.labels)
        for path in (f, g):
            path.write_bytes(path.read_bytes().replace(b"\r\n", ending))
        chunked(monkeypatch, cells)
        s, c = load_spectra(f), load_concentrations(g)
        assert s.axis.tobytes() == spectra.axis.tobytes()
        assert s.matrix.tobytes() == spectra.matrix.tobytes()
        assert s.labels == spectra.labels
        assert s.source_sha256 == sha256_of(f)
        assert c.matrix.tobytes() == conc.matrix.tobytes()
        assert (c.species, c.units) == (conc.species, conc.units)
        assert c.source_sha256 == sha256_of(g)

    @CHUNKS
    @pytest.mark.parametrize("cells_of_row,error,message", [
        ({8: "8,oops"}, NonFiniteValue,
         "row 8, column 'a': cannot parse 'oops' as a number"),
        ({9: "9,nan"}, NonFiniteValue,
         "row 9, column 'a': non-finite value 'nan'"),
        ({6: "6,60,1"}, RaggedRows, "row 6 has 3 cells, expected 2"),
    ], ids=["garbage", "nan", "ragged"])
    def test_error_in_later_chunk_names_file_row(self, tmp_path, monkeypatch,
                                                 cells, cells_of_row, error,
                                                 message):
        # at seven cells a chunk holds rows 2-4, 5-7 and 8-9
        f = tmp_path / "s.csv"
        f.write_text(one_spectrum_csv(cells_of_row))
        chunked(monkeypatch, cells)
        assert load_error(f) == (error, f"{f}: {message}")

    @CHUNKS
    def test_concentration_error_in_later_chunk_names_file_row(
            self, tmp_path, monkeypatch, cells):
        f = tmp_path / "c.csv"
        conc_csv(f, {4: "sp4,u,4,oops"})
        chunked(monkeypatch, cells)
        assert conc_error(f) == (
            NonFiniteValue,
            f"{f}: row 4, sample 's1': cannot parse 'oops' as a number")

    @pytest.mark.parametrize("late", ["\udcff", "9" * 200_000],
                             ids=["undecodable", "field_limit"])
    def test_errors_come_in_file_order(self, tmp_path, monkeypatch, late):
        # a bad cell in row 3, then a read failure about 60 kB later, past
        # the text layer's read-ahead
        filler = "".join(f"{r},{r}\n" for r in range(4, 6000))
        text = "3,oops\n" + filler + f"6000,{late}\n"
        f = tmp_path / "s.csv"
        f.write_bytes(("wavenumber_cm-1,a\n2,2\n" + text).encode(
            "utf-8", "surrogateescape"))
        # in one chunk the read failure is met before any cell is parsed
        with pytest.raises(IoFailure, match="^cannot read "):
            load_spectra(f)
        chunked(monkeypatch, 64)
        assert load_error(f) == (
            NonFiniteValue,
            f"{f}: row 3, column 'a': cannot parse 'oops' as a number")
        # the header is checked before the body is read
        f.write_bytes(("wavenumber_cm-1,a,a\n2,2,2\n" + text).encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(LabelMismatch, match="duplicate sample labels"):
            load_spectra(f)

    def test_peak_memory_bounded_by_the_matrix(self, tmp_path, monkeypatch):
        # each cell's text takes about ten times its float's 8 bytes, so a
        # reader that held the whole file as strings would pass the bound
        spectra = random_spectra_set(i=300, j=701, seed=1)
        f = tmp_path / "s.csv"
        save_spectra(f, spectra)
        chunked(monkeypatch, 1 << 12)
        tracemalloc.start()
        try:
            loaded = load_spectra(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.matrix.tobytes() == spectra.matrix.tobytes()
        assert peak < 4 * spectra.matrix.nbytes



def parity_csv(cells=None, ending="\n", final=True, last_row=13):
    """Bytes of a one-spectrum CSV whose file rows 2..``last_row`` read
    ``<row>,<10 * row>``, lines ended by ``ending``; ``cells`` overrides rows
    by file row number, and may hold line breaks of its own."""
    lines = ["wavenumber_cm-1,a"] + [(cells or {}).get(r, f"{r},{r * 10}")
                                     for r in range(2, last_row + 1)]
    return (ending.join(lines) + (ending if final else "")).encode(
        "utf-8", "surrogateescape")


# each input, and the class of the error it raises (None: it loads); at
# three rows a chunk, rows 2-4, 5-7, 8-10 and 11-13 are one chunk each
PARITY_CASES = {
    "crlf": (parity_csv(ending="\r\n"), None),
    "lf": (parity_csv(), None),
    "cr": (parity_csv(ending="\r"), None),
    "no_final_newline": (parity_csv(ending="\r\n", final=False), None),
    "blank_line": (parity_csv({6: "\n6,60"}), RaggedRows),
    "whitespace_line": (parity_csv({6: " \t\n6,60"}), RaggedRows),
    "hash_in_cell": (parity_csv({6: "6,60#"}), NonFiniteValue),
    "quoted_number": (parity_csv({6: '6,"60"'}), None),
    # row 7 ends chunk 5-7, and its quoted cell's newline crosses into the
    # lines of the next chunk
    "quoted_newline_across_chunks": (
        parity_csv({7: '7,"70\n"'}, ending="\r\n"), None),
    "quoted_newline_then_bad_row": (
        parity_csv({7: '7,"70\n"', 11: "11,oops"}), NonFiniteValue),
    "underscore": (parity_csv({6: "6,6_0"}), None),
    "arabic_indic_digits": (parity_csv({6: "6,\u0666\u0660"}), None),
    "nbsp_around": (parity_csv({6: "6,\xa060\xa0"}), None),
    "form_feed_around": (parity_csv({6: "6,\x0c60\x0c"}), None),
    "file_separator_around": (parity_csv({6: "6,\x1c60"}), NonFiniteValue),
    "trailing_comma": (parity_csv({6: "6,60,"}), RaggedRows),
    "short_row": (parity_csv({6: "6"}), RaggedRows),
    "nan": (parity_csv({6: "6,nan"}), NonFiniteValue),
    "infinity": (parity_csv({6: "6,Infinity"}), NonFiniteValue),
    "overflow": (parity_csv({6: "6,1e500"}), NonFiniteValue),
    "hex_float": (parity_csv({6: "6,0x1p3"}), NonFiniteValue),
    "nul": (parity_csv({6: "6,6\x000"}), (NonFiniteValue, IoFailure)),
    "dot": (parity_csv({6: "6,."}), NonFiniteValue),
    # a finite cell past csv's field limit, which csv refuses
    "oversized_finite_cell": (
        parity_csv({6: "6,0." + "0" * 200_000 + "6"}), IoFailure),
    # past the text layer's read-ahead, so the first chunks parse first
    "bad_utf8_later_chunk": (
        parity_csv({1400: "1400,\udcff"}, last_row=1500), IoFailure),
    "chunk_of_empty_lines": (
        parity_csv({5: "", 6: "", 7: ""}, ending="\r\n"), RaggedRows),
}


def load_outcome(path):
    """What loading ``path`` gives: the set's bits, labels and digest, or
    the error's class and message."""
    try:
        s = load_spectra(path)
    except SpecselError as exc:
        return type(exc), str(exc)
    return s.axis.tobytes(), s.matrix.tobytes(), s.labels, s.source_sha256


class TestCReaderParity:
    """numpy's C reader gives what the csv path gives, for every input."""

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_same_outcome_with_the_c_reader_refusing_all(
            self, tmp_path, monkeypatch, recwarn, case):
        data, error = PARITY_CASES[case]
        f = tmp_path / "s.csv"
        f.write_bytes(data)
        chunked(monkeypatch, 6)
        accepted = []

        def spy(lines, width):
            table = _fast_chunk(lines, width)
            accepted.append(table is not None)
            return table

        monkeypatch.setattr("specsel.spectra._fast_chunk", spy)
        with_c_reader = load_outcome(f)
        monkeypatch.setattr("specsel.spectra._fast_chunk",
                            lambda lines, width: None)
        assert load_outcome(f) == with_c_reader
        if error is None:
            assert with_c_reader[3] == hashlib.sha256(data).hexdigest()
        else:
            assert issubclass(with_c_reader[0], error)
        # the C reader took rows 2-4, and no warning got out of it, such
        # as numpy's "input contained no data"
        assert accepted[0]
        assert not recwarn.list


class TestSaveMatrix:
    def test_basic(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(f, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], ["a", "b", "c"],
                    row_labels=["x", "y"], row_label_header="label")
        lines = f.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "label,a,b,c"

    def test_empty(self, tmp_path):
        with pytest.raises(EmptyMatrix):
            save_matrix(tmp_path / "m.csv", np.zeros((0, 3)), ["a", "b", "c"],
                        row_labels=[], row_label_header="label")

    @pytest.mark.parametrize("matrix,headers,row_labels,message", [
        ([1.0, 2.0], ["a", "b"], ["x"],
         "save_matrix needs a 2-D matrix, got shape (2,)"),
        ([[1.0, 2.0]], ["a"], ["x"], "1 headers for 2 matrix columns"),
        ([[1.0, 2.0]], ["a", "b"], ["x", "y"],
         "2 row labels for 1 matrix rows"),
    ], ids=["one_dimensional", "header_count", "row_label_count"])
    def test_refuses_misshaped_input(self, tmp_path, matrix, headers,
                                     row_labels, message):
        f = tmp_path / "m.csv"
        with pytest.raises(RaggedRows, match=f"^{re.escape(message)}$"):
            save_matrix(f, matrix, headers, row_labels=row_labels,
                        row_label_header="label")
        assert not f.exists()

    def test_nan_written_as_nan(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(f, [[1.0, np.nan]], ["a", "b"], row_labels=["x"],
                    row_label_header="label")
        assert f.read_text().strip().splitlines()[1] == "x,1.0,nan"

    def test_row_labels(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(f, [[1.0, 2.0]], ["pc_1", "pc_2"],
                    row_labels=["s0"], row_label_header="held_out")
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "held_out,pc_1,pc_2"
        assert lines[1] == "s0,1.0,2.0"


# floats whose shortest text is easy to get wrong: signed zero, the smallest
# subnormal and normal, exponent switches on both sides, and repeating or
# long fractions; sorted, so they also make a strictly increasing axis
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1 / 3,
               123456789012345.67, 1e16]
EDGE_TEXTS = ["-0.0", "5e-324", "2.2250738585072014e-308", "1e-05", "0.1",
              "0.3333333333333333", "123456789012345.67", "1e+16"]


class TestWriterBytes:
    """Each float cell is written as its repr, and loads back bit for bit."""

    def test_texts_are_reprs(self):
        assert [repr(v) for v in EDGE_FLOATS] == EDGE_TEXTS

    def test_save_spectra(self, tmp_path):
        f = tmp_path / "s.csv"
        spectra = SpectraSet(EDGE_FLOATS, [EDGE_FLOATS, EDGE_FLOATS[::-1]],
                             ("a", "b"))
        save_spectra(f, spectra)
        lines = ["wavenumber_cm-1,a,b"] + [
            f"{text},{text},{back}"
            for text, back in zip(EDGE_TEXTS, EDGE_TEXTS[::-1])]
        assert f.read_bytes() == "".join(
            line + "\r\n" for line in lines).encode()
        loaded = load_spectra(f)
        assert loaded.axis.tobytes() == spectra.axis.tobytes()
        assert loaded.matrix.tobytes() == spectra.matrix.tobytes()

    def test_save_concentrations(self, tmp_path):
        f = tmp_path / "c.csv"
        labels = [f"s{n}" for n in range(len(EDGE_FLOATS))]
        conc = ConcentrationSet([EDGE_FLOATS], ("x",), ("mM",))
        save_concentrations(f, conc, labels)
        assert f.read_bytes() == (
            f"species,unit,{','.join(labels)}\r\n"
            f"x,mM,{','.join(EDGE_TEXTS)}\r\n").encode()
        loaded = load_concentrations(f, labels)
        assert loaded.matrix.tobytes() == conc.matrix.tobytes()

    def test_save_matrix_with_nan(self, tmp_path):
        f = tmp_path / "m.csv"
        # NaN's sign does not survive text, so only the finite cells flip
        matrix = [[*EDGE_FLOATS, np.nan], [*(-v for v in EDGE_FLOATS), np.nan]]
        headers = [f"pc_{k}" for k in range(1, len(matrix[0]) + 1)]
        save_matrix(f, matrix, headers, row_labels=["r0", "r1"],
                    row_label_header="label")
        negated = ["0.0", "-5e-324", "-2.2250738585072014e-308", "-1e-05",
                   "-0.1", "-0.3333333333333333", "-123456789012345.67",
                   "-1e+16"]
        assert f.read_bytes() == (
            f"label,{','.join(headers)}\r\n"
            f"r0,{','.join(EDGE_TEXTS)},nan\r\n"
            f"r1,{','.join(negated)},nan\r\n").encode()
        cells = [line.split(",")[1:]
                 for line in f.read_text().splitlines()[1:]]
        assert (np.array(cells, dtype=float).tobytes()
                == np.array(matrix).tobytes())

    def test_text_cells_written_as_csv_writer_writes_them(self, tmp_path):
        # the reference is csv.writer on whole rows, floats included: a
        # text cell is quoted where it needs it, and an empty one is not
        def reference(rows):
            out = io.StringIO(newline="")
            csv.writer(out).writerows(rows)
            return out.getvalue().encode()

        f, g = tmp_path / "c.csv", tmp_path / "m.csv"
        conc = ConcentrationSet([EDGE_FLOATS[:2], EDGE_FLOATS[2:4]],
                                ("a,b", 'say "x"'), ("", "mg\nmL"))
        save_concentrations(f, conc, ["s0", "s1"])
        assert f.read_bytes() == reference([
            ["species", "unit", "s0", "s1"], ["a,b", "", *EDGE_FLOATS[:2]],
            ['say "x"', "mg\nmL", *EDGE_FLOATS[2:4]]])
        save_matrix(g, [[1.0, np.nan]], ["p", "q"], row_labels=[""],
                    row_label_header="label")
        assert g.read_bytes() == reference([["label", "p", "q"],
                                            ["", 1.0, math.nan]])


# each type with a list of names that identify things: the field, what the
# names identify, and the type built around two names
NAMED_TYPES = {
    "SpectraSet": ("labels", "sample labels", lambda names: SpectraSet(
        np.arange(10.0), np.ones((2, 10)), names)),
    "ConcentrationSet": ("species", "species", lambda names: ConcentrationSet(
        np.ones((2, 3)), names, ("u", "u"))),
    "PcrModel": ("species", "species", lambda names: PcrModel(
        np.arange(10.0), np.zeros(10), np.ones((10, 1)), np.ones((2, 1)),
        np.zeros(2), names, ("u", "u"))),
    "PressMatrix": ("labels", "sample labels", lambda names: PressMatrix(
        np.ones((2, 1)), "identity", names)),
}


class TestNamesRule:
    @pytest.mark.parametrize("kind", NAMED_TYPES)
    @pytest.mark.parametrize("names", ["ab", None, ("a", 1)],
                             ids=["bare_string", "none", "non_string_entry"])
    def test_refuses_what_is_not_a_list_of_strings(self, kind, names):
        field, _, build = NAMED_TYPES[kind]
        with pytest.raises(SpecselError) as info:
            build(names)
        assert type(info.value) is SpecselError
        assert str(info.value) == (
            f"{field} must be a list of strings, got {names!r}")

    @pytest.mark.parametrize("kind", NAMED_TYPES)
    def test_refuses_a_name_given_twice(self, kind):
        _, what, build = NAMED_TYPES[kind]
        with pytest.raises(LabelMismatch) as info:
            build(["a", "a"])
        assert str(info.value) == f"duplicate {what} ['a']"

    @pytest.mark.parametrize("kind", NAMED_TYPES)
    def test_stores_a_list_as_a_tuple(self, kind):
        field, _, build = NAMED_TYPES[kind]
        assert getattr(build(["a", "b"]), field) == ("a", "b")

    def test_duplicate_labels_refused_in_memory_as_in_a_file(self, tmp_path):
        labels = ["a", "b", "a", "b"]
        f = tmp_path / "s.csv"
        write_wide_csv(f, np.arange(10.0), [np.ones(10)] * 4, labels)
        message = "duplicate sample labels ['a', 'b']"
        with pytest.raises(LabelMismatch) as in_file:
            load_spectra(f)
        assert str(in_file.value) == f"{f}: {message}"
        with pytest.raises(LabelMismatch) as in_memory:
            SpectraSet(np.arange(10.0), np.ones((4, 10)), labels)
        assert str(in_memory.value) == message

    @pytest.mark.parametrize("kind", ["ConcentrationSet", "PcrModel"])
    def test_units_one_per_species(self, kind):
        _, _, build = NAMED_TYPES[kind]
        with pytest.raises(ShapeMismatch, match=r"^1 units for 2 species$"):
            dataclasses.replace(build(["a", "b"]), units=("u",))


class TestConcentrationSet:
    def test_units_default_to_one_blank_each(self):
        assert ConcentrationSet([[0.1], [0.2]], ("a", "b")).units == ("", "")

    def test_negative_rejected(self):
        with pytest.raises(NegativeConcentration):
            ConcentrationSet([[0.1, -0.2]], ("a",), ("u",))

    def test_duplicate_species_rejected(self):
        with pytest.raises(LabelMismatch, match=r"^duplicate species \['a'\]$"):
            ConcentrationSet([[0.1], [0.2], [0.3]], ("a", "b", "a"))

    def test_column_selection(self):
        conc = ConcentrationSet([[1.0, 2.0, 3.0]], ("a",), ("u",))
        sub = select_columns(conc, [2, 0])
        assert np.array_equal(sub.matrix, [[3.0, 1.0]])

    def test_matrix_stored_c_ordered(self, tmp_path):
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        conc = ConcentrationSet(fortran, ("a", "b"), ("u", "u"))
        assert conc.matrix.flags.c_contiguous
        assert np.array_equal(conc.matrix, fortran)
        f = tmp_path / "c.csv"
        save_concentrations(f, conc, ["s0", "s1", "s2"])
        loaded = load_concentrations(f, labels=["s2", "s0", "s1"])
        assert loaded.matrix.flags.c_contiguous
        assert np.array_equal(loaded.matrix, fortran[:, [2, 0, 1]])


WRITERS = ["save_spectra", "save_concentrations", "save_matrix",
           "write_boxplot_csv", "save_model", "write_report"]


def write_with(name, path):
    """Call the output writer ``name`` on ``path`` with small valid data."""
    spectra, conc, _ = noiseless_mixtures(n_samples=6, n_species=2)
    calls = {
        "save_spectra": lambda: save_spectra(path, spectra),
        "save_concentrations": lambda: save_concentrations(
            path, conc, spectra.labels),
        "save_matrix": lambda: save_matrix(path, [[1.0, 2.0]], ["a", "b"],
                                           row_labels=["x"],
                                           row_label_header="label"),
        "write_boxplot_csv": lambda: _write_boxplot_csv(
            path, np.arange(12.0).reshape(4, 3)),
        "save_model": lambda: save_model(
            path, train_final(spectra, conc, IDENTITY, 2)),
        "write_report": lambda: write_report(
            path, SelectionReport((), "identity", 1, True, 0.05, False, ())),
    }
    calls[name]()


class TestWriters:
    @pytest.mark.parametrize("name", WRITERS)
    def test_directory_path_raises_io_failure(self, tmp_path, name):
        with pytest.raises(IoFailure,
                           match=f"^cannot write {re.escape(str(tmp_path))}"):
            write_with(name, tmp_path)


class TestReadJson:
    @pytest.mark.parametrize("text", [
        "{", "[" * 100_000 + "]" * 100_000, "1" * 5_000,
    ], ids=["syntax", "deep_nesting", "long_integer"])
    def test_unparseable_raises_io_failure(self, tmp_path, text):
        f = tmp_path / "x.json"
        f.write_text(text)
        with pytest.raises(IoFailure,
                           match=f"^cannot read {re.escape(str(f))}: "):
            read_json(f)


class TestWriteJson:
    def test_nan_written_as_null_at_any_depth(self, tmp_path):
        # NaN and both infinities: none of them is JSON
        f = tmp_path / "x.json"
        write_json(f, {"a": float("nan"), "b": [1.0, np.float64("nan")],
                       "c": (np.nan, {"d": [np.nan, "nan", math.inf]}),
                       "e": -np.inf})
        text = f.read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {
            "a": None, "b": [1.0, None],
            "c": [None, {"d": [None, "nan", None]}], "e": None}
