"""Spectral data model and file interchange.

One wide CSV holds a whole set of spectra: the first column is the shared
wavenumber axis (header ``wavenumber_cm-1``), every further column is one
spectrum. Concentrations travel in a species-per-row CSV whose header is
``species,unit,<label1>,<label2>,...``. All floats are parsed as 64-bit.
``write_csv`` writes text cells through ``csv.writer`` and each float as
its ``repr``: the shortest text that parses back to the same float, with
NaN as ``nan``. So save/load is exact. Model files, reports and configs are
JSON, read by ``read_json`` and written by ``write_json``. A number in a
config, a recipe or a model file is read by one rule, ``_to_float``, which
``_number`` and ``_set_arrays`` apply. Each frozen data
type stores its arrays through ``_set_arrays``, one table of field shapes
per type, as copies unless handed over as ``_Owned``, and its lists of
names through ``_set_names``, one rule for all.

A CSV's cells are parsed as the file is read, in chunks of about
``CHUNK_CELLS`` cells, so the file never sits in memory as one Python
string per cell. numpy's C reader parses a spectra chunk (``_fast_chunk``);
the first chunk it refuses, the rest of the file and any concentrations
body take the csv path, which gives the same bits. Errors come in file
order: the header's, then each chunk's, where a read failure anywhere in
the chunk wins over its first bad row (whose width is checked before its
cells). The axis and sign checks, which need the whole table, come last.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
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

AXIS_HEADER = "wavenumber_cm-1"
MIN_CHANNELS = 8
# cells parsed per numpy call while a CSV is read
CHUNK_CELLS = 1 << 16
# spectra per block on the predict path: each preprocessing step in
# apply_pipeline and the centring in project run on this many rows at a
# time, so their transient arrays (the ALS system alone is 3 x rows x
# channels) stay near 3.3 MB at 701 channels whatever the set size
ROW_BLOCK = 64


def _check_axis(axis: np.ndarray, path=None) -> None:
    """Refuse an axis shorter than MIN_CHANNELS or not strictly increasing.

    With ``path`` (the axis is a spectra CSV's first column) the message
    names the file and the file row, counting the header as row 1.
    """
    if axis.size < MIN_CHANNELS:
        raise RaggedRows(
            f"{'' if path is None else f'{path}: '}axis must have at least "
            f"{MIN_CHANNELS} channels, got {axis.size}"
        )
    if np.any(np.diff(axis) <= 0):
        bad = int(np.flatnonzero(np.diff(axis) <= 0)[0])
        where = (f"wavenumber axis not strictly increasing at row {bad + 1}"
                 if path is None else
                 f"{path}: row {bad + 3}, axis: not strictly increasing")
        raise NonmonotonicAxis(
            f"{where} ({axis[bad]:.9g} -> {axis[bad + 1]:.9g})")


def _check_nonnegative(matrix: np.ndarray, species: Sequence[str], path=None,
                       samples: Sequence[str] | None = None) -> None:
    """Refuse a negative concentration; with ``path``, name the file, and
    with ``samples`` (the file's labels), the sample instead of its column."""
    if np.any(matrix < 0):
        r, c = np.argwhere(matrix < 0)[0]
        where = (f"sample column {int(c)}" if samples is None
                 else f"sample {samples[c]!r}")
        raise NegativeConcentration(
            f"{'' if path is None else f'{path}: '}negative concentration "
            f"{matrix[r, c]:.9g} for species {species[r]!r}, {where}")


def _check_unique(names: Sequence[str], what: str, path=None) -> None:
    """Refuse a name given twice; with ``path``, name the file."""
    if len(set(names)) != len(names):
        dup = sorted(x for x, count in Counter(names).items() if count > 1)
        raise LabelMismatch(
            f"{'' if path is None else f'{path}: '}duplicate {what} {dup}")


def _check_samples(conc, i: int, what: str = "concentration") -> None:
    """Refuse a ConcentrationSet without one column per spectrum of i."""
    if conc.n_samples != i:
        raise ShapeMismatch(f"{conc.n_samples} {what} columns for {i} spectra")


class _Owned(NamedTuple):
    """An array handed to a frozen data type to keep as its own: the one
    way a field takes an array without copying it. Only for a freshly
    allocated array that no one else holds, since the field freezes it."""

    array: np.ndarray


def _to_float(value) -> float:
    """The one rule for a number read from a user's JSON file (a config, a
    recipe or a model file): an int or a float, numpy's included, as a
    float. Anything else, true, false and text among them, is NaN, and so
    is an int too large for a float, so a caller that refuses NaN refuses
    them all."""
    try:
        return (float(value) if not isinstance(value, bool) and isinstance(
            value, (int, float, np.integer, np.floating)) else math.nan)
    except OverflowError:
        return math.nan


def _number(value, what: str) -> float:
    """``_to_float(value)``; SpecselError naming ``what`` unless finite."""
    if not math.isfinite(number := _to_float(value)):
        raise SpecselError(f"{what} must be a finite number, got {value!r}")
    return number


def _set_arrays(obj, shapes: dict[str, tuple[int, ...]],
                nonfinite_row: dict | None = None) -> None:
    """Store each field of the frozen dataclass ``obj`` named in ``shapes``,
    in order, as a read-only float copy of that shape; C-ordered whatever
    the input's layout (a CSV body is Fortran-ordered), so a row's
    reductions give the same bits from every source. An array of ints or
    floats is converted whole; anything else (lists, as a JSON file gives)
    entry by entry through ``_to_float``, so a bool, text or an int too
    large for a float is refused like NaN, also among numbers. A field
    given as ``_Owned`` keeps that array itself, frozen, if it is already
    a C-ordered float array. Raises ShapeMismatch (ragged lists included),
    or NonFiniteValue naming the field or, by
    ``nonfinite_row[name](row)``, the first row with a NaN or an
    infinity."""
    for name, shape in shapes.items():
        value = getattr(obj, name)
        if not (isinstance(value, _Owned) or isinstance(value, np.ndarray)
                and value.dtype.kind in "iuf"):
            entries = np.array(value, dtype=object)
            value = _Owned(np.fromiter(map(_to_float, entries.flat), float,
                                       entries.size).reshape(entries.shape))
        arr = (np.asarray(value.array, dtype=float, order="C")
               if isinstance(value, _Owned)
               else np.array(value, dtype=float, order="C"))
        if arr.shape != shape:
            raise ShapeMismatch(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            if name in (nonfinite_row or {}):
                row = int(np.argwhere(~np.isfinite(arr))[0][0])
                raise NonFiniteValue(nonfinite_row[name](row))
            raise NonFiniteValue(f"{name} has a non-finite value")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _set_names(obj, fields: dict[str, str | None]) -> None:
    """Store each field in ``fields``, a list or tuple of str, as a tuple on
    the frozen dataclass ``obj``: no name twice where the entry (what the
    names identify) is not None, and ``units`` one per species."""
    for name, what in fields.items():
        names = getattr(obj, name)
        if not (isinstance(names, (list, tuple))
                and all(isinstance(n, str) for n in names)):
            raise SpecselError(
                f"{name} must be a list of strings, got {names!r}")
        if what is not None:
            _check_unique(names, what)
        object.__setattr__(obj, name, tuple(names))
    if "units" in fields and len(obj.units) != len(obj.species):
        raise ShapeMismatch(f"{len(obj.units)} units for {len(obj.species)} species")


@dataclass(frozen=True)
class SpectraSet:
    """i spectra sharing one wavenumber axis, stored as an i x j matrix."""

    axis: np.ndarray
    matrix: np.ndarray
    labels: tuple[str, ...]
    # sha256 of the file bytes parsed; empty for a set built in memory
    source_sha256: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        _set_names(self, {"labels": "sample labels"})
        if not self.labels:
            raise RaggedRows("spectra set must contain at least one spectrum")
        j = np.size(self.axis)
        _set_arrays(self, {"axis": (j,), "matrix": (len(self.labels), j)}, {
            "matrix": lambda r: f"non-finite intensity in spectrum {self.labels[r]!r}"})
        _check_axis(self.axis)

    @property
    def n_spectra(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[1]

    def _adopt_matrix(self, matrix: np.ndarray) -> "SpectraSet":
        """Same axis and labels, new intensities: ``matrix`` itself, frozen,
        not a copy, with the constructor's shape and non-finite checks. For
        a freshly allocated C-ordered float matrix its caller then drops,
        as ``apply_pipeline``'s output."""
        return SpectraSet(self.axis, _Owned(matrix), self.labels)


@dataclass(frozen=True)
class ConcentrationSet:
    """Known concentrations: q species (rows) by i samples (columns)."""

    matrix: np.ndarray
    species: tuple[str, ...]
    units: tuple[str, ...] = field(default=())  # empty: one blank each
    # sha256 of the file bytes parsed; empty for a set built in memory
    source_sha256: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        _set_names(self, {"species": "species"})
        if isinstance(self.units, (list, tuple)) and not self.units:
            object.__setattr__(self, "units", ("",) * len(self.species))
        _set_names(self, {"units": None})
        # any number of samples: the last axis, whatever the matrix's rank
        _set_arrays(self, {"matrix": (len(self.species), *np.shape(self.matrix)[-1:])})
        _check_nonnegative(self.matrix, self.species)

    @property
    def n_species(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[1]


# --- file I/O -----------------------------------------------------------------
# one reader and one writer per file format, so a file that cannot be read
# or written always ends in IoFailure

def _read_csv(path, lead: Sequence[str], names
              ) -> tuple[list[str], np.ndarray, list[list[str]], str]:
    """Read a CSV whose header is the ``lead`` cells, then sample labels.

    Returns the labels; a float table with one column per entry of
    ``names(labels)``, parsed from each row's last cells as the rows are
    read; each row's leading text cells, stripped; and the sha256 of the
    bytes parsed. Header cells are stripped; at least one sample label must
    follow ``lead``, and none twice.
    """
    digest = hashlib.sha256()

    def hashed(lines):
        # newline="" keeps each line's ending and the decoding is strict, so
        # re-encoding every line gives back exactly the file's bytes
        for line in lines:
            digest.update(line.encode("utf-8"))
            yield line

    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            lines = hashed(fh)
            header = next(csv.reader(lines), None)
            if header is None:
                raise IoFailure(f"{path}: empty file")
            header = [cell.strip() for cell in header]
            lead_text = ",".join(lead)
            if header[:len(lead)] != list(lead):
                raise IoFailure(
                    f"{path}: header must start with {lead_text!r}, got "
                    f"{','.join(header[:len(lead)])!r}"
                )
            labels = header[len(lead):]
            if not labels:
                raise IoFailure(
                    f"{path}: no sample columns after {lead_text!r}")
            _check_unique(labels, "sample labels", path)
            columns = names(labels)
            text = len(header) - len(columns)
            size = max(1, CHUNK_CELLS // len(header))
            # the csv path: a body with text columns, or a refused chunk on
            chunks, texts, rows = [], [], None
            for first in itertools.count(2, size):
                if rows is None:
                    body = list(itertools.islice(lines, size))
                    table = None if text else _fast_chunk(body, len(columns))
                    if table is None:
                        rows = csv.reader(itertools.chain(body, lines))
                if rows is not None:
                    body = list(itertools.islice(rows, size))
                    table = _parse_body(path, body, text, columns, first)
                # a chunk is freed before the next is read, and an object
                # kept from it would pin the memory of its cell strings
                if text:
                    texts += ([cell.strip() for cell in row[:text]]
                              for row in body)
                chunks.append(table)
                if len(body) < size:
                    break
                del body
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return labels, np.concatenate(chunks), texts, digest.hexdigest()


def _fast_chunk(lines: list[str], width: int) -> np.ndarray | None:
    """Parse raw lines with numpy's C reader: the table if nothing raised or
    warned and each line gave ``width`` finite values, as csv and float()
    would, else None for the csv path. Refused first: U+001C-U+001F, which
    numpy skips around a number and float() refuses; a cell over csv's limit."""
    limit = csv.field_size_limit()
    if any(any(c in line for c in "\x1c\x1d\x1e\x1f") or len(line) > limit
           and max(map(len, line.split(","))) > limit for line in lines):
        return None
    with warnings.catch_warnings():  # such as "input contained no data"
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None,
                               dtype=float, ndmin=2)
        except (ValueError, Warning):
            return None
    ok = table.shape == (len(lines), width) and np.isfinite(table).all()
    return table if ok else None


def _parse_body(path, body: list[list[str]], text: int,
                names: Sequence[str], first_row: int) -> np.ndarray:
    """The reference parser: each row's cells after its ``text`` cells as
    finite floats by float(), raising the first error in file order (width
    before cells); ``names`` name the columns, ``body[0]`` is row ``first_row``."""
    width, values = text + len(names), []
    for r, row in enumerate(body, start=first_row):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {r} has {len(row)} cells, "
                             f"expected {width}")
        for name, cell in zip(names, row[text:]):
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise NonFiniteValue(f"{path}: row {r}, {name}: cannot "
                                     f"parse {cell!r} as a number") from exc
            if not math.isfinite(values[-1]):
                raise NonFiniteValue(
                    f"{path}: row {r}, {name}: non-finite value {cell!r}")
    return np.array(values, dtype=float).reshape(len(body), len(names))


def load_spectra(path) -> SpectraSet:
    """Read a wide CSV of spectra; column order becomes sample order."""
    labels, table, _, sha256 = _read_csv(
        path, [AXIS_HEADER],
        lambda labels: ["axis", *(f"column {x!r}" for x in labels)])
    _check_axis(table[:, 0], path)
    return SpectraSet(table[:, 0], table[:, 1:].T, tuple(labels), sha256)


def _check_header_labels(path, labels: Sequence[str],
                         what: str = "label") -> None:
    """Refuse names that would not read back: loading strips their cells."""
    for label in map(str, labels):
        if label != label.strip():
            raise LabelMismatch(
                f"{path}: {what} {label!r} has leading or trailing "
                f"whitespace, which loading strips"
            )


def read_json(path):
    """Read a JSON document; the caller checks its types and shapes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers undecodable bytes, bad syntax and integers too long
    # to convert; RecursionError, arrays or objects nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a header and rows of (text cells, Python floats) as CSV, floats
    as their repr; rows may be a generator, consumed while the file is open."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for cells, values in itertools.chain([(header, [])], rows):
                if cells:
                    writer.writerow([*cells, *values])
                else:
                    fh.write(",".join(map(repr, values)) + "\r\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _nan_to_null(value):
    """``value`` with every non-finite float (NaN, +inf, -inf) in its dicts,
    lists and tuples as None."""
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path, payload) -> None:
    """Write a JSON document, one space per indent level and a final newline;
    a NaN or an infinity is written as null, so the file is strict JSON."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_nan_to_null(payload), fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def save_spectra(path, spectra: SpectraSet) -> None:
    """Write a SpectraSet back to the wide CSV format."""
    _check_header_labels(path, spectra.labels)
    write_csv(path, [AXIS_HEADER, *spectra.labels], (
        ((), [wavenumber, *column.tolist()])
        for wavenumber, column in zip(spectra.axis.tolist(),
                                      spectra.matrix.T)))


def load_concentrations(path, labels: Sequence[str] | None = None) -> ConcentrationSet:
    """Read a concentrations CSV, reordering columns to match ``labels``.

    With ``labels`` given (the spectra sample order), columns are aligned by
    label and a LabelMismatch is raised if the two sets differ; without it
    the file order is kept.
    """
    file_labels, data, texts, sha256 = _read_csv(
        path, ["species", "unit"],
        lambda labels: [f"sample {x!r}" for x in labels])
    if not texts:
        raise IoFailure(f"{path}: no species rows after the header")
    species, units = zip(*texts)
    _check_unique(species, "species", path)
    _check_nonnegative(data, species, path, file_labels)
    if labels is not None:
        wanted = [str(x) for x in labels]
        # built once, outside the comprehensions, so aligning n labels is
        # linear in n: a list lookup per label would make it quadratic
        column = {x: k for k, x in enumerate(file_labels)}
        wanted_set = set(wanted)
        missing = [x for x in wanted if x not in column]
        extra = [x for x in file_labels if x not in wanted_set]
        if missing or extra:
            raise LabelMismatch(
                f"{path}: sample labels disagree with spectra "
                f"(missing {missing}, unmatched {extra})"
            )
        data = data[:, [column[x] for x in wanted]]
    return ConcentrationSet(data, species, units, sha256)


def save_concentrations(path, conc: ConcentrationSet,
                        labels: Sequence[str]) -> None:
    """Write a ConcentrationSet using the given sample labels as the header."""
    if len(labels) != conc.n_samples:
        raise ShapeMismatch(
            f"{len(labels)} labels for {conc.n_samples} concentration columns"
        )
    _check_header_labels(path, labels)
    _check_header_labels(path, conc.species, "species")
    _check_header_labels(path, conc.units, "unit")
    write_csv(path, ["species", "unit", *labels], (
        ((species, unit), row.tolist())
        for species, unit, row in zip(conc.species, conc.units, conc.matrix)))


def save_matrix(path, matrix, headers: Sequence[str],
                row_labels: Sequence[str], row_label_header: str) -> None:
    """Write a matrix as CSV, each row led by its label; NaN cells become
    literal 'nan'."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise RaggedRows(f"save_matrix needs a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise EmptyMatrix(f"refusing to write empty matrix of shape {arr.shape}")
    if len(headers) != arr.shape[1]:
        raise RaggedRows(
            f"{len(headers)} headers for {arr.shape[1]} matrix columns"
        )
    if len(row_labels) != arr.shape[0]:
        raise RaggedRows(
            f"{len(row_labels)} row labels for {arr.shape[0]} matrix rows"
        )
    write_csv(path, [row_label_header, *headers],
              (((label,), row.tolist()) for label, row in zip(row_labels, arr)))
