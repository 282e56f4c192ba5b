"""Spectral data model and file interchange.

One wide CSV holds a whole set of spectra: the first column is the shared
wavenumber axis (header ``wavenumber_cm-1``), every further column is one
spectrum. Concentrations travel in a species-per-row CSV whose header is
``species,unit,<label1>,<label2>,...``. All floats are parsed as 64-bit.
The writers hand ``csv.writer`` one row of Python floats at a time (one
``tolist`` per row, never of the whole matrix), and it writes each as its
``repr``: the shortest text that parses back to the same float, with NaN
as ``nan``. So save/load is exact. Model files, reports and configs are
JSON, read by ``read_json`` and written by ``write_json``. SpectraSet,
ConcentrationSet and ``regress.PcrModel`` store every array field through
``_set_arrays``, one table of field shapes per type.

A CSV's cells are parsed as the file is read, in chunks of about
``CHUNK_CELLS`` cells, so the file never sits in memory as one Python
string per cell. Errors come in file order: the header's, then each
chunk's, where a read failure anywhere in the chunk wins over its first
bad row (whose width is checked before its cells). The axis and sign
checks, which need the whole table, come last.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

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
)

AXIS_HEADER = "wavenumber_cm-1"
MIN_CHANNELS = 8
# cells parsed per numpy call while a CSV is read
CHUNK_CELLS = 1 << 16


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
        dup = sorted({x for x in names if names.count(x) > 1})
        raise LabelMismatch(
            f"{'' if path is None else f'{path}: '}duplicate {what} {dup}")


def _frozen_array(arr: np.ndarray, order: str = "K") -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True, order=order)
    out.setflags(write=False)
    return out


def _set_arrays(obj, shapes: dict[str, tuple[int, ...]],
                nonfinite_row: dict | None = None) -> None:
    """Store each field of the frozen dataclass ``obj`` named in ``shapes``,
    in order, as a read-only float copy of that shape; C-ordered whatever
    the input's layout (a CSV body is Fortran-ordered), so a row's
    reductions give the same bits from every source. Raises ShapeMismatch,
    or NonFiniteValue naming the field or, by ``nonfinite_row[name](row)``,
    the first row with a NaN or an infinity."""
    for name, shape in shapes.items():
        arr = _frozen_array(getattr(obj, name), order="C")
        if arr.shape != shape:
            raise ShapeMismatch(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            if name in (nonfinite_row or {}):
                row = int(np.argwhere(~np.isfinite(arr))[0][0])
                raise NonFiniteValue(nonfinite_row[name](row))
            raise NonFiniteValue(f"{name} has a non-finite value")
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class SpectraSet:
    """i spectra sharing one wavenumber axis, stored as an i x j matrix."""

    axis: np.ndarray
    matrix: np.ndarray
    labels: tuple[str, ...]
    # sha256 of the file bytes parsed; empty for a set built in memory
    source_sha256: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise RaggedRows("spectra set must contain at least one spectrum")
        j = np.size(self.axis)
        _set_arrays(self, {"axis": (j,), "matrix": (len(labels), j)}, {
            "matrix": lambda r: f"non-finite intensity in spectrum {labels[r]!r}"})
        _check_axis(self.axis)
        object.__setattr__(self, "labels", labels)

    @property
    def n_spectra(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[1]

    def with_matrix(self, matrix: np.ndarray) -> "SpectraSet":
        """Same axis and labels, new intensities (used by preprocessing)."""
        return SpectraSet(self.axis, matrix, self.labels)


@dataclass(frozen=True)
class ConcentrationSet:
    """Known concentrations: q species (rows) by i samples (columns)."""

    matrix: np.ndarray
    species: tuple[str, ...]
    units: tuple[str, ...] = field(default=())
    # sha256 of the file bytes parsed; empty for a set built in memory
    source_sha256: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        species = tuple(str(s) for s in self.species)
        units = tuple(str(u) for u in self.units) if self.units else ("",) * len(species)
        if len(units) != len(species):
            raise RaggedRows(f"{len(units)} units for {len(species)} species")
        _check_unique(species, "species")
        # any number of samples: the last axis, whatever the matrix's rank
        _set_arrays(self, {"matrix": (len(species), *np.shape(self.matrix)[-1:])})
        _check_nonnegative(self.matrix, species)
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "units", units)

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
            rows = csv.reader(hashed(fh))
            header = next(rows, None)
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
            chunks, texts = [], []
            for first in itertools.count(2, size):
                body = list(itertools.islice(rows, size))
                chunks.append(_parse_body(path, body, text, columns, first))
                # a chunk is freed before the next is read, and an object
                # kept from it would pin the memory of its cell strings
                if text:
                    texts += ([cell.strip() for cell in row[:text]]
                              for row in body)
                if len(body) < size:
                    break
                del body
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return labels, np.concatenate(chunks), texts, digest.hexdigest()


def _parse_body(path, body: list[list[str]], text: int,
                names: Sequence[str], first_row: int) -> np.ndarray:
    """Parse the cells after each row's ``text`` cells as finite floats.

    The table has one row per body row and one column per entry of
    ``names``, which name the columns in error messages; ``body[0]`` is
    file row ``first_row``.
    """
    # one numpy conversion of the whole body; its str -> float parse accepts
    # exactly what float() accepts, and reshape fails unless every row has
    # the header's width. Without text columns the rows go in uncopied.
    try:
        table = np.array([row[text:] for row in body] if text else body,
                         dtype=float).reshape(len(body), len(names))
        if np.isfinite(table).all():
            return table
    except ValueError:
        pass
    # replay cell by cell to raise the error met first in file order; within
    # a row the width is checked before the cells
    width = text + len(names)
    for r, row in enumerate(body, start=first_row):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {r} has {len(row)} cells, expected {width}"
            )
        for name, cell in zip(names, row[text:]):
            where = f"{path}: row {r}, {name}"
            try:
                value = float(cell)
            except ValueError as exc:
                raise NonFiniteValue(
                    f"{where}: cannot parse {cell!r} as a number") from exc
            if not math.isfinite(value):
                raise NonFiniteValue(f"{where}: non-finite value {cell!r}")
    raise NonFiniteValue(f"{path}: cannot parse the table")


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
    """Write a header and rows of cells as CSV; rows may be a generator,
    which is consumed while the file is open."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
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
        [wavenumber, *column.tolist()]
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
    species = tuple(row[0] for row in texts)
    units = tuple(row[1] for row in texts)
    _check_unique(species, "species", path)
    _check_nonnegative(data, species, path, file_labels)
    if labels is not None:
        wanted = [str(x) for x in labels]
        missing = [x for x in wanted if x not in file_labels]
        extra = [x for x in file_labels if x not in wanted]
        if missing or extra:
            raise LabelMismatch(
                f"{path}: sample labels disagree with spectra "
                f"(missing {missing}, unmatched {extra})"
            )
        order = [file_labels.index(x) for x in wanted]
        data = data[:, order]
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
        [species, unit, *row.tolist()]
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
              ([label, *row.tolist()] for label, row in zip(row_labels, arr)))
