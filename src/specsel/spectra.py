"""Spectral data model and CSV interchange.

One wide CSV holds a whole set of spectra: the first column is the shared
wavenumber axis (header ``wavenumber_cm-1``), every further column is one
spectrum. Concentrations travel in a species-per-row CSV whose header is
``species,unit,<label1>,<label2>,...``. All floats are parsed as 64-bit and
written back in shortest-round-trip form, so save/load is exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


def _fmt(value: float) -> str:
    """Shortest text that parses back to the exact float (NaN -> 'nan').

    Exact round-trips keep save/load the identity, which both the set-level
    I/O contract and synthetic ground-truth files rely on.
    """
    return repr(float(value))


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise RaggedRows(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteValue(f"{name} has a non-finite value at index {bad}")
    return arr


def _check_axis(axis: np.ndarray) -> None:
    if axis.size < MIN_CHANNELS:
        raise RaggedRows(
            f"axis must have at least {MIN_CHANNELS} channels, got {axis.size}"
        )
    if np.any(np.diff(axis) <= 0):
        bad = int(np.flatnonzero(np.diff(axis) <= 0)[0])
        raise NonmonotonicAxis(
            f"wavenumber axis not strictly increasing at row {bad + 1} "
            f"({axis[bad]:.9g} -> {axis[bad + 1]:.9g})"
        )


def _frozen_array(arr: np.ndarray, order: str = "K") -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True, order=order)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Spectrum:
    """A single spectrum: intensities on a strictly increasing cm^-1 axis."""

    wavenumbers: np.ndarray
    intensities: np.ndarray
    label: str = ""
    meta: Mapping[str, object] | None = None

    def __post_init__(self):
        wn = _as_float_vector(self.wavenumbers, "wavenumbers")
        _check_axis(wn)
        it = _as_float_vector(self.intensities, f"intensities of {self.label!r}")
        if it.size != wn.size:
            raise RaggedRows(
                f"spectrum {self.label!r}: {it.size} intensities for {wn.size} channels"
            )
        object.__setattr__(self, "wavenumbers", _frozen_array(wn))
        object.__setattr__(self, "intensities", _frozen_array(it))


@dataclass(frozen=True)
class SpectraSet:
    """i spectra sharing one wavenumber axis, stored as an i x j matrix."""

    axis: np.ndarray
    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        axis = _as_float_vector(self.axis, "axis")
        _check_axis(axis)
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise RaggedRows(f"spectra matrix must be 2-D, got shape {matrix.shape}")
        labels = tuple(str(x) for x in self.labels)
        if matrix.shape[0] != len(labels):
            raise RaggedRows(
                f"{matrix.shape[0]} spectra rows but {len(labels)} labels"
            )
        if matrix.shape[0] < 1:
            raise RaggedRows("spectra set must contain at least one spectrum")
        if matrix.shape[1] != axis.size:
            raise RaggedRows(
                f"rows have {matrix.shape[1]} channels but axis has {axis.size}"
            )
        if not np.all(np.isfinite(matrix)):
            rows = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
            raise NonFiniteValue(
                f"non-finite intensity in spectrum {labels[int(rows[0])]!r}"
            )
        object.__setattr__(self, "axis", _frozen_array(axis))
        # C order whatever the input's layout (a CSV body is Fortran-ordered),
        # so a row's reductions give the same bits from every source
        object.__setattr__(self, "matrix", _frozen_array(matrix, order="C"))
        object.__setattr__(self, "labels", labels)

    @property
    def n_spectra(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[1]

    def spectrum(self, index: int) -> Spectrum:
        return Spectrum(self.axis, self.matrix[index], label=self.labels[index])

    def with_matrix(self, matrix: np.ndarray) -> "SpectraSet":
        """Same axis and labels, new intensities (used by preprocessing)."""
        return SpectraSet(self.axis, matrix, self.labels)

    def subset(self, indices: Sequence[int]) -> "SpectraSet":
        idx = list(indices)
        return SpectraSet(self.axis, self.matrix[idx, :],
                          tuple(self.labels[n] for n in idx))


@dataclass(frozen=True)
class ConcentrationSet:
    """Known concentrations: q species (rows) by i samples (columns)."""

    matrix: np.ndarray
    species: tuple[str, ...]
    units: tuple[str, ...] = field(default=())

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise RaggedRows(
                f"concentration matrix must be 2-D, got shape {matrix.shape}"
            )
        species = tuple(str(s) for s in self.species)
        units = tuple(str(u) for u in self.units) if self.units else ("",) * len(species)
        if matrix.shape[0] != len(species):
            raise RaggedRows(
                f"{matrix.shape[0]} concentration rows but {len(species)} species"
            )
        if len(units) != len(species):
            raise RaggedRows(f"{len(units)} units for {len(species)} species")
        if not np.all(np.isfinite(matrix)):
            raise NonFiniteValue("non-finite concentration value")
        if np.any(matrix < 0):
            r, c = np.argwhere(matrix < 0)[0]
            raise NegativeConcentration(
                f"negative concentration {matrix[r, c]:.9g} for species "
                f"{species[int(r)]!r}, sample column {int(c)}"
            )
        # C order, as in SpectraSet: a CSV body is Fortran-ordered, and a
        # fit's mean over samples must sum in one order from every source
        object.__setattr__(self, "matrix", _frozen_array(matrix, order="C"))
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "units", units)

    @property
    def n_species(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[1]

    def select_columns(self, indices: Sequence[int]) -> "ConcentrationSet":
        idx = list(indices)
        return ConcentrationSet(self.matrix[:, idx], self.species, self.units)


# --- CSV I/O ------------------------------------------------------------------

def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh)]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _parse_cell(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise NonFiniteValue(f"{where}: cannot parse {text!r} as a number") from exc
    if not math.isfinite(value):
        raise NonFiniteValue(f"{where}: non-finite value {text!r}")
    return value


def load_spectra(path, format: str = "wide-csv") -> SpectraSet:
    """Read a wide CSV of spectra; column order becomes sample order."""
    if format != "wide-csv":
        raise IoFailure(f"unsupported spectra format {format!r}")
    rows = _read_rows(path)
    if not rows:
        raise IoFailure(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != AXIS_HEADER:
        raise IoFailure(
            f"{path}: first column header must be {AXIS_HEADER!r}, got "
            f"{header[0] if header else ''!r}"
        )
    labels = header[1:]
    if not labels:
        raise IoFailure(f"{path}: no spectrum columns after the axis column")
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise LabelMismatch(f"{path}: duplicate spectrum labels {dup}")
    width = len(header)
    body = rows[1:]
    # one numpy conversion of the whole body; its str -> float parse accepts
    # exactly what float() accepts, and reshape fails unless every row has
    # the header's width
    try:
        table = np.array(body, dtype=float).reshape(len(body), width)
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():
        _raise_first_bad_cell(path, body, labels)
    return SpectraSet(table[:, 0], table[:, 1:].T, tuple(labels))


def _raise_first_bad_cell(path, body: list[list[str]], labels: list[str]) -> None:
    """Raise the error a cell-by-cell parse meets first, in file order.

    Within a row the width is checked before the axis cell and the axis
    cell before the data cells.
    """
    width = len(labels) + 1
    for r, row in enumerate(body, start=2):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {r} has {len(row)} cells, expected {width}"
            )
        _parse_cell(row[0], f"{path}: row {r}, axis")
        for c, cell in enumerate(row[1:]):
            _parse_cell(cell, f"{path}: row {r}, column {labels[c]!r}")
    raise NonFiniteValue(f"{path}: cannot parse the spectra table")


def _check_header_labels(path, labels: Sequence[str],
                         what: str = "label") -> None:
    """Refuse names that would not read back: loading strips their cells."""
    for label in map(str, labels):
        if label != label.strip():
            raise LabelMismatch(
                f"{path}: {what} {label!r} has leading or trailing "
                f"whitespace, which loading strips"
            )


def save_spectra(path, spectra: SpectraSet) -> None:
    """Write a SpectraSet back to the wide CSV format."""
    _check_header_labels(path, spectra.labels)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([AXIS_HEADER, *spectra.labels])
            for r in range(spectra.n_channels):
                writer.writerow(
                    [_fmt(spectra.axis[r])]
                    + [_fmt(v) for v in spectra.matrix[:, r]]
                )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_concentrations(path, labels: Sequence[str] | None = None) -> ConcentrationSet:
    """Read a concentrations CSV, reordering columns to match ``labels``.

    With ``labels`` given (the spectra sample order), columns are aligned by
    label and a LabelMismatch is raised if the two sets differ; without it
    the file order is kept.
    """
    rows = _read_rows(path)
    if not rows:
        raise IoFailure(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 3 or header[0] != "species" or header[1] != "unit":
        raise IoFailure(
            f"{path}: header must start with 'species,unit', got {header[:2]}"
        )
    file_labels = header[2:]
    if len(set(file_labels)) != len(file_labels):
        dup = sorted({x for x in file_labels if file_labels.count(x) > 1})
        raise LabelMismatch(f"{path}: duplicate sample labels {dup}")
    species, units = [], []
    data = np.empty((len(rows) - 1, len(file_labels)))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise RaggedRows(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        species.append(row[0].strip())
        units.append(row[1].strip())
        for c, cell in enumerate(row[2:]):
            value = _parse_cell(cell, f"{path}: row {r}, sample {file_labels[c]!r}")
            if value < 0:
                raise NegativeConcentration(
                    f"{path}: negative concentration {value:.9g} for species "
                    f"{row[0].strip()!r}, sample {file_labels[c]!r}"
                )
            data[r - 2, c] = value
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
    return ConcentrationSet(data, tuple(species), tuple(units))


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
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["species", "unit", *labels])
            for r in range(conc.n_species):
                writer.writerow(
                    [conc.species[r], conc.units[r]]
                    + [_fmt(v) for v in conc.matrix[r]]
                )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def save_matrix(path, matrix, headers: Sequence[str],
                row_labels: Sequence[str] | None = None,
                row_label_header: str = "label") -> None:
    """Write a rectangular matrix as CSV; NaN cells become literal 'nan'."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise RaggedRows(f"save_matrix needs a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise EmptyMatrix(f"refusing to write empty matrix of shape {arr.shape}")
    if len(headers) != arr.shape[1]:
        raise RaggedRows(
            f"{len(headers)} headers for {arr.shape[1]} matrix columns"
        )
    if row_labels is not None and len(row_labels) != arr.shape[0]:
        raise RaggedRows(
            f"{len(row_labels)} row labels for {arr.shape[0]} matrix rows"
        )
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if row_labels is None:
                writer.writerow(list(headers))
                for row in arr:
                    writer.writerow([_fmt(v) for v in row])
            else:
                writer.writerow([row_label_header, *headers])
                for label, row in zip(row_labels, arr):
                    writer.writerow([label] + [_fmt(v) for v in row])
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
