"""Synthetic biofluid-like spectrum generation with known ground truth.

Spectra are Beer-Lambert-style linear mixtures of per-species Lorentzian
responses, optionally corrupted by a slowly varying baseline with a random
per-spectrum scale, a random multiplicative amplitude drift, white noise,
and cosmic-ray spikes. Everything is driven by per-spectrum substreams of
one seed, so generation is reproducible and scheduling-independent.

Each recipe dataclass checks its own fields when built, so a recipe from
Python, ``dataclasses.replace`` or a config passes the same checks.
SynthRecipe takes its species and baseline as specs or as mappings of their
fields, and refuses a seed that is not a non-negative integer and an axis
step too fine for one array to hold the axis; ``recipe_from_dict`` only adds
the seed. Peak positions are synthetic by construction; they make no claim
of spectroscopic fidelity for any real analyte.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import RecipeSpeciesMismatch, SpecselError
from .spectra import ConcentrationSet, SpectraSet, _check_unique, _number


# --- field conversion, shared by every recipe dataclass ---------------------
# each number by spectra._number, the rule of every JSON file specsel reads

def _numbers(value, what: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise SpecselError(f"{what} must be a list of numbers, got {value!r}")
    numbers = tuple(_number(v, what) for v in value)
    if length is not None and len(numbers) != length:
        raise SpecselError(
            f"{what} must have {length} numbers, got {len(numbers)}"
        )
    return numbers


def _range(value, what: str, floor: float = -math.inf) -> tuple[float, float]:
    """(lo, hi) with floor <= lo <= hi."""
    lo, hi = _numbers(value, what, 2)
    if not floor <= lo <= hi:
        rule = "lo <= hi" if floor == -math.inf else f"{floor:g} <= lo <= hi"
        raise SpecselError(f"{what} must satisfy {rule}, got [{lo}, {hi}]")
    return lo, hi


def _set(spec, **values) -> None:
    """Store converted fields on a frozen dataclass."""
    for name, value in values.items():
        object.__setattr__(spec, name, value)


@dataclass(frozen=True)
class SpeciesSpec:
    """One analyte: Lorentzian peaks scaled per unit concentration, and the
    (lo, hi) range its phantom concentrations are drawn uniformly from."""

    name: str
    peaks: tuple[tuple[float, float, float], ...]  # (center cm-1, hwhm cm-1, amplitude)
    response_coeff: float = 1.0
    unit: str = "mg/mL"
    conc_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not isinstance(self.peaks, (list, tuple, np.ndarray)):
            raise SpecselError(f"peaks must be a list, got {self.peaks!r}")
        peaks = tuple(_numbers(peak, "peak", 3) for peak in self.peaks)
        for center, width, _amp in peaks:
            if width <= 0:
                raise SpecselError(f"peak width must be > 0, got {width}")
            # the Lorentzian divides by the width's square
            if not np.finfo(float).tiny <= width * width < math.inf:
                raise SpecselError(f"{self.name!r} peak at {center:g} cm-1: "
                                   f"width {width:g} squared is not a normal float")
        for key in ("name", "unit"):
            if not isinstance(value := getattr(self, key), str):
                raise SpecselError(f"{key} must be a string, got {value!r}")
        _set(self, peaks=peaks,
             response_coeff=_number(self.response_coeff, "response_coeff"),
             conc_range=_range(self.conc_range, "conc_range", 0.0))


@dataclass(frozen=True)
class BaselineSpec:
    """Slowly varying additive background with a per-spectrum random scale.

    kind 'exp_decay': coeffs = (amplitude, decay length cm-1 > 0), anchored at
    the axis start. kind 'polynomial': coeffs over the axis normalized to
    [0, 1].
    """

    kind: str = "exp_decay"
    coeffs: tuple[float, ...] = (1.0, 600.0)
    scale_range: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("exp_decay", "polynomial"):
            raise SpecselError(f"kind must be 'exp_decay' or 'polynomial', "
                               f"got {self.kind!r}")
        _set(self, coeffs=_numbers(self.coeffs, "coeffs",
                                   2 if self.kind == "exp_decay" else None),
             scale_range=_range(self.scale_range, "scale_range"))
        if self.kind == "exp_decay" and not self.coeffs[1] > 0:
            raise SpecselError(f"coeffs decay length must be > 0, "
                               f"got {self.coeffs[1]}")


# most float64 values one array can hold: numpy indexes bytes with intp;
# it bounds both the channel count and the spectrum count
_MAX_FLOAT64S_IN_ONE_ARRAY = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class SynthRecipe:
    axis_start: float = 400.0
    axis_stop: float = 1800.0
    axis_step: float = 2.0
    species: tuple[SpeciesSpec, ...] = ()
    baseline: BaselineSpec | None = None
    noise_sigma: float = 0.0          # relative to the clean signal peak
    spike_rate: float = 0.0           # expected spikes per spectrum
    spike_amplitude: tuple[float, float] = (5.0, 20.0)  # relative, like noise
    drift_range: tuple[float, float] = (1.0, 1.0)       # multiplicative
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.species, (list, tuple)) or not self.species:
            raise SpecselError(
                f"species must be a non-empty list, got {self.species!r}")
        if isinstance(self.seed, bool) or not isinstance(
                self.seed, (int, np.integer)) or self.seed < 0:
            raise SpecselError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        _set(self, **{name: _number(getattr(self, name), name) for name in (
            "axis_start", "axis_stop", "axis_step", "noise_sigma",
            "spike_rate")}, seed=int(self.seed),
             species=tuple(_from_dict(SpeciesSpec, spec, f"species {n}")
                           for n, spec in enumerate(self.species)),
             baseline=None if self.baseline is None else _from_dict(
                 BaselineSpec, self.baseline, "baseline"),
             spike_amplitude=_range(self.spike_amplitude, "spike_amplitude"),
             drift_range=_range(self.drift_range, "drift_range"))
        if self.axis_step <= 0 or self.axis_stop <= self.axis_start:
            raise SpecselError("axis must be increasing with step > 0")
        steps = (self.axis_stop - self.axis_start) / self.axis_step
        if not steps < _MAX_FLOAT64S_IN_ONE_ARRAY:  # an infinite count too
            raise SpecselError(
                f"axis_step {self.axis_step!r} gives {steps:g} channels; one "
                f"float64 array holds at most {_MAX_FLOAT64S_IN_ONE_ARRAY}")
        _check_unique([spec.name for spec in self.species], "species")
        for spec in self.species:
            for center, _width, _amp in spec.peaks:
                if not self.axis_start <= center <= self.axis_stop:
                    raise SpecselError(
                        f"species {spec.name!r}: peak at {center:g} cm-1 is "
                        f"outside the axis"
                    )
        if self.noise_sigma < 0:
            raise SpecselError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.spike_rate <= self.n_channels:
            raise SpecselError(
                f"spike_rate must be in [0, {self.n_channels}] (the channel "
                f"count), got {self.spike_rate}")

    @property
    def n_channels(self) -> int:
        return round((self.axis_stop - self.axis_start) / self.axis_step) + 1

    def axis(self) -> np.ndarray:
        return self.axis_start + self.axis_step * np.arange(self.n_channels,
                                                            dtype=float)


def _lorentzian(axis: np.ndarray, center: float, hwhm: float) -> np.ndarray:
    return hwhm ** 2 / ((axis - center) ** 2 + hwhm ** 2)


def species_response(spec: SpeciesSpec, axis: np.ndarray) -> np.ndarray:
    """Response per unit concentration on the given axis."""
    response = np.zeros_like(axis)
    for center, width, amplitude in spec.peaks:
        response += amplitude * _lorentzian(axis, center, width)
    return spec.response_coeff * response


def baseline_shape(spec: BaselineSpec, axis: np.ndarray) -> np.ndarray:
    if spec.kind == "exp_decay":
        amplitude, decay = spec.coeffs
        return amplitude * np.exp(-(axis - axis[0]) / decay)
    u = (axis - axis[0]) / (axis[-1] - axis[0])
    shape = np.zeros_like(axis)
    for degree, coeff in enumerate(spec.coeffs):
        shape += coeff * u ** degree
    return shape


def generate(recipe: SynthRecipe, conc: ConcentrationSet) -> SpectraSet:
    """Synthesize one spectrum per concentration column.

    Per spectrum, in a fixed draw order from its own substream: baseline
    scale, amplitude drift, noise vector, spike count, spike channels,
    spike amplitudes.
    """
    names = tuple(spec.name for spec in recipe.species)
    if names != conc.species:
        raise RecipeSpeciesMismatch(
            f"recipe species {list(names)} != concentration species "
            f"{list(conc.species)}"
        )
    axis = recipe.axis()
    responses = np.vstack([species_response(s, axis) for s in recipe.species])
    base = (baseline_shape(recipe.baseline, axis)
            if recipe.baseline is not None else np.zeros_like(axis))

    rows = np.empty((conc.n_samples, axis.size))
    for n in range(conc.n_samples):
        rng = _rng(recipe.seed, n)
        bscale = rng.uniform(*recipe.baseline.scale_range) if recipe.baseline else 0.0
        drift = rng.uniform(*recipe.drift_range)
        # a recipe value near the float maximum gives a non-finite
        # intensity, which a SpectraSet refuses
        with np.errstate(over="ignore", invalid="ignore"):
            clean = conc.matrix[:, n] @ responses
            signal = drift * (clean + bscale * base)
            ref = float(np.max(np.abs(signal))) or 1.0
            noise = (rng.normal(0.0, recipe.noise_sigma * ref, axis.size)
                     if recipe.noise_sigma > 0 else 0.0)
            row = signal + noise
            if recipe.spike_rate > 0:
                n_spikes = rng.poisson(recipe.spike_rate)
                channels = rng.integers(0, axis.size, n_spikes)
                amplitudes = rng.uniform(*recipe.spike_amplitude,
                                         n_spikes) * ref
                for channel, amp in zip(channels, amplitudes):
                    row[channel] += amp
        rows[n] = row
    labels = tuple(f"s{n:03d}" for n in range(conc.n_samples))
    return SpectraSet(axis, rows, labels)


# --- tear-fluid phantom -------------------------------------------------------

# the phantom's species, with physiological concentration ranges in mg/mL
_TEARS_SPECIES = (
    SpeciesSpec(
        name="glucose",
        peaks=((518.0, 10.0, 0.6), (911.0, 9.0, 0.8), (1060.0, 12.0, 1.0),
               (1125.0, 11.0, 0.7), (1365.0, 14.0, 0.5)),
        conc_range=(0.0, 1.0),
    ),
    SpeciesSpec(
        name="lysozyme",
        peaks=((760.0, 9.0, 0.9), (1004.0, 8.0, 1.0), (1250.0, 18.0, 0.6),
               (1450.0, 16.0, 0.7), (1660.0, 20.0, 0.8)),
        response_coeff=0.12,
        conc_range=(0.0, 10.0),
    ),
)

CONC_STREAM = 982451653  # substream tag separating concentration draws


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Generator of one substream of ``seed``; every draw here starts from one."""
    return np.random.default_rng((seed, stream))


def tears_recipe(seed: int = 0) -> SynthRecipe:
    """Default tear-phantom recipe: drifting fluorescent background plus noise."""
    return SynthRecipe(
        species=_TEARS_SPECIES,
        baseline=BaselineSpec("exp_decay", (2.0, 700.0), (0.6, 1.4)),
        noise_sigma=0.01,
        drift_range=(0.85, 1.15),
        seed=seed,
    )


def phantom(recipe: SynthRecipe, n: int
            ) -> tuple[SpectraSet, ConcentrationSet]:
    """n spectra of the recipe, at concentrations phantom_concentrations
    draws; leave-one-out needs at least 4."""
    if n < 4:
        raise SpecselError(f"phantom set needs at least 4 spectra, got {n}")
    conc = phantom_concentrations(recipe, n)
    return generate(recipe, conc), conc


def tears_phantom(n: int, seed: int = 0) -> tuple[SpectraSet, ConcentrationSet]:
    """n tear-like spectra with glucose and lysozyme in physiological ranges."""
    return phantom(tears_recipe(seed), n)


# --- recipes from JSON-style mappings ---------------------------------------

def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecselError(f"{what} must be an object, got {value!r}")
    return value


def _from_dict(cls, cfg, what: str):
    """cls from the mapping's keys that name its fields (others are ignored),
    or an instance of cls as it is; an error is prefixed with ``what``."""
    if isinstance(cfg, cls):
        return cfg
    cfg = _mapping(cfg, what)
    for f in fields(cls):
        if f.default is MISSING and f.name not in cfg:
            raise SpecselError(f"{what} has no {f.name!r} entry")
    try:
        return cls(**{f.name: cfg[f.name] for f in fields(cls)
                      if f.name in cfg})
    except SpecselError as exc:
        raise SpecselError(f"{what} {exc}") from None


def recipe_from_dict(cfg, seed: int = 0) -> SynthRecipe:
    """Recipe from a mapping such as the ``recipe`` key of a CLI config.

    Keys are SynthRecipe's fields, optional with the same defaults, except
    ``species``: a non-empty list of objects with SpeciesSpec's fields
    (``name`` and ``peaks``, a list of [center, hwhm, amplitude], are
    required). ``baseline`` is an object with BaselineSpec's fields. A
    ``seed`` key is ignored: this only adds ``seed`` and builds SynthRecipe,
    which converts and checks every field; a missing or refused entry raises
    SpecselError naming it.
    """
    return _from_dict(SynthRecipe, {**_mapping(cfg, "recipe"), "seed": seed},
                      "recipe")


def phantom_concentrations(recipe: SynthRecipe, n: int) -> ConcentrationSet:
    """n uniform draws per recipe species on its conc_range, from the
    recipe's seed; phantom draws its concentrations here too."""
    if n < 1:
        raise SpecselError(f"phantom set needs at least 1 spectrum, got {n}")
    if n > _MAX_FLOAT64S_IN_ONE_ARRAY:
        raise SpecselError(f"n {n} spectra: one float64 array holds at most "
                           f"{_MAX_FLOAT64S_IN_ONE_ARRAY}")
    rng = _rng(recipe.seed, CONC_STREAM)
    rows = [rng.uniform(*s.conc_range, n) for s in recipe.species]
    return ConcentrationSet(
        np.vstack(rows),
        species=tuple(s.name for s in recipe.species),
        units=tuple(s.unit for s in recipe.species),
    )
