"""Synthetic biofluid-like spectrum generation with known ground truth.

Spectra are Beer-Lambert-style linear mixtures of per-species Lorentzian
responses, optionally corrupted by a slowly varying baseline with a random
per-spectrum scale, a random multiplicative amplitude drift, white noise,
and cosmic-ray spikes. Everything is driven by per-spectrum substreams of
one seed, so generation is reproducible and scheduling-independent.

Peak positions are synthetic by construction; they make no claim of
spectroscopic fidelity for any real analyte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RecipeSpeciesMismatch, SpecselError
from .spectra import ConcentrationSet, SpectraSet


@dataclass(frozen=True)
class SpeciesSpec:
    """One analyte: Lorentzian peaks scaled per unit concentration, and the
    (lo, hi) range its phantom concentrations are drawn uniformly from."""

    name: str
    peaks: tuple[tuple[float, float, float], ...]  # (center cm-1, hwhm cm-1, amplitude)
    response_coeff: float = 1.0
    unit: str = "mg/mL"
    conc_range: tuple[float, float] = (0.0, 1.0)


@dataclass(frozen=True)
class BaselineSpec:
    """Slowly varying additive background with a per-spectrum random scale.

    kind 'exp_decay': coeffs = (amplitude, decay length cm-1), anchored at
    the axis start. kind 'polynomial': coeffs over the axis normalized to
    [0, 1].
    """

    kind: str = "exp_decay"
    coeffs: tuple[float, ...] = (1.0, 600.0)
    scale_range: tuple[float, float] = (1.0, 1.0)


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
        if self.axis_step <= 0 or self.axis_stop <= self.axis_start:
            raise SpecselError("recipe axis must be increasing with step > 0")
        for spec in self.species:
            for center, width, _amp in spec.peaks:
                if width <= 0:
                    raise SpecselError(
                        f"species {spec.name!r}: peak width must be > 0"
                    )
                if not self.axis_start <= center <= self.axis_stop:
                    raise SpecselError(
                        f"species {spec.name!r}: peak at {center:g} cm-1 is "
                        f"outside the axis"
                    )

    def axis(self) -> np.ndarray:
        n = int(round((self.axis_stop - self.axis_start) / self.axis_step)) + 1
        return float(self.axis_start) + float(self.axis_step) * np.arange(n, dtype=float)


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
    if spec.kind == "polynomial":
        u = (axis - axis[0]) / (axis[-1] - axis[0])
        shape = np.zeros_like(axis)
        for degree, coeff in enumerate(spec.coeffs):
            shape += coeff * u ** degree
        return shape
    raise SpecselError(f"unknown baseline kind {spec.kind!r}")


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
        clean = conc.matrix[:, n] @ responses
        signal = drift * (clean + bscale * base)
        ref = float(np.max(np.abs(signal))) or 1.0
        noise = (rng.normal(0.0, recipe.noise_sigma * ref, axis.size)
                 if recipe.noise_sigma > 0 else 0.0)
        row = signal + noise
        if recipe.spike_rate > 0:
            n_spikes = rng.poisson(recipe.spike_rate)
            channels = rng.integers(0, axis.size, n_spikes)
            amplitudes = rng.uniform(*recipe.spike_amplitude, n_spikes) * ref
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
        response_coeff=1.0,
        unit="mg/mL",
        conc_range=(0.0, 1.0),
    ),
    SpeciesSpec(
        name="lysozyme",
        peaks=((760.0, 9.0, 0.9), (1004.0, 8.0, 1.0), (1250.0, 18.0, 0.6),
               (1450.0, 16.0, 0.7), (1660.0, 20.0, 0.8)),
        response_coeff=0.12,
        unit="mg/mL",
        conc_range=(0.0, 10.0),
    ),
)

CONC_STREAM = 982451653  # substream tag separating concentration draws


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Generator of one substream of ``seed``; every draw here starts from one."""
    if seed < 0:
        raise SpecselError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng((seed, stream))


def tears_recipe(seed: int = 0) -> SynthRecipe:
    """Default tear-phantom recipe: drifting fluorescent background plus noise."""
    return SynthRecipe(
        species=_TEARS_SPECIES,
        baseline=BaselineSpec("exp_decay", (2.0, 700.0), (0.6, 1.4)),
        noise_sigma=0.01,
        spike_rate=0.0,
        drift_range=(0.85, 1.15),
        seed=seed,
    )


def tears_phantom(n: int, seed: int = 0) -> tuple[SpectraSet, ConcentrationSet]:
    """n tear-like spectra with glucose and lysozyme in physiological ranges."""
    if n < 4:
        raise SpecselError(f"phantom set needs at least 4 spectra, got {n}")
    recipe = tears_recipe(seed)
    conc = phantom_concentrations(recipe, n)
    return generate(recipe, conc), conc


# --- recipes from JSON-style mappings ---------------------------------------

def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecselError(f"{what} must be an object, got {value!r}")
    return value


def _number(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise SpecselError(f"{what} must be a finite number, got {value!r}")
    return number


def _numbers(value, what: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecselError(f"{what} must be a list of numbers, got {value!r}")
    numbers = tuple(_number(v, what) for v in value)
    if length is not None and len(numbers) != length:
        raise SpecselError(
            f"{what} must have {length} numbers, got {len(numbers)}"
        )
    return numbers


def _species_from_dict(cfg, what: str) -> SpeciesSpec:
    cfg = _mapping(cfg, what)
    for key in ("name", "peaks"):
        if key not in cfg:
            raise SpecselError(f"{what} has no {key!r} entry")
    peaks = cfg["peaks"]
    if not isinstance(peaks, list):
        raise SpecselError(f"{what} peaks must be a list, got {peaks!r}")
    lo, hi = _numbers(cfg.get("conc_range", (0.0, 1.0)),
                      f"{what} conc_range", 2)
    if not 0.0 <= lo <= hi:
        raise SpecselError(
            f"{what} conc_range must satisfy 0 <= lo <= hi, got [{lo}, {hi}]")
    return SpeciesSpec(
        name=str(cfg["name"]),
        peaks=tuple(_numbers(peak, f"{what} peak", 3) for peak in peaks),
        response_coeff=_number(cfg.get("response_coeff", 1.0),
                               f"{what} response_coeff"),
        unit=str(cfg.get("unit", "mg/mL")),
        conc_range=(lo, hi),
    )


def recipe_from_dict(cfg, seed: int) -> SynthRecipe:
    """Recipe from a mapping such as the ``recipe`` key of a CLI config.

    Keys are SynthRecipe's fields, optional with the same defaults, except
    ``species``: a non-empty list of objects with ``name`` and ``peaks`` (a
    list of [center, hwhm, amplitude]) and optional ``response_coeff``,
    ``unit`` and ``conc_range``. ``baseline`` is an object with
    BaselineSpec's fields. A missing or malformed entry raises SpecselError
    naming it.
    """
    cfg = _mapping(cfg, "recipe")
    species_cfg = cfg.get("species")
    if not isinstance(species_cfg, list) or not species_cfg:
        raise SpecselError(
            f"recipe species must be a non-empty list, got {species_cfg!r}"
        )
    species = tuple(_species_from_dict(s, f"recipe species {n}")
                    for n, s in enumerate(species_cfg))
    baseline = None
    if "baseline" in cfg:
        b = _mapping(cfg["baseline"], "recipe baseline")
        kind = b.get("kind", "exp_decay")
        baseline = BaselineSpec(
            kind=kind,
            coeffs=_numbers(b.get("coeffs", (1.0, 600.0)),
                            "recipe baseline coeffs",
                            2 if kind == "exp_decay" else None),
            scale_range=_numbers(b.get("scale_range", (1.0, 1.0)),
                                 "recipe baseline scale_range", 2),
        )
    return SynthRecipe(
        axis_start=_number(cfg.get("axis_start", 400.0), "recipe axis_start"),
        axis_stop=_number(cfg.get("axis_stop", 1800.0), "recipe axis_stop"),
        axis_step=_number(cfg.get("axis_step", 2.0), "recipe axis_step"),
        species=species,
        baseline=baseline,
        noise_sigma=_number(cfg.get("noise_sigma", 0.0), "recipe noise_sigma"),
        spike_rate=_number(cfg.get("spike_rate", 0.0), "recipe spike_rate"),
        spike_amplitude=_numbers(cfg.get("spike_amplitude", (5.0, 20.0)),
                                 "recipe spike_amplitude", 2),
        drift_range=_numbers(cfg.get("drift_range", (1.0, 1.0)),
                             "recipe drift_range", 2),
        seed=seed,
    )


def phantom_concentrations(recipe: SynthRecipe, n: int) -> ConcentrationSet:
    """n uniform draws per recipe species on its conc_range, from the
    recipe's seed; tears_phantom draws its concentrations here too."""
    if n < 1:
        raise SpecselError(f"phantom set needs at least 1 spectrum, got {n}")
    rng = _rng(recipe.seed, CONC_STREAM)
    rows = [rng.uniform(*s.conc_range, n) for s in recipe.species]
    return ConcentrationSet(
        np.vstack(rows),
        species=tuple(s.name for s in recipe.species),
        units=tuple(s.unit for s in recipe.species),
    )
