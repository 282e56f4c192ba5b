import numpy as np
import pytest

from specsel.spectra import ConcentrationSet, SpectraSet
from specsel import synth


def mixture_species(n_species=3):
    """Distinct Lorentzian peak sets, one per species."""
    return tuple(
        synth.SpeciesSpec(
            name=f"sp{k}",
            peaks=tuple(
                (520.0 + 310.0 * k + 90.0 * p, 9.0 + 2.5 * p, 1.0 - 0.2 * p)
                for p in range(3)
            ),
        )
        for k in range(n_species)
    )


def noiseless_mixtures(n_samples=10, n_species=3, conc_seed=7, recipe_seed=5):
    """Exactly linear spectra: no baseline, no drift, no noise."""
    species = mixture_species(n_species)
    recipe = synth.SynthRecipe(
        axis_start=400.0, axis_stop=1800.0, axis_step=2.0,
        species=species, seed=recipe_seed,
    )
    rng = np.random.default_rng(conc_seed)
    conc = ConcentrationSet(
        rng.uniform(0.2, 1.0, (n_species, n_samples)),
        tuple(s.name for s in species),
        ("u",) * n_species,
    )
    return synth.generate(recipe, conc), conc, recipe


def subset(spectra, indices):
    """The spectra at ``indices``, in that order, with their labels."""
    idx = list(indices)
    return SpectraSet(spectra.axis, spectra.matrix[idx, :],
                      tuple(spectra.labels[n] for n in idx))


def select_columns(conc, indices):
    """The concentration columns (samples) at ``indices``, in that order."""
    return ConcentrationSet(conc.matrix[:, list(indices)], conc.species,
                            conc.units)


def weak_third_direction():
    """Six spectra of three directions, the third 1e-8 as strong as the
    other two: beyond the scores' condition limit, so no fit uses it."""
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.5, 2.0, (6, 3)) * [1.0, 1.0, 1e-8]
    spectra = SpectraSet(400.0 + 2.0 * np.arange(12),
                         weights @ rng.normal(size=(3, 12)),
                         tuple(f"s{n}" for n in range(6)))
    return spectra, ConcentrationSet(weights[:, :2].T, ("a", "b"), ("u", "u"))


def snv_collapsed_fold():
    """Five offset and scaled copies of one spectrum plus one other. snv
    maps the copies onto one spectrum, so the fold holding out s5 has no
    component under snv; identity keeps two directions in every fold."""
    rng = np.random.default_rng(11)
    shape, other = rng.normal(size=(2, 20))
    copies = rng.uniform(0.5, 2.0, (5, 1)) * shape + rng.uniform(-1, 1, (5, 1))
    spectra = SpectraSet(400.0 + 2.0 * np.arange(20),
                         np.vstack([copies, other]),
                         tuple(f"s{n}" for n in range(6)))
    return spectra, ConcentrationSet(rng.uniform(0.5, 2.0, (1, 6)), ("a",),
                                     ("u",))


def random_spectra_set(i=6, j=40, seed=0):
    rng = np.random.default_rng(seed)
    axis = 400.0 + 2.0 * np.arange(j)
    return SpectraSet(axis, rng.normal(size=(i, j)),
                      tuple(f"s{n}" for n in range(i)))


@pytest.fixture
def tiny_set():
    return random_spectra_set(i=5, j=12, seed=3)
