import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specsel.errors import RecipeSpeciesMismatch, SpecselError
from specsel.spectra import ConcentrationSet, load_spectra, save_spectra
from specsel.synth import (
    CONC_STREAM,
    BaselineSpec,
    SpeciesSpec,
    SynthRecipe,
    baseline_shape,
    generate,
    phantom_concentrations,
    recipe_from_dict,
    species_response,
    tears_phantom,
    tears_recipe,
)

from conftest import mixture_species, noiseless_mixtures


class TestGenerate:
    def test_linear_in_concentrations(self):
        spectra, conc, recipe = noiseless_mixtures(n_samples=10, n_species=3)
        responses = np.vstack([species_response(s, spectra.axis)
                               for s in recipe.species])
        # solve each spectrum for its mixing weights: must recover conc
        recovered, *_ = np.linalg.lstsq(responses.T, spectra.matrix.T,
                                        rcond=None)
        assert_allclose(recovered, conc.matrix, rtol=1e-10, atol=1e-12)

    def test_seeded_determinism(self):
        _, conc, recipe = noiseless_mixtures(n_samples=6)
        a = generate(recipe, conc)
        b = generate(recipe, conc)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.labels == b.labels

    def test_noise_level(self):
        species = mixture_species(2)
        conc_values = np.tile([[0.6], [0.9]], (1, 40))
        conc = ConcentrationSet(conc_values,
                                tuple(s.name for s in species), ("u", "u"))
        quiet = SynthRecipe(species=species, noise_sigma=0.0, seed=77)
        noisy = SynthRecipe(species=species, noise_sigma=0.01, seed=77)
        clean = generate(quiet, conc)
        loud = generate(noisy, conc)
        reference = float(np.abs(clean.matrix[0]).max())
        residual = loud.matrix - clean.matrix
        sigma = residual.std(axis=0, ddof=1).mean()
        assert abs(sigma - 0.01 * reference) < 0.2 * 0.01 * reference

    def test_species_mismatch(self):
        # renamed, or the recipe's names in another order
        _, conc, recipe = noiseless_mixtures(n_samples=6)
        for species in (("x", "y", "z"), conc.species[::-1]):
            other = ConcentrationSet(conc.matrix, species, conc.units)
            with pytest.raises(RecipeSpeciesMismatch, match="^" + re.escape(
                    f"recipe species {list(conc.species)} != concentration "
                    f"species {list(species)}") + "$"):
                generate(recipe, other)

    def test_rank_equals_varying_species(self):
        spectra, _, _ = noiseless_mixtures(n_samples=10, n_species=3)
        centered = spectra.matrix - spectra.matrix.mean(axis=0)
        singulars = np.linalg.svd(centered, compute_uv=False)
        assert (singulars > 1e-9 * singulars[0]).sum() == 3

    def test_spikes_applied(self):
        species = mixture_species(1)
        conc = ConcentrationSet(np.full((1, 5), 1.0), ("sp0",), ("u",))
        base = SynthRecipe(species=species, seed=3)
        spiked = SynthRecipe(species=species, spike_rate=3.0,
                             spike_amplitude=(5.0, 10.0), seed=3)
        a = generate(base, conc)
        b = generate(spiked, conc)
        assert np.any(b.matrix != a.matrix)
        assert b.matrix.max() > 4.0 * a.matrix.max()

    def test_io_round_trip_lossless(self, tmp_path):
        spectra, _, _ = noiseless_mixtures(n_samples=5)
        path = tmp_path / "synth.csv"
        save_spectra(path, spectra)
        again = load_spectra(path)
        assert np.array_equal(again.matrix, spectra.matrix)
        assert np.array_equal(again.axis, spectra.axis)

    def test_bad_recipe(self):
        one = (SpeciesSpec("a", ()),)
        with pytest.raises(SpecselError,
                           match="^axis must be increasing with step > 0$"):
            SynthRecipe(axis_start=500.0, axis_stop=400.0, species=one)
        with pytest.raises(SpecselError):
            SynthRecipe(species=(SpeciesSpec("a", ((100.0, 5.0, 1.0),)),))
        with pytest.raises(SpecselError):
            SynthRecipe(species=(SpeciesSpec("a", ((500.0, -1.0, 1.0),)),))
        with pytest.raises(SpecselError):
            SpeciesSpec("a", (), conc_range=(2, 1))
        with pytest.raises(SpecselError):
            SpeciesSpec("a", ((500.0, 5.0),))
        with pytest.raises(SpecselError):
            BaselineSpec("exp_decay", (1.0,))
        with pytest.raises(SpecselError):
            BaselineSpec("nope")
        with pytest.raises(SpecselError):
            BaselineSpec("exp_decay", (1.0, 0.0))
        with pytest.raises(SpecselError,
                           match=r"^noise_sigma must be >= 0, got -0\.5$"):
            SynthRecipe(noise_sigma=-0.5, species=one)

    @pytest.mark.parametrize("edit,message", [
        (lambda r: dataclasses.replace(r, noise_sigma=-0.5),
         r"^noise_sigma must be >= 0, got -0\.5$"),
        (lambda r: dataclasses.replace(r, drift_range=(1.5, 0.5)),
         r"^drift_range must satisfy lo <= hi, got \[1\.5, 0\.5\]$"),
        (lambda r: dataclasses.replace(r, spike_rate=-1),
         r"^spike_rate must be in \[0, 701\]"),
        (lambda r: dataclasses.replace(r.baseline, scale_range=(2.0, 1.0)),
         r"^scale_range must satisfy lo <= hi, got \[2\.0, 1\.0\]$"),
        (lambda r: dataclasses.replace(r, axis_stop=900.0),
         "glucose.*outside the axis"),
        (lambda r: dataclasses.replace(r.species[0], unit=None),
         r"^unit must be a string, got None$"),
        (lambda r: dataclasses.replace(r.species[0], name=["a", "b"]),
         r"^name must be a string, got \['a', 'b'\]$"),
        (lambda r: dataclasses.replace(r.species[0], peaks=5),
         r"^peaks must be a list, got 5$"),
        (lambda r: dataclasses.replace(r, species=()),
         r"^species must be a non-empty list, got \(\)$"),
        (lambda r: dataclasses.replace(r, species=(r.species[0], "g")),
         r"^species 1 must be an object, got 'g'$"),
        (lambda r: dataclasses.replace(r, species=[{"peaks": []}]),
         r"^species 0 has no 'name' entry$"),
        (lambda r: dataclasses.replace(r, baseline="exp_decay"),
         r"^baseline must be an object, got 'exp_decay'$"),
        (lambda r: dataclasses.replace(r, seed=-1),
         r"^seed must be a non-negative integer, got -1$"),
        (lambda r: dataclasses.replace(r, seed=1.5),
         r"^seed must be a non-negative integer, got 1\.5$"),
        (lambda r: dataclasses.replace(r, seed="x"),
         r"^seed must be a non-negative integer, got 'x'$"),
        (lambda r: dataclasses.replace(r, seed=True),
         r"^seed must be a non-negative integer, got True$"),
    ], ids=["noise_sigma", "drift_range", "spike_rate", "scale_range",
            "peak_outside_axis", "unit_none", "name_list", "peaks_number",
            "species_empty",
            "species_string", "species_no_name", "baseline_string",
            "seed_negative", "seed_float", "seed_string", "seed_bool"])
    def test_replace_checks_like_a_config(self, edit, message):
        # a recipe edited in Python passes the checks a config's recipe does
        with pytest.raises(SpecselError, match=message):
            edit(tears_recipe())

    @pytest.mark.parametrize("edit", [
        lambda r: {"species": [dataclasses.asdict(r.species[0]),
                               r.species[1]]},
        lambda r: {"baseline": dataclasses.asdict(r.baseline)},
        lambda r: {"seed": np.int64(r.seed)},
    ], ids=["species_mapping", "baseline_mapping", "seed_numpy"])
    def test_equal_forms_build_the_same_recipe(self, edit):
        recipe = tears_recipe(3)
        edited = dataclasses.replace(recipe, **edit(recipe))
        assert edited == recipe
        assert type(edited.seed) is int

    def test_sequences_are_normalized(self):
        as_arrays = SpeciesSpec("a", np.array([[500, 5, 1], [600, 7, 2]]),
                                response_coeff=np.float64(2),
                                conc_range=np.array([0, 2]))
        as_lists = SpeciesSpec("a", [[500, 5, 1], [600, 7, 2]], 2,
                               conc_range=[0, 2])
        assert as_arrays == as_lists == SpeciesSpec(
            "a", ((500.0, 5.0, 1.0), (600.0, 7.0, 2.0)), 2.0,
            conc_range=(0.0, 2.0))
        assert type(as_arrays.peaks[0][0]) is float
        recipe = SynthRecipe(species=[as_lists], drift_range=np.array([1, 2]),
                             baseline=BaselineSpec("polynomial", [1, 2, 3]))
        assert recipe.species == (as_lists,)
        assert recipe.drift_range == (1.0, 2.0)
        assert recipe.baseline.coeffs == (1.0, 2.0, 3.0)


class TestPolynomialBaseline:
    def test_sums_powers_of_the_unit_axis(self):
        axis = 400.0 + 5.0 * np.arange(41)
        u = (axis - 400.0) / 200.0
        shape = baseline_shape(BaselineSpec("polynomial", (0.5, -1.0, 2.0)),
                               axis)
        assert_allclose(shape, 0.5 - 1.0 * u + 2.0 * u ** 2, rtol=0,
                        atol=1e-12)

    def test_recipe_synthesizes_finite_spectra(self):
        cfg = dict(TestRecipeFromDict.CONFIG, baseline={
            "kind": "polynomial", "coeffs": [1.0, -0.5, 0.25]})
        recipe = recipe_from_dict(cfg, seed=3)
        assert recipe.baseline == BaselineSpec("polynomial", (1.0, -0.5, 0.25))
        spectra = generate(recipe, phantom_concentrations(recipe, 6))
        assert spectra.matrix.shape == (6, 301)
        assert np.isfinite(spectra.matrix).all()


class TestTearsPhantom:
    def test_sizes_and_ranges(self):
        spectra, conc = tears_phantom(40, seed=1)
        assert spectra.n_spectra == 40
        assert conc.species == ("glucose", "lysozyme")
        assert [s.conc_range for s in tears_recipe().species] == [(0.0, 1.0),
                                                                  (0.0, 10.0)]
        glucose, lysozyme = conc.matrix
        assert np.all((glucose >= 0.0) & (glucose <= 1.0))
        assert np.all((lysozyme >= 0.0) & (lysozyme <= 10.0))

    def test_seeded_determinism(self):
        a_spec, a_conc = tears_phantom(8, seed=5)
        b_spec, b_conc = tears_phantom(8, seed=5)
        assert np.array_equal(a_spec.matrix, b_spec.matrix)
        assert np.array_equal(a_conc.matrix, b_conc.matrix)
        c_spec, _ = tears_phantom(8, seed=6)
        assert not np.array_equal(a_spec.matrix, c_spec.matrix)

    def test_baseline_drift_present(self):
        recipe = tears_recipe(seed=2)
        assert recipe.baseline is not None
        assert recipe.noise_sigma > 0
        lo, hi = recipe.drift_range
        assert lo < 1.0 < hi

    def test_minimum_size(self):
        with pytest.raises(SpecselError):
            tears_phantom(3)

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 3), (8, 7), (40, 11),
                                        (1000, 3)])
    def test_fixed_draws(self, n, seed):
        # glucose then lysozyme, uniform on their ranges, from the
        # concentration substream
        rng = np.random.default_rng((seed, CONC_STREAM))
        glucose = rng.uniform(0.0, 1.0, n)
        lysozyme = rng.uniform(0.0, 10.0, n)
        _, conc = tears_phantom(n, seed)
        assert np.array_equal(conc.matrix, np.vstack([glucose, lysozyme]))
        assert conc.units == ("mg/mL", "mg/mL")


class TestRecipeFromDict:
    CONFIG = {
        "axis_start": 400, "axis_stop": 1000, "axis_step": 2,
        "species": [
            {"name": "analyte", "peaks": [[600, 10, 1.0], [850, 12, 0.6]],
             "conc_range": [0.0, 2.0]},
            {"name": "other", "peaks": [[700, 5, 2]], "response_coeff": 3,
             "unit": "%"},
        ],
        "baseline": {"kind": "exp_decay", "coeffs": [3.0, 500.0],
                     "scale_range": [0.8, 1.2]},
        "noise_sigma": 0.005,
    }

    def test_fields(self):
        recipe = recipe_from_dict(self.CONFIG, seed=4)
        assert recipe == SynthRecipe(
            axis_start=400.0, axis_stop=1000.0, axis_step=2.0,
            species=(
                SpeciesSpec("analyte", ((600.0, 10.0, 1.0), (850.0, 12.0, 0.6)),
                            conc_range=(0.0, 2.0)),
                SpeciesSpec("other", ((700.0, 5.0, 2.0),), 3.0, "%"),
            ),
            baseline=BaselineSpec("exp_decay", (3.0, 500.0), (0.8, 1.2)),
            noise_sigma=0.005,
            seed=4,
        )

    def test_concentration_ranges(self):
        recipe = recipe_from_dict(self.CONFIG, seed=4)
        assert [s.conc_range for s in recipe.species] == [(0.0, 2.0),
                                                          (0.0, 1.0)]
        conc = phantom_concentrations(recipe, 50)
        assert conc.species == ("analyte", "other")
        assert conc.units == ("mg/mL", "%")
        assert conc.matrix[0].max() > 1.0 and conc.matrix[0].max() < 2.0
        assert conc.matrix[1].max() < 1.0

    @pytest.mark.parametrize("edit,message", [
        ({"species": []}, "recipe species must be a non-empty list"),
        ({"species": [{"peaks": []}]}, "recipe species 0 has no 'name' entry"),
        ({"species": ["g"]}, "recipe species 0 must be an object"),
        ({"species": [{"name": "g", "peaks": [[600, 10]]}]},
         "recipe species 0 peak must have 3 numbers, got 2"),
        ({"axis_stop": None}, "recipe axis_stop must be a finite number"),
        ({"noise_sigma": float("nan")},
         "recipe noise_sigma must be a finite number"),
        ({"drift_range": 1.0}, "recipe drift_range must be a list of numbers"),
        ({"baseline": {"coeffs": [1.0]}},
         "recipe baseline coeffs must have 2 numbers, got 1"),
        ({"baseline": {"kind": "nope"}},
         "recipe baseline kind must be 'exp_decay' or 'polynomial', "
         "got 'nope'"),
        ({"noise_sigma": -0.5}, "recipe noise_sigma must be >= 0, got -0.5"),
        ({"species": [{"name": "g", "peaks": [[600, 0, 1]]}]},
         "recipe species 0 peak width must be > 0, got 0.0"),
        # the Lorentzian's hwhm ** 2 raised OverflowError
        ({"species": [{"name": "g", "peaks": [[600, 1e200, 1]]}]},
         r"^recipe species 0 'g' peak at 600 cm-1: width 1e\+200 squared "
         r"is not a normal float$"),
        # the square underflowed to 0 and the Lorentzian divided by it
        ({"species": [{"name": "g", "peaks": [[600, 1e-170, 1]]}]},
         r"^recipe species 0 'g' peak at 600 cm-1: width 1e-170 squared "
         r"is not a normal float$"),
    ], ids=["no_species", "no_name", "species_not_object", "short_peak",
            "axis_stop", "nan", "drift_range", "exp_decay_coeffs",
            "baseline_kind", "noise_sigma_negative", "zero_width",
            "width_squared_overflows", "width_squared_underflows"])
    def test_malformed_entries(self, edit, message):
        with pytest.raises(SpecselError, match=message):
            recipe_from_dict({**self.CONFIG, **edit}, seed=0)

    def test_unknown_keys_are_ignored(self):
        cfg = {**self.CONFIG, "comment": "x", "seed": 99,
               "baseline": {**self.CONFIG["baseline"], "note": 1},
               "species": [{**sp, "color": "red"}
                           for sp in self.CONFIG["species"]]}
        assert recipe_from_dict(cfg, seed=4) == recipe_from_dict(self.CONFIG,
                                                                 seed=4)

    def test_bad_concentration_range(self):
        cfg = {"species": [{"name": "g", "peaks": [], "conc_range": [0, "x"]}]}
        with pytest.raises(SpecselError,
                           match="recipe species 0 conc_range must be a "
                                 "finite number"):
            recipe_from_dict(cfg, seed=0)

    @pytest.mark.parametrize("bounds", [[2, 1], [-1, 1]],
                             ids=["lo_above_hi", "negative_lo"])
    def test_concentration_range_bounds(self, bounds):
        good = {"name": "g", "peaks": [], "conc_range": [0, 1]}
        cfg = {"species": [good, {**good, "conc_range": bounds}]}
        with pytest.raises(SpecselError,
                           match=r"^recipe species 1 conc_range must satisfy "
                                 r"0 <= lo <= hi, got \[%s, %s\]$"
                                 % (float(bounds[0]), float(bounds[1]))):
            recipe_from_dict(cfg, seed=0)


def ranged_recipe(bounds, seed):
    """A peakless recipe whose species k draws from bounds[k]."""
    return SynthRecipe(species=tuple(
        SpeciesSpec(f"sp{k}", (), conc_range=b) for k, b in enumerate(bounds)),
        seed=seed)


class TestPhantomConcentrations:
    # numpy's uniform returns hi when lo + (hi - lo) * u rounds up, with
    # odds of about ulp(hi) / (hi - lo) per draw; widths of at least 1e-3
    # keep those odds below 1e-11
    BOUNDS = st.lists(
        st.tuples(st.floats(0.0, 100.0), st.floats(1e-3, 100.0)).map(
            lambda lw: (lw[0], lw[0] + lw[1])), min_size=1, max_size=4)

    @settings(max_examples=60, deadline=None)
    @given(bounds=BOUNDS, n=st.integers(1, 50), seed=st.integers(0, 2**32),
           other=st.integers(0, 2**32))
    def test_draws_follow_recipe(self, bounds, n, seed, other):
        recipe = ranged_recipe(bounds, seed)
        conc = phantom_concentrations(recipe, n)
        assert conc.matrix.shape == (len(bounds), n)
        for row, (lo, hi) in zip(conc.matrix, bounds):
            assert np.all((row >= lo) & (row < hi))
        again = phantom_concentrations(ranged_recipe(bounds, seed), n)
        assert np.array_equal(again.matrix, conc.matrix)
        if other != seed:
            moved = phantom_concentrations(
                dataclasses.replace(recipe, seed=other), n)
            assert not np.array_equal(moved.matrix, conc.matrix)

    def test_no_spectra_refused(self):
        with pytest.raises(SpecselError, match=r"^phantom set needs at least "
                                               r"1 spectrum, got 0$"):
            phantom_concentrations(tears_recipe(), 0)
