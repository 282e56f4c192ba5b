import dataclasses
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specsel.decompose import nipals_fit, pca_fit, project
from specsel.errors import (NonFiniteValue, ShapeMismatch, SingularScores,
                            SpecselError)
from specsel.preprocess import IDENTITY, parse_pipeline
from specsel.regress import (
    cumulative_estimates,
    load_model,
    pcr_fit,
    pcr_predict,
    press,
    save_model,
)
from specsel.selector import train_final
from specsel.spectra import ConcentrationSet, SpectraSet
from specsel.synth import tears_phantom

from conftest import noiseless_mixtures, random_spectra_set


class TestPcrFit:
    def test_concentration_equal_to_first_score(self):
        ss = random_spectra_set(i=8, j=40, seed=20)
        # coefficients are fitted one component at a time, exact only on
        # scores as orthogonal as pca_fit's (nipals_fit's meet only its tol)
        pca = pca_fit(ss, 3)
        conc = ConcentrationSet(
            np.maximum(pca.scores[:, 0] - pca.scores[:, 0].min(), 0.0)[None, :],
            ("a",), ("u",))
        model = pcr_fit(pca, conc)
        coeffs = model.coeffs[0]
        assert abs(coeffs[0] - 1.0) < 1e-10
        assert np.abs(coeffs[1:]).max() < 1e-10

    @pytest.mark.parametrize("extract", [nipals_fit, pca_fit],
                             ids=["nipals_fit", "pca_fit"])
    def test_matches_normal_equations_oracle(self, extract):
        ss = random_spectra_set(i=9, j=50, seed=21)
        pca = extract(ss, 4)
        rng = np.random.default_rng(22)
        conc = ConcentrationSet(rng.uniform(0.0, 2.0, (3, 9)),
                                ("a", "b", "c"), ("u",) * 3)
        model = pcr_fit(pca, conc)
        t = pca.scores
        centered = conc.matrix - conc.matrix.mean(axis=1)[:, None]
        oracle = centered @ t @ np.linalg.inv(t.T @ t)
        assert np.abs(model.coeffs - oracle).max() < 1e-10

    def test_huge_scores(self):
        # the score norms would overflow if squared directly, and a zero
        # coefficient from an infinite norm would go unnoticed
        ss = random_spectra_set(i=8, j=40, seed=20)
        rng = np.random.default_rng(26)
        conc = ConcentrationSet(rng.uniform(0.0, 2.0, (2, 8)), ("a", "b"),
                                ("u", "u"))
        base = pcr_fit(pca_fit(ss, 3), conc)
        huge_set = SpectraSet(ss.axis, ss.matrix * 2.0 ** 600, ss.labels)
        huge = pcr_fit(pca_fit(huge_set, 3), conc)
        # pca_fit divides by a power of two, so the coefficients are exact
        assert np.array_equal(huge.coeffs * 2.0 ** 600, base.coeffs)

    def test_score_norm_past_float_range(self):
        # finite scores whose norm overflows would get a zero coefficient
        ss = random_spectra_set(i=8, j=40, seed=20)
        pca = pca_fit(ss, 1)
        huge = dataclasses.replace(pca, scores=np.sign(pca.scores) * 1e308)
        conc = ConcentrationSet(np.ones((1, 8)), ("a",), ("u",))
        with pytest.raises(SingularScores,
                           match="^a score norm is not a normal float"):
            pcr_fit(huge, conc)

    def test_zero_concentrations(self):
        ss = random_spectra_set(i=6, j=30, seed=23)
        pca = nipals_fit(ss, 2)
        conc = ConcentrationSet(np.zeros((2, 6)), ("a", "b"), ("u", "u"))
        model = pcr_fit(pca, conc)
        assert np.abs(model.coeffs).max() == 0.0
        assert np.abs(model.mean_conc).max() == 0.0

    def test_refit_bit_identical(self):
        ss = random_spectra_set(i=7, j=35, seed=24)
        pca = nipals_fit(ss, 3)
        rng = np.random.default_rng(25)
        conc = ConcentrationSet(rng.uniform(0.0, 1.0, (2, 7)),
                                ("a", "b"), ("u", "u"))
        a = pcr_fit(pca, conc)
        b = pcr_fit(pca, conc)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_singular_scores(self):
        ss = random_spectra_set(i=7, j=35, seed=26)
        pca = nipals_fit(ss, 2)
        crushed = type(pca)(
            axis=pca.axis, mean_spectrum=pca.mean_spectrum,
            loadings=pca.loadings,
            scores=np.column_stack([pca.scores[:, 0], pca.scores[:, 0] * 1e-9]))
        conc = ConcentrationSet(np.ones((1, 7)), ("a",), ("u",))
        with pytest.raises(SingularScores):
            pcr_fit(crushed, conc)

    def test_no_components(self):
        ss = random_spectra_set(i=7, j=35, seed=28)
        pca = pca_fit(
            SpectraSet(ss.axis, np.tile(ss.matrix[0], (7, 1)), ss.labels), 2)
        assert pca.n_components == 0
        conc = ConcentrationSet(np.ones((1, 7)), ("a",), ("u",))
        with pytest.raises(SingularScores, match="^no usable component, so "
                                                 "no regression to fit$"):
            pcr_fit(pca, conc)

    def test_sample_count_mismatch(self):
        ss = random_spectra_set(i=7, j=35, seed=27)
        pca = nipals_fit(ss, 2)
        conc = ConcentrationSet(np.ones((1, 6)), ("a",), ("u",))
        with pytest.raises(ShapeMismatch):
            pcr_fit(pca, conc)


class TestPcrModel:
    @staticmethod
    def trained():
        spectra, conc, _ = noiseless_mixtures(n_samples=10, n_species=3)
        return pcr_fit(pca_fit(spectra, 3), conc)

    # the fields a model file can get wrong, set from Python instead
    @pytest.mark.parametrize("edit,message", [
        (lambda m: {"loadings": m.loadings[:-1]},
         "loadings has shape (700, 3), expected (701, 3)"),
        (lambda m: {"mean_spectrum": m.mean_spectrum[:-1]},
         "mean_spectrum has shape (700,), expected (701,)"),
        (lambda m: {"coeffs": m.coeffs[:2]},
         "coeffs has shape (2, 3), expected (3, 3)"),
        (lambda m: {"mean_conc": np.zeros(4)},
         "mean_conc has shape (4,), expected (3,)"),
        (lambda m: {"pipeline_name": 5}, "pipeline must be a string, got 5"),
        (lambda m: {"pipeline_name": None},
         "pipeline must be a string, got None"),
        (lambda m: {"species": "abc"},
         "species must be a list of strings, got 'abc'"),
        (lambda m: {"species": (0, 1, 2)},
         "species must be a list of strings, got (0, 1, 2)"),
        (lambda m: {"units": None}, "units must be a list of strings, got None"),
        (lambda m: {"units": m.units[:-1]}, "2 units for 3 species"),
        (lambda m: {"coeffs": np.full_like(m.coeffs, np.nan)},
         "coeffs has a non-finite value"),
        (lambda m: {"loadings": m.loadings[:, :0], "coeffs": m.coeffs[:, :0]},
         "model has no components"),
        (lambda m: {"axis": 5}, "axis has shape (), expected (1,)"),
        (lambda m: {"pipeline_name": "bogus(1)"},
         "unknown preprocessing step 'bogus'"),
        (lambda m: {"axis": m.axis[::-1]},
         "wavenumber axis not strictly increasing at row 1 (1800 -> 1798)"),
    ], ids=["loadings", "mean_spectrum", "coeffs", "mean_conc",
            "pipeline_int", "pipeline_null", "species_string",
            "species_not_strings", "units_null", "units_length", "coeffs_nan",
            "no_components", "axis_scalar", "pipeline_unknown",
            "axis_reversed"])
    def test_replace_refuses_bad_field(self, edit, message):
        model = self.trained()
        with pytest.raises(SpecselError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(model, **edit(model))

    def test_sequences_become_arrays_and_tuples(self):
        model = self.trained()
        listed = dataclasses.replace(
            model, **{f.name: list(getattr(model, f.name)) for f in
                      dataclasses.fields(model) if f.name != "pipeline_name"})
        for field in dataclasses.fields(model):
            trained = getattr(model, field.name)
            again = getattr(listed, field.name)
            assert type(again) is type(trained), field.name
            assert np.array_equal(again, trained), field.name

    def test_arrays_frozen_and_not_shared(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=10, n_species=3)
        pca = pca_fit(spectra, 3)
        model = pcr_fit(pca, conc)
        for array in (pca.mean_spectrum, pca.loadings, pca.scores,
                      model.axis, model.mean_spectrum, model.loadings,
                      model.coeffs, model.mean_conc):
            assert not array.flags.writeable
        before = pcr_predict(model, spectra)
        for array in (pca.mean_spectrum, pca.loadings, pca.scores):
            array.setflags(write=True)  # each owns its data, so this is allowed
            array[...] = 0.0
        assert np.array_equal(pcr_predict(model, spectra), before)


class TestPcrPredict:
    def test_is_last_count_of_cumulative_estimates(self):
        # evaluate_holdout reads every count of the same estimates
        model = train_final(*tears_phantom(20, 7), IDENTITY, 6)
        batch, _ = tears_phantom(30, 8)
        every_count = cumulative_estimates(
            model.coeffs, project(model, batch), model.mean_conc)
        assert every_count.shape == (2, 30, 6)
        assert np.array_equal(pcr_predict(model, batch),
                              every_count[:, :, -1])

    def test_non_finite_estimate_names_the_spectrum(self):
        # a spectrum far outside the model's scale is refused by label
        model = train_final(*tears_phantom(8, 7), IDENTITY, 3)
        batch, _ = tears_phantom(5, 8)
        matrix = batch.matrix.copy()
        matrix[2:] *= 1e307
        with pytest.raises(NonFiniteValue, match=re.escape(
                f"spectrum {batch.labels[2]!r}: estimated concentrations "
                f"are not finite")):
            pcr_predict(model, SpectraSet(batch.axis, matrix, batch.labels))

    def test_spectrum_gets_same_bits_in_any_batch(self):
        # each spectrum is projected on its own, so neither its neighbours
        # nor its row in the batch move a bit of its estimates
        model = train_final(*tears_phantom(20, 7), IDENTITY, 5)
        batch, _ = tears_phantom(1000, 100007)
        every = pcr_predict(model, batch)

        def rows(start, stop):
            return pcr_predict(model, SpectraSet(
                batch.axis, batch.matrix[start:stop],
                batch.labels[start:stop]))

        assert np.array_equal(rows(0, 10), every[:, :10])
        for n in [*range(10), 65, 513, 999]:
            assert np.array_equal(rows(n, n + 1), every[:, n:n + 1]), n

    def test_memory_above_inputs(self):
        # no centred copy of the batch: project centres a block of rows at
        # a time, and the estimates are small beside the spectra
        model = train_final(*tears_phantom(20, 7), IDENTITY, 5)
        batch, _ = tears_phantom(1000, 100007)
        tracemalloc.start()
        try:
            pcr_predict(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / batch.matrix.nbytes <= 0.25

    def test_noiseless_self_prediction(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=10, n_species=3)
        model = pcr_fit(nipals_fit(spectra, 3), conc)
        est = pcr_predict(model, spectra)
        scale = np.abs(conc.matrix).max()
        assert np.abs(est - conc.matrix).max() < 1e-8 * scale
        assert press(est, conc.matrix) < 1e-12 * float(np.sum(conc.matrix ** 2))

    def test_noiseless_self_prediction_above_species_count(self):
        # extra components beyond the species count must not hurt
        spectra, conc, _ = noiseless_mixtures(n_samples=10, n_species=2)
        model = pcr_fit(nipals_fit(spectra, 2), conc)
        est = pcr_predict(model, spectra)
        assert press(est, conc.matrix) < 1e-12 * float(np.sum(conc.matrix ** 2))

    def test_mean_spectrum_gives_mean_conc(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        model = pcr_fit(nipals_fit(spectra, 2), conc)
        mean_set = SpectraSet(spectra.axis,
                              model.mean_spectrum[None, :], ("mean",))
        est = pcr_predict(model, mean_set)
        assert_allclose(est[:, 0], model.mean_conc, atol=1e-10)

    def test_duplicated_rows_predict_identically(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=6, n_species=2)
        doubled = SpectraSet(
            spectra.axis,
            np.vstack([spectra.matrix, spectra.matrix[:1]]),
            spectra.labels + ("dup",))
        dconc = ConcentrationSet(
            np.hstack([conc.matrix, conc.matrix[:, :1]]),
            conc.species, conc.units)
        model = pcr_fit(nipals_fit(doubled, 2), dconc)
        est = pcr_predict(model, doubled)
        assert_allclose(est[:, 0], est[:, -1], atol=1e-10)

    def test_affine_in_input(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=9, n_species=3)
        model = pcr_fit(nipals_fit(spectra, 3), conc)
        x1, x2 = spectra.matrix[0], spectra.matrix[1]
        alpha = 0.3
        mix = alpha * x1 + (1.0 - alpha) * x2

        def predict_one(vec):
            return pcr_predict(
                model, SpectraSet(spectra.axis, vec[None, :], ("x",)))[:, 0]

        blended = alpha * predict_one(x1) + (1.0 - alpha) * predict_one(x2)
        assert_allclose(predict_one(mix), blended, rtol=1e-9, atol=1e-12)

    def test_in_sample_rss_non_increasing_in_k(self):
        ss = random_spectra_set(i=10, j=60, seed=28)
        rng = np.random.default_rng(29)
        conc = ConcentrationSet(rng.uniform(0.0, 1.0, (2, 10)),
                                ("a", "b"), ("u", "u"))
        rss = []
        for m in range(1, 9):
            model = pcr_fit(nipals_fit(ss, m), conc)
            est = pcr_predict(model, ss)
            rss.append(press(est, conc.matrix))
        assert all(a >= b - 1e-12 for a, b in zip(rss, rss[1:]))


class TestPress:
    def test_identical(self):
        assert press([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_hand_value(self):
        assert press([[1.0, 2.0]], [[0.0, 0.0]]) == 5.0

    def test_random_matches_elementwise(self):
        rng = np.random.default_rng(30)
        a = rng.normal(size=(3, 7))
        b = rng.normal(size=(3, 7))
        oracle = sum((a[r, c] - b[r, c]) ** 2
                     for r in range(3) for c in range(7))
        assert abs(press(a, b) - oracle) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            press(np.zeros((2, 2)), np.zeros((2, 3)))


class TestModelSerialization:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        model = pcr_fit(nipals_fit(spectra, 3), conc)
        path = tmp_path / "model.json"
        save_model(path, model)
        again = load_model(path)
        assert again.species == model.species
        assert again.pipeline_name == model.pipeline_name
        before = pcr_predict(model, spectra)
        after = pcr_predict(again, spectra)
        assert np.array_equal(before, after)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 12), seed=st.integers(0, 2**16),
           pipeline=st.sampled_from([
               "identity", "snv", "savgol(7,2,0)", "derivative(1)",
               "baseline_als(100000,0.01,10)|rnv(75)"]),
           data=st.data())
    def test_save_load_is_identity(self, n, seed, pipeline, data):
        spectra, conc = tears_phantom(n, seed)
        pc = data.draw(st.integers(1, n - 1), label="pc")
        model = train_final(spectra, conc, parse_pipeline(pipeline), pc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(path, model)
            again = load_model(path)
        for field in dataclasses.fields(model):
            trained = getattr(model, field.name)
            loaded = getattr(again, field.name)
            if isinstance(trained, np.ndarray):
                assert loaded.dtype == trained.dtype, field.name
                assert np.array_equal(loaded, trained), field.name
            else:
                assert loaded == trained, field.name
