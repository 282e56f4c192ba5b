import builtins
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import specsel
from specsel import synth
from specsel.cli import main
from specsel.selector import dataset_digest
from specsel.spectra import (
    CHUNK_CELLS,
    ConcentrationSet,
    SpectraSet,
    load_concentrations,
    load_spectra,
    save_concentrations,
    save_spectra,
)

from conftest import (noiseless_mixtures, one_spectrum_csv,
                      snv_collapsed_fold, weak_third_direction)


def run_fresh(script: str, cwd, timeout=None, flags=()) -> None:
    """Run ``script`` in a fresh interpreter, started with the options
    ``flags``, that imports this specsel, killed after ``timeout`` seconds
    if given."""
    src = str(Path(specsel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", script], cwd=cwd, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=timeout)
    assert result.returncode == 0, result.stderr


# a two-column CSV's first chunk holds file rows 2..CHUNK_CELLS // 2 + 1
SECOND_CHUNK_ROW = CHUNK_CELLS // 2 + 20


@pytest.fixture
def mixture_files(tmp_path):
    spectra, conc, recipe = noiseless_mixtures(n_samples=10, n_species=3)
    spath = tmp_path / "spectra.csv"
    cpath = tmp_path / "conc.csv"
    save_spectra(spath, spectra)
    save_concentrations(cpath, conc, spectra.labels)
    return spath, cpath, spectra, conc


class TestValidate:
    def test_ok(self, mixture_files, capsys):
        spath, cpath, *_ = mixture_files
        code = main(["validate", "--spectra", str(spath),
                     "--concentrations", str(cpath)])
        assert code == 0
        assert "i=10 j=701 q=3" in capsys.readouterr().out

    def test_ragged_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("wavenumber_cm-1,a\n1,2\n2,3,4\n3,4\n4,5\n5,6\n6,7\n7,8\n8,9\n")
        c = tmp_path / "c.csv"
        c.write_text("species,unit,a\nx,u,1\n")
        code = main(["validate", "--spectra", str(f), "--concentrations", str(c)])
        assert code == 2
        assert "RaggedRows" in capsys.readouterr().err

    @pytest.mark.parametrize("text,error,message", [
        ("", "IoFailure", "empty file"),
        ("wavenumber_cm-1\n1\n2\n", "IoFailure",
         "no sample columns after 'wavenumber_cm-1'"),
        (one_spectrum_csv({2: "400,1", 3: "300,1"}), "NonmonotonicAxis",
         "row 3, axis: not strictly increasing (400 -> 300)"),
        (one_spectrum_csv({SECOND_CHUNK_ROW: f"{SECOND_CHUNK_ROW},oops"},
                          last_row=SECOND_CHUNK_ROW + 5),
         "NonFiniteValue",
         f"row {SECOND_CHUNK_ROW}, column 'a': cannot parse 'oops' as a "
         "number"),
    ], ids=["empty", "no_sample_column", "decreasing_axis",
            "bad_cell_second_chunk"])
    def test_malformed_spectra_exit_2(self, tmp_path, capsys, text, error,
                                      message):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        c = tmp_path / "c.csv"
        c.write_text("species,unit,a\nx,u,1\n")
        code = main(["validate", "--spectra", str(f), "--concentrations", str(c)])
        assert code == 2
        assert f"error: {error}: {f}: {message}" in capsys.readouterr().err

    # each command's output option comes last and takes tmp_path / "out"
    @pytest.mark.parametrize("command,options", [
        ("validate", []), ("crossval", ["--out-dir"]), ("select", ["--out"]),
        ("train", ["--pc", "2", "--out-model"])],
        ids=["validate", "crossval", "select", "train"])
    def test_duplicate_species_exit_2(self, mixture_files, tmp_path, capsys,
                                      command, options):
        spath, cpath, *_ = mixture_files
        lines = cpath.read_text().splitlines(keepends=True)
        twice = tmp_path / "twice.csv"
        twice.write_text("".join(lines + lines[1:2]))
        out = [str(tmp_path / "out")] if options else []
        code = main([command, "--spectra", str(spath), "--concentrations",
                     str(twice), *options, *out])
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert (f"error: LabelMismatch: {twice}: duplicate species ['sp0']"
                in capsys.readouterr().err)

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["validate", "--spectra", str(tmp_path / "no.csv"),
                     "--concentrations", str(tmp_path / "no2.csv")])
        assert code == 2


class TestUnreadableInputs:
    @pytest.mark.parametrize("how", ["non_utf8", "directory", "missing"])
    @pytest.mark.parametrize("which", ["config", "model", "spectra",
                                       "concentrations"])
    def test_exit_2(self, mixture_files, tmp_path, capsys, which, how):
        spath, cpath, *_ = mixture_files
        bad = tmp_path / "bad"
        if how == "non_utf8":
            bad.write_bytes(b"\xff\xfebad")
        elif how == "directory":
            bad.mkdir()
        if which == "model":
            argv = ["predict", "--model", str(bad), "--spectra", str(spath),
                    "--out", str(tmp_path / "p.csv")]
        else:
            argv = ["validate",
                    "--spectra", str(bad if which == "spectra" else spath),
                    "--concentrations",
                    str(bad if which == "concentrations" else cpath)]
        if which == "config":
            argv = ["--config", str(bad), *argv]
        assert main(argv) == 2
        assert (f"error: IoFailure: cannot read {bad}: "
                in capsys.readouterr().err)


class TestSynthCrossval:
    def test_synth_then_crossval_shapes(self, tmp_path):
        spath = tmp_path / "s.csv"
        cpath = tmp_path / "c.csv"
        assert main(["synth", "--out-spectra", str(spath),
                     "--out-concentrations", str(cpath),
                     "--n", "8", "--seed", "3"]) == 0
        out_dir = tmp_path / "cv"
        assert main(["crossval", "--spectra", str(spath),
                     "--concentrations", str(cpath),
                     "--pipeline", "baseline_als(1e5,0.01,10)|snv",
                     "--out-dir", str(out_dir)]) == 0
        press_lines = (out_dir / "press_matrix.csv").read_text().splitlines()
        assert press_lines[0].startswith("held_out,pc_1")
        assert len(press_lines) == 9
        assert press_lines[0].count("pc_") == 6
        box_lines = (out_dir / "boxplot.csv").read_text().splitlines()
        assert box_lines[0] == "pc,q1,median,q3,lo_whisker,hi_whisker,outliers"
        assert len(box_lines) == 7

    def test_synth_custom_recipe_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "recipe": {
                "axis_start": 400, "axis_stop": 1000, "axis_step": 2,
                "species": [
                    {"name": "analyte",
                     "peaks": [[600, 10, 1.0], [850, 12, 0.6]],
                     "conc_range": [0.0, 2.0]},
                ],
                "baseline": {"kind": "exp_decay", "coeffs": [3.0, 500.0],
                             "scale_range": [0.8, 1.2]},
                "noise_sigma": 0.005,
            },
        }))
        spath = tmp_path / "s.csv"
        cpath = tmp_path / "c.csv"
        assert main(["--config", str(cfg), "synth",
                     "--out-spectra", str(spath),
                     "--out-concentrations", str(cpath),
                     "--n", "6", "--seed", "4"]) == 0
        spectra = load_spectra(spath)
        conc = load_concentrations(cpath, labels=spectra.labels)
        assert spectra.n_spectra == 6
        assert spectra.axis[0] == 400.0 and spectra.axis[-1] == 1000.0
        assert conc.species == ("analyte",)
        assert conc.matrix.max() > 1.0  # conc_range upper half in use

    @pytest.mark.parametrize("recipe,message", [
        ({"species": [{"name": "g"}]}, "recipe species 0 has no 'peaks' entry"),
        ({"axis_step": "two", "species": [{"name": "g", "peaks": []}]},
         "recipe axis_step must be a finite number, got 'two'"),
        ({"species": [{"name": "g", "peaks": [], "conc_range": [2, 1]}]},
         "recipe species 0 conc_range must satisfy 0 <= lo <= hi"),
        ({"species": [{"name": "g", "peaks": [], "conc_range": [-1, 1]}]},
         "recipe species 0 conc_range must satisfy 0 <= lo <= hi"),
        ({"drift_range": [1.5, 0.5], "species": [{"name": "g", "peaks": []}]},
         "recipe drift_range must satisfy lo <= hi, got [1.5, 0.5]"),
        ({"spike_amplitude": [20, 5], "species": [{"name": "g", "peaks": []}]},
         "recipe spike_amplitude must satisfy lo <= hi, got [20.0, 5.0]"),
        ({"baseline": {"scale_range": [1.2, 0.8]},
          "species": [{"name": "g", "peaks": []}]},
         "recipe baseline scale_range must satisfy lo <= hi, got [1.2, 0.8]"),
        ({"spike_rate": 1e30, "species": [{"name": "g", "peaks": []}]},
         "recipe spike_rate must be in [0, 701] (the channel count), "
         "got 1e+30"),
        ({"spike_rate": -1, "species": [{"name": "g", "peaks": []}]},
         "recipe spike_rate must be in [0, 701] (the channel count), got -1.0"),
        ({"noise_sigma": -0.5, "species": [{"name": "g", "peaks": []}]},
         "recipe noise_sigma must be >= 0, got -0.5"),
        ({"baseline": {"kind": "nope"},
          "species": [{"name": "g", "peaks": []}]},
         "recipe baseline kind must be 'exp_decay' or 'polynomial', "
         "got 'nope'"),
        ({}, "recipe species must be a non-empty list, got ()"),
        (None, "recipe must be an object, got None"),
        ({"baseline": {"coeffs": [1.0, 0.0]},
          "species": [{"name": "g", "peaks": []}]},
         "recipe baseline coeffs decay length must be > 0, got 0.0"),
        ({"species": [{"name": "g", "peaks": []}, {"name": "h", "peaks": []},
                      {"name": "g", "peaks": []}]},
         "recipe duplicate species ['g']"),
        ({"species": [{"name": "g", "peaks": [], "unit": None}]},
         "recipe species 0 unit must be a string, got None"),
        ({"axis_step": 1e-300, "species": [{"name": "g", "peaks": []}]},
         "recipe axis_step 1e-300 gives 1.4e+303 channels; one float64 "
         "array holds at most"),
        ({"axis_step": 5e-324, "species": [{"name": "g", "peaks": []}]},
         "recipe axis_step 5e-324 gives inf channels; one float64 array "
         "holds at most"),
    ], ids=["missing_peaks", "axis_step", "conc_range_order",
            "conc_range_negative", "drift_range_order",
            "spike_amplitude_order", "scale_range_order", "spike_rate_huge",
            "spike_rate_negative", "noise_sigma_negative", "baseline_kind",
            "recipe_empty", "recipe_null", "baseline_decay_zero",
            "species_duplicate", "unit_null", "axis_step_too_fine",
            "axis_step_subnormal"])
    def test_synth_malformed_recipe_exit_2(self, tmp_path, capsys, recipe,
                                           message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recipe": recipe}))
        code = main(["--config", str(cfg), "synth",
                     "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv")])
        assert code == 2
        assert (f"error: SpecselError: {cfg}: {message}"
                in capsys.readouterr().err)

    def test_crossval_out_dir_under_file_exit_2(self, mixture_files, tmp_path,
                                                capsys):
        spath, cpath, *_ = mixture_files
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["crossval", "--spectra", str(spath),
                     "--concentrations", str(cpath), "--pipeline", "identity",
                     "--out-dir", str(afile / "sub")])
        assert code == 2
        assert (f"error: IoFailure: cannot create {afile / 'sub'}"
                in capsys.readouterr().err)

    def test_synth_negative_seed_flag_exit_2(self, tmp_path, capsys):
        code = main(["synth", "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv"),
                     "--n", "6", "--seed", "-1"])
        assert code == 2
        assert ("error: SpecselError: seed must be a non-negative integer, "
                "got -1" in capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    def test_synth_too_few_spectra_exit_2(self, tmp_path, capsys):
        code = main(["synth", "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv"),
                     "--n", "3"])
        assert code == 2
        assert ("error: SpecselError: phantom set needs at least 4 spectra, "
                "got 3" in capsys.readouterr().err)

    def test_synth_unallocatable_n_exit_2(self, tmp_path, capsys):
        # more bytes than the address space, so the allocation fails at once
        code = main(["synth", "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv"),
                     "--n", "1000000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("n", ["2000000000000000000",
                                   "9223372036854775808"])
    def test_synth_unindexable_n_exit_2(self, tmp_path, capsys, n):
        # more float64 values than numpy can index in one array
        code = main(["synth", "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv"),
                     "--n", n])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: SpecselError: n {n} spectra: one float64 array holds "
            f"at most {np.iinfo(np.intp).max // 8}\n")
        assert not (tmp_path / "s.csv").exists()

    def test_recipe_synth_too_few_spectra_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recipe": {
            "species": [{"name": "a", "peaks": [[600, 10, 1.0]]}]}}))
        code = main(["--config", str(cfg), "synth",
                     "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv"),
                     "--n", "3"])
        assert code == 2
        assert ("error: SpecselError: phantom set needs at least 4 spectra, "
                "got 3" in capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    def test_crossval_baseline_system_failure_exit_2(self, tmp_path, capsys):
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        code = main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "baseline_als(1e300)",
                     "--out-dir", str(tmp_path / "cv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: BadOrder: spectrum 's000', step "
            "baseline_als(1e+300,0.01,10): lambda 1e+300 and p 0.01 give a "
            "baseline system that is not positive definite (")

    @pytest.mark.parametrize("setting", ["201,200,0", "301,150,0",
                                         "699,698,0"])
    def test_crossval_overflowing_savgol_exit_2(self, tmp_path, capsys,
                                                setting):
        # (window // 2) ** polyorder overflows: refused before any fit,
        # with no numpy warning (pytest turns one into an error)
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        window, polyorder, _ = setting.split(",")
        code = main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", f"savgol({setting})",
                     "--out-dir", str(tmp_path / "cv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: PipelineSyntaxError: step savgol({setting}): window "
            f"{window} and polyorder {polyorder} overflow the fit: "
            f"(window // 2) ** polyorder is not a finite float\n")

    def test_crossval_overflowing_press_names_the_fold(self, tmp_path,
                                                       capsys):
        # errors near 1e160 square past the largest float
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, ConcentrationSet(
            conc.matrix * 1e160, conc.species, conc.units), spectra.labels)
        code = main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "snv",
                     "--out-dir", str(tmp_path / "cv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: DegenerateMatrix: fold 's000': squared prediction errors "
            "are not finite, so PRESS cannot be scored\n")
        assert not (tmp_path / "cv" / "press_matrix.csv").exists()

    def test_crossval_duplicated_spectrum_complete_matrix(self, tmp_path,
                                                          capsys):
        spectra, conc = synth.tears_phantom(8, 7)
        twice = [*range(8), 0]
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, SpectraSet(spectra.axis, spectra.matrix[twice],
                                       spectra.labels + ("dup",)))
        save_concentrations(cpath, ConcentrationSet(
            conc.matrix[:, twice], conc.species, conc.units),
            spectra.labels + ("dup",))
        out_dir = tmp_path / "cv"
        assert main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "snv",
                     "--out-dir", str(out_dir)]) == 0
        assert ("note: fold 's001': only 6 of 7 components available; "
                "PC counts above 6 dropped") in capsys.readouterr().out
        press_lines = (out_dir / "press_matrix.csv").read_text().splitlines()
        assert press_lines[0].count("pc_") == 6
        assert "nan" not in "".join(press_lines)

    def test_crossval_fold_without_components_exit_2(self, tmp_path, capsys):
        spectra, conc = snv_collapsed_fold()
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        code = main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "snv",
                     "--out-dir", str(tmp_path / "cv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: DegenerateMatrix: fold 's5': no usable component")
        assert not (tmp_path / "cv" / "press_matrix.csv").exists()

    @staticmethod
    def _identity_crossval(tmp_path, scale):
        """Exit code and PRESS matrix (None if not written) of crossval on
        ``tears_phantom(8, 1)`` with its intensities times ``scale``."""
        spectra, conc = synth.tears_phantom(8, 1)
        spath, cpath = tmp_path / f"s{scale}.csv", tmp_path / "c.csv"
        save_spectra(spath, SpectraSet(spectra.axis, spectra.matrix * scale,
                                       spectra.labels))
        save_concentrations(cpath, conc, spectra.labels)
        out_dir = tmp_path / f"cv{scale}"
        code = main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "identity",
                     "--out-dir", str(out_dir)])
        path = out_dir / "press_matrix.csv"
        return code, (np.loadtxt(path, delimiter=",", skiprows=1,
                                 usecols=range(1, 7))
                      if path.exists() else None)

    @pytest.mark.parametrize("scale,rtol", [
        (2.0 ** 600, 0.0), (1e300, 1e-12), (2.0 ** 1000, 0.0),
        (2.0 ** 1015, 0.0)], ids=["2^600", "1e300", "2^1000", "2^1015"])
    def test_crossval_huge_intensities_exit_0(self, tmp_path, scale, rtol):
        # the fold norms would overflow if squared directly; PRESS is in
        # units of the concentrations, so a power of two leaves it exact and
        # another scale moves it by rounding only
        _, base = self._identity_crossval(tmp_path, 1.0)
        code, press = self._identity_crossval(tmp_path, scale)
        assert code == 0
        np.testing.assert_allclose(press, base, rtol=rtol)

    def test_crossval_subnormal_intensities_exit_2(self, tmp_path, capsys):
        # subnormal intensities keep a few significant bits: no component
        code, press = self._identity_crossval(tmp_path, 1e-320)
        assert code == 2 and press is None
        assert capsys.readouterr().err == (
            "error: DegenerateMatrix: fold 's000': no usable component, so no "
            "PC count can be scored\n")

    @pytest.mark.parametrize("pipeline,code", [
        ("derivative(2)", 2), ("savgol(7,2,2)", 2),
        ("derivative(1)", 0), ("savgol(7,2,1)", 0)])
    def test_crossval_fine_axis_spacing(self, tmp_path, capsys, pipeline,
                                        code):
        # a spacing of 2e-300 cm-1 squared underflows to 0, so a second
        # derivative is refused by name, with no numpy warning (pytest turns
        # one into an error); a first derivative divides by the spacing
        spectra, conc = synth.tears_phantom(8, 7)
        axis = 2e-300 * np.arange(1, spectra.n_channels + 1)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, SpectraSet(axis, spectra.matrix, spectra.labels))
        save_concentrations(cpath, conc, spectra.labels)
        assert main(["crossval", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", pipeline,
                     "--out-dir", str(tmp_path / "cv")]) == code
        assert capsys.readouterr().err == ("" if code == 0 else (
            f"error: NonuniformAxis: spectrum 's000', step {pipeline}: "
            f"channel spacing 2e-300 to the power 2 is not a normal "
            f"positive float\n"))

    def test_crossval_has_no_threads_option(self, mixture_files, tmp_path):
        spath, cpath, *_ = mixture_files
        with pytest.raises(SystemExit) as exc:
            main(["crossval", "--spectra", str(spath),
                  "--concentrations", str(cpath), "--threads", "2",
                  "--out-dir", str(tmp_path / "cv")])
        assert exc.value.code == 2

    def test_synth_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            main(["synth", "--out-spectra", str(out),
                  "--out-concentrations", str(tmp_path / (out.stem + "c.csv")),
                  "--n", "6", "--seed", "11"])
        assert a.read_bytes() == b.read_bytes()

    def test_synth_n40_crossval_shape(self, tmp_path):
        spath = tmp_path / "s.csv"
        cpath = tmp_path / "c.csv"
        main(["synth", "--out-spectra", str(spath),
              "--out-concentrations", str(cpath), "--n", "40", "--seed", "1"])
        spectra = load_spectra(spath)
        conc = load_concentrations(cpath, labels=spectra.labels)
        assert spectra.n_spectra == 40
        from specsel.crossval import loo_press_matrix
        from specsel.preprocess import parse_pipeline
        matrix = loo_press_matrix(spectra, conc, parse_pipeline("snv"))
        assert matrix.values.shape == (40, 38)
        assert np.isfinite(matrix.values).all()


class TestPowerOfTwoScale:
    """The fits divide the set by a power of two (never up), so a model
    predicts the same bytes at each power-of-two intensity scale, and the
    float maximum ends in exit 0 or one ``error:`` line."""

    @staticmethod
    def _scaled_files(tmp_path, spectra, conc, scale, tag):
        spath, cpath = tmp_path / f"{tag}_s.csv", tmp_path / f"{tag}_c.csv"
        save_spectra(spath, SpectraSet(spectra.axis, spectra.matrix * scale,
                                       spectra.labels))
        save_concentrations(cpath, conc, spectra.labels)
        return str(spath), str(cpath)

    def test_near_the_float_maximum_no_hang_or_traceback(self, tmp_path):
        # a fresh interpreter with a time limit, so a fit that never returns
        # fails the test instead of holding the suite
        script = textwrap.dedent("""
            import contextlib, io
            from specsel.cli import main
            from specsel.spectra import (SpectraSet, save_concentrations,
                                         save_spectra)
            from specsel.synth import tears_phantom

            spectra, conc = tears_phantom(8, 7)
            save_concentrations("c.csv", conc, spectra.labels)
            cases = [
                ("2^1017", 2.0 ** 1017, ["crossval", "--pipeline", "identity",
                                         "--out-dir", "cv"], 0),
                ("2^1017", 2.0 ** 1017, ["select", "--out", "r.json"], 0),
            ]
            for tag in ("1e307", "5e307"):
                cases += [
                    (tag, float(tag), ["crossval", "--pipeline", "identity",
                                       "--out-dir", "cv"], 0),
                    (tag, float(tag), ["select", "--out", "r.json"], 0),
                    # the scores, or their norms, pass the float range
                    (tag, float(tag), ["train", "--pc", "3",
                                       "--out-model", "m.json"], 2),
                ]
            for tag, scale, (command, *options), expected in cases:
                save_spectra(f"s{tag}.csv", SpectraSet(
                    spectra.axis, spectra.matrix * scale, spectra.labels))
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \\
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--spectra", f"s{tag}.csv",
                                 "--concentrations", "c.csv", *options])
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error:")]
                assert (code, len(errors)) == (expected, int(expected == 2)), (
                    tag, command, code, err.getvalue())
        """)
        run_fresh(script, tmp_path, timeout=120)

    def test_at_5e307_each_refusal_is_the_only_output(self, tmp_path):
        # numpy warnings are errors here, so a warning before a refusal, or
        # in a candidate that succeeds, ends the script in a traceback
        script = textwrap.dedent("""
            import contextlib, io, json
            from specsel.cli import main
            from specsel.spectra import (SpectraSet, save_concentrations,
                                         save_spectra)
            from specsel.synth import tears_phantom

            spectra, conc = tears_phantom(8, 7)
            save_spectra("s.csv", SpectraSet(
                spectra.axis, spectra.matrix * 5e307, spectra.labels))
            save_concentrations("c.csv", conc, spectra.labels)

            def run(*argv):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \\
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main([argv[0], "--spectra", "s.csv",
                                 "--concentrations", "c.csv", *argv[1:]])
                return code, err.getvalue().splitlines()

            code, lines = run("select", "--out", "r.json")
            report = json.load(open("r.json"))
            failed = [c["pipeline"] for c in report["candidates"]
                      if not c["ok"]]
            assert (code, report["chosen_pipeline"], report["chosen_pc"]) == (
                0, "despike(7,8)", 5), (code, report["chosen_pipeline"])
            assert failed == [
                "derivative(2)", "savgol(7,2,0)|derivative(2)"], failed
            assert all(line.startswith("alert: ") for line in lines), lines
            result = run("crossval", "--pipeline", "derivative(2)",
                         "--out-dir", "cv")
            assert result == (2, ["error: NonFiniteValue: non-finite "
                                  "intensity in spectrum 's000'"]), result
            result = run("train", "--pc", "3", "--out-model", "m.json")
            assert result == (2, ["error: NonFiniteValue: intensities too "
                                  "large: scores pass the float range"]), result
        """)
        run_fresh(script, tmp_path, timeout=120,
                  flags=["-W", "error::RuntimeWarning"])

    @pytest.mark.parametrize("k", [600, 1015])
    def test_train_and_predict_bytes_equal_unscaled(self, tmp_path, k):
        train_set, train_conc = synth.tears_phantom(20, 1)
        batch, batch_conc = synth.tears_phantom(50, 9)
        written = []
        for scale in (1.0, 2.0 ** k):
            spath, cpath = self._scaled_files(tmp_path, train_set, train_conc,
                                              scale, f"train{scale}")
            bpath, _ = self._scaled_files(tmp_path, batch, batch_conc, scale,
                                          f"batch{scale}")
            model, out = tmp_path / f"m{scale}.json", tmp_path / f"p{scale}.csv"
            assert main(["train", "--spectra", spath, "--concentrations",
                         cpath, "--pipeline", "savgol(7,2,0)", "--pc", "4",
                         "--out-model", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--spectra", bpath,
                         "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestOneValueAtFloatMaximum:
    """One input value of 1e308 ends in exit 2 with one ``error:`` line and
    no numpy warning before it. numpy warnings are errors in these fresh
    interpreters, so a warning ends the script in a traceback."""

    # crossval's refusal of a fold whose estimates pass the float range
    PRESS = ("DegenerateMatrix: fold 's000': squared prediction errors are "
             "not finite, so PRESS cannot be scored")

    def test_one_concentration_or_intensity_refusal_is_the_only_output(
            self, tmp_path):
        script = textwrap.dedent(f"""
            import contextlib, io
            from specsel.cli import main
            from specsel.spectra import (ConcentrationSet, SpectraSet,
                                         save_concentrations, save_spectra)
            from specsel.synth import tears_phantom

            spectra, conc = tears_phantom(8, 7)
            big_conc, big_rows = conc.matrix.copy(), spectra.matrix.copy()
            big_conc[0, 0] = big_rows[0, 5] = 1e308
            save_spectra("s.csv", spectra)
            save_spectra("big_s.csv", SpectraSet(spectra.axis, big_rows,
                                                 spectra.labels))
            save_concentrations("c.csv", conc, spectra.labels)
            save_concentrations("big_c.csv", ConcentrationSet(
                big_conc, conc.species, conc.units), spectra.labels)
            press = {self.PRESS!r}
            cases = [
                ("s.csv", "big_c.csv", ["select", "--out", "r.json"],
                 "AllCandidatesFailed: every candidate pipeline failed: "
                 + press),
                ("s.csv", "big_c.csv", ["crossval", "--pipeline", "snv",
                                        "--out-dir", "cv"], press),
                ("big_s.csv", "c.csv", ["crossval", "--pipeline", "identity",
                                        "--out-dir", "cv"], press),
            ]
            for spectra_csv, conc_csv, (command, *options), error in cases:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \\
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--spectra", spectra_csv,
                                 "--concentrations", conc_csv, *options])
                result = (code, err.getvalue().splitlines())
                assert result == (2, ["error: " + error]), result
        """)
        run_fresh(script, tmp_path, timeout=120,
                  flags=["-W", "error::RuntimeWarning"])

    @pytest.mark.parametrize("field", [("coeffs", 0), ("scale_range", 1)],
                             ids=["coeffs", "scale_range"])
    def test_recipe_baseline_refusal_is_the_only_output(self, tmp_path,
                                                        field):
        recipe = {
            "axis_start": 400, "axis_stop": 1200, "axis_step": 4,
            "species": [
                {"name": "analyte", "peaks": [[600, 10, 1.0], [950, 12, 0.6]],
                 "conc_range": [0.0, 2.0]},
                {"name": "matrix", "peaks": [[800, 20, 0.8]], "unit": "%"},
            ],
            "baseline": {"kind": "polynomial", "coeffs": [1.0, -0.5, 0.25],
                         "scale_range": [0.8, 1.2]},
            "noise_sigma": 0.005, "spike_rate": 1.5, "drift_range": [0.9, 1.1],
        }
        recipe["baseline"][field[0]][field[1]] = 1e308
        (tmp_path / "cfg.json").write_text(json.dumps({"recipe": recipe}))
        script = textwrap.dedent("""
            import contextlib, io
            from specsel.cli import main

            err = io.StringIO()
            with contextlib.redirect_stderr(err), \\
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["--config", "cfg.json", "synth", "--n", "12",
                             "--seed", "5", "--out-spectra", "s.csv",
                             "--out-concentrations", "c.csv"])
            result = (code, err.getvalue().splitlines())
            assert result == (2, ["error: NonFiniteValue: non-finite "
                                  "intensity in spectrum 's001'"]), result
        """)
        run_fresh(script, tmp_path, timeout=120,
                  flags=["-W", "error::RuntimeWarning"])


class TestConfigTypes:
    @pytest.mark.parametrize("key,value,message", [
        ("n", "abc", "{cfg}: config 'n' must be an integer, got 'abc'"),
        ("seed", True, "{cfg}: config 'seed' must be an integer, got True"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("threads", "abc",
         "{cfg}: config 'threads' must be an integer, got 'abc'"),
        ("threads", 0, "threads must be at least 1, got 0"),
        ("alpha", "abc",
         "{cfg}: config 'alpha' must be a finite number, got 'abc'"),
        ("log_press", "false",
         "{cfg}: config 'log_press' must be true or false, got 'false'"),
        ("candidates", [5],
         "{cfg}: config 'candidates' must be a list of pipeline strings, "
         "got [5]"),
        ("candidates", "snv",
         "{cfg}: config 'candidates' must be a list of pipeline strings, "
         "got 'snv'"),
        ("pipeline", ["snv"],
         "{cfg}: config 'pipeline' must be a pipeline string, got ['snv']"),
    ], ids=["n", "seed", "seed_negative", "threads", "threads_zero", "alpha",
            "log_press", "candidates_item", "candidates_str", "pipeline"])
    def test_bad_value_exit_2(self, mixture_files, tmp_path, capsys, key,
                              value, message):
        spath, cpath, *_ = mixture_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        if key in ("n", "seed"):
            argv = ["synth", "--out-spectra", str(tmp_path / "s.csv"),
                    "--out-concentrations", str(tmp_path / "c.csv")]
        elif key == "pipeline":
            argv = ["train", "--spectra", str(spath),
                    "--concentrations", str(cpath), "--pc", "2",
                    "--out-model", str(tmp_path / "m.json")]
        else:
            argv = ["select", "--spectra", str(spath),
                    "--concentrations", str(cpath),
                    "--out", str(tmp_path / "r.json")]
        code = main(["--config", str(cfg), *argv])
        assert code == 2
        assert (f"error: SpecselError: {message.format(cfg=cfg)}"
                in capsys.readouterr().err)

    def test_config_not_an_object_exit_2(self, mixture_files, tmp_path,
                                         capsys):
        spath, cpath, *_ = mixture_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["snv"]))
        code = main(["--config", str(cfg), "validate", "--spectra", str(spath),
                     "--concentrations", str(cpath)])
        assert code == 2
        assert (f"error: SpecselError: {cfg}: config must be a JSON object"
                in capsys.readouterr().err)

    def test_empty_candidates_exit_2(self, mixture_files, tmp_path, capsys):
        spath, cpath, *_ = mixture_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"candidates": []}))
        code = main(["--config", str(cfg), "select", "--spectra", str(spath),
                     "--concentrations", str(cpath),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert ("error: AllCandidatesFailed: no candidate pipelines supplied"
                in capsys.readouterr().err)

    # synth reads no alpha, and its --n flag overrides the file's n
    @pytest.mark.parametrize("key,value,message", [
        ("alpha", "x",
         "{cfg}: config 'alpha' must be a finite number, got 'x'"),
        ("n", "abc", "{cfg}: config 'n' must be an integer, got 'abc'"),
    ], ids=["key_not_read", "key_under_flag"])
    def test_bad_value_synth_does_not_use_exit_2(self, tmp_path, capsys, key,
                                                 value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["--config", str(cfg), "synth", "--n", "8",
                     "--out-spectra", str(tmp_path / "s.csv"),
                     "--out-concentrations", str(tmp_path / "c.csv")])
        assert code == 2
        assert (f"error: SpecselError: {message.format(cfg=cfg)}"
                in capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    def test_bad_seed_flag_reads_alike_with_a_recipe(self, tmp_path, capsys):
        # the flag's seed is not the recipe file's, so its refusal names no
        # file, with or without a recipe config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recipe": TestJsonNumbers.RECIPE}))
        argv = ["synth", "--seed", "-1", "--out-spectra",
                str(tmp_path / "s.csv"),
                "--out-concentrations", str(tmp_path / "c.csv")]
        errors = []
        for config in ([], ["--config", str(cfg)]):
            assert main([*config, *argv]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: SpecselError: seed must be a non-negative "
                          "integer, got -1\n"] * 2, errors
        assert not (tmp_path / "s.csv").exists()


# a JSON integer too large for a float
BIG = 10 ** 400


class TestJsonNumbers:
    """A config, a recipe and a model file read a number by one rule: an int
    or a float with a finite float value, never true, false or text, also
    among the numbers of a list."""

    RECIPE = {"species": [{"name": "a", "peaks": [[600, 10, 1]]}],
              "baseline": {"kind": "polynomial", "coeffs": [1.0, 0.5]}}

    SCALARS = {"true": True, "text": "0.5", "big": BIG}
    MIXED = {"mixed": [True, 0.5]}

    @pytest.mark.parametrize("reader,field,value", [
        pytest.param(reader, field, value, id="-".join(
            [reader, ".".join(map(str, field)), name]))
        for reader, fields, values in [
            ("config", [["alpha"]], SCALARS),
            ("recipe", [["noise_sigma"], ["baseline", "coeffs", 0]], SCALARS),
            ("recipe", [["baseline", "coeffs"]], MIXED),
            ("model", [["mean_conc", 0]], SCALARS),
            ("model", [["mean_conc"]], MIXED),
            ("model", [["coeffs", 1, 0], ["axis", 3], ["loadings", 0, 1],
                       ["mean_spectrum", 2]], {"big": BIG}),
        ]
        for field in fields
        for name, value in values.items()
    ])
    def test_not_a_number_exit_2(self, tmp_path, capsys, reader, field,
                                 value):
        spectra, conc = synth.tears_phantom(8, 7)
        save_spectra(tmp_path / "s.csv", spectra)
        save_concentrations(tmp_path / "c.csv", conc, spectra.labels)
        pair = ["--spectra", str(tmp_path / "s.csv"),
                "--concentrations", str(tmp_path / "c.csv")]
        path, out = tmp_path / f"{reader}.json", tmp_path / "out"
        if reader == "model":
            assert main(["train", *pair, "--pc", "2",
                         "--out-model", str(path)]) == 0
            document = json.loads(path.read_text())
            argv = ["predict", "--model", str(path), *pair[:2],
                    "--out", str(out)]
            where = f"{path}: {field[0]}"
        elif reader == "recipe":
            document = {"recipe": json.loads(json.dumps(self.RECIPE))}
            argv = ["--config", str(path), "synth", "--out-spectra",
                    str(out), "--out-concentrations", str(tmp_path / "oc")]
            where = f"{path}: recipe {' '.join(map(str, field[:2]))}"
            field = ["recipe", *field]
        else:
            document = {}
            argv = ["--config", str(path), "select", *pair, "--out", str(out)]
            where = f"config {field[0]!r}"
        entry = document
        for key in field[:-1]:
            entry = entry[key]
        entry[field[-1]] = value
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert where in lines[0], lines
        assert not out.exists()


class TestSelect:
    def test_noiseless_identity_exit_0(self, mixture_files, tmp_path):
        spath, cpath, *_ = mixture_files
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath),
                     "--concentrations", str(cpath),
                     "--candidate", "identity", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chosen_pipeline"] == "identity"
        assert payload["chosen_pc"] == 3
        assert payload["chosen_significant"] is True
        assert payload["inputs"]["i"] == 10

    @pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"],
                             ids=["crlf", "lf", "cr"])
    def test_report_digests_the_bytes_parsed(self, mixture_files, tmp_path,
                                             monkeypatch, newline):
        # the file digests follow the bytes; dataset_digest, of the values
        # parsed, is the same whatever the line endings
        spath, cpath, spectra, conc = mixture_files
        for path in (spath, cpath):
            written = path.read_bytes()
            assert b"\r\n" in written  # the CSV writer ends rows with CRLF
            path.write_bytes(written.replace(b"\r\n", newline.encode()))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath),
                     "--concentrations", str(cpath),
                     "--candidate", "identity", "--out", str(out)])
        monkeypatch.undo()
        assert code == 0
        assert opened.count(str(spath)) == 1
        assert opened.count(str(cpath)) == 1
        inputs = json.loads(out.read_text())["inputs"]
        assert (inputs["spectra_sha256"]
                == hashlib.sha256(spath.read_bytes()).hexdigest())
        assert (inputs["concentrations_sha256"]
                == hashlib.sha256(cpath.read_bytes()).hexdigest())
        assert inputs["dataset_digest"] == dataset_digest(spectra, conc)

    def test_iid_noise_exit_3(self, tmp_path):
        # pure noise: no pipeline can make PC count matter
        rng = np.random.default_rng(2024)
        axis = 400.0 + 2.0 * np.arange(60)
        from specsel.spectra import ConcentrationSet, SpectraSet
        spectra = SpectraSet(axis, rng.normal(10.0, 1.0, (8, 60)),
                             tuple(f"s{n}" for n in range(8)))
        conc = ConcentrationSet(rng.uniform(0.5, 1.0, (2, 8)),
                                ("a", "b"), ("u", "u"))
        spath = tmp_path / "s.csv"
        cpath = tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath),
                     "--concentrations", str(cpath),
                     "--candidate", "snv", "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["chosen_significant"] is False

    def test_duplicate_candidates_exit_2(self, mixture_files, tmp_path,
                                         capsys):
        # two spellings of one pipeline: refused before any is evaluated
        spath, cpath, *_ = mixture_files
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "sg(7,2)", "--candidate",
                     "savgol(7,2,0)", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: LabelMismatch: duplicate candidate pipelines "
                       "['savgol(7,2,0)']\n")
        assert not out.exists()

    def test_report_contains_every_candidate(self, mixture_files, tmp_path):
        spath, cpath, *_ = mixture_files
        out = tmp_path / "report.json"
        main(["select", "--spectra", str(spath), "--concentrations",
              str(cpath), "--candidate", "identity", "--candidate", "snv",
              "--candidate", "derivative(1)", "--out", str(out)])
        payload = json.loads(out.read_text())
        names = [c["pipeline"] for c in payload["candidates"]]
        assert names == ["identity", "snv", "derivative(1)"]

    def test_config_candidates(self, mixture_files, tmp_path):
        spath, cpath, *_ = mixture_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"candidates": ["identity", "snv"],
                                   "alpha": 0.05, "threads": 2}))
        out = tmp_path / "report.json"
        code = main(["--config", str(cfg), "select", "--spectra", str(spath),
                     "--concentrations", str(cpath), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["candidates"]) == 2

    def test_byte_identical_reports_across_threads(self, mixture_files,
                                                   tmp_path):
        spath, cpath, *_ = mixture_files
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"report_{threads}.json"
            main(["select", "--spectra", str(spath), "--concentrations",
                  str(cpath), "--candidate", "identity", "--candidate", "snv",
                  "--threads", threads, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, mixture_files, tmp_path, capsys,
                                      threads):
        spath, cpath, *_ = mixture_files
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "snv", "--threads", threads,
                     "--out", str(out)])
        assert code == 2
        assert (f"error: SpecselError: threads must be at least 1, got "
                f"{threads}" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["2", "nan"])
    def test_alpha_outside_unit_interval_exit_2(self, mixture_files, tmp_path,
                                                capsys, alpha):
        spath, cpath, *_ = mixture_files
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "snv", "--alpha", alpha,
                     "--out", str(out)])
        assert code == 2
        assert (f"error: SpecselError: alpha must be in (0, 1), got "
                f"{float(alpha)}\n" in capsys.readouterr().err)
        assert not out.exists()

    def test_concentrations_without_species_exit_2(self, mixture_files,
                                                   tmp_path, capsys):
        spath, cpath, *_ = mixture_files
        header_only = tmp_path / "c0.csv"
        header_only.write_text(cpath.read_text().splitlines()[0] + "\n")
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(header_only), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert (f"error: IoFailure: {header_only}: no species rows after the "
                f"header" in capsys.readouterr().err)

    def test_unwritable_report_exit_2(self, mixture_files, tmp_path, capsys):
        spath, cpath, *_ = mixture_files
        out = tmp_path / "no_such_dir" / "report.json"
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "identity", "--out", str(out)])
        assert code == 2
        assert "error: IoFailure: cannot write" in capsys.readouterr().err

    def test_failed_candidate_in_report(self, tmp_path):
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "snv",
                     "--candidate", "peak_normalize(5000)", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        error = ("WindowOutsideAxis: spectrum 's000', step "
                 "peak_normalize(5000,10): window [4990, 5010] cm-1 not "
                 "inside axis [400, 1800] cm-1")
        assert payload["candidates"][1] == {
            "pipeline": "peak_normalize(5000,10)", "ok": False, "error": error}
        assert (f"candidate peak_normalize(5000,10) failed: {error}"
                in payload["alerts"])
        assert payload["chosen_pipeline"] == "snv"

    def test_every_candidate_failed_names_each_failure_once(self, tmp_path,
                                                           capsys):
        spectra, conc, _ = noiseless_mixtures(n_samples=3, n_species=2)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: AllCandidatesFailed: every candidate pipeline failed: "
            "TooFewSpectra: leave-one-out over 1..i-2 components needs "
            "i >= 4 spectra, got 3\n")

    def test_savgol_without_fit_is_a_failed_entry(self, tmp_path,
                                                  monkeypatch):
        # a least-squares operator that cannot be built (here by an SVD
        # that does not converge) fails its candidate, not the run
        def no_convergence(design):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "pinv", no_convergence)
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        out = tmp_path / "report.json"
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "snv",
                     "--candidate", "savgol(7,2)", "--out", str(out)])
        assert code in (0, 3)
        assert json.loads(out.read_text())["candidates"][1] == {
            "pipeline": "savgol(7,2,0)", "ok": False,
            "error": "BadOrder: spectrum 's000', step savgol(7,2,0): window "
                     "7 and polyorder 2 give no least-squares fit (SVD did "
                     "not converge)"}

    def test_overflowing_savgol_candidate_exit_2(self, tmp_path, capsys):
        # refused by the parser, as every out-of-range candidate is
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        code = main(["select", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--candidate", "snv",
                     "--candidate", "savgol(301,150,0)",
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: PipelineSyntaxError: step savgol(301,150,0): window 301 "
            "and polyorder 150 overflow the fit: (window // 2) ** polyorder "
            "is not a finite float\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("pipeline", ["peak_normalize(5000)",
                                          "baseline_als(1e300)"])
    def test_failed_pipeline_reads_the_same_everywhere(self, tmp_path, capsys,
                                                       pipeline):
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        data = ["--spectra", str(spath), "--concentrations", str(cpath)]
        capsys.readouterr()
        assert main(["crossval", *data, "--pipeline", pipeline,
                     "--out-dir", str(tmp_path / "cv")]) == 2
        crossval_err = capsys.readouterr().err
        assert main(["train", *data, "--pipeline", pipeline, "--pc", "2",
                     "--out-model", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == crossval_err
        out = tmp_path / "report.json"
        assert main(["select", *data, "--candidate", "snv",
                     "--candidate", pipeline, "--out", str(out)]) == 0
        failed = json.loads(out.read_text())["candidates"][1]
        assert crossval_err == f"error: {failed['error']}\n"
        if pipeline.startswith("peak_normalize"):
            assert failed["error"] == (
                "WindowOutsideAxis: spectrum 's000', step "
                "peak_normalize(5000,10): window [4990, 5010] cm-1 not "
                "inside axis [400, 1800] cm-1")

    def test_duplicated_spectra_keep_complete_columns(self, tmp_path):
        # four spectra, each twice: every fold has 3 of 6 components, so
        # the report covers pc_1 to pc_3, each with a value per fold
        spectra, conc = synth.tears_phantom(8, 7)
        twice = np.r_[0:4, 0:4]
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, SpectraSet(spectra.axis, spectra.matrix[twice],
                                       spectra.labels))
        save_concentrations(cpath, ConcentrationSet(
            conc.matrix[:, twice], conc.species, conc.units), spectra.labels)
        out = tmp_path / "report.json"
        main(["select", "--spectra", str(spath), "--concentrations",
              str(cpath), "--candidate", "identity", "--out", str(out)])
        def refuse(constant):
            raise AssertionError(f"{constant} in the report")

        text = out.read_text()
        assert "null" not in text
        entry = json.loads(text, parse_constant=refuse)["candidates"][0]
        for values in (entry["sum_press"], entry["anova"]["group_means"]):
            assert len(values) == 3
            assert all(isinstance(v, float) for v in values)
        assert [box["n_valid"] for box in entry["boxplot"]] == [8, 8, 8]
        assert sum(alert.endswith("PC counts above 3 dropped")
                   for alert in json.loads(text)["alerts"]) == 8


class TestTrainPredict:
    def test_round_trip_recovers_concentrations(self, mixture_files, tmp_path):
        spath, cpath, spectra, conc = mixture_files
        model_path = tmp_path / "model.json"
        assert main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "identity", "--pc", "3",
                     "--out-model", str(model_path)]) == 0
        pred_path = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--spectra",
                     str(spath), "--out", str(pred_path)]) == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "species," + ",".join(spectra.labels)
        predicted = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.abs(predicted - conc.matrix).max() < 1e-8

    def test_estimates_past_the_float_range_exit_2(self, tmp_path, capsys):
        spectra, conc = synth.tears_phantom(8, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        model_path = tmp_path / "model.json"
        assert main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pc", "3",
                     "--out-model", str(model_path)]) == 0
        huge_path, out = tmp_path / "huge.csv", tmp_path / "p.csv"
        save_spectra(huge_path, SpectraSet(spectra.axis, spectra.matrix * 1e307,
                                           spectra.labels))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--spectra",
                     str(huge_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: NonFiniteValue: spectrum 's000': estimated concentrations "
            "are not finite\n")
        assert not out.exists()

    def test_axis_mismatch_exit_2(self, mixture_files, tmp_path):
        spath, cpath, spectra, conc = mixture_files
        model_path = tmp_path / "model.json"
        main(["train", "--spectra", str(spath), "--concentrations",
              str(cpath), "--pipeline", "identity", "--pc", "2",
              "--out-model", str(model_path)])
        from specsel.spectra import SpectraSet
        other = SpectraSet(spectra.axis * 1.001, spectra.matrix,
                           spectra.labels)
        other_path = tmp_path / "other.csv"
        save_spectra(other_path, other)
        code = main(["predict", "--model", str(model_path), "--spectra",
                     str(other_path), "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_only_select_imports_scipy_special(self, tmp_path):
        # scipy.special (the F distribution) costs a process about 0.07 s and
        # 3-4 MB to import, so only a command that computes a p-value may;
        # a fresh interpreter, because the test process imports it anyway
        script = textwrap.dedent("""
            import sys
            from specsel.cli import main
            data = ["--spectra", "s.csv", "--concentrations", "c.csv"]
            for argv in (
                    ["synth", "--n", "8", "--out-spectra", "s.csv",
                     "--out-concentrations", "c.csv"],
                    ["validate", *data],
                    ["crossval", *data, "--pipeline", "snv", "--out-dir", "cv"],
                    ["train", *data, "--pipeline", "snv", "--pc", "2",
                     "--out-model", "m.json"],
                    ["predict", "--model", "m.json", "--spectra", "s.csv",
                     "--out", "p.csv"]):
                assert main(argv) == 0, argv
                assert "scipy.special" not in sys.modules, argv[0]
            main(["select", *data, "--candidate", "snv", "--out", "r.json"])
            assert "scipy.special" in sys.modules
        """)
        run_fresh(script, tmp_path)

    def test_only_baseline_als_imports_scipy_linalg(self, tmp_path):
        # scipy.linalg (the banded Cholesky) costs a process about 28 MB and
        # a quarter of a second, so only a pipeline with baseline_als may
        # load it; importing the package or the CLI loads no scipy at all
        script = textwrap.dedent("""
            import sys
            import specsel
            import specsel.cli
            assert not [m for m in sys.modules if m.startswith("scipy")]
            from specsel.cli import main
            data = ["--spectra", "s.csv", "--concentrations", "c.csv"]
            for argv in (
                    ["synth", "--n", "8", "--out-spectra", "s.csv",
                     "--out-concentrations", "c.csv"],
                    ["validate", *data],
                    ["crossval", *data, "--pipeline", "snv", "--out-dir", "cv"],
                    ["train", *data, "--pipeline", "snv", "--pc", "2",
                     "--out-model", "m.json"],
                    ["predict", "--model", "m.json", "--spectra", "s.csv",
                     "--out", "p.csv"],
                    ["select", *data, "--candidate", "snv", "--out", "r.json"]):
                assert main(argv) in (0, 3), argv
                assert "scipy.linalg" not in sys.modules, argv[0]
            main(["crossval", *data, "--pipeline", "baseline_als",
                  "--out-dir", "cv_als"])
            assert "scipy.linalg" in sys.modules
        """)
        run_fresh(script, tmp_path)

    def test_dir_lists_every_public_name_and_submodule(self):
        # in this process too, not only in the fresh one below
        listed = set(dir(specsel))
        assert {*specsel.__all__, "preprocess", "synth", "_parallel"} <= listed

    def test_submodule_loads_at_first_attribute_access(self, tmp_path):
        # the package's __getattr__ imports a submodule no import has
        # bound yet, and refuses a name it does not own
        script = textwrap.dedent("""
            import sys
            import specsel
            assert "specsel.crossval" not in sys.modules
            assert specsel.crossval is sys.modules["specsel.crossval"]
            try:
                specsel.nosuch
            except AttributeError as exc:
                assert "'nosuch'" in str(exc), exc
            else:
                raise AssertionError("no AttributeError")
        """)
        run_fresh(script, tmp_path)

    def test_commands_import_only_the_modules_they_run(self, tmp_path,
                                                      mixture_files):
        # importing the package loads no submodule, the CLI the modules
        # README lists, and synth, validate and predict add only what they
        # run and never a thread pool; a fresh interpreter, because the
        # test process has them all
        spath, cpath, *_ = mixture_files
        assert main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "snv", "--pc", "2",
                     "--out-model", str(tmp_path / "m.json")]) == 0
        script = textwrap.dedent("""
            import sys
            import specsel

            def loaded():
                return sorted(m for m in sys.modules
                              if m.startswith("specsel"))

            assert loaded() == ["specsel"]
            from specsel.cli import main
            expected = ["specsel", "specsel.cli", "specsel.decompose",
                        "specsel.errors", "specsel.significance",
                        "specsel.spectra"]
            assert loaded() == expected, loaded()
            for argv, adds in (
                    (["synth", "--n", "8", "--out-spectra", "s8.csv",
                      "--out-concentrations", "c8.csv"], ["specsel.synth"]),
                    (["validate", "--spectra", "spectra.csv",
                      "--concentrations", "conc.csv"], []),
                    (["predict", "--model", "m.json", "--spectra",
                      "spectra.csv", "--out", "p.csv"],
                     ["specsel.preprocess", "specsel.regress"])):
                assert main(argv) == 0, argv
                expected = sorted(expected + adds)
                assert loaded() == expected, (argv[0], loaded())
                assert "concurrent.futures" not in sys.modules, argv[0]
            listed = dir(specsel)
            for name in specsel.__all__:
                assert getattr(specsel, name) is not None, name
                assert name in listed, name
            for module in ("crossval", "decompose", "errors", "preprocess",
                           "regress", "selector", "significance", "spectra",
                           "synth", "_parallel"):
                assert getattr(specsel, module) is sys.modules[
                    f"specsel.{module}"], module
            assert specsel.load_spectra is specsel.spectra.load_spectra
            try:
                specsel.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("no AttributeError")
        """)
        run_fresh(script, tmp_path)

    def test_csv_trained_model_equals_in_memory_model(self, tmp_path):
        from specsel.preprocess import parse_pipeline
        from specsel.regress import save_model
        from specsel.selector import train_final
        from specsel.synth import tears_phantom
        spectra, conc = tears_phantom(40, 7)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        from_csv = tmp_path / "csv.json"
        in_memory = tmp_path / "memory.json"
        assert main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "snv", "--pc", "5",
                     "--out-model", str(from_csv)]) == 0
        save_model(in_memory,
                   train_final(spectra, conc, parse_pipeline("snv"), 5))
        assert from_csv.read_bytes() == in_memory.read_bytes()

    @pytest.mark.parametrize("pc,printed", [
        ("3", "(identity, 3 components)"),
        ("6", "(identity, 3 components; 6 requested)"),
    ])
    def test_train_reports_components_the_model_has(self, mixture_files,
                                                    tmp_path, capsys, pc,
                                                    printed):
        # three noiseless species span a rank-3 set: no fourth component
        spath, cpath, *_ = mixture_files
        model_path = tmp_path / "model.json"
        assert main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "identity", "--pc", pc,
                     "--out-model", str(model_path)]) == 0
        assert printed in capsys.readouterr().out
        coeffs = json.loads(model_path.read_text())["coeffs"]
        assert np.shape(coeffs) == (3, 3)

    def test_train_keeps_only_well_conditioned_components(self, tmp_path,
                                                          capsys):
        spectra, conc = weak_third_direction()
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        model_path = tmp_path / "model.json"
        assert main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "identity", "--pc", "3",
                     "--out-model", str(model_path)]) == 0
        assert ("(identity, 2 components; 3 requested)"
                in capsys.readouterr().out)
        assert np.shape(json.loads(model_path.read_text())["coeffs"]) == (2, 2)

    def test_model_file_round_trip_bit_identical(self, mixture_files,
                                                 tmp_path):
        spath, cpath, *_ = mixture_files
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        for path in (m1, m2):
            main(["train", "--spectra", str(spath), "--concentrations",
                  str(cpath), "--pipeline", "snv", "--pc", "3",
                  "--out-model", str(path)])
        assert m1.read_bytes() == m2.read_bytes()

    def test_identical_spectra_exit_2(self, tmp_path, capsys):
        # no spread, so no component: the regression has nothing to fit
        from specsel.synth import tears_phantom
        spectra, conc = tears_phantom(6, 3)
        spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
        save_spectra(spath, SpectraSet(
            spectra.axis, np.tile(spectra.matrix[0], (spectra.n_spectra, 1)),
            spectra.labels))
        save_concentrations(cpath, conc, spectra.labels)
        model_path = tmp_path / "model.json"
        code = main(["train", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--pipeline", "identity", "--pc", "2",
                     "--out-model", str(model_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: SingularScores: no usable component, so no regression "
            "to fit\n")
        assert not model_path.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.pop("loadings"), "no 'loadings' entry"),
        (lambda p: p.update(loadings=p["loadings"][:-1]),
         "loadings has shape (700, 3), expected (701, 3)"),
        (lambda p: p.update(mean_spectrum=p["mean_spectrum"][:-1]),
         "mean_spectrum has shape (700,), expected (701,)"),
        (lambda p: p.update(coeffs=p["coeffs"][:2]),
         "coeffs has shape (2, 3), expected (3, 3)"),
        (lambda p: p.update(mean_conc=p["mean_conc"] + [0.0]),
         "mean_conc has shape (4,), expected (3,)"),
        (lambda p: p.update(version=99),
         "unsupported model version 99, expected 1"),
        (lambda p: p.update(version=True),
         "unsupported model version True, expected 1"),
        (lambda p: p.update(format="other-model"),
         "not a specsel-pcr-model file"),
        (lambda p: p.update(pipeline=5), "pipeline must be a string, got 5"),
        (lambda p: p.update(pipeline=None),
         "pipeline must be a string, got None"),
        (lambda p: p.update(species="abc"),
         "species must be a list of strings, got 'abc'"),
        (lambda p: p.update(species=[0, 1, 2]),
         "species must be a list of strings, got [0, 1, 2]"),
        (lambda p: p.update(units=None),
         "units must be a list of strings, got None"),
        (lambda p: p.update(units=p["units"][:-1]), "2 units for 3 species"),
        (lambda p: p["coeffs"][0].__setitem__(0, float("nan")),
         "coeffs has a non-finite value"),
        (lambda p: p.update(loadings=[[] for _ in p["loadings"]],
                            coeffs=[[] for _ in p["coeffs"]]),
         "model has no components"),
        (lambda p: p.update(axis=5), "axis has shape (), expected (1,)"),
        (lambda p: p["loadings"][3].pop(), "not a valid model file: "),
        (lambda p: p.update(species=["sp1", "sp0", "sp1"]),
         "duplicate species ['sp1']"),
        (lambda p: p.update(pipeline="bogus(1)"),
         "unknown preprocessing step 'bogus'"),
        (lambda p: p.update(axis=p["axis"][::-1]),
         "wavenumber axis not strictly increasing at row 1 (1800 -> 1798)"),
    ], ids=["missing_key", "loadings", "mean_spectrum", "coeffs",
            "mean_conc", "version", "version_true", "format", "pipeline_int",
            "pipeline_null", "species_string", "species_not_strings",
            "units_null", "units_length", "coeffs_nan", "no_components",
            "axis_scalar", "ragged_loadings", "species_duplicate",
            "pipeline_unknown", "axis_reversed"])
    def test_malformed_model_exit_2(self, mixture_files, tmp_path, capsys,
                                    edit, message):
        spath, cpath, *_ = mixture_files
        model_path = tmp_path / "model.json"
        main(["train", "--spectra", str(spath), "--concentrations",
              str(cpath), "--pipeline", "identity", "--pc", "3",
              "--out-model", str(model_path)])
        payload = json.loads(model_path.read_text())
        edit(payload)
        model_path.write_text(json.dumps(payload))
        code = main(["predict", "--model", str(model_path), "--spectra",
                     str(spath), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: IoFailure:" in err and message in err
