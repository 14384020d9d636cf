import csv
import dataclasses
import hashlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinlind
from spinlind import cli
from spinlind import mastereq as me
from spinlind import spectrum as sp
from spinlind.config import MODES, load_config
from spinlind.errors import AccuracyError, ValidationError
from spinlind.artifact import fmt12

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parents[1] / "benchmark" / "golden"

# SHA-256 of the shipped spectra's SVG plots, from the per-term route the
# array route replaced
SVG_SHA256 = {
    "naphthalene": "d5637bbbbc1e77af9fa0a496a5e230410549b03cc35c7e62a40c25f23e359d5f",
    "biphenyl": "00746278daa3881c3ba5e2e4a0f411e8e7832eaaf63b244ac5f325f8cd0bb504",
    "anthracene": "ed8bd021690693045180751ccffa54e2ece2ff2df3bd40d5a089d01e252c93bf",
}


def run_cli(args):
    return cli.main([str(a) for a in args])


# numeric tokens: ordinary values, float reprs (nan, inf, subnormals, 1e+308),
# integers and spellings float() reads as non-finite or as 0
_NUMBER = (st.sampled_from(["0", "0.5", "1", "2", "-1", "1e-3", "3400"])
           | st.floats().map(repr) | st.integers(-10 ** 6, 10 ** 6).map(str)
           | st.sampled_from(["nan", "-inf", "Infinity", "1e999", "-1e999", "1e-999", "5e-324"]))
_SECTIONS = {
    "system": ("spins", "gammas"),
    "field": ("b_o", "b_1", "center", "width"),
    "thermal": ("beta", "temperature_kelvin"),
    "group:e": ("j", "count", "gamma", "abundance", "lambda.h"),
    "group:h": ("j", "count", "gamma"),
    "propagate": ("t_end", "dt", "store_every"),
    "qubit": ("t_end", "n_points", "dt", "tolerance"),
    "acp": ("order",),
}


@st.composite
def _config_texts(draw):
    """Config text from the grammar's sections and keys, every number a drawn token."""
    lines = [f"[run]\nmode = {draw(st.sampled_from(MODES))}"]
    for name, keys in _SECTIONS.items():
        if not draw(st.booleans()):
            continue
        lines.append(f"[{name}]")
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)):
            count = draw(st.integers(1, 2)) if key in ("spins", "gammas") else 1
            lines.append(f"{key} = " + " ".join(draw(st.lists(_NUMBER, min_size=count,
                                                                max_size=count))))
        if name == "system" and draw(st.booleans()):
            row = lambda: " ".join(draw(st.lists(_NUMBER, min_size=2, max_size=2)))
            lines.append(f"couplings = {row()}; {row()}")
        if name == "field":
            lines.append(f"dist = {draw(st.sampled_from(['lorentzian', 'gaussian', 'delta']))}")
    lines.append("[spectrum]\nresonance = e")
    return "\n".join(lines) + "\n"


def _config_numbers(cfg):
    """Every number a loaded RunConfig holds, nested ones included."""
    numbers = [cfg.field_b_o, cfg.field_b_1, cfg.beta, cfg.t_end, cfg.dt, cfg.store_every,
               cfg.n_points, cfg.tolerance, cfg.acp_order]
    if cfg.dist is not None:
        numbers += [cfg.dist.center, cfg.dist.width]
    if cfg.system is not None:
        numbers += [*cfg.system.spins, *cfg.system.gammas, *cfg.system.couplings.ravel()]
    for g in cfg.groups:
        numbers += [g.j, g.count, g.gamma, g.abundance, *g.lambdas.values()]
    return [float(x) for x in numbers if x is not None]


class TestConfigParsing:
    def test_shipped_configs_parse(self):
        for name in ("naphthalene", "biphenyl", "anthracene", "qubit",
                     "two_spin", "acp_two_spin"):
            cfg = load_config(CONFIGS / f"{name}.cfg")
            assert cfg.mode in ("spectrum", "qubit", "propagate", "acp")

    def test_thermal_exclusivity(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nmode = acp\n[system]\nspins = 0.5\ngammas = 1\n"
                       "[field]\nb_o = 1\nb_1 = 0\n"
                       "[thermal]\nbeta = 1\ntemperature_kelvin = 300\n")
        with pytest.raises(ValidationError):
            load_config(bad)

    def test_temperature_kelvin_accepted(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("[run]\nmode = acp\n[system]\nspins = 0.5\ngammas = 1\n"
                        "[field]\nb_o = 1\nb_1 = 0\ndist = lorentzian\n"
                        "center = 1\nwidth = 0.1\n"
                        "[thermal]\ntemperature_kelvin = 300\n")
        cfg = load_config(good)
        assert cfg.beta > 0

    def test_empty_molecule_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nmode = spectrum\n[spectrum]\nresonance = e\n")
        with pytest.raises(ValidationError):
            load_config(bad)

    def test_unknown_resonance_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nmode = spectrum\n"
                       "[group:a]\nj = 0.5\ncount = 1\ngamma = 1\n"
                       "[spectrum]\nresonance = zz\n")
        with pytest.raises(ValidationError):
            load_config(bad)

    @settings(max_examples=300, deadline=None)
    @given(_config_texts())
    # a finite spin quantum number whose 2j overflows: once an OverflowError in round()
    @example("[run]\nmode = propagate\n[system]\nspins = 8.98846567431158e+307\n"
             "gammas = 0\n[spectrum]\nresonance = e\n")
    @example("[run]\nmode = spectrum\n[group:h]\nj = 9e307\ncount = 1\ngamma = 0\n"
             "[spectrum]\nresonance = e\n")
    def test_numbers_load_finite_or_raise_validation_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "property.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
        except ValidationError:
            return
        assert np.all(np.isfinite(_config_numbers(cfg)))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line, section, key", [
        ("b_o = 1.0", "field", "b_o"),
        ("b_1 = 1.0e-3", "field", "b_1"),
        ("beta = 2.0e-4", "thermal", "beta"),
    ])
    def test_non_finite_field_and_beta_rejected_at_load(self, tmp_path, monkeypatch, capsys,
                                                        line, section, key, value):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "two_spin.cfg").read_text()
        assert line in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(line, f"{key} = {value}"))
        with pytest.raises(ValidationError, match=rf"\[{section}\] {key} must be finite"):
            load_config(bad)
        # verify mode used to build and FAIL its checks on such a field
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out, "--mode", "verify"]) == cli.EXIT_VALIDATION
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("kelvin", ["1e-320", "5e-324"])
    def test_temperature_without_a_finite_beta_rejected(self, tmp_path, kelvin):
        text = (CONFIGS / "two_spin.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("beta = 2.0e-4", f"temperature_kelvin = {kelvin}"))
        with pytest.raises(ValidationError, match="finite beta"):
            load_config(bad)

    @pytest.mark.parametrize("replacement, named, what", [
        ("lambda.h2 = 1.83\nlambda.h9 = 3.0", "lambda.h9", "no defined group"),
        ("lambda.e = 1.83", "lambda.e", "the group itself"),
    ], ids=["undefined", "itself"])
    def test_lambda_toward_no_other_group_rejected(self, tmp_path, monkeypatch, capsys,
                                                   replacement, named, what):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "naphthalene.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("lambda.h2 = 1.83", replacement))
        with pytest.raises(ValidationError, match=rf"\[group:e\] {named} names {what}"):
            load_config(bad)
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        assert f"[group:e] {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_ragged_couplings_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "two_spin.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("couplings = 0 40.0; 40.0 0", "couplings = 0 1; 1"))
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "[system] couplings" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[run]\nmode = propagate\n[system]\nspins = 8.98846567431158e+307\ngammas = 0\n"
        "[spectrum]\nresonance = e\n",
        "[run]\nmode = spectrum\n[group:h]\nj = 9e307\ncount = 1\ngamma = 0\n"
        "[spectrum]\nresonance = h\n",
    ], ids=["system", "group"])
    def test_overflowing_spin_quantum_number_rejected(self, tmp_path, monkeypatch, capsys,
                                                      text):
        # 2j of a finite j overflows to inf; round() once raised OverflowError on it
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error in config" in err and "spin quantum number" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run\nmode = spectrum\n")
        with pytest.raises(ValidationError) as err:
            load_config(bad)
        assert "line" in str(err.value)


    @pytest.mark.parametrize("text, scaled", [("off", False), ("No", False), ("on", True),
                                              ("1", True)])
    def test_scaled_flag_spellings(self, tmp_path, text, scaled):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text((CONFIGS / "naphthalene.cfg").read_text().replace(
            "resonance = e\n", f"resonance = e\nscaled = {text}\n"))
        assert load_config(cfg).scaled is scaled

    def test_scaled_flag_that_is_not_a_boolean_refused(self, tmp_path):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text((CONFIGS / "naphthalene.cfg").read_text().replace(
            "resonance = e\n", "resonance = e\nscaled = maybe\n"))
        with pytest.raises(ValidationError, match="expected a boolean, got 'maybe'"):
            load_config(cfg)

    @pytest.mark.parametrize("head", ["", "[run]\n", "[run]\nmodes = acp\n"])
    def test_missing_run_mode_refused(self, tmp_path, head):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(head + "[spectrum]\nresonance = e\n")
        with pytest.raises(ValidationError, match=r"config must declare \[run\] mode"):
            load_config(cfg)

    @pytest.mark.parametrize("drop, message", [
        ("thermal", "mode 'propagate' requires a [thermal] section"),
        ("field", "mode 'propagate' requires a [field] section"),
        ("propagate", "mode 'propagate' requires t_end"),
    ])
    def test_propagate_requirements(self, tmp_path, drop, message):
        text = (CONFIGS / "two_spin.cfg").read_text()
        start = text.index(f"[{drop}]")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text[:start] + text[text.index("[", start + 1):])
        with pytest.raises(ValidationError) as info:
            load_config(cfg)
        assert str(info.value) == message

    def test_acp_needs_a_field(self, tmp_path):
        text = (CONFIGS / "acp_two_spin.cfg").read_text()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text[:text.index("[field]")] + text[text.index("[thermal]"):])
        with pytest.raises(ValidationError, match=r"mode 'acp' requires a \[field\] section"):
            load_config(cfg)

    @pytest.mark.parametrize("config, section", [("two_spin", "propagate"),
                                                 ("qubit", "qubit")])
    def test_time_section_needs_t_end(self, tmp_path, config, section):
        text = (CONFIGS / f"{config}.cfg").read_text()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("t_end = ", "t_stop = "))
        with pytest.raises(ValidationError, match=rf"\[{section}\] requires t_end"):
            load_config(cfg)

    def test_spectrum_needs_a_resonance(self, tmp_path):
        text = (CONFIGS / "naphthalene.cfg").read_text()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("resonance = e", "scaled = no"))
        with pytest.raises(ValidationError, match=r"requires \[spectrum\] resonance"):
            load_config(cfg)


class TestSpectrumMode:
    def test_naphthalene_run_and_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        code = run_cli(["--config", CONFIGS / "naphthalene.cfg", "--out", tmp_path])
        assert code == 0
        spec = sp.parse_csv(tmp_path / "naphthalene_spectrum.csv")
        assert len(spec.lines) == 25
        assert (tmp_path / "naphthalene_spectrum.svg").exists()

    def test_run_builds_no_line_objects(self, tmp_path, monkeypatch, capsys):
        # the CSV, the SVG and the verbose report read the columns only
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        made, real = [], sp.stick_spectrum

        def recorded(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(sp, "stick_spectrum", recorded)
        assert run_cli(["--config", CONFIGS / "biphenyl.cfg", "--out", tmp_path,
                        "--verbose"]) == 0
        (spec,) = made
        assert "lines" not in spec.__dict__
        assert f"{len(spec.delta_b)} lines, total intensity 1024" in capsys.readouterr().out
        assert len(spec.lines) == len(spec.delta_b) and "lines" in spec.__dict__

    def test_deterministic_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["--config", CONFIGS / "biphenyl.cfg", "--out", out1]) == 0
        assert run_cli(["--config", CONFIGS / "biphenyl.cfg", "--out", out2]) == 0
        csv1 = (out1 / "biphenyl_spectrum.csv").read_bytes()
        csv2 = (out2 / "biphenyl_spectrum.csv").read_bytes()
        assert csv1 == csv2

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_dir"
        monkeypatch.setenv("SPINLIND_OUT", str(env_dir))
        code = run_cli(["--config", CONFIGS / "naphthalene.cfg",
                        "--out", tmp_path / "flag_dir"])
        assert code == 0
        assert (env_dir / "naphthalene_spectrum.csv").exists()
        assert not (tmp_path / "flag_dir" / "naphthalene_spectrum.csv").exists()

    @pytest.mark.parametrize("name", sorted(SVG_SHA256))
    def test_shipped_artifacts_pinned(self, tmp_path, monkeypatch, name):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        assert run_cli(["--config", CONFIGS / f"{name}.cfg", "--out", tmp_path]) == 0
        csv_name = f"{name}_spectrum.csv"
        assert (tmp_path / csv_name).read_bytes() == (GOLDEN / csv_name).read_bytes()
        svg = (tmp_path / f"{name}_spectrum.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == SVG_SHA256[name]

    def test_oversized_expansion_refused_before_allocating(self, tmp_path, monkeypatch,
                                                           capsys):
        # ten groups of four protons: 5**10 = 9765625 terms, 78 MB for one
        # int64 column of the term table alone
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        lambdas = "".join(f"lambda.h{i} = {0.3 + 0.7 * i}\n" for i in range(10))
        protons = "".join(f"[group:h{i}]\nj = 0.5\ncount = 4\ngamma = 2.6752e4\n"
                          for i in range(10))
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       f"[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\n{lambdas}"
                       f"{protons}[spectrum]\nresonance = e\n")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run_cli(["--config", cfg, "--out", out])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'e' expands to 9765625 terms" in err and "Traceback" not in err
        assert peak < 5_000_000
        assert not list(out.glob("*"))

    def test_coefficient_bytes_refused_before_allocating(self, tmp_path, monkeypatch, capsys):
        # 200 000 equivalent protons: 200 001 terms, about 5 GB of exact coefficients
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\nlambda.h = 0.5\n"
                       "[group:h]\nj = 0.5\ncount = 200000\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e\n")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run_cli(["--config", cfg, "--out", out])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "MB of exact coefficients" in err and "Traceback" not in err
        assert peak < 5_000_000
        assert not list(out.glob("*"))

    def test_positions_past_the_float_range_refused(self, tmp_path, monkeypatch, capsys):
        # a finite splitting of 1.5e308 G per proton once wrote "inf" to the CSV, which
        # parse_csv refuses, and x1="nan" to the SVG, and exited 0
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "huge_lambda.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\nlambda.h = 1.5e308\n"
                       "[group:h]\nj = 0.5\ncount = 2\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err and "exceed the float range" in err
        assert "Traceback" not in err and not list(out.glob("*"))

    def test_scaled_zero_gamma_is_validation_error(self, tmp_path, monkeypatch, capsys):
        # all-zero scaled intensities used to reach the SVG as a ZeroDivisionError
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "naphthalene.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("gamma = -1.7608e7", "gamma = 0")
                       .replace("resonance = e", "resonance = e\nscaled = true"))
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'e' has gamma = 0.0" in err and "Traceback" not in err
        assert not list(out.glob("*"))

    def test_intensities_beyond_float_range_written_exactly(self, tmp_path, monkeypatch):
        # 1100 equivalent protons: C(1100, 550) ~ 1e329 overflows a float
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\nlambda.h = 0.5\n"
                       "[group:h]\nj = 0.5\ncount = 1100\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e\n[output]\nbasename = wide\n")
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 0
        with open(tmp_path / "wide_spectrum.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[1]) for row in rows] == [math.comb(1100, k) for k in range(1101)]
        svg = (tmp_path / "wide_spectrum.svg").read_text()
        assert svg.count('class="stick"') == 1101
        assert f">{math.comb(1100, 550)}</text>" in svg

    @pytest.mark.parametrize("neighbors", [0, 1100])
    def test_scaled_intensities_beyond_float_range_dimension(self, tmp_path, monkeypatch,
                                                             neighbors):
        # 1100 spin-1/2 in the resonance group or beside it: the subspace
        # dimension 2^1100 (or 2^1101) used to overflow a float in
        # intensity_scale; each weight is now one exact quotient, rounded once
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        gamma = -1.7608e7
        res = (f"[group:e]\nj = 0.5\ncount = 1\ngamma = {gamma}\nlambda.h = 0.5\n"
               "[group:h]\nj = 0.5\ncount = 1100\ngamma = 2.6752e4\n" if neighbors
               else f"[group:e]\nj = 0.5\ncount = 1100\ngamma = {gamma}\n")
        cfg = tmp_path / "scaled.cfg"
        cfg.write_text("[run]\nmode = spectrum\n" + res
                       + "[spectrum]\nresonance = e\nscaled = true\n"
                       "[output]\nbasename = scaled\n")
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 0
        with open(tmp_path / "scaled_spectrum.csv", newline="") as fh:
            got = [float(row[1]) for row in list(csv.reader(fh))[1:]]
        g_num, g_den = gamma.as_integer_ratio()
        if neighbors:
            want = [math.comb(1100, k) * g_num ** 2 / (g_den ** 2 * 2 ** 1101)
                    for k in range(1101)]
        else:
            want = [1100 * g_num ** 2 / (g_den ** 2 * 2 ** 1100)]
        assert all(math.isfinite(v) for v in got) and max(got) > 0
        assert got == pytest.approx(want, rel=1e-11)

    def test_scaled_intensity_beyond_float_range_is_validation_error(self, tmp_path,
                                                                     monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("[run]\nmode = spectrum\n[group:e]\nj = 0.5\ncount = 1\ngamma = 1e200\n"
                       "[spectrum]\nresonance = e\nscaled = true\n[output]\nbasename = loud\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "exceeds the float range" in err and "Traceback" not in err
        assert not list(out.glob("*"))

    def test_intensity_beyond_int_str_limit_is_validation_error(self, tmp_path, monkeypatch,
                                                               capsys, default_int_str_limit):
        # 15 000 equivalent protons: C(15000, 7500) has 4514 digits, past
        # CPython's default 4300-digit int-to-str limit
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\nlambda.h = 0.5\n"
                       "[group:h]\nj = 0.5\ncount = 15000\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e\n[output]\nbasename = huge\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "scaled = true" in err and "Traceback" not in err
        assert not list(out.glob("*_spectrum.csv"))

    def test_repeated_resonance_label_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\nlambda.h = 0.5\n"
                       "[group:h]\nj = 0.5\ncount = 2\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e e\n[output]\nbasename = twice\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "repeat a label" in err and "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())

    def test_quoted_label_round_trips(self, tmp_path):
        # "n,x" makes the writer quote every config cell; "α" is written as
        # UTF-8, and no file is opened in the locale's default encoding
        cfg = tmp_path / "quoted.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\n"
                       "lambda.n,x = 2.0\nlambda.α = 0.7\n"
                       "[group:n,x]\nj = 1.0\ncount = 2\ngamma = 1.9338e3\n"
                       "[group:α]\nj = 0.5\ncount = 3\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e\n[output]\nbasename = quoted\n",
                       encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "SPINLIND_OUT"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(spinlind.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W",
                               "error::EncodingWarning", "-m", "spinlind.cli",
                               "--config", str(cfg), "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        raw = (tmp_path / "quoted_spectrum.csv").read_bytes()
        assert '"n,x=0;α=0"\r\n'.encode("utf-8") in raw
        back = sp.parse_csv(tmp_path / "quoted_spectrum.csv")
        want = sp.stick_spectrum(load_config(cfg).groups, "e")
        assert back.config_text == want.config_text
        assert [l.configs for l in back.lines] == [l.configs for l in want.lines]
        assert [l.intensity for l in back.lines] == [l.intensity for l in want.lines]

    @pytest.mark.parametrize("label", ["a=b", "a;b", "a|b"])
    def test_separator_in_label_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                    label):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nmode = spectrum\n"
                       "[group:e]\nj = 0.5\ncount = 1\ngamma = -1.7608e7\n"
                       f"[group:{label}]\nj = 0.5\ncount = 1\ngamma = 2.6752e4\n"
                       "[spectrum]\nresonance = e\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"group label {label!r}" in err and "Traceback" not in err
        assert not list(out.glob("*"))

    def test_config_that_is_not_utf8_is_validation_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[run]\nmode = spectrum\n[group:\xe9]\n".encode("latin-1"))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == cli.EXIT_VALIDATION

    def test_missing_config_is_io_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        code = run_cli(["--config", tmp_path / "nope.cfg", "--out", tmp_path])
        assert code == cli.EXIT_IO

    def test_invalid_config_is_validation_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nmode = spectrum\n")
        code = run_cli(["--config", bad, "--out", tmp_path])
        assert code == cli.EXIT_VALIDATION


class TestMatrixModes:
    def test_propagate_writes_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        code = run_cli(["--config", CONFIGS / "two_spin.cfg", "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "two_spin_trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) > 10

    def test_propagate_above_the_map_cap_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "two_spin.cfg").read_text()
        seven = ("spins = 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"
                 "gammas = -2.0e3 -2.1e3 -2.2e3 -2.3e3 -2.4e3 -2.5e3 -2.6e3\n")
        cfg = tmp_path / "seven.cfg"
        cfg.write_text(text.replace("spins = 0.5 0.5\ngammas = -2.0e3 -3.0e3\n"
                                    "couplings = 0 40.0; 40.0 0\n", seven))
        assert load_config(cfg).system.dim == 128
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "MAP_DIM_CAP = 64" in err and "Traceback" not in err
        assert not list(out.glob("*"))

    def test_acp_writes_zeta_table(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        code = run_cli(["--config", CONFIGS / "acp_two_spin.cfg", "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "acp_two_spin_zeta.json").read_text())
        assert payload["order"] == 3
        assert len(payload["zeta_recursive"]) == 4
        for rec, det in zip(payload["zeta_recursive"], payload["zeta_determinant"]):
            assert rec[0] == pytest.approx(det[0], abs=1e-10)
            assert rec[1] == pytest.approx(det[1], abs=1e-10)

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_acp_order_below_one_rejected(self, tmp_path, monkeypatch, order):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "acp_two_spin.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("order = 3", f"order = {order}"))
        with pytest.raises(ValidationError, match="order"):
            load_config(bad)
        assert run_cli(["--config", bad, "--out", tmp_path]) == cli.EXIT_VALIDATION
        assert not (tmp_path / "acp_two_spin_zeta.json").exists()

    @pytest.mark.parametrize("b_o", ["nan", "inf"])
    def test_acp_non_finite_field_rejected(self, tmp_path, monkeypatch, capsys, b_o):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "acp_two_spin.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("b_o = 3.0", f"b_o = {b_o}"))
        assert run_cli(["--config", bad, "--out", tmp_path]) == cli.EXIT_VALIDATION
        assert "b_o" in capsys.readouterr().err
        assert not (tmp_path / "acp_two_spin_zeta.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name, line, template", [
        ("gammas", "gammas = -2.0e3 -3.0e3", "gammas = -2.0e3 {}"),
        ("couplings", "couplings = 0 40.0; 40.0 0", "couplings = 0 {0}; {0} 0"),
        ("b_o", "b_o = 1.0", "b_o = {}"),
        ("b_1", "b_1 = 1.0e-3", "b_1 = {}"),
        ("center", "center = 2.0e3", "center = {}"),
        ("width", "width = 200.0", "width = {}"),
    ])
    def test_non_finite_input_rejected(self, tmp_path, monkeypatch, capsys,
                                       name, line, template, value):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "two_spin.cfg").read_text()
        assert line in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(line, template.format(value)))
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        assert name in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("config, line, replacement, name", [
        ("two_spin", "t_end = 0.02", "t_end = inf", "t_end"),
        ("two_spin", "t_end = 0.02", "t_end = nan", "t_end"),
        ("two_spin", "t_end = 0.02", "t_end = 0", "t_end"),
        ("two_spin", "t_end = 0.02", "t_end = -0.02", "t_end"),
        ("two_spin", "t_end = 0.02", "t_end = 0.02\ndt = nan", "dt"),
        ("two_spin", "t_end = 0.02", "t_end = 0.02\ndt = -1e-5", "dt"),
        ("two_spin", "t_end = 0.02", "t_end = 0.02\ndt = 0", "dt"),
        ("two_spin", "t_end = 0.02", "t_end = 0.02\nstore_every = 0", "store_every"),
        ("two_spin", "t_end = 0.02", "t_end = 0.02\nstore_every = two", "store_every"),
        ("qubit", "t_end = 0.284090909090909", "t_end = inf", "t_end"),
        ("qubit", "t_end = 0.284090909090909", "t_end = nan", "t_end"),
        ("qubit", "n_points = 120", "n_points = -3", "n_points"),
        ("qubit", "n_points = 120", "n_points = 0", "n_points"),
        ("qubit", "n_points = 120", "n_points = 1", "n_points"),
        ("qubit", "tolerance = 1e-6", "tolerance = nan", "tolerance"),
        ("qubit", "tolerance = 1e-6", "tolerance = -1e-6", "tolerance"),
        ("qubit", "tolerance = 1e-6", "tolerance = inf", "tolerance"),
        ("two_spin", "basename = two_spin", "basename = ../escaped", "basename"),
        ("two_spin", "basename = two_spin", "basename = sub/two_spin", "basename"),
        ("two_spin", "basename = two_spin", "basename = ..", "basename"),
        ("two_spin", "basename = two_spin", "basename = .", "basename"),
        ("two_spin", "basename = two_spin", "basename =", "basename"),
    ])
    def test_out_of_range_run_keys_rejected(self, tmp_path, monkeypatch, capsys,
                                            config, line, replacement, name):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / f"{config}.cfg").read_text()
        assert line in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(line, replacement))
        with pytest.raises(ValidationError, match=name):
            load_config(bad)
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        assert name in capsys.readouterr().err
        assert not list(out.glob("*"))
        assert list(tmp_path.rglob("*")) == [bad]     # nothing next to --out either

    @pytest.mark.parametrize("config, line, replacement, name", [
        ("two_spin", "b_o = 1.0", "b_o = abc", "b_o"),
        ("two_spin", "b_1 = 1.0e-3", "b_1 = weak", "b_1"),
        ("two_spin", "center = 2.0e3", "center = 2e3x", "center"),
        ("two_spin", "beta = 2.0e-4", "beta = x", "beta"),
        ("two_spin", "beta = 2.0e-4", "temperature_kelvin = warm", "temperature_kelvin"),
        ("two_spin", "gammas = -2.0e3 -3.0e3", "gammas = -2.0e3 y", "gammas"),
        ("two_spin", "couplings = 0 40.0; 40.0 0", "couplings = 0 40.0; z 0", "couplings"),
        ("acp_two_spin", "order = 3", "order = three", "order"),
        ("acp_two_spin", "order = 3", "order = 2.5", "order"),
        ("naphthalene", "count = 4", "count = four", "count"),
        ("naphthalene", "j = 0.5\ncount = 1", "j = half\ncount = 1", "j must be"),
        ("naphthalene", "lambda.h1 = 4.90", "lambda.h1 = wide", "lambda.h1"),
        ("naphthalene", "lambda.h1 = 4.90", "lambda.h1 = nan", "lambda.h1"),
        ("naphthalene", "lambda.h1 = 4.90", "lambda.h1 = inf", "lambda.h1"),
        ("naphthalene", "lambda.h2 = 1.83", "lambda.h2 = -inf", "lambda.h2"),
        ("naphthalene", "j = 0.5\ncount = 1", "j = nan\ncount = 1", "j must be"),
        ("naphthalene", "j = 0.5\ncount = 1", "j = inf\ncount = 1", "j must be"),
        ("naphthalene", "gamma = -1.7608e7", "gamma = nan", "gamma must be"),
        ("naphthalene", "gamma = -1.7608e7", "gamma = -inf", "gamma must be"),
    ])
    def test_non_numeric_or_non_finite_keys_rejected(self, tmp_path, monkeypatch, capsys,
                                                      config, line, replacement, name):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / f"{config}.cfg").read_text()
        assert line in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(line, replacement))
        with pytest.raises(ValidationError, match=name):
            load_config(bad)
        out = tmp_path / "out"
        assert run_cli(["--config", bad, "--out", out]) == cli.EXIT_VALIDATION
        assert name in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_verify_mode_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        code = run_cli(["--config", CONFIGS / "two_spin.cfg", "--out", tmp_path,
                        "--mode", "verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        report = json.loads((tmp_path / "two_spin_verify.json").read_text())
        assert all(report.values())

    def test_verify_mode_builds_one_model(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        built = []
        real = me.build_model

        def counted(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(me, "build_model", counted)
        assert run_cli(["--config", CONFIGS / "two_spin.cfg", "--out", tmp_path,
                        "--mode", "verify"]) == 0
        assert len(built) == 1
        report = json.loads((tmp_path / "two_spin_verify.json").read_text())
        assert list(report) == [
            "index-compression bijection", "Z0 + X reconstructs the static Hamiltonian",
            "[Sz, Z0] = 0", "ladder decomposition complete with steps +-1",
            "dissipator output traceless", "Lamb shift Hermitian and conserved"]

    def test_verify_mode_fails_an_incomplete_ladder(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        real = me.ladder_table

        def short(system, levels):
            table = real(system, levels)
            return dataclasses.replace(table, rows=table.rows[:-1], cols=table.cols[:-1],
                                       values=table.values[:-1], block=table.block[:-1])

        monkeypatch.setattr(me, "ladder_table", short)
        assert run_cli(["--config", CONFIGS / "two_spin.cfg", "--out", tmp_path,
                        "--mode", "verify"]) == cli.EXIT_ACCURACY
        assert "FAIL  ladder decomposition complete with steps +-1" in capsys.readouterr().out

    def test_verify_mode_refuses_a_model_build_model_refuses(self, tmp_path, monkeypatch,
                                                             capsys):
        # a driven delta line: a validation error on stderr and exit 1, as in
        # propagate mode, not FAIL lines and exit 2; no report is written
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "two_spin.cfg").read_text()
        assert "dist = lorentzian" in text and "width = 200.0" in text
        bad = tmp_path / "delta.cfg"
        bad.write_text(text.replace("dist = lorentzian", "dist = delta")
                       .replace("width = 200.0", "width = 0.0"))
        out = tmp_path / "out"
        for mode in ("verify", "propagate"):
            assert run_cli(["--config", bad, "--out", out, "--mode", mode]) == cli.EXIT_VALIDATION
            captured = capsys.readouterr()
            assert "validation error: a delta line gives no finite dissipator rates" in captured.err
            assert "FAIL" not in captured.out and "PASS" not in captured.out
        assert not list(out.glob("*"))

    def test_verify_mode_fails_a_check_that_raises_an_accuracy_error(self, tmp_path,
                                                                     monkeypatch, capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)

        def inaccurate(*args):
            raise AccuracyError("stand-in accuracy failure")

        monkeypatch.setattr(me, "dissipator", inaccurate)
        assert run_cli(["--config", CONFIGS / "two_spin.cfg", "--out", tmp_path,
                        "--mode", "verify", "--verbose"]) == cli.EXIT_ACCURACY
        out = capsys.readouterr().out
        assert "dissipator output traceless: raised stand-in accuracy failure" in out
        assert "FAIL  dissipator output traceless" in out
        assert "PASS  Lamb shift Hermitian and conserved" in out
        report = json.loads((tmp_path / "two_spin_verify.json").read_text())
        assert report["dissipator output traceless"] is False

    def test_qubit_mode_decomposes_the_generator_once(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        calls = {"_generator_entries": 0, "_eigensystem": 0}
        for name in calls:
            real = getattr(me, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(me, name, counted)
        assert run_cli(["--config", CONFIGS / "qubit.cfg", "--out", tmp_path]) == 0
        assert calls == {"_generator_entries": 1, "_eigensystem": 1}

    def test_qubit_n_points_beyond_the_frames_takes_every_frame(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "qubit.cfg").read_text().replace("n_points = 120",
                                                           "n_points = {}\ndt = 0.01")
        cfg = tmp_path / "frames.cfg"
        cfg.write_text(text.format(2))
        run = load_config(cfg)
        model = me.build_model(run.system, me.FieldConfig(run.field_b_o, run.field_b_1,
                                                          run.dist), run.beta)
        n_frames = me._time_grid(model, run.t_end, run.dt, None)[1].size
        cfg.write_text(text.format(n_frames))
        assert run_cli(["--config", cfg, "--out", tmp_path / "frames"]) == 0
        cfg.write_text(text.format(10 ** 7))
        tracemalloc.start()
        try:
            code = run_cli(["--config", cfg, "--out", tmp_path / "huge"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5_000_000     # a 10**7-point linspace alone is 80 MB
        want = (tmp_path / "frames" / "qubit_qubit.csv").read_bytes()
        assert (tmp_path / "huge" / "qubit_qubit.csv").read_bytes() == want
        assert want.count(b"\r\n") == n_frames + 1

    def test_qubit_mode_report(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        code = run_cli(["--config", CONFIGS / "qubit.cfg", "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "qubit_qubit_report.json").read_text())
        # numeric columns from the exact map, not a time stepper (RK4 gave 4e-10)
        assert report["max_abs_deviation"] < 1e-12
        assert report["n_compared"] == 120
        # the compared times are frames of the grid propagate stores on
        cfg = load_config(CONFIGS / "qubit.cfg")
        model = me.build_model(cfg.system, me.FieldConfig(cfg.field_b_o, cfg.field_b_1,
                                                          cfg.dist), cfg.beta)
        dt, steps = me._time_grid(model, cfg.t_end, cfg.dt, None)
        frames = {fmt12(float(t)) for t in steps * dt}
        rows = (tmp_path / "qubit_qubit.csv").read_text().splitlines()[1:]
        times = [row.split(",")[0] for row in rows]
        assert len(times) == 120 and set(times) <= frames
        assert times[0] == "0" and times[-1] == fmt12(cfg.t_end)


class TestExitCodes:
    @pytest.mark.parametrize("section", ["qubit", "propagate"])
    def test_unrepresentable_step_count_is_validation_error(self, tmp_path, monkeypatch,
                                                            capsys, section):
        # t_end / dt overflows to inf, which no step count can hold
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "qubit.cfg").read_text()
        text = text.replace("t_end = 0.284090909090909", "t_end = 1.0e200\ndt = 1.0e-200")
        if section == "propagate":
            text = text.replace("mode = qubit", "mode = propagate").replace(
                "[qubit]", "[propagate]").replace("n_points = 120\ntolerance = 1e-6\n", "")
        cfg = tmp_path / "over.cfg"
        cfg.write_text(text)
        assert load_config(cfg).t_end == 1.0e200
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err and "representable step count" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_qubit_tolerance_exceeded_is_accuracy_error(self, tmp_path, monkeypatch, capsys):
        # the map misses the closed form by about 6e-15, above a zero tolerance
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        cfg = tmp_path / "strict.cfg"
        cfg.write_text((CONFIGS / "qubit.cfg").read_text().replace("tolerance = 1e-6",
                                                                   "tolerance = 0"))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == cli.EXIT_ACCURACY
        assert "deviation exceeds tolerance" in capsys.readouterr().err
        assert (tmp_path / "qubit_qubit_report.json").exists()

    def test_qubit_nan_deviation_is_accuracy_error(self, tmp_path, monkeypatch, capsys):
        # NaN > tolerance is False, so a NaN deviation once passed with exit 0
        from spinlind import qubit

        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        monkeypatch.setattr(qubit, "trajectory", lambda params, t: np.full((3, np.size(t)),
                                                                           np.nan))
        assert run_cli(["--config", CONFIGS / "qubit.cfg", "--out", tmp_path]) == cli.EXIT_ACCURACY
        assert "deviation exceeds tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_qubit_past_the_float_range_of_phases_is_finite(self, tmp_path, monkeypatch, kind):
        # w0 t overflowed past t = 1e306: NaN columns, a NaN report and exit 0; every term has
        # decayed there, so each column holds its converged value
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        text = (CONFIGS / "qubit.cfg").read_text().replace(
            "t_end = 0.284090909090909", "t_end = 1.0e306\ndt = 1.0e304").replace(
            "dist = lorentzian", f"dist = {kind}")
        cfg = tmp_path / "late.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "qubit_qubit_report.json").read_text())
        assert report["max_abs_deviation"] <= 1e-6
        with open(tmp_path / "qubit_qubit.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 101 and all(math.isfinite(float(v)) for row in rows for v in row)

    @pytest.mark.parametrize("exc, code, label", [
        (AccuracyError("stand-in accuracy failure"), cli.EXIT_ACCURACY, "accuracy error"),
        (OSError("stand-in disk failure"), cli.EXIT_IO, "I/O error")])
    def test_runner_errors_map_to_exit_codes(self, tmp_path, monkeypatch, capsys, exc, code,
                                             label):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)

        def failing(cfg, out, verbose):
            raise exc

        monkeypatch.setattr(cli, "run_propagate", failing)
        assert run_cli(["--config", CONFIGS / "two_spin.cfg", "--out", tmp_path]) == code
        err = capsys.readouterr().err
        assert f"{label}: {exc}" in err and "Traceback" not in err

    def test_output_directory_that_cannot_be_made_is_io_error(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run_cli(["--config", CONFIGS / "naphthalene.cfg", "--out", blocker / "out"])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and "Traceback" not in err


class TestModeOverride:
    @pytest.mark.parametrize("config, mode, requirement", [
        ("two_spin", "qubit", "single spin-1/2 system"),
        ("two_spin", "spectrum", "[group:...] section"),
        ("naphthalene", "propagate", "explicit [system] spin list"),
        ("naphthalene", "relax", "mode must be one of"),
    ])
    def test_mode_override_is_validated(self, tmp_path, monkeypatch, capsys,
                                        config, mode, requirement):
        monkeypatch.delenv("SPINLIND_OUT", raising=False)
        out = tmp_path / "out"
        code = run_cli(["--config", CONFIGS / f"{config}.cfg", "--out", out,
                        "--mode", mode])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert requirement in err
        assert "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())


def _modules_after(code, cwd, prefix="scipy"):
    """``prefix*`` entries of sys.modules after running ``code`` in a fresh interpreter."""
    src = str(Path(spinlind.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "SPINLIND_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_code(config):
    """Code that runs the CLI on ``config`` into ``out``, asserting exit 0."""
    return (f"from spinlind import cli\n"
            f"assert cli.main(['--config', {str(config)!r}, '--out', 'out']) == 0")


class TestImportFootprint:
    def test_package_import_loads_no_scipy(self, tmp_path):
        # scipy is loaded on first use only, so an import-bound CLI run pays nothing for it
        modules = [f"spinlind.{m.name}" for m in pkgutil.iter_modules(spinlind.__path__)]
        assert "spinlind.cli" in modules and "spinlind.eigenops" in modules
        assert _modules_after("import spinlind, " + ", ".join(modules), tmp_path) == []

    @pytest.mark.parametrize("config, unloaded", [
        ("naphthalene", "scipy"),
        ("two_spin", "scipy"),
        ("qubit", "scipy"),
        ("acp_two_spin", "scipy"),
    ], ids=["naphthalene", "two_spin", "qubit", "acp_two_spin"])
    def test_cli_run_loads_no_unused_scipy(self, tmp_path, config, unloaded):
        loaded = _modules_after(_cli_code(CONFIGS / f"{config}.cfg"), tmp_path)
        assert not [m for m in loaded if m.startswith(unloaded)]

    def test_package_import_loads_only_the_errors(self, tmp_path):
        assert _modules_after("import spinlind", tmp_path, "spinlind") == [
            "spinlind", "spinlind.errors"]

    def test_spectrum_run_loads_six_modules(self, tmp_path):
        assert _modules_after(_cli_code(CONFIGS / "naphthalene.cfg"), tmp_path, "spinlind") == [
            "spinlind", "spinlind.artifact", "spinlind.cli", "spinlind.config",
            "spinlind.errors", "spinlind.spectrum"]

    @pytest.mark.parametrize("config, loads_numpy", [("naphthalene", False), ("two_spin", True)])
    def test_only_matrix_runs_load_numpy(self, tmp_path, config, loads_numpy):
        loaded = _modules_after(_cli_code(CONFIGS / f"{config}.cfg"), tmp_path, "numpy")
        assert bool(loaded) is loads_numpy

    @pytest.mark.parametrize("config, unloaded", [
        ("two_spin", ("acp", "qubit", "response", "spectrum")),
        ("generated_propagate", ("acp", "qubit", "response", "spectrum")),
        ("qubit", ("acp", "response", "spectrum")),
        ("acp_two_spin", ("eigenops", "mastereq", "qubit", "response", "spectrum")),
    ])
    def test_matrix_run_loads_only_its_modules(self, tmp_path, config, unloaded):
        path = CONFIGS / f"{config}.cfg"
        if config == "generated_propagate":
            path = tmp_path / "three_spin.cfg"
            path.write_text(
                "[run]\nmode = propagate\n"
                "[system]\nspins = 0.5 0.5 1\ngammas = -1000 -1300 -700\n"
                "couplings = 0 30 10; 30 0 20; 10 20 0\n"
                "[field]\nb_o = 1\nb_1 = 0.01\ndist = gaussian\ncenter = 1000\nwidth = 20\n"
                "[thermal]\ntemperature_kelvin = 300\n"
                "[propagate]\nt_end = 0.001\n", encoding="utf-8")
        loaded = _modules_after(_cli_code(path), tmp_path, "spinlind")
        assert "spinlind.cli" in loaded
        assert not [m for m in loaded if m.split(".")[-1] in unloaded]

    @pytest.mark.parametrize("config", ["naphthalene", "two_spin", "qubit", "acp_two_spin"])
    def test_cli_run_loads_numpy_ma_only_with_numpy(self, tmp_path, config):
        # numpy 1.x imports numpy.ma with numpy itself; past that, none of
        # these runs needs it (np.unique, for one, imports it lazily)
        baseline = "numpy.ma" in _modules_after("import numpy", tmp_path, "numpy.")
        code = _cli_code(CONFIGS / f"{config}.cfg")
        assert ("numpy.ma" in _modules_after(code, tmp_path, "numpy.")) <= baseline
