import dataclasses
import math
import pickle
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (convolution_degeneracies, export_csv_oracle, export_svg_oracle,
                     stick_spectrum_oracle, transition_rate_oracle)
from spinlind import spectrum as sp
from spinlind.errors import ValidationError

GAMMA_E = -1.7608e7  # electron, rad s^-1 G^-1


def naphthalene_groups():
    return (
        sp.EquivalentGroup("e", 0.5, 1, GAMMA_E,
                           {"h1": 4.90, "h2": 1.83}),
        sp.EquivalentGroup("h1", 0.5, 4, 2.6752e4, {}),
        sp.EquivalentGroup("h2", 0.5, 4, 2.6752e4, {}),
    )


def biphenyl_groups():
    return (
        sp.EquivalentGroup("e", 0.5, 1, GAMMA_E,
                           {"h1": 2.675, "h2": 0.394, "h3": 5.387}),
        sp.EquivalentGroup("h1", 0.5, 4, 2.6752e4, {}),
        sp.EquivalentGroup("h2", 0.5, 4, 2.6752e4, {}),
        sp.EquivalentGroup("h3", 0.5, 2, 2.6752e4, {}),
    )


def anthracene_groups():
    return (
        sp.EquivalentGroup("e", 0.5, 1, GAMMA_E,
                           {"h1": 2.73, "h2": 1.51, "h3": 5.34}),
        sp.EquivalentGroup("h1", 0.5, 4, 2.6752e4, {}),
        sp.EquivalentGroup("h2", 0.5, 4, 2.6752e4, {}),
        sp.EquivalentGroup("h3", 0.5, 2, 2.6752e4, {}),
    )


class TestEquivalentGroup:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["j", "gamma", "lambda.h"])
    def test_non_finite_constants_rejected(self, key, value):
        args = {"j": 0.5, "gamma": GAMMA_E, "lambdas": {"h": 1.0}}
        if key == "lambda.h":
            args["lambdas"] = {"h": value}
        else:
            args[key] = value
        with pytest.raises(ValidationError, match=rf"'e' {key} must be finite"):
            sp.EquivalentGroup("e", count=1, **args)


    @pytest.mark.parametrize("label", ["", "a=b", "a;b", "a|b", "|"])
    def test_labels_that_cannot_round_trip_rejected(self, label):
        with pytest.raises(ValidationError, match="must be nonempty and hold none of"):
            sp.EquivalentGroup(label, 0.5, 1, GAMMA_E, {})

    @pytest.mark.parametrize("label", ["n,x", 'q"x', "α", "h 1"])
    def test_other_labels_accepted(self, label):
        assert sp.EquivalentGroup(label, 0.5, 1, GAMMA_E, {}).label == label


class TestBosonCountDegeneracies:
    @pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_recurrence_matches_convolution(self, j):
        for count in range(1, 41):
            assert sp.boson_count_degeneracies(j, count) == convolution_degeneracies(j, count)

    def test_large_spin_half_group_is_binomial(self):
        count = 3000
        assert sp.boson_count_degeneracies(0.5, count) == [
            math.comb(count, k) for k in range(count + 1)]


class TestGeneratingPolynomial:
    def test_naphthalene_term_by_term(self):
        poly = sp.generating_polynomial(naphthalene_groups(), "e")
        assert poly.n_terms == 25
        assert poly.variables == ("h1", "h2")
        for n1 in range(5):
            for n2 in range(5):
                assert poly.coefficient((n1, n2)) == math.comb(4, n1) * math.comb(4, n2)
        assert poly.coefficient((3, 2)) == 24

    def test_biphenyl_has_75_terms(self):
        poly = sp.generating_polynomial(biphenyl_groups(), "e")
        assert poly.n_terms == 75
        assert poly.coefficient((4, 3, 0)) == 4
        assert sum(poly.coefficients) == 2 ** 4 * 2 ** 4 * 2 ** 2

    def test_single_spin_one_neighbor(self):
        groups = (
            sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"n": 1.0}),
            sp.EquivalentGroup("n", 1.0, 1, 1.0, {}),
        )
        poly = sp.generating_polynomial(groups, "e")
        assert [poly.coefficient((n,)) for n in range(3)] == [1, 1, 1]

    def test_uncoupled_groups_excluded(self):
        groups = (
            sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"a": 1.0, "b": 0.0}),
            sp.EquivalentGroup("a", 0.5, 2, 1.0, {}),
            sp.EquivalentGroup("b", 0.5, 3, 1.0, {}),
        )
        poly = sp.generating_polynomial(groups, "e")
        assert poly.variables == ("a",)
        assert poly.n_terms == 3

    @pytest.mark.parametrize("entry", [
        sp.generating_polynomial, sp.subspace_dimension, sp.intensity_scale,
        lambda groups, label: sp.reference_field(groups, label, 1.0e10),
        sp.stick_spectrum,
    ], ids=["generating_polynomial", "subspace_dimension", "intensity_scale",
            "reference_field", "stick_spectrum"])
    def test_unknown_resonance_label(self, entry):
        # one lookup resolves the label for every entry point: no bare KeyError
        with pytest.raises(ValidationError, match="unknown resonance group 'x'"):
            entry(naphthalene_groups(), "x")

    def test_exact_huge_coefficients(self):
        # 40 spin-1/2 neighbors: central coefficient needs > 64 bits
        groups = (
            sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 0.5}),
            sp.EquivalentGroup("h", 0.5, 70, 1.0, {}),
        )
        poly = sp.generating_polynomial(groups, "e")
        assert poly.coefficient((35,)) == math.comb(70, 35)
        assert sum(poly.coefficients) == 2 ** 70

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 1.5]), st.integers(1, 4),
           st.sampled_from([0.5, 1.0]), st.integers(1, 3))
    def test_palindromic_intensities(self, j1, n1, j2, n2):
        groups = (
            sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"a": 1.0, "b": 2.0}),
            sp.EquivalentGroup("a", j1, n1, 1.0, {}),
            sp.EquivalentGroup("b", j2, n2, 1.0, {}),
        )
        poly = sp.generating_polynomial(groups, "e")
        maxes = [int(round(2 * j1)) * n1, int(round(2 * j2)) * n2]
        for expo, coeff in zip(poly.exponents, poly.coefficients):
            mirrored = tuple(m - e for m, e in zip(maxes, expo))
            assert poly.coefficient(mirrored) == coeff
        counts = 1
        for g in (groups[1], groups[2]):
            counts *= (int(round(2 * g.j)) + 1) ** g.count
        assert sum(poly.coefficients) == counts


class TestStickSpectrum:
    def test_naphthalene_positions_and_intensities(self):
        spec = sp.stick_spectrum(naphthalene_groups(), "e")
        assert len(spec.lines) == 25
        by_pos = {round(line.delta_b, 9): line.intensity for line in spec.lines}
        assert by_pos[round(3 * 4.90 + 2 * 1.83, 9)] == 24
        expected = Counter()
        for n1 in range(5):
            for n2 in range(5):
                expected[round(n1 * 4.90 + n2 * 1.83, 9)] += (
                    math.comb(4, n1) * math.comb(4, n2))
        assert by_pos == dict(expected)
        assert spec.total_intensity == 256

    def test_biphenyl_spot_check(self):
        spec = sp.stick_spectrum(biphenyl_groups(), "e")
        assert len(spec.lines) == 75
        target = round(4 * 2.675 + 3 * 0.394, 9)
        line = [l for l in spec.lines if round(l.delta_b, 9) == target]
        assert len(line) == 1
        assert line[0].delta_b == pytest.approx(11.882, abs=1e-9)
        assert line[0].intensity == 4

    def test_anthracene_same_intensity_multiset_as_biphenyl(self):
        bi = sp.stick_spectrum(biphenyl_groups(), "e")
        an = sp.stick_spectrum(anthracene_groups(), "e")
        assert len(an.lines) == len(bi.lines) == 75
        assert Counter(l.intensity for l in an.lines) == \
            Counter(l.intensity for l in bi.lines)
        assert {round(l.delta_b, 6) for l in an.lines} != \
            {round(l.delta_b, 6) for l in bi.lines}

    def test_commensurate_positions_merge(self):
        groups = (
            sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"a": 1.0, "b": 2.0}),
            sp.EquivalentGroup("a", 0.5, 2, 1.0, {}),
            sp.EquivalentGroup("b", 0.5, 1, 1.0, {}),
        )
        # positions n_a * 1 + n_b * 2 with n_a <= 2, n_b <= 1: 2 appears twice
        spec = sp.stick_spectrum(groups, "e")
        assert len(spec.lines) == 5  # 0,1,2,3,4
        two = [l for l in spec.lines if abs(l.delta_b - 2.0) < 1e-12][0]
        assert two.intensity == 1 + 1  # (n_a=2, n_b=0) merged with (n_a=0, n_b=1)
        assert len(two.configs) == 2
        assert [l.intensity for l in spec.lines] == [1, 2, 2, 2, 1]

    def test_reference_field(self):
        groups = naphthalene_groups()
        omega_o = 2.0e10
        ref = sp.reference_field(groups, "e", omega_o)
        expected = -omega_o / GAMMA_E - 4.90 * 2.0 - 1.83 * 2.0
        assert ref == pytest.approx(expected)
        absolute = sp.stick_spectrum(groups, "e", omega_o, absolute=True)
        relative = sp.stick_spectrum(groups, "e")
        shifts = [a.delta_b - r.delta_b
                  for a, r in zip(absolute.lines, relative.lines)]
        assert np.allclose(shifts, ref)

    def test_scaled_intensities(self):
        groups = naphthalene_groups()
        spec_rel = sp.stick_spectrum(groups, "e")
        spec_scaled = sp.stick_spectrum(groups, "e", scaled=True)
        scale = sp.intensity_scale(groups, "e")
        for rel, sc_line in zip(spec_rel.lines, spec_scaled.lines):
            assert sc_line.intensity == pytest.approx(rel.intensity * scale)

    def test_multi_group_sum(self):
        # on the absolute field axis each group keeps its own reference, so
        # the union carries each group's lines at its own positions
        groups = (
            sp.EquivalentGroup("a", 0.5, 1, -1.0e7, {"b": 2.0}),
            sp.EquivalentGroup("b", 0.5, 1, -3.0e4, {"a": 4.0}),
        )
        omega = 2.0e7
        both = sp.stick_spectrum(groups, ["a", "b"], omega, absolute=True)
        only_a = sp.stick_spectrum(groups, "a", omega, scaled=True, absolute=True)
        only_b = sp.stick_spectrum(groups, "b", omega, scaled=True, absolute=True)
        assert len(both.lines) == len(only_a.lines) + len(only_b.lines)
        assert both.total_intensity == pytest.approx(
            only_a.total_intensity + only_b.total_intensity)
        positions = {round(l.delta_b, 9) for l in both.lines}
        singles = {round(l.delta_b, 9) for l in only_a.lines + only_b.lines}
        assert positions == singles


def _assert_matches_oracle(groups, labels, **kwargs):
    """The array route equals the per-term oracle line for line, bit for bit.

    Scaled intensities too: a merged line adds its terms left to right, as
    the oracle does, so not even the last bit may differ.
    """
    got = sp.stick_spectrum(groups, labels, **kwargs)
    want, want_lines = stick_spectrum_oracle(groups, labels, **kwargs)
    assert len(got.lines) == len(want_lines)
    for a, b in zip(got.lines, want_lines):
        assert a.delta_b.hex() == b.delta_b.hex()
        assert type(a.intensity) is type(b.intensity)
        assert a.intensity == b.intensity
        assert a.configs == b.configs
    assert got.lines == want_lines
    assert got == want
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        sp.export_csv(got, out / "a.csv")
        export_csv_oracle(want_lines, out / "b.csv")
        assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()
        sp.export_svg(got, out / "a.svg")
        export_svg_oracle(want_lines, out / "b.svg")
        assert (out / "a.svg").read_bytes() == (out / "b.svg").read_bytes()
    return got


@st.composite
def molecules(draw):
    """Groups r0..r2 (resonance candidates) and n0..n3 (neighbors only).

    Splitting constants lie on the 0.5 G lattice (coincident lines), near it
    (chains of gaps within MERGE_TOL_GAUSS) or anywhere.  Each label has one
    constant, shared by every resonance group it splits, so groups coupled
    to the same neighbors tie position for position and configuration for
    configuration; resonance groups may also split one another.
    """
    neighbors = [sp.EquivalentGroup(f"n{i}", draw(st.sampled_from([0.5, 1.0])),
                                    draw(st.integers(1, 3)), 2.6752e4, {})
                 for i in range(4)]
    mode = draw(st.sampled_from(["lattice", "near-lattice", "generic"]))
    if mode == "generic":
        constant = st.floats(-6.0, 6.0, allow_nan=False)
    else:
        jitter = [0.0] if mode == "lattice" else [0.0, 3e-10, -7e-10]
        constant = st.builds(lambda k, e: 0.5 * k + e, st.integers(-6, 6),
                             st.sampled_from(jitter))
    n_res = draw(st.integers(1, 3))
    names = [g.label for g in neighbors] + [f"r{r}" for r in range(n_res)]
    shared = {name: draw(constant) for name in names}
    resonance = []
    for r in range(n_res):
        coupled = draw(st.lists(st.sampled_from([n for n in names if n != f"r{r}"]),
                                max_size=3, unique=True))
        resonance.append(sp.EquivalentGroup(
            f"r{r}", draw(st.sampled_from([0.5, 1.0])), draw(st.integers(1, 2)),
            draw(st.sampled_from([-1.76e7, 2.6752e4])),
            {name: shared[name] for name in coupled}))
    labels = draw(st.lists(st.sampled_from([g.label for g in resonance]),
                           min_size=1, max_size=n_res, unique=True))
    return tuple(resonance + neighbors), labels


class TestArrayRouteOracle:
    @settings(max_examples=150, deadline=None)
    @given(molecules(), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 2.0e10]))
    def test_matches_per_term_route(self, molecule, scaled, absolute, omega_o):
        groups, labels = molecule
        _assert_matches_oracle(groups, labels if len(labels) > 1 else labels[0],
                               omega_o=omega_o, scaled=scaled, absolute=absolute)

    def test_anchor_chain_splits(self):
        # gaps of 0.6e-9 G are each within the tolerance, but 1.2e-9 G is
        # beyond it from the first line's anchor at 0
        groups = (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"n": 0.6e-9}),
                  sp.EquivalentGroup("n", 1.0, 1, 1.0, {}))
        spec = _assert_matches_oracle(groups, "e")
        assert [l.intensity for l in spec.lines] == [2, 1]
        assert [len(l.configs) for l in spec.lines] == [2, 1]

    def test_anchor_chain_splits_a_spin_half_pair(self):
        # two protons 0.6e-9 G apart: the terms at 0, 0.6e-9 (twice) and 1.2e-9 G
        # make two lines, the last beyond the tolerance from the anchor at 0
        groups = (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 0.6e-9}),
                  sp.EquivalentGroup("h", 0.5, 2, 1.0, {}))
        spec = _assert_matches_oracle(groups, "e")
        assert spec.delta_b == (0.0, 1.2e-9) and spec.intensity == (3, 1)
        assert spec.config_text == ("h=0|h=1", "h=2")

    def test_exact_intensities_beyond_int64(self):
        groups = (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 0.5}),
                  sp.EquivalentGroup("h", 0.5, 70, 1.0, {}))
        assert math.comb(70, 35) > 2 ** 63
        spec = _assert_matches_oracle(groups, "e")
        assert [l.intensity for l in spec.lines] == [math.comb(70, n) for n in range(71)]


def _workload_radical(terms, constants):
    """An electron split by neighbour groups of the given term counts.

    A group of 3 or 5 terms alternates between spin-1/2 protons and spin-1
    nuclei, so both kinds of degeneracy table appear.
    """
    neighbors = []
    for i, n in enumerate(terms):
        if n in (3, 5) and i % 2:
            neighbors.append(sp.EquivalentGroup(f"n{i}", 1.0, (n - 1) // 2, 1.9338e3, {}))
        else:
            neighbors.append(sp.EquivalentGroup(f"n{i}", 0.5, n - 1, 2.6752e4, {}))
    electron = sp.EquivalentGroup("e", 0.5, 1, GAMMA_E,
                                  {g.label: c for g, c in zip(neighbors, constants)})
    return (electron, *neighbors)


class TestWorkloadSizes:
    """The array route and its artifacts at the sizes of the benchmark's radicals."""

    def test_generic_seven_groups(self):
        groups = _workload_radical((5, 5, 5, 4, 4, 3, 2),
                                   (4.913, 0.3871, 2.2459, 5.671, 1.0937, 3.3311, 0.7283))
        spec = _assert_matches_oracle(groups, "e")
        assert sp.generating_polynomial(groups, "e").n_terms == 12_000
        assert len(spec.lines) == 12_000

    def test_lines_share_one_pair_per_piece(self):
        # 12 000 lines of 7 pieces each: a pair per piece would peak near
        # 11.6 MB; one pair per distinct piece (28 here) peaks near 2.6 MB
        groups = _workload_radical((5, 5, 5, 4, 4, 3, 2),
                                   (4.913, 0.3871, 2.2459, 5.671, 1.0937, 3.3311, 0.7283))
        spec = sp.stick_spectrum(groups, "e")
        tracemalloc.start()
        try:
            lines = spec.lines
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lines) == 12_000 and peak < 6e6
        pairs = {id(pair) for line in lines for cfg in line.configs for pair in cfg}
        assert len(pairs) == sum(g.max_bosons + 1 for g in groups[1:]) == 28

    def test_merging_six_groups(self):
        groups = _workload_radical((5, 5, 4, 4, 3, 2), (1.5, 0.5, 2.5, 1.0, 3.0, 0.5))
        spec = _assert_matches_oracle(groups, "e")
        assert sp.generating_polynomial(groups, "e").n_terms == 2_400
        assert len(spec.lines) < 100
        assert max(text.count("|") for text in spec.config_text) > 100


class TestSizeGuard:
    def test_repeated_resonance_label_rejected(self):
        with pytest.raises(ValidationError, match="'e', 'e' repeat a label"):
            sp.stick_spectrum(naphthalene_groups(), ["e", "e"])

    def test_oversized_expansion_rejected_by_count(self):
        neighbors = [sp.EquivalentGroup(f"h{i}", 0.5, 4, 2.6752e4, {}) for i in range(10)]
        electron = sp.EquivalentGroup("e", 0.5, 1, GAMMA_E,
                                      {g.label: 0.1 * (i + 1) for i, g in enumerate(neighbors)})
        groups = (electron, *neighbors)
        with pytest.raises(ValidationError, match=r"'e' expands to 9765625 terms"):
            sp.stick_spectrum(groups, "e")
        with pytest.raises(ValidationError, match=r"'e' expands to 9765625 terms"):
            sp.generating_polynomial(groups, "e")

    def test_cap_counts_every_resonance_group(self):
        # one spin of j = MAX_TERMS / 4: MAX_TERMS / 2 + 1 terms per group
        big = sp.EquivalentGroup("h", sp.MAX_TERMS / 4, 1, 1.0, {})
        groups = (sp.EquivalentGroup("a", 0.5, 1, GAMMA_E, {"h": 1.0}),
                  sp.EquivalentGroup("b", 0.5, 1, GAMMA_E, {"h": 2.0}), big)
        assert sp.generating_polynomial(groups, "a").n_terms <= sp.MAX_TERMS
        with pytest.raises(ValidationError, match=r"'a', 'b' expands to \d+ \+ \d+ terms"):
            sp.stick_spectrum(groups, ["a", "b"])

    def test_coefficient_bytes_refused_before_allocating(self):
        # 200 000 protons: 200 001 terms, under MAX_TERMS, of up to 200 000
        # bits each, about 5 GB of exact coefficients
        groups = _proton_radical(200_000)
        tracemalloc.start()
        try:
            for expand in (sp.stick_spectrum, sp.generating_polynomial):
                with pytest.raises(ValidationError, match=r"'e' needs about 5000 MB of exact "
                                                          r"coefficients, above the budget"):
                    expand(groups, "e")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestZeroIntensity:
    """A spectrum with no positive intensity is refused, never plotted."""

    @pytest.mark.parametrize("labels", ["e", ["e", "h1"]], ids=["one", "two"])
    def test_scaled_zero_gamma_group_refused(self, labels):
        e, h1, h2 = naphthalene_groups()
        groups = (dataclasses.replace(e, gamma=0.0), h1, h2)
        with pytest.raises(ValidationError, match="'e' has gamma = 0.0, so its scaled"):
            sp.stick_spectrum(groups, labels, scaled=True)
        assert sp.stick_spectrum(groups, "e").total_intensity == 256

    def test_svg_refuses_a_largest_intensity_that_is_not_positive(self, tmp_path):
        spec = sp.StickSpectrum((0.0, 1.0), (0.0, 0.0), ("h=0", "h=1"))
        with pytest.raises(ValidationError, match="largest intensity is 0.0, not positive"):
            sp.export_svg(spec, tmp_path / "spec.svg")
        assert not list(tmp_path.iterdir())


class TestIntensityScale:
    def test_tetrahedral_factors(self):
        assert sp.tetrahedral_number(0.5) == 1
        assert sp.tetrahedral_number(1.0) == 4
        assert sp.tetrahedral_number(1.5) == 10

    def test_gamma_quadruples(self):
        base = (
            sp.EquivalentGroup("e", 0.5, 1, 2.0, {"h": 1.0}),
            sp.EquivalentGroup("h", 0.5, 2, 1.0, {}),
        )
        doubled = (
            sp.EquivalentGroup("e", 0.5, 1, 4.0, {"h": 1.0}),
            sp.EquivalentGroup("h", 0.5, 2, 1.0, {}),
        )
        assert sp.intensity_scale(doubled, "e") == pytest.approx(
            4.0 * sp.intensity_scale(base, "e"))

    def test_subspace_dimension_and_abundance(self):
        groups = (
            sp.EquivalentGroup("e", 0.5, 1, 2.0, {"h": 1.0}, abundance=0.5),
            sp.EquivalentGroup("h", 1.0, 2, 1.0, {}),
            sp.EquivalentGroup("far", 0.5, 3, 1.0, {}),
        )
        assert sp.subspace_dimension(groups, "e") == 2 * 9
        with_ab = sp.intensity_scale(groups, "e")
        full = (dataclasses.replace(groups[0], abundance=1.0),) + groups[1:]
        assert with_ab == pytest.approx(0.5 * sp.intensity_scale(full, "e"))

    def test_dimension_beyond_float_range(self):
        # D = 2^1101 is no float; gamma^2 / D = 2^80 / 2^1101 is, exactly
        groups = (sp.EquivalentGroup("e", 0.5, 1, 2.0 ** 40, {"h": 1.0}),
                  sp.EquivalentGroup("h", 0.5, 1100, 1.0, {}))
        assert sp.subspace_dimension(groups, "e") == 2 ** 1101
        assert sp.intensity_scale(groups, "e") == 2.0 ** -1021
        spec = sp.stick_spectrum(groups, "e", scaled=True)
        assert spec.intensity[550] == math.comb(1100, 550) * 2 ** 80 / 2 ** 1101

    def test_scale_beyond_float_range_refused(self):
        groups = (sp.EquivalentGroup("e", 0.5, 1, 1e200, {}),)
        with pytest.raises(ValidationError, match="exceeds the float range"):
            sp.intensity_scale(groups, "e")
        with pytest.raises(ValidationError, match="exceeds the float range"):
            sp.stick_spectrum(groups, "e", scaled=True)


@st.composite
def lattice_radicals(draw):
    """An electron split by spin-1/2 and spin-1 groups on the 0.5 G lattice.

    Labels come in any order, so the grid order is not the label order.
    """
    labels = draw(st.permutations(["a", "b", "c", "d"]))[:draw(st.integers(1, 4))]
    neighbors = [sp.EquivalentGroup(lab, draw(st.sampled_from([0.5, 1.0])),
                                    draw(st.integers(1, 3)), 2.6752e4, {})
                 for lab in labels]
    lambdas = {lab: 0.5 * draw(st.integers(-6, 6).filter(bool)) for lab in labels}
    return (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, lambdas), *neighbors)


class TestColumns:
    def test_exports_build_no_line_objects(self, tmp_path):
        spec = sp.stick_spectrum(biphenyl_groups(), "e")
        sp.export_csv(spec, tmp_path / "a.csv")
        sp.export_svg(spec, tmp_path / "a.svg")
        assert spec.total_intensity == 1024
        assert "lines" not in spec.__dict__

    def test_pickle_round_trip(self):
        spec = sp.stick_spectrum(biphenyl_groups(), "e")
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and "lines" not in back.__dict__
        assert back.lines == spec.lines

    def test_three_columns(self):
        assert [f.name for f in dataclasses.fields(sp.StickSpectrum)] == [
            "delta_b", "intensity", "config_text"]

    def test_lines_follow_replaced_config_text(self):
        spec = sp.stick_spectrum(_proton_radical(2), "e")
        assert [l.configs for l in spec.lines] == [((("h", n),),) for n in range(3)]
        edited = dataclasses.replace(spec, config_text=("h=9", "h=8", "h=7"))
        assert [l.configs for l in edited.lines] == [((("h", n),),) for n in (9, 8, 7)]
        assert edited != spec

    @settings(max_examples=100, deadline=None)
    @given(lattice_radicals())
    def test_one_group_stable_sort_is_the_configuration_lexsort(self, groups):
        spec = sp.stick_spectrum(groups, "e")
        poly = sp.generating_polynomial(groups, "e")
        exponents = np.array(poly.exponents)
        pos = np.zeros(poly.n_terms)
        for v, n in zip(poly.variables, exponents.T):
            pos = pos + groups[0].lambdas[v] * n
        order = np.lexsort([*exponents.T[::-1], pos])
        texts = [";".join(f"{v}={n}" for v, n in zip(poly.variables, expo))
                 for expo in exponents[order].tolist()]
        assert "|".join(spec.config_text).split("|") == texts
        firsts = np.cumsum([0] + [t.count("|") + 1 for t in spec.config_text[:-1]])
        assert spec.delta_b == tuple(pos[order][firsts].tolist())


class TestRoundTrip:
    def test_exact_intensities_beyond_int64_round_trip(self, tmp_path):
        groups = (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 0.5}),
                  sp.EquivalentGroup("h", 0.5, 70, 1.0, {}))
        spec = sp.stick_spectrum(groups, "e")
        sp.export_csv(spec, tmp_path / "spec.csv")
        back = sp.parse_csv(tmp_path / "spec.csv")
        assert back.intensity == spec.intensity
        assert {type(i) for i in back.intensity} == {int}
        assert back.total_intensity == 2 ** 70
        assert back.lines == spec.lines

    def test_uncoupled_resonance_round_trip(self, tmp_path):
        groups = (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 0.0}),
                  sp.EquivalentGroup("h", 0.5, 2, 2.6752e4, {}))
        spec = sp.stick_spectrum(groups, "e")
        assert spec.config_text == ("",) and spec.lines[0].configs == ((),)
        sp.export_csv(spec, tmp_path / "spec.csv")
        back = sp.parse_csv(tmp_path / "spec.csv")
        assert back.lines == spec.lines

    def test_csv_round_trip(self, tmp_path):
        spec = sp.stick_spectrum(naphthalene_groups(), "e")
        path = tmp_path / "spec.csv"
        sp.export_csv(spec, path)
        back = sp.parse_csv(path)
        assert len(back.lines) == len(spec.lines)
        for a, b in zip(spec.lines, back.lines):
            assert b.delta_b == pytest.approx(a.delta_b, abs=1e-9)
            assert b.intensity == a.intensity
            assert b.configs == a.configs

    def test_quoted_and_non_ascii_labels_round_trip(self, tmp_path):
        groups = (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"α": 1.0, 'n,"x"': 1.0}),
                  sp.EquivalentGroup("α", 0.5, 2, 2.6752e4, {}),
                  sp.EquivalentGroup('n,"x"', 1.0, 1, 1.9338e3, {}))
        spec = sp.stick_spectrum(groups, "e")
        path = tmp_path / "spec.csv"
        sp.export_csv(spec, path)
        raw = path.read_bytes()
        assert 'α=0;"n,""x""=0'.encode("utf-8") not in raw
        assert '"α=0;n,""x""=0"'.encode("utf-8") in raw
        back = sp.parse_csv(path)
        assert back.config_text == spec.config_text
        assert [l.configs for l in back.lines] == [l.configs for l in spec.lines]
        assert [l.intensity for l in back.lines] == [l.intensity for l in spec.lines]

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sp.export_csv(sp.stick_spectrum(biphenyl_groups(), "e"), p1)
        sp.export_csv(sp.stick_spectrum(biphenyl_groups(), "e"), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_stick_count(self, tmp_path):
        spec = sp.stick_spectrum(naphthalene_groups(), "e")
        path = tmp_path / "spec.svg"
        sp.export_svg(spec, path)
        text = path.read_text()
        assert text.count('class="stick"') == 25
        assert "field offset (G)" in text


def _proton_radical(count):
    return (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 0.5}),
            sp.EquivalentGroup("h", 0.5, count, 2.6752e4, {}))


class TestIntStrLimit:
    """Exact intensities against CPython's int-to-str digit limit."""

    def test_too_many_digits_refused_before_writing(self, tmp_path, default_int_str_limit):
        # C(15000, 7500) has 4514 digits
        spec = sp.stick_spectrum(_proton_radical(15_000), "e")
        for export, name in ((sp.export_csv, "spec.csv"), (sp.export_svg, "spec.svg")):
            with pytest.raises(ValidationError, match="scaled = true"):
                export(spec, tmp_path / name)
        assert not list(tmp_path.iterdir())

    def test_largest_printable_intensity_round_trips(self, tmp_path, default_int_str_limit):
        spec = sp.stick_spectrum(_proton_radical(14_000), "e")
        assert len(str(max(spec.intensity))) == 4213
        sp.export_csv(spec, tmp_path / "spec.csv")
        back = sp.parse_csv(tmp_path / "spec.csv")
        assert back.intensity == spec.intensity

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_limit_boundary(self, monkeypatch, limit):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        sp._check_printable(10 ** limit - 1)
        sp._check_printable(1e308)
        with pytest.raises(ValidationError, match=f"more than {limit} digits"):
            sp._check_printable(10 ** limit)

    @pytest.mark.parametrize("cell", ["9" * 4400, "1.5x"], ids=["past_limit", "not_a_number"])
    def test_unreadable_intensity_cell(self, tmp_path, default_int_str_limit, cell):
        path = tmp_path / "spec.csv"
        path.write_text(f"delta_B_gauss,intensity,config\r\n0.5,{cell},h=1\r\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="unreadable spectrum CSV row"):
            sp.parse_csv(path)

    @pytest.mark.parametrize("imax", [math.inf, 1e308])
    def test_float_intensity_takes_no_digit_check(self, monkeypatch, imax):
        # only an exact int has digits to count; a float, even inf, passes here
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
        sp._check_printable(imax)

    def test_no_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        sp._check_printable(10 ** 10_000)
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        sp._check_printable(10 ** 10_000)


class TestParseCsvRejects:
    """A malformed spectrum CSV is a ValidationError as it is read."""

    def _write(self, tmp_path, text):
        path = tmp_path / "spec.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValidationError, match="header None"):
            sp.parse_csv(self._write(tmp_path, ""))

    @pytest.mark.parametrize("rows", ["0.5,1,h=1\r\n\r\n", "0.5\r\n", "0.5,1\r\n"],
                             ids=["blank", "one_cell", "two_cells"])
    def test_short_row(self, tmp_path, rows):
        path = self._write(tmp_path, "delta_B_gauss,intensity,config\r\n" + rows)
        with pytest.raises(ValidationError, match=r"unreadable spectrum CSV row \d"):
            sp.parse_csv(path)

    @pytest.mark.parametrize("row", ["nan,inf,h=1", "nan,1,h=1", "inf,1,h=1", "0.5,inf,h=1",
                                     "0.5,-inf,h=1", "0.5,nan,h=1"])
    def test_non_finite_cell(self, tmp_path, row):
        path = self._write(tmp_path, f"delta_B_gauss,intensity,config\r\n0.25,1,h=0\r\n{row}\r\n")
        with pytest.raises(ValidationError, match="row 3 has a non-finite position or intensity"):
            sp.parse_csv(path)

    def test_non_finite_row_never_reaches_the_plot(self, tmp_path):
        # once read back as inf, the SVG writer refused it as "more than 4300 digits"
        path = self._write(tmp_path, "delta_B_gauss,intensity,config\r\nnan,inf,h=1\r\n")
        with pytest.raises(ValidationError, match="row 2 has a non-finite"):
            sp.export_svg(sp.parse_csv(path), tmp_path / "spec.svg")
        assert not (tmp_path / "spec.svg").exists()

    @pytest.mark.parametrize("cell", ["h=x", "h", "h=1;;g=2", "=|h=1"])
    def test_bad_config_cell(self, tmp_path, cell):
        path = self._write(tmp_path, f"delta_B_gauss,intensity,config\r\n0.5,1,{cell}\r\n")
        with pytest.raises(ValidationError, match="bad spectrum config"):
            sp.parse_csv(path)


class TestMatrixPathOracle:
    def test_polynomial_matches_level_gap_path(self):
        # one resonance spin-1/2 coupled to two equivalent spin-1/2 neighbors;
        # the full matrix path (diagonal part only) must reproduce the
        # polynomial stick positions and, after normalization, intensities
        import spinlind.mastereq as me
        import spinlind.lineshape as ls
        import spinlind.spincore as sc

        gamma_r, gamma_n = -2.0e3, 8.0e2
        lam = 3.7  # Gauss
        t_coupling = -lam * gamma_r
        n_neighbors = 2
        spins = [0.5] * (1 + n_neighbors)
        gammas = [gamma_r] + [gamma_n] * n_neighbors
        couplings = np.zeros((3, 3))
        couplings[0, 1:] = couplings[1:, 0] = t_coupling
        system = sc.SpinSystem(spins, gammas, couplings)

        groups = (
            sp.EquivalentGroup("r", 0.5, 1, gamma_r, {"n": lam}),
            sp.EquivalentGroup("n", 0.5, n_neighbors, gamma_n, {}),
        )
        omega = 6.0 * abs(gamma_r)  # places every stick at a positive field
        poly_spec = sp.stick_spectrum(groups, "r", omega, absolute=True)

        # matrix path: per-transition resonance field from the level gaps
        def gap_of(b_o, a, b):
            eps = sc.level_data(system, b_o)
            return eps[b] - eps[a]

        mags = sc.total_sz(system).diagonal().real
        pairs = []
        xi_x = sc.xi_operator(system, "x")
        for a in range(system.dim):
            for b in range(system.dim):
                if abs(mags[b] - mags[a] - 1.0) < 1e-9 \
                        and xi_x[a, b] != 0:
                    pairs.append((a, b))
        lines = {}
        for a, b in pairs:
            g0 = gap_of(0.0, a, b)
            g1 = gap_of(1.0, a, b)
            slope = g1 - g0
            if abs(slope) < 1e-12:
                continue
            b_res = (omega - g0) / slope
            if b_res <= 0:
                continue
            # resonance spin only: neighbor flips resonate at negative fields here
            dist = ls.lorentzian(omega, 50.0)
            field = me.FieldConfig(b_o=b_res, b_1=1e-4, dist=dist)
            model = me.build_model(system, field, 1e-6)
            rate = transition_rate_oracle(model, a, b)
            key = round(b_res, 9)
            lines[key] = lines.get(key, 0.0) + rate
        assert len(lines) == len(poly_spec.lines)
        matrix_positions = sorted(lines)
        poly_positions = sorted(round(l.delta_b, 9) for l in poly_spec.lines)
        for mp, pp in zip(matrix_positions, poly_positions):
            assert mp == pytest.approx(pp, abs=1e-9)
        # intensities exact after normalization
        matrix_int = np.array([lines[k] for k in matrix_positions])
        matrix_int /= matrix_int.min()
        poly_by_pos = {round(l.delta_b, 9): l.intensity for l in poly_spec.lines}
        poly_int = np.array([poly_by_pos[k] for k in poly_positions], dtype=float)
        poly_int /= poly_int.min()
        assert np.allclose(matrix_int, poly_int, rtol=1e-9)


def _two_protons():
    """e + two equivalent protons (5 G): lines at 0, 5 and 10 G, intensities 1, 2, 1."""
    return (sp.EquivalentGroup("e", 0.5, 1, GAMMA_E, {"h": 5.0}),
            sp.EquivalentGroup("h", 0.5, 2, 2.6752e4, {}))


class TestRefusals:
    """Each refusal of the spectrum layer, matched by its message."""

    @pytest.mark.parametrize("omega_o", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("absolute", [False, True])
    def test_non_finite_larmor_frequency_refused(self, omega_o, absolute):
        # a NaN reference would put every line at NaN, merged into one
        with pytest.raises(ValidationError, match="omega_o must be finite"):
            sp.stick_spectrum(_two_protons(), "e", omega_o, absolute=absolute)
        with pytest.raises(ValidationError, match="omega_o must be finite"):
            sp.reference_field(_two_protons(), "e", omega_o)

    def test_finite_arguments_keep_the_spectrum(self):
        spec = sp.stick_spectrum(_two_protons(), "e", 2.0e10, absolute=True)
        ref = sp.reference_field(_two_protons(), "e", 2.0e10)
        assert spec.delta_b == (ref, ref + 5.0, ref + 10.0) and spec.intensity == (1, 2, 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"count": 0}, "needs at least one spin"),
        ({"j": 0.3}, "bad spin quantum number"),
        ({"j": -0.5}, "bad spin quantum number"),
        ({"abundance": 0.0}, r"abundance must be in \(0, 1\]"),
        ({"abundance": 1.5}, r"abundance must be in \(0, 1\]"),
        # 2j overflows to inf, which round() cannot take
        ({"j": 9e307}, "bad spin quantum number"),
        ({"j": np.float64(9e307)}, "bad spin quantum number"),
    ])
    def test_group_constants_refused(self, kwargs, message):
        args = {"label": "h", "j": 0.5, "count": 2, "gamma": 2.6752e4, "lambdas": {},
                **kwargs}
        with pytest.raises(ValidationError, match=message):
            sp.EquivalentGroup(**args)

    @pytest.mark.parametrize("absolute", [False, True])
    def test_positions_past_the_float_range_refused(self, absolute):
        # 1.5e308 G per proton is finite, but the line of both protons is 3e308 G away
        e, h = _two_protons()
        groups = (dataclasses.replace(e, lambdas={"h": 1.5e308}), h)
        with pytest.raises(ValidationError, match="line positions of group 'e' exceed"):
            sp.stick_spectrum(groups, "e", 2.0e10, absolute=absolute)
        # 0.8e308 G each reaches 1.6e308, finite
        groups = (dataclasses.replace(e, lambdas={"h": 0.8e308}), h)
        assert sp.stick_spectrum(groups, "e").delta_b == (0.0, 0.8e308, 1.6e308)
        # -w0 / gamma past the float range moves every absolute position there
        groups = (dataclasses.replace(e, gamma=1e-10), h)
        assert sp.stick_spectrum(groups, "e", 1e300).delta_b == (0.0, 5.0, 10.0)
        with pytest.raises(ValidationError, match="line positions of group 'e' exceed"):
            sp.stick_spectrum(groups, "e", 1e300, absolute=True)

    def test_absolute_positions_within_the_float_range_kept(self):
        # the reference -sum_g lambda_g J_g = -0.8e308 G takes the partial sums 0, 0.8e308 and
        # 1.6e308 to -0.8e308, 0 and 0.8e308; |ref| + sum_g |lambda_g| n_max,g = 2.4e308 refused it
        e, h = _two_protons()
        groups = (dataclasses.replace(e, lambdas={"h": 0.8e308}), h)
        spec = sp.stick_spectrum(groups, "e", 0.0, absolute=True)
        assert spec.delta_b == (-0.8e308, 0.0, 0.8e308) and spec.intensity == (1, 2, 1)
        _assert_matches_oracle(groups, "e", omega_o=0.0, absolute=True)
        # three protons: every position is finite, but the partial sum 2.4e308 is not
        groups = (groups[0], dataclasses.replace(h, count=3))
        with pytest.raises(ValidationError, match="line positions of group 'e' exceed"):
            sp.stick_spectrum(groups, "e", 0.0, absolute=True)

    def test_reference_past_the_float_range_refused(self):
        # -w0 / gamma = -1e310, then a sum lambda_g J_g = 1.5e308 * 2 = 3e308
        e, h = _two_protons()
        groups = (dataclasses.replace(e, gamma=1e-10), h)
        with pytest.raises(ValidationError, match="line positions of group 'e' exceed"):
            sp.reference_field(groups, "e", 1e300)
        groups = (dataclasses.replace(e, lambdas={"h": 1.5e308}), dataclasses.replace(h, count=4))
        with pytest.raises(ValidationError, match="line positions of group 'e' exceed"):
            sp.reference_field(groups, "e", 2.0e10)

    @pytest.mark.parametrize("export", [sp.export_csv, sp.export_svg])
    @pytest.mark.parametrize("delta_b, intensity", [
        ((0.0, math.inf), (1, 1)), ((math.nan, 1.0), (1, 1)),
        ((0.0, 1.0), (1.0, math.inf)), ((0.0, 1.0), (math.nan, 1.0)),
        ((0.0, 1.0), (10 ** 400, math.inf)), ((0.0, 1.0), (10 ** 400, 1))])
    def test_non_finite_columns_refused_before_writing(self, tmp_path, export, delta_b,
                                                       intensity):
        spec = sp.StickSpectrum(delta_b, intensity, ("h=0", "h=1"))
        finite = all(type(v) is int or math.isfinite(v) for v in delta_b + intensity)
        if finite:      # an exact int past the float range is finite
            export(spec, tmp_path / "spec")
            assert (tmp_path / "spec").exists()
            return
        with pytest.raises(ValidationError, match="non-finite position or intensity"):
            export(spec, tmp_path / "spec")
        assert not list(tmp_path.iterdir())

    def test_svg_refuses_a_span_past_the_float_range(self, tmp_path):
        spec = sp.StickSpectrum((-1e308, 1e308), (1, 1), ("h=0", "h=1"))
        with pytest.raises(ValidationError, match="span past the float range"):
            sp.export_svg(spec, tmp_path / "spec.svg")
        assert not list(tmp_path.iterdir())
        sp.export_csv(spec, tmp_path / "spec.csv")      # the CSV holds them
        assert sp.parse_csv(tmp_path / "spec.csv").delta_b == (-1e308, 1e308)

    def test_duplicate_group_label_refused(self):
        groups = _two_protons() + (sp.EquivalentGroup("h", 0.5, 1, 2.6752e4, {}),)
        with pytest.raises(ValidationError, match="duplicate group label 'h'"):
            sp.stick_spectrum(groups, "e")

    def test_reference_field_needs_a_gamma(self):
        groups = (sp.EquivalentGroup("e", 0.5, 1, 0.0, {"h": 5.0}),) + _two_protons()[1:]
        with pytest.raises(ValidationError, match="reference field needs a nonzero gamma"):
            sp.reference_field(groups, "e", 1.0e10)

    def test_empty_resonance_list_refused(self):
        with pytest.raises(ValidationError, match="need at least one resonance group"):
            sp.stick_spectrum(_two_protons(), [])

    def test_svg_of_an_empty_spectrum_refused(self, tmp_path):
        empty = sp.StickSpectrum((), (), ())
        with pytest.raises(ValidationError, match="empty spectrum"):
            sp.export_svg(empty, tmp_path / "empty.svg")
        assert not (tmp_path / "empty.svg").exists()

    @pytest.mark.parametrize("exponents", [(3,), (-1,), (0, 0), ()])
    def test_coefficient_outside_the_grid_is_zero(self, exponents):
        poly = sp.generating_polynomial(_two_protons(), "e")
        assert poly.radices == (3,) and poly.coefficients == (1, 2, 1)
        assert poly.coefficient(exponents) == 0
