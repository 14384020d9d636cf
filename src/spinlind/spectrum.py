"""Stick-plot resonance spectra of molecules with groups of equivalent spins.

Spins that share couplings form equivalent groups; only the total boson
count n of each neighbor group matters for the resonance condition, so the
line positions are ``delta_B = sum_g lambda_g n_g`` (Gauss offsets from a
reference field) and the relative line intensities are the exact integer
coefficients of the generating polynomial

    P(x) = prod_g (1 + x_g + ... + x_g^{2 j_g})^{N_g}

over the neighbor groups g that are actually coupled to the resonance
group.  Coefficients are computed by repeated convolution of per-group
coefficient arrays with Python integers, so they are exact at any size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .numutil import fmt12

__all__ = [
    "EquivalentGroup",
    "GeneratingPolynomial",
    "SpectrumLine",
    "StickSpectrum",
    "splitting_constant",
    "boson_count_degeneracies",
    "generating_polynomial",
    "tetrahedral_number",
    "subspace_dimension",
    "intensity_scale",
    "reference_field",
    "stick_spectrum",
    "export_csv",
    "parse_csv",
    "export_svg",
]

MERGE_TOL_GAUSS = 1e-9


def splitting_constant(t_coupling: float, gamma: float) -> float:
    """Splitting constant in Gauss from a coupling (rad/s) and gamma (rad/s/G)."""
    if gamma == 0:
        raise ValidationError("gamma must be nonzero")
    return -t_coupling / gamma


@dataclass(frozen=True)
class EquivalentGroup:
    """A group of mutually equivalent spins.

    ``lambdas`` maps the labels of the other groups to splitting constants in
    Gauss; groups absent from the map (or mapped to zero) do not split this
    group's resonance.
    """

    label: str
    j: float
    count: int
    gamma: float
    lambdas: Mapping[str, float]
    abundance: float = 1.0

    def __post_init__(self):
        constants = {"j": self.j, "gamma": self.gamma,
                     **{f"lambda.{k}": v for k, v in self.lambdas.items()}}
        for key, value in constants.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"group {self.label!r} {key} must be finite, got {value}")
        if self.count < 1:
            raise ValidationError(f"group {self.label!r} needs at least one spin")
        twice = round(2 * self.j)
        if self.j < 0 or abs(2 * self.j - twice) > 1e-12:
            raise ValidationError(f"group {self.label!r} has a bad spin quantum number")
        if not 0.0 < self.abundance <= 1.0:
            raise ValidationError(f"group {self.label!r} abundance must be in (0, 1]")
        object.__setattr__(self, "lambdas", dict(self.lambdas))

    @property
    def total_spin(self) -> float:
        """J = j * N, the maximal total projection of the group."""
        return self.j * self.count

    @property
    def max_bosons(self) -> int:
        return int(round(2 * self.j)) * self.count

    @property
    def states(self) -> int:
        return (int(round(2 * self.j)) + 1) ** self.count


def boson_count_degeneracies(j: float, count: int) -> list:
    """Coefficients of (1 + x + ... + x^{2j})^count as exact integers."""
    d = int(round(2 * j)) + 1
    coeffs = [1]
    unit = [1] * d
    for _ in range(count):
        out = [0] * (len(coeffs) + d - 1)
        for a, ca in enumerate(coeffs):
            for b in range(d):
                out[a + b] += ca
        coeffs = out
    return coeffs


@dataclass(frozen=True)
class GeneratingPolynomial:
    """Expanded multivariate polynomial: neighbor labels and integer terms."""

    variables: tuple                  # neighbor group labels, in input order
    terms: dict                       # exponent tuple -> integer coefficient

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.terms.get(tuple(int(e) for e in exponents), 0)

    def total(self) -> int:
        return sum(self.terms.values())


def _group_map(groups: Sequence[EquivalentGroup]) -> dict:
    out = {}
    for g in groups:
        if g.label in out:
            raise ValidationError(f"duplicate group label {g.label!r}")
        out[g.label] = g
    return out


def _neighbors(groups: Sequence[EquivalentGroup], resonance: EquivalentGroup):
    """Groups that actually split the resonance (nonzero lambda toward them)."""
    return [g for g in groups
            if g.label != resonance.label
            and resonance.lambdas.get(g.label, 0.0) != 0.0]


def generating_polynomial(groups: Sequence[EquivalentGroup],
                          resonance_label: str) -> GeneratingPolynomial:
    """Expand the intensity generating polynomial for one resonance group."""
    by_label = _group_map(groups)
    if resonance_label not in by_label:
        raise ValidationError(f"unknown resonance group {resonance_label!r}")
    neighbors = _neighbors(groups, by_label[resonance_label])

    terms = {(): 1}
    variables = tuple(g.label for g in neighbors)
    for g in neighbors:
        coeffs = boson_count_degeneracies(g.j, g.count)
        new_terms = {}
        for expo, c in terms.items():
            for n, cn in enumerate(coeffs):
                new_terms[expo + (n,)] = c * cn
        terms = new_terms
    return GeneratingPolynomial(variables=variables, terms=terms)


def tetrahedral_number(j: float) -> int:
    """binom(2j + 2, 3), the spin-dependent intensity factor."""
    return math.comb(int(round(2 * j)) + 2, 3)


def subspace_dimension(groups: Sequence[EquivalentGroup], label: str) -> int:
    """Dimension of the subspace of the resonance group and its coupled neighbors."""
    by_label = _group_map(groups)
    res = by_label[label]
    dim = res.states
    for g in _neighbors(groups, res):
        dim *= g.states
    return dim


def intensity_scale(groups: Sequence[EquivalentGroup], label: str, *,
                    include_abundance: bool = True) -> float:
    """Absolute intensity scale (gamma^2 N / D) * binom(2j+2, 3) [* abundance]."""
    by_label = _group_map(groups)
    res = by_label[label]
    scale = (res.gamma ** 2 * res.count / subspace_dimension(groups, label)
             * tetrahedral_number(res.j))
    if include_abundance:
        scale *= res.abundance
    return scale


def reference_field(groups: Sequence[EquivalentGroup], label: str,
                    omega_o: float) -> float:
    """Line-position reference -w0/gamma - sum_g lambda_g J_g."""
    by_label = _group_map(groups)
    res = by_label[label]
    if res.gamma == 0:
        raise ValidationError("reference field needs a nonzero gamma")
    out = -omega_o / res.gamma
    for g in _neighbors(groups, res):
        out -= res.lambdas[g.label] * g.total_spin
    return out


@dataclass(frozen=True)
class SpectrumLine:
    """One stick: field offset, intensity, contributing boson configurations."""

    delta_b: float
    intensity: float
    configs: tuple        # ((label, n) pairs per merged configuration)

    def config_string(self) -> str:
        return "|".join(";".join(f"{lab}={n}" for lab, n in cfg)
                        for cfg in self.configs)


@dataclass(frozen=True)
class StickSpectrum:
    lines: tuple
    reference: float
    resonance: tuple

    @property
    def total_intensity(self) -> float:
        return sum(line.intensity for line in self.lines)


def _lines_for_group(groups, label, omega_o, scaled):
    by_label = _group_map(groups)
    res = by_label[label]
    poly = generating_polynomial(groups, label)
    lambdas = [res.lambdas[lab] for lab in poly.variables]
    scale = intensity_scale(groups, label) if scaled else 1
    out = []
    for expo, coeff in poly.terms.items():
        delta_b = sum(lam * n for lam, n in zip(lambdas, expo))
        config = tuple(zip(poly.variables, expo))
        out.append((delta_b, coeff * scale, config))
    return out


def stick_spectrum(groups: Sequence[EquivalentGroup], resonance_label,
                   omega_o: float = 0.0, *, scaled: bool = False,
                   absolute: bool = False,
                   merge_tol: float = MERGE_TOL_GAUSS) -> StickSpectrum:
    """Stick spectrum of one resonance group, or the sum over several.

    Positions are offsets from the per-group reference field by default
    (``absolute=True`` adds the reference, which needs ``omega_o``).  Lines
    closer than ``merge_tol`` Gauss are merged by intensity addition.
    Intensities are exact integer degeneracies unless ``scaled``; summing
    over several resonance groups always applies each group's absolute
    scale, since raw degeneracies of different groups are not comparable.
    """
    labels = ([resonance_label] if isinstance(resonance_label, str)
              else list(resonance_label))
    if not labels:
        raise ValidationError("need at least one resonance group")
    raw = []
    for lab in labels:
        ref = reference_field(groups, lab, omega_o) if absolute else 0.0
        for delta_b, intensity, config in _lines_for_group(groups, lab, omega_o,
                                                           scaled or len(labels) > 1):
            raw.append((delta_b + ref, intensity, config))

    raw.sort(key=lambda item: (item[0], item[2]))
    merged = []
    for delta_b, intensity, config in raw:
        if merged and abs(delta_b - merged[-1][0]) <= merge_tol:
            prev_b, prev_i, prev_cfgs = merged[-1]
            merged[-1] = (prev_b, prev_i + intensity, prev_cfgs + (config,))
        else:
            merged.append((delta_b, intensity, (config,)))

    lines = tuple(SpectrumLine(delta_b=b, intensity=i, configs=cfgs)
                  for b, i, cfgs in merged)
    ref = reference_field(groups, labels[0], omega_o) if absolute else 0.0
    return StickSpectrum(lines=lines, reference=ref, resonance=tuple(labels))


def export_csv(spectrum: StickSpectrum, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_B_gauss", "intensity", "config"])
        for line in spectrum.lines:
            intensity = (str(int(line.intensity))
                         if float(line.intensity).is_integer()
                         else fmt12(line.intensity))
            writer.writerow([fmt12(line.delta_b), intensity, line.config_string()])


def parse_csv(path) -> StickSpectrum:
    lines = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["delta_B_gauss", "intensity"]:
            raise ValidationError(f"unexpected spectrum CSV header {header}")
        for row in reader:
            configs = []
            if len(row) > 2 and row[2]:
                for cfg in row[2].split("|"):
                    pairs = []
                    for item in cfg.split(";"):
                        if item:
                            lab, _, n = item.partition("=")
                            pairs.append((lab, int(n)))
                    configs.append(tuple(pairs))
            lines.append(SpectrumLine(delta_b=float(row[0]),
                                      intensity=float(row[1]),
                                      configs=tuple(configs)))
    return StickSpectrum(lines=tuple(lines), reference=0.0, resonance=())


def export_svg(spectrum: StickSpectrum, path, *, width: int = 900,
               height: int = 420) -> None:
    """Minimal deterministic stick plot: one vertical line per stick, labeled."""
    lines = spectrum.lines
    if not lines:
        raise ValidationError("empty spectrum")
    bs = [line.delta_b for line in lines]
    imax = max(line.intensity for line in lines)
    b_lo, b_hi = min(bs), max(bs)
    pad = 0.05 * (b_hi - b_lo) if b_hi > b_lo else 1.0
    b_lo, b_hi = b_lo - pad, b_hi + pad
    margin, base = 50, height - 60
    plot_h = base - 40

    def x_of(b):
        return margin + (b - b_lo) / (b_hi - b_lo) * (width - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{base}" x2="{width - margin}" y2="{base}" '
        'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        'font-size="14">field offset (G)</text>',
    ]
    n_ticks = 9
    for k in range(n_ticks):
        b = b_lo + (b_hi - b_lo) * k / (n_ticks - 1)
        x = x_of(b)
        parts.append(f'<line x1="{x:.2f}" y1="{base}" x2="{x:.2f}" y2="{base + 6}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{base + 22}" text-anchor="middle" '
                     f'font-size="11">{b:.4g}</text>')
    for line in lines:
        x = x_of(line.delta_b)
        h = plot_h * line.intensity / imax
        label = (str(int(line.intensity)) if float(line.intensity).is_integer()
                 else f"{line.intensity:.4g}")
        parts.append(f'<line class="stick" x1="{x:.2f}" y1="{base}" x2="{x:.2f}" '
                     f'y2="{base - h:.2f}" stroke="steelblue" stroke-width="2"/>')
        parts.append(f'<text x="{x:.2f}" y="{base - h - 6:.2f}" text-anchor="middle" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
