"""Stick-plot resonance spectra of molecules with groups of equivalent spins.

Spins that share couplings form equivalent groups; only the total boson
count n of each neighbor group matters for the resonance condition, so the
line positions are ``delta_B = sum_g lambda_g n_g`` (Gauss offsets from a
reference field) and the relative line intensities are the exact integer
coefficients of the generating polynomial

    P(x) = prod_g (1 + x_g + ... + x_g^{2 j_g})^{N_g}

over the neighbor groups g that are actually coupled to the resonance
group.  The expansion is a term table of Python lists, built one neighbor
group at a time as mixed-radix outer products (last group fastest): the
exact integer coefficients, each term's position and its config text
"label=n;...".  One sort orders the terms by position (stable, since one
group's grid is already in configuration order) or, over several resonance
groups, by (position, configuration); one anchored scan merges coincident
lines.  A :class:`StickSpectrum` is those columns, which the CSV and SVG
stream; its :class:`SpectrumLine` objects are parsed from the config text
when asked for, computed and read-back spectra alike.  An expansion of more
than ``MAX_TERMS`` terms, or whose exact coefficients would take more than
``MAX_COEFFICIENT_BYTES``, is refused before anything is allocated.  The
module loads no numpy.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping, Sequence

from .artifact import _write_text, write_csv
from .errors import ValidationError

__all__ = [
    "EquivalentGroup",
    "GeneratingPolynomial",
    "SpectrumLine",
    "StickSpectrum",
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

# a line absorbs the following terms within this many Gauss of its first position
MERGE_TOL_GAUSS = 1e-9
# about 0.34 kB of peak RSS per term, in stick_spectrum (measured at the cap,
# generic positions, through export_csv and export_svg; CPython 3.11, x86-64):
# 0.17 GB at the cap, 0.25 GB after reading StickSpectrum.lines as well
MAX_TERMS = 500_000
# exact coefficients beyond small ints, estimated from the group sizes alone
MAX_COEFFICIENT_BYTES = 260_000_000
SVG_WIDTH, SVG_HEIGHT = 900, 420     # pixels


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
        if not self.label or any(c in self.label for c in "=;|"):
            raise ValidationError(f"group label {self.label!r} must be nonempty and hold "
                                  "none of the CSV config separators '=', ';', '|'")
        constants = {"j": self.j, "gamma": self.gamma,
                     **{f"lambda.{k}": v for k, v in self.lambdas.items()}}
        for key, value in constants.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"group {self.label!r} {key} must be finite, got {value}")
        if self.count < 1:
            raise ValidationError(f"group {self.label!r} needs at least one spin")
        twice = 2.0 * float(self.j)     # inf past j = 9e307, where round() would raise
        if not (0 <= twice < math.inf) or abs(twice - round(twice)) > 1e-12:
            raise ValidationError(f"group {self.label!r} has a bad spin quantum number")
        if not 0.0 < self.abundance <= 1.0:
            raise ValidationError(f"group {self.label!r} abundance must be in (0, 1]")
        object.__setattr__(self, "lambdas", dict(self.lambdas))

    @property
    def max_bosons(self) -> int:
        return int(round(2 * self.j)) * self.count

    @property
    def states(self) -> int:
        return (int(round(2 * self.j)) + 1) ** self.count


def boson_count_degeneracies(j: float, count: int) -> list:
    """Coefficients c_k of (1 + x + ... + x^m)^count, m = 2j, as exact integers.

    With p = (1 - x^{m+1}) / (1 - x), f = p^count obeys
    (1 - x)(1 - x^{m+1}) f' = count (1 - (m+1) x^m + m x^{m+1}) f, so
    k c_k = (count + k - 1) c_{k-1} + (k - m - 1 - count (m+1)) c_{k-m-1}
    + (count m - k + m + 2) c_{k-m-2}: three big-int products per coefficient,
    O(count m) in all, each division exact.
    """
    m, n = int(round(2 * j)), count
    coeffs = [1]
    for k in range(1, m * n + 1):
        acc = (n + k - 1) * coeffs[k - 1]
        if k > m:
            acc += (k - m - 1 - n * (m + 1)) * coeffs[k - m - 1]
        if k > m + 1:
            acc += (n * m - k + m + 2) * coeffs[k - m - 2]
        coeffs.append(acc // k)
    return coeffs


@dataclass(frozen=True)
class GeneratingPolynomial:
    """Expanded multivariate polynomial as a term table.

    Term k has the k-th exponent vector of the mixed-radix grid over
    ``radices``, the last variable fastest (lexicographic order of the
    vectors), and the exact integer coefficient ``coefficients[k]``.
    """

    variables: tuple                  # neighbor group labels, in input order
    radices: tuple                    # 2 j N + 1 per variable
    coefficients: tuple               # one exact int per term

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    @property
    def exponents(self) -> tuple:
        """The exponent tuple of every term, in term order."""
        return tuple(itertools.product(*map(range, self.radices)))

    def coefficient(self, exponents: Sequence[int]) -> int:
        expo, radices = [int(e) for e in exponents], self.radices
        if len(expo) != len(radices) or not all(0 <= e < r for e, r in zip(expo, radices)):
            return 0
        index = 0
        for e, r in zip(expo, radices):
            index = index * r + e
        return self.coefficients[index]


def _resonance(groups: Sequence[EquivalentGroup], label: str) -> tuple:
    """(group, neighbors) of resonance group ``label``, the neighbors being the
    groups that split its resonance (a nonzero lambda toward them), in input order.

    A label that no group has, or that two groups share, is a ValidationError.
    """
    by_label = {}
    for g in groups:
        if g.label in by_label:
            raise ValidationError(f"duplicate group label {g.label!r}")
        by_label[g.label] = g
    if label not in by_label:
        raise ValidationError(f"unknown resonance group {label!r}")
    res = by_label[label]
    return res, [g for g in groups
                 if g.label != label and res.lambdas.get(g.label, 0.0) != 0.0]


def _check_size(groups: Sequence[EquivalentGroup], labels: Sequence[str]) -> None:
    """Refuse an expansion too large to hold, from the group sizes alone.

    A resonance group has one term per neighbor boson configuration, the
    product of (max_bosons + 1) over its neighbors: MAX_TERMS in all.  No
    coefficient exceeds their total prod (2j + 1)^N, of sum N log2(2j + 1)
    bits, so terms * bits / 8 bounds a group's coefficient bytes:
    MAX_COEFFICIENT_BYTES in all.
    """
    counts, nbytes = [], 0.0
    for lab in labels:
        neighbors = _resonance(groups, lab)[1]
        counts.append(math.prod(g.max_bosons + 1 for g in neighbors))
        bits = sum(g.count * math.log2(round(2 * g.j) + 1) for g in neighbors)
        nbytes += counts[-1] * bits / 8
    names = ", ".join(map(repr, labels))
    if sum(counts) > MAX_TERMS:
        raise ValidationError(
            f"resonance group {names} expands to "
            f"{' + '.join(map(str, counts))} terms, above the cap of {MAX_TERMS}")
    if nbytes > MAX_COEFFICIENT_BYTES:
        raise ValidationError(
            f"resonance group {names} needs about {nbytes / 1e6:.0f} MB of exact "
            f"coefficients, above the budget of {MAX_COEFFICIENT_BYTES / 1e6:.0f} MB")


def generating_polynomial(groups: Sequence[EquivalentGroup],
                          resonance_label: str) -> GeneratingPolynomial:
    """Expand the intensity generating polynomial for one resonance group."""
    _check_size(groups, [resonance_label])
    neighbors = _resonance(groups, resonance_label)[1]
    coefficients = [1]
    for g in neighbors:
        factor = boson_count_degeneracies(g.j, g.count)
        coefficients = [c * f for c in coefficients for f in factor]
    return GeneratingPolynomial(variables=tuple(g.label for g in neighbors),
                                radices=tuple(g.max_bosons + 1 for g in neighbors),
                                coefficients=tuple(coefficients))


def tetrahedral_number(j: float) -> int:
    """binom(2j + 2, 3), the spin-dependent intensity factor."""
    return math.comb(int(round(2 * j)) + 2, 3)


def subspace_dimension(groups: Sequence[EquivalentGroup], label: str) -> int:
    """Dimension of the subspace of the resonance group and its coupled neighbors."""
    res, neighbors = _resonance(groups, label)
    return res.states * math.prod(g.states for g in neighbors)


def _scale_ratio(groups: Sequence[EquivalentGroup], label: str) -> tuple:
    """(gamma^2 N binom(2j+2, 3) abundance, D) as exact ints, gamma and abundance
    through their integer ratios, so that no float meets the subspace dimension D."""
    res = _resonance(groups, label)[0]
    g_num, g_den = res.gamma.as_integer_ratio()
    a_num, a_den = res.abundance.as_integer_ratio()
    num = g_num * g_num * res.count * tetrahedral_number(res.j) * a_num
    return num, g_den * g_den * a_den * subspace_dimension(groups, label)


def _quotient(num: int, den: int, label: str) -> float:
    """num / den correctly rounded; a ValidationError where it exceeds the float range."""
    try:
        return num / den
    except OverflowError:
        raise ValidationError(
            f"a scaled intensity of resonance group {label!r} exceeds the float range") from None


def intensity_scale(groups: Sequence[EquivalentGroup], label: str) -> float:
    """Absolute intensity scale (gamma^2 N / D) * binom(2j+2, 3) * abundance.

    One exact int/int quotient, correctly rounded: the subspace dimension D
    may be far beyond the float range (a group of 1100 spin-1/2 has 2^1100
    states), and the scale still comes out finite, if subnormal or 0.
    """
    return _quotient(*_scale_ratio(groups, label), label)


def reference_field(groups: Sequence[EquivalentGroup], label: str,
                    omega_o: float) -> float:
    """Line-position reference -w0/gamma - sum_g lambda_g J_g; ``omega_o`` must be finite.

    A reference past the float range is a ValidationError, as in :func:`stick_spectrum`.
    """
    if not math.isfinite(omega_o):
        raise ValidationError(f"omega_o must be finite, got {omega_o}")
    res, neighbors = _resonance(groups, label)
    if res.gamma == 0:
        raise ValidationError("reference field needs a nonzero gamma")
    out = -omega_o / res.gamma
    for g in neighbors:
        out -= res.lambdas[g.label] * (g.j * g.count)     # lambda_g J_g
    if not math.isfinite(out):
        raise ValidationError(f"line positions of group {label!r} exceed the float range: "
                              f"the reference field is {out}")
    return out


@dataclass(frozen=True, slots=True)
class SpectrumLine:
    """One stick: field offset, intensity, contributing boson configurations."""

    delta_b: float
    intensity: float
    configs: tuple        # ((label, n) pairs per merged configuration)


@dataclass(frozen=True)
class StickSpectrum:
    """A stick spectrum as columns, one row per line in position order.

    ``delta_b`` and ``intensity`` hold the line positions and intensities
    (exact ints, or floats when scaled), ``config_text`` each line's
    configurations as the CSV writes them: "a=1;b=0|a=0;b=2".  The
    :class:`SpectrumLine` objects of ``lines`` are parsed from these columns
    on first access, so they follow ``config_text`` wherever it came from.
    """

    delta_b: tuple
    intensity: tuple
    config_text: tuple

    @cached_property
    def lines(self) -> tuple:
        return tuple(map(SpectrumLine, self.delta_b, self.intensity,
                         _parse_configs(self.config_text)))

    @property
    def total_intensity(self) -> float:
        return sum(self.intensity)


def _parse_configs(texts: Sequence[str]) -> list:
    """Each "a=1;b=0|a=0;b=2" -> ((("a", 1), ("b", 0)), (("a", 0), ("b", 2))).

    One ("label", n) pair per distinct "label=n" piece, shared by every line.
    """
    pairs = {}

    def pair(piece):
        if piece not in pairs:
            label, _, n = piece.partition("=")
            try:
                pairs[piece] = (label, int(n))
            except ValueError:
                raise ValidationError(f"bad spectrum config {piece!r}: want label=n") from None
        return pairs[piece]

    return [tuple(tuple(map(pair, cfg.split(";"))) if cfg else () for cfg in text.split("|"))
            for text in texts]


def stick_spectrum(groups: Sequence[EquivalentGroup], resonance_label,
                   omega_o: float = 0.0, *, scaled: bool = False,
                   absolute: bool = False) -> StickSpectrum:
    """Stick spectrum of one resonance group, or the sum over several.

    Positions are offsets from the per-group reference field by default
    (``absolute=True`` adds the reference, which needs ``omega_o``).  Lines
    are ordered by position, then by configuration, ((label, n), ...)
    compared as tuples.  A line absorbs the following terms while they lie
    within MERGE_TOL_GAUSS of its first position, adding their
    intensities in that order.  Intensities are exact integer degeneracies
    unless ``scaled``; summing over several resonance groups always applies
    each group's absolute scale, since raw degeneracies of different groups
    are not comparable; a group whose scale is zero (gamma = 0) is refused, as are positions
    past the float range and a non-finite ``omega_o``.
    """
    if not math.isfinite(omega_o):
        raise ValidationError(f"omega_o must be finite, got {omega_o}")
    labels = ([resonance_label] if isinstance(resonance_label, str)
              else list(resonance_label))
    if not labels:
        raise ValidationError("need at least one resonance group")
    if len(set(labels)) < len(labels):
        raise ValidationError(f"resonance groups {', '.join(map(repr, labels))} repeat a label")
    _check_size(groups, labels)
    resonances = [_resonance(groups, lab) for lab in labels]
    scaled = scaled or len(labels) > 1
    ratios = [_scale_ratio(groups, lab) if scaled else (1, 1) for lab in labels]
    refs = [reference_field(groups, lab, omega_o) if absolute else 0.0 for lab in labels]
    for lab, (res, neighbors), (num, _), ref in zip(labels, resonances, ratios, refs):
        if num == 0:
            raise ValidationError(
                f"resonance group {lab!r} has gamma = {res.gamma}, so its "
                "scaled intensities are all 0")
        # float sums are monotone: each position's partial sums lie within these extremes
        low, high = 0.0, 0.0
        for g in neighbors:
            far = res.lambdas[g.label] * g.max_bosons
            low, high = low + min(far, 0.0), high + max(far, 0.0)
        if not (math.isfinite(low + ref) and math.isfinite(high + ref)):
            raise ValidationError(f"line positions of group {lab!r} exceed the float range")

    positions, weights, texts, configs = [], [], [], []
    for lab, (res, _), (num, den), ref in zip(labels, resonances, ratios, refs):
        poly = generating_polynomial(groups, lab)
        # outer products one neighbor group at a time, in the grid order of
        # the coefficients: each position sums lambda * n left to right
        delta, text = [0.0], [""]
        for k, (v, radix) in enumerate(zip(poly.variables, poly.radices)):
            steps = [res.lambdas[v] * n for n in range(radix)]
            delta = [d + step for d in delta for step in steps]
            pieces = [f"{';' if k else ''}{v}={n}" for n in range(radix)]
            text = [t + piece for t in text for piece in pieces]
        if absolute:
            delta = [d + ref for d in delta]
        positions += delta
        # each scaled weight is one exact quotient c num / den, correctly rounded
        weights += ([_quotient(c * num, den, lab) for c in poly.coefficients] if scaled
                    else poly.coefficients)
        texts += text
        if len(labels) > 1:
            configs += [tuple(zip(poly.variables, e)) for e in poly.exponents]
    key = (positions.__getitem__ if len(labels) == 1
           else lambda k: (positions[k], configs[k]))
    order = sorted(range(len(positions)), key=key)

    # a line absorbs the following terms within MERGE_TOL_GAUSS of its first
    sorted_positions = map(positions.__getitem__, order)
    starts, anchor = [0], next(sorted_positions)
    for i, p in enumerate(sorted_positions, 1):
        if p - anchor > MERGE_TOL_GAUSS:
            starts.append(i)
            anchor = p
    firsts = [order[s] for s in starts]
    sums = list(map(weights.__getitem__, firsts))
    config_text = list(map(texts.__getitem__, firsts))
    if len(starts) < len(order):    # merged terms: added left to right, texts joined
        for line, (s, e) in enumerate(zip(starts, starts[1:] + [len(order)])):
            if e - s > 1:
                sums[line] = reduce(operator.add, map(weights.__getitem__, order[s:e]))
                config_text[line] = "|".join(map(texts.__getitem__, order[s:e]))
    return StickSpectrum(tuple(map(positions.__getitem__, firsts)), tuple(sums),
                         tuple(config_text))


def _exact(intensities: list) -> list:
    """Each integral float as an int; an int stays (float() of one may overflow)."""
    if set(map(type, intensities)) <= {int}:
        return intensities
    return [i if type(i) is int else int(i) if float(i).is_integer() else i for i in intensities]


def _check_finite(spectrum: StickSpectrum) -> None:
    """A ValidationError for a non-finite position or intensity, before any file is opened."""
    for col in (spectrum.delta_b, spectrum.intensity):
        try:    # a finite sum clears a column in one pass
            fast = math.isfinite(sum(col))
        except OverflowError:       # an int past the float range
            fast = False
        if not (fast or all(type(v) is int or math.isfinite(v) for v in col)):
            raise ValidationError("a spectrum line has a non-finite position or intensity")


def _check_printable(imax) -> None:
    """A ValidationError for an intensity too long for CPython's int-to-str limit.

    An exact intensity of more than ``sys.get_int_max_str_digits()`` digits
    (0: no limit) cannot be written; checked before any file is opened.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and isinstance(imax, int) and imax >= 10 ** limit:
        raise ValidationError(
            f"an exact intensity has more than {limit} digits, the limit of Python's "
            f"int-to-str conversion; set scaled = true in [spectrum] to write relative "
            f"intensities")


def export_csv(spectrum: StickSpectrum, path) -> None:
    """Write ``delta_B_gauss,intensity,config``; integral intensities exactly."""
    _check_finite(spectrum)
    _check_printable(max(spectrum.intensity, default=0))
    write_csv(path, ["delta_B_gauss", "intensity", "config"],
              [spectrum.delta_b, _exact(spectrum.intensity), spectrum.config_text])


def parse_csv(path) -> StickSpectrum:
    """Read an :func:`export_csv` file back, an integer cell as an exact int.

    A malformed row or config cell fails here: the lines are parsed now, and so
    does a non-finite position or intensity.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["delta_B_gauss", "intensity", "config"]:
            raise ValidationError(f"unexpected spectrum CSV header {header}")
        rows = []
        for cells in reader:
            try:
                b, i, text = cells
                row = float(b), int(i) if i.removeprefix("-").isdecimal() else float(i), text
            except ValueError as exc:    # not 3 cells, a bad number, an int past the str limit
                raise ValidationError(
                    f"unreadable spectrum CSV row {reader.line_num}: {exc}") from exc
            if not (math.isfinite(row[0]) and (type(row[1]) is int or math.isfinite(row[1]))):
                raise ValidationError(f"spectrum CSV row {reader.line_num} has a non-finite "
                                      f"position or intensity: {b}, {i}")
            rows.append(row)
    delta_b, intensity, texts = zip(*rows) if rows else ((), (), ())
    spec = StickSpectrum(delta_b, intensity, texts)
    spec.lines
    return spec


def export_svg(spectrum: StickSpectrum, path) -> None:
    """Minimal deterministic stick plot: one labeled line per stick."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    bs, intensities = spectrum.delta_b, spectrum.intensity
    if not bs:
        raise ValidationError("empty spectrum")
    _check_finite(spectrum)
    imax = max(intensities)
    _check_printable(imax)
    if not imax > 0:
        raise ValidationError(f"the largest intensity is {imax}, not positive: "
                              "there is nothing to plot")
    b_lo, b_hi = min(bs), max(bs)
    pad = 0.05 * (b_hi - b_lo) if b_hi > b_lo else 1.0
    b_lo, b_hi = b_lo - pad, b_hi + pad
    if not math.isfinite(b_hi - b_lo):
        raise ValidationError(f"positions {min(bs)} to {max(bs)} span past the float range")
    margin, base, plot_h = 50, height - 60, height - 100

    def x_of(b):
        return margin + (b - b_lo) / (b_hi - b_lo) * (width - 2 * margin)

    axis = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
            f'<line x1="{margin}" y1="{base}" x2="{width - margin}" y2="{base}" '
            'stroke="black"/>\n'
            f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
            'font-size="14">field offset (G)</text>\n')
    tick = (f'<line x1="%.2f" y1="{base}" x2="%.2f" y2="{base + 6}" stroke="black"/>\n'
            f'<text x="%.2f" y="{base + 22}" text-anchor="middle" font-size="11">%.4g</text>\n')
    ticks = [b_lo + (b_hi - b_lo) * k / 8 for k in range(9)]
    # per distinct (type, intensity), a stick's row after its 2nd x and its 3rd;
    # heights in Python arithmetic: for int intensities plot_h * I / imax is
    # the correctly rounded quotient of exact integers, beyond 2**53 too
    tails = dict.fromkeys(zip(map(type, intensities), intensities))
    values = [i for _, i in tails]
    for key, i, label in zip(list(tails), values, _exact(values)):
        y = base - plot_h * i / imax
        label = str(label) if type(label) is int else "%.4g" % label
        tails[key] = (
            f'" y2="{y:.2f}" stroke="steelblue" stroke-width="2"/>\n<text x="',
            f'" y="{y - 6:.2f}" text-anchor="middle" font-size="10">{label}</text>\n')
    sticks = map(tails.__getitem__, zip(map(type, intensities), intensities))
    _write_text(path, itertools.chain(
        [axis, *(tick % (x, x, x, b) for x, b in zip(map(x_of, ticks), ticks))],
        (f'<line class="stick" x1="{x}" y1="{base}" x2="{x}{stick}{x}{text}'
         for x, (stick, text) in zip((f"{x_of(b):.2f}" for b in bs), sticks)),
        ["</svg>\n"]))
