"""Stick-plot resonance spectra of molecules with groups of equivalent spins.

Spins that share couplings form equivalent groups; only the total boson
count n of each neighbor group matters for the resonance condition, so the
line positions are ``delta_B = sum_g lambda_g n_g`` (Gauss offsets from a
reference field) and the relative line intensities are the exact integer
coefficients of the generating polynomial

    P(x) = prod_g (1 + x_g + ... + x_g^{2 j_g})^{N_g}

over the neighbor groups g that are actually coupled to the resonance
group.  The expansion is one term table: the mixed-radix grid of exponent
vectors (last group fastest) and the outer product of the per-group
coefficients, in int64 while the coefficient total fits and in Python
integers otherwise, so it is exact at any size.  Positions, the sort by
(position, configuration) (a stable sort by position for one resonance
group, whose grid is already in configuration order; a ``lexsort`` over
configuration codes for several) and the merge of coincident lines run on
those arrays, and so does each term's config text, joined once from
per-group ``"label=n"`` pieces.  A :class:`StickSpectrum` holds positions,
intensities and config text as columns, which the CSV and SVG stream
through one row template each; its :class:`SpectrumLine` objects are built
from the term grid only when asked for.  An expansion above ``MAX_TERMS``
terms is refused before anything is allocated.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .numutil import _write_text, write_csv

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
# about 0.48 kB of peak RSS per term, in stick_spectrum (measured at the cap,
# generic positions, through export_csv and export_svg): 0.24 GB at the cap;
# reading StickSpectrum.lines afterwards raises it to about 0.56 kB
MAX_TERMS = 500_000


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

    Row k of ``exponents`` is the exponent vector of term k, in mixed-radix
    order with the last variable fastest (lexicographic order of the
    vectors); ``coefficients[k]`` is its exact integer coefficient, int64
    when the coefficient total fits and Python ints in an object array
    otherwise.
    """

    variables: tuple                  # neighbor group labels, in input order
    exponents: np.ndarray             # (n_terms, n_variables) int64
    coefficients: np.ndarray          # (n_terms,) int64 or object

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    @property
    def terms(self) -> dict:
        """Exponent tuple -> integer coefficient, in term order."""
        return dict(zip(map(tuple, self.exponents.tolist()),
                        self.coefficients.tolist()))

    def coefficient(self, exponents: Sequence[int]) -> int:
        expo, radices = [int(e) for e in exponents], (self.exponents[-1] + 1).tolist()
        if len(expo) != len(radices) or not all(0 <= e < r for e, r in zip(expo, radices)):
            return 0
        return int(self.coefficients[np.ravel_multi_index(expo, radices)])

    def total(self) -> int:
        return int(self.coefficients.sum())


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


def _check_size(groups: Sequence[EquivalentGroup], labels: Sequence[str]) -> None:
    """Refuse expansions of more than MAX_TERMS terms in all, before allocating.

    A resonance group has one term per neighbor boson configuration, the
    product of (max_bosons + 1) over its neighbors.
    """
    by_label = _group_map(groups)
    counts = []
    for lab in labels:
        if lab not in by_label:
            raise ValidationError(f"unknown resonance group {lab!r}")
        counts.append(math.prod(g.max_bosons + 1
                                for g in _neighbors(groups, by_label[lab])))
    if sum(counts) > MAX_TERMS:
        raise ValidationError(
            f"resonance group {', '.join(map(repr, labels))} expands to "
            f"{' + '.join(map(str, counts))} terms, above the cap of {MAX_TERMS}")


def generating_polynomial(groups: Sequence[EquivalentGroup],
                          resonance_label: str) -> GeneratingPolynomial:
    """Expand the intensity generating polynomial for one resonance group."""
    _check_size(groups, [resonance_label])
    by_label = _group_map(groups)
    neighbors = _neighbors(groups, by_label[resonance_label])
    radices = [g.max_bosons + 1 for g in neighbors]
    # the coefficient total bounds every coefficient and every merged sum
    dtype = np.int64 if math.prod(g.states for g in neighbors) < 2 ** 63 else object
    coefficients = np.ones(1, dtype=dtype)
    for g in neighbors:
        factor = np.array(boson_count_degeneracies(g.j, g.count), dtype=dtype)
        coefficients = np.multiply.outer(coefficients, factor).ravel()
    exponents = np.indices(radices).reshape(len(radices), coefficients.size).T
    return GeneratingPolynomial(variables=tuple(g.label for g in neighbors),
                                exponents=exponents, coefficients=coefficients)


def tetrahedral_number(j: float) -> int:
    """binom(2j + 2, 3), the spin-dependent intensity factor."""
    return math.comb(int(round(2 * j)) + 2, 3)


def subspace_dimension(groups: Sequence[EquivalentGroup], label: str) -> int:
    """Dimension of the subspace of the resonance group and its coupled neighbors."""
    res = _group_map(groups)[label]
    return res.states * math.prod(g.states for g in _neighbors(groups, res))


def intensity_scale(groups: Sequence[EquivalentGroup], label: str, *,
                    include_abundance: bool = True) -> float:
    """Absolute intensity scale (gamma^2 N / D) * binom(2j+2, 3) [* abundance]."""
    res = _group_map(groups)[label]
    scale = (res.gamma ** 2 * res.count / subspace_dimension(groups, label)
             * tetrahedral_number(res.j))
    if include_abundance:
        scale *= res.abundance
    return scale


def reference_field(groups: Sequence[EquivalentGroup], label: str,
                    omega_o: float) -> float:
    """Line-position reference -w0/gamma - sum_g lambda_g J_g."""
    res = _group_map(groups)[label]
    if res.gamma == 0:
        raise ValidationError("reference field needs a nonzero gamma")
    out = -omega_o / res.gamma
    for g in _neighbors(groups, res):
        out -= res.lambdas[g.label] * g.total_spin
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
    :class:`SpectrumLine` objects of ``lines`` are built on first access,
    their configs decoded from the term grid of :func:`stick_spectrum`
    (sorted term order, line bounds, and each resonance group's neighbor
    labels and radices, kept in the private fields) or, for a spectrum
    without one, parsed from ``config_text``.  Lines passed as ``lines=``
    stand in for the built ones.
    """

    delta_b: tuple
    intensity: tuple
    config_text: tuple
    reference: float
    resonance: tuple
    # unset, this init-only argument defaults to the cached_property below
    lines: InitVar[tuple]
    _order: np.ndarray = field(default=None, compare=False, repr=False)
    _starts: np.ndarray = field(default=None, compare=False, repr=False)
    _ends: np.ndarray = field(default=None, compare=False, repr=False)
    _grids: tuple = field(default=(), compare=False, repr=False)   # (labels, radices)

    def __post_init__(self, lines):
        if not isinstance(lines, cached_property):
            self.__dict__["lines"] = tuple(lines)

    @cached_property
    def lines(self) -> tuple:
        if self._order is None:
            configs = map(_parse_configs, self.config_text)
        else:
            grid = []
            for labels, radices in self._grids:
                grid += itertools.product(*[[(v, n) for n in range(r)]
                                            for v, r in zip(labels, radices)])
            terms = list(map(grid.__getitem__, self._order.tolist()))
            configs = map(tuple, map(terms.__getitem__, map(
                slice, self._starts.tolist(), self._ends.tolist())))
        return tuple(map(SpectrumLine, self.delta_b, self.intensity, configs))

    @property
    def total_intensity(self) -> float:
        return sum(self.intensity)


def _parse_configs(text: str) -> tuple:
    """"a=1;b=0|a=0;b=2" -> ((("a", 1), ("b", 0)), (("a", 0), ("b", 2)))."""
    return tuple(tuple((lab, int(n)) for lab, _, n in
                       (item.partition("=") for item in cfg.split(";") if item))
                 for cfg in text.split("|"))


def _line_bounds(pos: np.ndarray, merge_tol: float):
    """First and one-past-last term index of each line over sorted positions.

    A line absorbs the following terms while they lie within ``merge_tol``
    of its first position.  A gap beyond ``merge_tol`` always starts a line;
    a run of smaller gaps spanning more than ``merge_tol`` is split term by
    term.
    """
    starts = np.flatnonzero(np.diff(pos) > merge_tol) + 1
    ends = np.append(starts, pos.size)
    starts = np.insert(starts, 0, 0)
    wide = np.flatnonzero(pos[ends - 1] - pos[starts] > merge_tol)
    split = []
    for s, e in zip(starts[wide].tolist(), ends[wide].tolist()):
        anchor = pos[s]
        for k in range(s + 1, e):
            if pos[k] - anchor > merge_tol:
                split.append(k)
                anchor = pos[k]
    if split:
        starts = np.union1d(starts, split)
        ends = np.append(starts[1:], pos.size)
    return starts, ends


def _run_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """values[s:s+l].sum() per run, added left to right as a running total.

    Runs are visited longest first, so the runs still open at offset k are
    a prefix and the whole pass touches each value once.
    """
    by_len = np.argsort(-lengths, kind="stable")
    first = starts[by_len]
    acc = values[first]
    open_runs = np.searchsorted(-lengths[by_len], -np.arange(1, lengths.max()))
    for k, m in enumerate(open_runs.tolist(), start=1):
        acc[:m] += values[first[:m] + k]
    out = np.empty_like(acc)
    out[by_len] = acc
    return out


def stick_spectrum(groups: Sequence[EquivalentGroup], resonance_label,
                   omega_o: float = 0.0, *, scaled: bool = False,
                   absolute: bool = False,
                   merge_tol: float = MERGE_TOL_GAUSS) -> StickSpectrum:
    """Stick spectrum of one resonance group, or the sum over several.

    Positions are offsets from the per-group reference field by default
    (``absolute=True`` adds the reference, which needs ``omega_o``).  Lines
    are ordered by position, then by configuration, ((label, n), ...)
    compared as tuples.  A line absorbs the following terms while they lie
    within ``merge_tol`` Gauss of its first position, adding their
    intensities in that order.  Intensities are exact integer degeneracies
    unless ``scaled``; summing over several resonance groups always applies
    each group's absolute scale, since raw degeneracies of different groups
    are not comparable.
    """
    labels = ([resonance_label] if isinstance(resonance_label, str)
              else list(resonance_label))
    if not labels:
        raise ValidationError("need at least one resonance group")
    _check_size(groups, labels)
    by_label = _group_map(groups)
    scaled = scaled or len(labels) > 1
    polys = [generating_polynomial(groups, lab) for lab in labels]

    positions, weights, grids, texts = [], [], [], []
    for lab, poly in zip(labels, polys):
        res = by_label[lab]
        delta = np.zeros(poly.n_terms)
        for lam, n in zip([res.lambdas[v] for v in poly.variables], poly.exponents.T):
            delta = delta + lam * n
        positions.append(delta + (reference_field(groups, lab, omega_o) if absolute else 0.0))
        weights.append((poly.coefficients * intensity_scale(groups, lab)).astype(float)
                       if scaled else poly.coefficients)
        radices = tuple(by_label[v].max_bosons + 1 for v in poly.variables)
        grids.append((poly.variables, radices))
        # each term's text from per-group "label=n" pieces, in grid order
        texts += map(";".join, itertools.product(
            *[[f"{v}={n}" for n in range(r)] for v, r in zip(poly.variables, radices)]))
    pos = np.concatenate(positions)
    order = _term_order(pos, polys, by_label)
    pos = pos[order]
    weight = np.concatenate(weights)[order]

    starts, ends = _line_bounds(pos, merge_tol)
    sums = _run_sums(weight, starts, ends - starts).tolist()
    # a one-term line takes its term's text; only merged lines join
    config_text = list(map(texts.__getitem__, order[starts].tolist()))
    for k in np.flatnonzero(ends - starts > 1).tolist():
        config_text[k] = "|".join(map(texts.__getitem__, order[starts[k]:ends[k]].tolist()))
    ref = reference_field(groups, labels[0], omega_o) if absolute else 0.0
    return StickSpectrum(tuple(pos[starts].tolist()), tuple(sums), tuple(config_text),
                         ref, tuple(labels), _order=order, _starts=starts, _ends=ends,
                         _grids=tuple(grids))


def _term_order(pos: np.ndarray, polys: Sequence[GeneratingPolynomial],
                by_label: Mapping[str, EquivalentGroup]) -> np.ndarray:
    """Order of the concatenated terms by (position, configuration).

    One grid is already in configuration order (its exponent vectors over
    the same labels, lexicographic), so a stable sort by position does.  For
    several, a configuration is coded as one int per (label, n) pair,
    rank(label) * radix + n, padded with -1; comparing the codes column by
    column then orders configurations as tuple comparison does.
    """
    if len(polys) == 1:
        return np.argsort(pos, kind="stable")
    names = sorted({v for poly in polys for v in poly.variables})
    rank = {v: r for r, v in enumerate(names)}
    radix = max([by_label[v].max_bosons + 1 for v in names], default=1)
    codes = np.full((pos.size, max(len(poly.variables) for poly in polys)), -1,
                    dtype=np.int64)
    offset = 0
    for poly in polys:
        for i, v in enumerate(poly.variables):
            codes[offset:offset + poly.n_terms, i] = rank[v] * radix + poly.exponents[:, i]
        offset += poly.n_terms
    return np.lexsort([*codes.T[::-1], pos])


def _exact(intensities: list) -> list:
    """Each integral float as an int; an int stays (float() of one may overflow)."""
    if set(map(type, intensities)) <= {int}:
        return intensities
    return [i if type(i) is int else int(i) if float(i).is_integer() else i for i in intensities]


def _check_printable(imax) -> None:
    """A ValidationError for an intensity too long for CPython's int-to-str limit.

    An exact intensity of more than ``sys.get_int_max_str_digits()`` digits
    (0: no limit) cannot be written; checked before any file is opened.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and imax >= 10 ** limit:
        raise ValidationError(
            f"an exact intensity has more than {limit} digits, the limit of Python's "
            f"int-to-str conversion; set scaled = true in [spectrum] to write relative "
            f"intensities")


def export_csv(spectrum: StickSpectrum, path) -> None:
    """Write ``delta_B_gauss,intensity,config``; integral intensities exactly."""
    _check_printable(max(spectrum.intensity, default=0))
    write_csv(path, ["delta_B_gauss", "intensity", "config"],
              [spectrum.delta_b, _exact(spectrum.intensity), spectrum.config_text])


def parse_csv(path) -> StickSpectrum:
    """Read an :func:`export_csv` file back: an integer cell as an exact int."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["delta_B_gauss", "intensity"]:
            raise ValidationError(f"unexpected spectrum CSV header {header}")
        try:
            rows = [(float(row[0]),
                     int(row[1]) if row[1].removeprefix("-").isdecimal() else float(row[1]),
                     row[2] if len(row) > 2 else "") for row in reader]
        except ValueError as exc:    # a malformed number, or an int past the str limit
            raise ValidationError(f"unreadable spectrum CSV row: {exc}") from exc
    delta_b, intensity, texts = zip(*rows) if rows else ((), (), ())
    return StickSpectrum(delta_b, intensity, texts, 0.0, ())


def export_svg(spectrum: StickSpectrum, path, *, width: int = 900,
               height: int = 420) -> None:
    """Minimal deterministic stick plot: one labeled line per stick, one template."""
    bs, intensities = spectrum.delta_b, spectrum.intensity
    if not bs:
        raise ValidationError("empty spectrum")
    imax = max(intensities)
    _check_printable(imax)
    b_lo, b_hi = min(bs), max(bs)
    pad = 0.05 * (b_hi - b_lo) if b_hi > b_lo else 1.0
    b_lo, b_hi = b_lo - pad, b_hi + pad
    margin, base, plot_h = 50, height - 60, height - 100

    def x_of(b):          # a position or an array of them
        return margin + (b - b_lo) / (b_hi - b_lo) * (width - 2 * margin)

    axis = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
            f'<line x1="{margin}" y1="{base}" x2="{width - margin}" y2="{base}" '
            'stroke="black"/>\n'
            f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
            'font-size="14">field offset (G)</text>\n')
    tick = (f'<line x1="%.2f" y1="{base}" x2="%.2f" y2="{base + 6}" stroke="black"/>\n'
            f'<text x="%.2f" y="{base + 22}" text-anchor="middle" font-size="11">%.4g</text>\n')
    ticks = [b_lo + (b_hi - b_lo) * k / 8 for k in range(9)]
    # heights in Python arithmetic: for int intensities plot_h * I / imax is
    # the correctly rounded quotient of exact integers, beyond 2**53 too
    heights = np.array([plot_h * i / imax for i in intensities])
    xs = [f"{x:.2f}" for x in x_of(np.array(bs, dtype=float)).tolist()]
    labels = [str(i) if type(i) is int else "%.4g" % i for i in _exact(intensities)]
    stick = (f'<line class="stick" x1="%s" y1="{base}" x2="%s" y2="%.2f" '
             'stroke="steelblue" stroke-width="2"/>\n'
             '<text x="%s" y="%.2f" text-anchor="middle" font-size="10">%s</text>\n')
    _write_text(path, itertools.chain(
        [axis, *(tick % (x, x, x, b) for x, b in zip(map(x_of, ticks), ticks))],
        map(stick.__mod__, zip(xs, xs, (base - heights).tolist(), xs,
                               (base - heights - 6).tolist(), labels)), ["</svg>\n"]))
