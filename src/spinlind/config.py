"""Run configuration: INI-style sections of key = value lines.

Grammar (see README for a full description):

    [run]               mode = spectrum | propagate | qubit | acp | verify
    [system]            spins / gammas as whitespace-separated numbers,
                        couplings as ';'-separated matrix rows
    [field]             b_o, b_1, dist = lorentzian|gaussian|delta, center, width
    [thermal]           exactly one of beta / temperature_kelvin
    [group:<label>]     j, count, gamma, abundance, lambda.<other> = Gauss,
                        <other> a defined group other than <label>
    [spectrum]          resonance (one label or several), scaled
    [propagate]         t_end > 0, dt > 0 (optional), store_every >= 1 (optional)
    [qubit]             t_end > 0, n_points >= 2, dt > 0 (optional),
                        tolerance >= 0 (optional); every number finite.
                        dt spaces the propagate grid on [0, t_end] that the
                        n_points compared times are drawn from; the states
                        there come from the exact map, not from steps of dt
    [acp]               order
    [output]            basename (optional): a file name prefix, not a path

Validation failures name the violated invariant, and a value that is not a
finite number names its ``[section] key``; parse failures carry the line
information from the underlying parser.  The per-mode requirements are
checked again when the CLI's ``--mode`` replaces the configured mode.
The modules behind the parsed values load only when a config needs them.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    from .lineshape import FrequencyDistribution
    from .spincore import SpinSystem

__all__ = ["RunConfig", "load_config"]

MODES = ("spectrum", "propagate", "qubit", "acp", "verify")


@dataclass
class RunConfig:
    mode: str
    system: SpinSystem | None = None
    field_b_o: float | None = None
    field_b_1: float | None = None
    dist: FrequencyDistribution | None = None
    beta: float | None = None
    groups: tuple = ()
    resonance: tuple = ()
    scaled: bool = False
    t_end: float | None = None
    dt: float | None = None
    store_every: int | None = None
    n_points: int = 200
    tolerance: float | None = None
    acp_order: int = 2
    basename: str = "run"


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split()]


def _number(section, key: str, kind=float, default: str | None = None, *,
            low=None, strict: bool = True):
    """``section[key]`` (``default`` when absent) converted by ``kind``.

    The one numeric read of the loader: a value ``kind`` rejects, a float
    that is not finite (any one of a list or matrix), or one not above
    ``low`` (at least ``low`` if not strict) is a ValidationError naming
    ``[section] key``.
    """
    text = section.get(key, default)
    try:
        value = kind(text)
    except ValueError as exc:
        raise ValidationError(f"[{section.name}] {key} must be numeric, got {text!r}") from exc
    if kind is not int and not _finite(value):
        raise ValidationError(f"[{section.name}] {key} must be finite, got {text!r}")
    if low is not None and not (value > low if strict else value >= low):
        bound = f"above {low}" if strict else f"at least {low}"
        raise ValidationError(f"[{section.name}] {key} must be {bound}, got {value}")
    return value


def _finite(value) -> bool:
    """A float, or every float of a list or of a matrix's rows, is finite."""
    return all(map(_finite, value)) if isinstance(value, list) else math.isfinite(value)


def _matrix(text: str) -> list:
    return [_floats(r) for r in (row.strip() for row in text.split(";")) if r]


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _parse_system(section) -> SpinSystem:
    from .spincore import SpinSystem

    if "spins" not in section or "gammas" not in section:
        raise ValidationError("[system] requires explicit 'spins' and 'gammas' lists")
    spins = _number(section, "spins", _floats)
    gammas = _number(section, "gammas", _floats)
    couplings = _number(section, "couplings", _matrix) if "couplings" in section else None
    if couplings and len(set(map(len, couplings))) > 1:
        raise ValidationError(f"[system] couplings rows differ in length, got {couplings}")
    return SpinSystem(spins, gammas, couplings)


def _parse_dist(section) -> FrequencyDistribution:
    from .lineshape import FrequencyDistribution

    kind = section.get("dist", "lorentzian").strip().lower()
    center = _number(section, "center", default="0")
    width = _number(section, "width", default="0")
    return FrequencyDistribution(kind, center, width)


def _parse_groups(parser) -> tuple:
    names = [name for name in parser.sections() if name.startswith("group:")]
    if not names:
        return ()
    from .spectrum import EquivalentGroup

    groups = []
    for name in names:
        label = name.split(":", 1)[1].strip()
        sec = parser[name]
        for key in ("j", "count", "gamma"):
            if key not in sec:
                raise ValidationError(f"[{name}] is missing {key!r}")
        lambdas = {key.split(".", 1)[1]: _number(sec, key)
                   for key in sec if key.startswith("lambda.")}
        groups.append(EquivalentGroup(
            label=label,
            j=_number(sec, "j"),
            count=_number(sec, "count", int),
            gamma=_number(sec, "gamma"),
            lambdas=lambdas,
            abundance=_number(sec, "abundance", default="1.0"),
        ))
    labels = {g.label for g in groups}
    for name, g in zip(names, groups):
        for other in g.lambdas:
            if other == g.label or other not in labels:
                what = "the group itself" if other == g.label else "no defined group"
                raise ValidationError(f"[{name}] lambda.{other} names {what}")
    return tuple(groups)


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"config parse error: {exc}") from exc

    if "run" not in parser or "mode" not in parser["run"]:
        raise ValidationError("config must declare [run] mode = ...")
    cfg = RunConfig(mode=parser["run"]["mode"].strip().lower())

    if "thermal" in parser:
        sec = parser["thermal"]
        has_beta = "beta" in sec
        has_temp = "temperature_kelvin" in sec
        if has_beta == has_temp:
            raise ValidationError(
                "[thermal] requires exactly one of beta / temperature_kelvin")
        if has_beta:
            cfg.beta = _number(sec, "beta")
        else:
            from .spincore import beta_from_kelvin

            cfg.beta = beta_from_kelvin(_number(sec, "temperature_kelvin"))

    if "system" in parser:
        cfg.system = _parse_system(parser["system"])
    if "field" in parser:
        sec = parser["field"]
        if "b_o" not in sec or "b_1" not in sec:
            raise ValidationError("[field] requires b_o and b_1")
        cfg.field_b_o = _number(sec, "b_o")
        cfg.field_b_1 = _number(sec, "b_1")
        cfg.dist = _parse_dist(sec)

    cfg.groups = _parse_groups(parser)

    if "spectrum" in parser:
        sec = parser["spectrum"]
        if "resonance" in sec:
            cfg.resonance = tuple(sec["resonance"].split())
        if "scaled" in sec:
            cfg.scaled = _bool(sec["scaled"])
    for name in ("propagate", "qubit"):
        if name not in parser:
            continue
        sec = parser[name]
        if "t_end" not in sec:
            raise ValidationError(f"[{name}] requires t_end")
        cfg.t_end = _number(sec, "t_end", low=0)
        if "dt" in sec:
            cfg.dt = _number(sec, "dt", low=0)
        if name == "propagate" and "store_every" in sec:
            cfg.store_every = _number(sec, "store_every", int, low=1, strict=False)
        if name == "qubit" and "n_points" in sec:
            cfg.n_points = _number(sec, "n_points", int, low=2, strict=False)
        if name == "qubit" and "tolerance" in sec:
            cfg.tolerance = _number(sec, "tolerance", low=0, strict=False)
    if "acp" in parser:
        cfg.acp_order = _number(parser["acp"], "order", int, default="2", low=1, strict=False)
    if "output" in parser:
        cfg.basename = _basename(parser["output"].get("basename", "run").strip())

    _validate_mode(cfg)
    return cfg


def _basename(name: str) -> str:
    """``name`` as the artifact name prefix.

    An empty name, ``.``, ``..`` or one holding a path separator would put
    the artifacts outside the output directory, so each is rejected.
    """
    if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ValidationError(
            f"[output] basename must be a file name prefix without a path, got {name!r}")
    return name


def _validate_mode(cfg: RunConfig) -> None:
    """Check that ``cfg`` has every section and value its mode needs.

    :func:`load_config` runs this for the configured mode; the CLI runs it
    again after ``--mode`` replaces the mode.
    """
    if cfg.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    needs_matrix = cfg.mode in ("propagate", "qubit", "acp", "verify")
    if needs_matrix:
        if cfg.system is None:
            raise ValidationError(f"mode {cfg.mode!r} requires an explicit [system] spin list")
        if cfg.beta is None:
            raise ValidationError(f"mode {cfg.mode!r} requires a [thermal] section")
    if cfg.mode in ("propagate", "qubit", "verify"):
        if cfg.field_b_o is None:
            raise ValidationError(f"mode {cfg.mode!r} requires a [field] section")
    if cfg.mode == "acp" and cfg.field_b_o is None:
        raise ValidationError("mode 'acp' requires a [field] section for b_o")
    if cfg.mode in ("propagate", "qubit") and cfg.t_end is None:
        raise ValidationError(f"mode {cfg.mode!r} requires t_end")
    if cfg.mode == "qubit":
        if cfg.system is not None and (cfg.system.n_spins != 1
                                       or cfg.system.spins[0] != 0.5):
            raise ValidationError("mode 'qubit' requires a single spin-1/2 system")
    if cfg.mode == "spectrum":
        if not cfg.groups:
            raise ValidationError("mode 'spectrum' requires at least one [group:...] section")
        if not cfg.resonance:
            raise ValidationError("mode 'spectrum' requires [spectrum] resonance = <label>")
        labels = {g.label for g in cfg.groups}
        for lab in cfg.resonance:
            if lab not in labels:
                raise ValidationError(f"resonance group {lab!r} is not defined")
