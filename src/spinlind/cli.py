"""Command-line entry point: run a configured calculation and write artifacts.

Exit codes: 0 success, 1 validation failure, 2 numerical-accuracy failure,
3 I/O failure.  Each runner imports the modules it uses, numpy and json
included, so a run loads only those of its mode: a spectrum run loads no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import RunConfig, _validate_mode, load_config
from .errors import AccuracyError, SpinLindError, ValidationError

if TYPE_CHECKING:
    from .mastereq import FieldConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCURACY = 2
EXIT_IO = 3


def _field(cfg: RunConfig) -> FieldConfig:
    from .mastereq import FieldConfig

    return FieldConfig(b_o=cfg.field_b_o, b_1=cfg.field_b_1, dist=cfg.dist)


def run_spectrum(cfg: RunConfig, out: Path, verbose: bool) -> int:
    from . import spectrum

    labels = cfg.resonance if len(cfg.resonance) > 1 else cfg.resonance[0]
    spec = spectrum.stick_spectrum(cfg.groups, labels, scaled=cfg.scaled)
    csv_path = out / f"{cfg.basename}_spectrum.csv"
    svg_path = out / f"{cfg.basename}_spectrum.svg"
    spectrum.export_svg(spec, svg_path)     # its checks cover the CSV's: a refusal opens no file
    spectrum.export_csv(spec, csv_path)
    if verbose:
        print(f"{len(spec.delta_b)} lines, total intensity {spec.total_intensity}")
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


def run_propagate(cfg: RunConfig, out: Path, verbose: bool) -> int:
    from . import mastereq
    from .artifact import fmt12

    model = mastereq.build_model(cfg.system, _field(cfg), cfg.beta)
    traj = mastereq.propagate(model, model.boltzmann, cfg.t_end, cfg.dt,
                              store_every=cfg.store_every)
    csv_path = out / f"{cfg.basename}_trajectory.csv"
    mastereq.export_trajectory_csv(model, traj, csv_path)
    if verbose:
        print(f"{traj.times.size} stored frames, final trace "
              + fmt12(traj.final.trace().real))
    print(f"wrote {csv_path}")
    return EXIT_OK


def run_qubit(cfg: RunConfig, out: Path, verbose: bool) -> int:
    """Compare Lambda(t) rho0 with the closed-form spin-1/2 trajectory.

    The compared times are ``n_points`` frames, evenly spaced by index, of the
    grid :func:`mastereq.propagate` would store with ``[qubit] dt`` (default
    :func:`mastereq.default_dt`), or every frame when ``n_points`` exceeds
    their count; the numeric columns come from one call of the exact map
    :func:`mastereq.lambda_map` (not a time stepper), the analytic ones from
    one :func:`qubit.trajectory` call, both on all compared times.
    """
    import json

    import numpy as np

    from . import mastereq, qubit
    from .artifact import write_csv

    model = mastereq.build_model(cfg.system, _field(cfg), cfg.beta)
    params = qubit.QubitParams.from_field(cfg.system.gammas[0], cfg.field_b_o,
                                          cfg.field_b_1, cfg.beta, cfg.dist)
    dt, steps = mastereq._time_grid(model, cfg.t_end, cfg.dt, None)
    n_points = min(cfg.n_points, steps.size)    # same frames, bounded memory
    idx = np.linspace(0, steps.size - 1, n_points).astype(int)
    idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]   # sorted: drop repeats
    times = steps[idx] * dt
    states = mastereq.Trajectory(
        times=times,
        states=mastereq.lambda_map(model, times, model.boltzmann),
        energies=model.levels.energies,
    ).schrodinger_states()
    # numeric Bloch components: <sigma_a> = -2 <xi^a> / gamma
    num = mastereq._xi_moments(cfg.system, states).real * (-2.0 / cfg.system.gammas[0])
    ana = np.array(qubit.trajectory(params, times))
    max_dev = float(np.max(np.abs(num - ana)))

    csv_path = out / f"{cfg.basename}_qubit.csv"
    write_csv(csv_path, ["t", "num_sigma_1", "num_sigma_2", "num_sigma_3",
                         "ana_sigma_1", "ana_sigma_2", "ana_sigma_3"],
              [col.tolist() for col in (times, *num, *ana)])
    report = {
        "max_abs_deviation": max_dev,
        "rate": params.rate,
        "varpi": params.varpi,
        "n_compared": times.size,
    }
    report_path = out / f"{cfg.basename}_qubit_report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {csv_path}")
    print(f"wrote {report_path}")
    print(f"max |numeric - analytic| = {max_dev:.3e}")
    if cfg.tolerance is not None and not max_dev <= cfg.tolerance:     # NaN fails too
        print(f"deviation exceeds tolerance {cfg.tolerance:.3e}", file=sys.stderr)
        return EXIT_ACCURACY
    return EXIT_OK


def run_acp(cfg: RunConfig, out: Path, verbose: bool) -> int:
    import json

    from . import acp

    order = cfg.acp_order
    moments = acp.moments_up_to(cfg.system, cfg.field_b_o, order, cfg.beta)
    zetas = acp.zeta_recursive(moments)
    dets = [acp.zeta_determinant(moments, n) for n in range(1, order + 1)]
    payload = {
        "order": order,
        "moments": [[m.real, m.imag] for m in moments.values],
        "zeta_recursive": [[z.real, z.imag] for z in zetas.zetas],
        "zeta_determinant": [[1.0, 0.0]] + [[d.real, d.imag] for d in dets],
    }
    path = out / f"{cfg.basename}_zeta.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {path}")
    return EXIT_OK


def _verify_checks(cfg: RunConfig):
    import numpy as np

    from . import mastereq
    from .spincore import (
        build_x,
        build_zo,
        compress,
        decompress,
        is_hermitian,
        static_hamiltonian,
        total_sz,
        xi_operator,
    )

    system = cfg.system
    b_o = cfg.field_b_o
    # a model build_model refuses is a validation error (exit 1), as in propagate mode
    model = mastereq.build_model(system, _field(cfg), cfg.beta)
    rng = np.random.default_rng(7)

    def bijection():
        for idx in range(system.dim):
            if compress(decompress(idx, system.spins), system.spins) != idx:
                return False
        return True

    zo = build_zo(system, b_o)
    x = build_x(system)
    sz = total_sz(system)
    xi_x = xi_operator(system, "x")

    def reconstruction():
        full = static_hamiltonian(system, b_o)
        scale = max(np.max(np.abs(full)), 1.0)
        return np.max(np.abs(zo + x - full)) <= 1e-12 * scale

    def commute():
        return np.max(np.abs(sz @ zo - zo @ sz)) <= 1e-12 * max(np.max(np.abs(zo)), 1.0)

    def eigenops_complete():
        levels, ladder = model.levels, model.ladder
        resid = np.max(np.abs(ladder.hermitian(np.ones(ladder.omegas.size)) - xi_x))
        mags = levels.magnetizations
        steps_ok = np.all(mags[ladder.cols] - mags[ladder.rows] == 1)
        return resid <= 1e-12 * max(np.max(np.abs(xi_x)), 1.0) and steps_ok

    def dissipator_traceless():
        a = rng.normal(size=(system.dim, system.dim)) \
            + 1j * rng.normal(size=(system.dim, system.dim))
        rho = a + a.conj().T
        return abs(np.trace(mastereq.dissipator(model, rho))) <= 1e-10 * np.max(np.abs(rho))

    def lamb_shift_commutes():
        h = model.h_ls
        scale = max(np.max(np.abs(h)), 1e-300)
        comm = np.max(np.abs(h @ zo - zo @ h))
        return is_hermitian(h, 1e-10) and comm <= 1e-10 * max(scale * np.max(np.abs(zo)), 1.0)

    return [
        ("index-compression bijection", bijection),
        ("Z0 + X reconstructs the static Hamiltonian", reconstruction),
        ("[Sz, Z0] = 0", commute),
        ("ladder decomposition complete with steps +-1", eigenops_complete),
        ("dissipator output traceless", dissipator_traceless),
        ("Lamb shift Hermitian and conserved", lamb_shift_commutes),
    ]


def run_verify(cfg: RunConfig, out: Path, verbose: bool) -> int:
    import json

    results = []
    failed = False
    for name, check in _verify_checks(cfg):
        try:
            ok = bool(check())
        except SpinLindError as exc:
            ok = False
            if verbose:
                print(f"{name}: raised {exc}")
        results.append((name, ok))
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    report = out / f"{cfg.basename}_verify.json"
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({name: ok for name, ok in results}, fh, indent=1)
    print(f"wrote {report}")
    return EXIT_ACCURACY if failed else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinlind",
        description="Semiclassical CW magnetic-resonance calculations",
    )
    parser.add_argument("--config", required=True, help="path to a run config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--mode", default=None, help="override the configured mode")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.mode:
            cfg.mode = args.mode.strip().lower()
            _validate_mode(cfg)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation error in config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = os.environ.get("SPINLIND_OUT") or args.out
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    runners = {
        "spectrum": run_spectrum,
        "propagate": run_propagate,
        "qubit": run_qubit,
        "acp": run_acp,
        "verify": run_verify,
    }
    try:
        return runners[cfg.mode](cfg, out, args.verbose)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
