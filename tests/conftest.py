import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from spinlind import lineshape as ls
from spinlind import mastereq as me
from spinlind import spincore as sc

# CI sets CI=true: derandomized examples and the failing example's blob
# printed, so a property failure in CI replays locally with the same profile
# (CI=1 pytest) or with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def default_int_str_limit():
    """CPython's default 4300-digit int-to-str limit for the test, whatever is set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture
def qubit_system():
    # electron-like: negative gamma, positive Larmor frequency
    return sc.SpinSystem([0.5], [-1.76e3])


def resonant_qubit_setup(gamma=-1.76e3, b_o=1.0, rate=35.2, beta_omega=1.0):
    """A driven spin-1/2 at resonance with a Lorentzian drive, FWHM = 2*rate/5.

    The drive amplitude is solved so the stimulated rate comes out exactly
    at ``rate``.
    """
    w0 = -gamma * b_o
    beta = beta_omega / w0
    width = 2.0 * (rate / 5.0)
    dist = ls.lorentzian(w0, width)
    dens = float(ls.density(dist, w0) + ls.density(dist, -w0))
    w1 = 2.0 * np.sqrt(rate / (2.0 * np.pi * dens))
    b_1 = w1 / (-gamma)
    system = sc.SpinSystem([0.5], [gamma])
    field = me.FieldConfig(b_o=b_o, b_1=b_1, dist=dist)
    return system, field, beta


@pytest.fixture
def resonant_qubit():
    return resonant_qubit_setup()


def random_system(rng, max_spins=4, max_dim=81, coupling_scale=20.0,
                  gamma_scale=1e3, allowed_spins=(0.5, 1.0, 1.5)):
    """A random small spin system with generic couplings and gammas."""
    for _ in range(200):
        n = int(rng.integers(1, max_spins + 1))
        spins = [float(rng.choice(allowed_spins)) for _ in range(n)]
        dim = 1
        for j in spins:
            dim *= int(round(2 * j)) + 1
        if dim <= max_dim:
            break
    gammas = rng.uniform(0.2, 1.0, size=n) * gamma_scale * rng.choice([-1.0, 1.0], size=n)
    t = rng.normal(scale=coupling_scale, size=(n, n))
    t = 0.5 * (t + t.T)
    np.fill_diagonal(t, 0.0)
    return sc.SpinSystem(spins, gammas, t)
