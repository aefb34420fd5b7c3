"""The package's own numerics: its two root closers and the exponential integral.

The package imports numpy alone.  _brent_steps, run alone on a plain
function, is checked against scipy's brentq, whose C routine it ports,
float for float.  _stencil_root, which closes stages 1 and 2 from their
grids, is run alone on the same functions from grids of 2, 5 and 31
points: it returns the straddling float with the smaller |f|, never
evaluates a point twice or a grid point at all, and takes no more rounds
than the Brent close it replaced, but for one case where Brent hit the
root float exactly.  _exp1 is checked against mpmath.
Subprocess tests check that no run of the chain imports scipy, and that
each command imports only the pinstacks modules it runs.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinstacks
from pinstacks.greens import _exp1
from pinstacks.steering import _brent_steps, _run, _sign_changes, _stencil_root, resonance_beta

SRC = str(Path(pinstacks.__file__).resolve().parent.parent)
DATA = Path(__file__).resolve().parent / "data"

# Bracketed functions with a root at c: smooth, steep, flat, stiff and
# discontinuous, so that every branch of the method (secant, inverse
# quadratic, bisection, the minimum step) runs.
FAMILIES = {
    "cubic": lambda c: lambda x: x**3 - c**3,
    "tan": lambda c: lambda x: math.tan(x - c) + 0.2 * (x - c),
    "exp": lambda c: lambda x: math.exp(x) - math.exp(c),
    "sine": lambda c: lambda x: math.sin(5.0 * (x - c)),
    "flat": lambda c: lambda x: (x - c) ** 5,
    "atan": lambda c: lambda x: math.atan(1e6 * (x - c)),
    "step": lambda c: lambda x: 1.0 if x > c else -1.0,
    "tiny": lambda c: lambda x: x - c if x < c else 1e-300 * (x - c),
}


def _brent_root(f, a: float, b: float, xtol: float) -> float:
    """_brent_steps run alone on the plain function f."""
    def step(x: float):
        yield from ()     # a step that requests nothing
        return f(x)

    return _run(_brent_steps(step, a, b, xtol))


def _brackets(seed: int, n: int) -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.6, 0.6, n)
    return list(zip(c.tolist(), (c - rng.uniform(0.01, 0.8, n)).tolist(),
                    (c + rng.uniform(0.01, 0.9, n)).tolist()))


def _outcome(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("xtol", [1e-15, 1e-9])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_brent_root_is_brentq(family, xtol):
    brentq = pytest.importorskip("scipy.optimize").brentq
    for c, a, b in _brackets(sorted(FAMILIES).index(family), 150):
        f = FAMILIES[family](c)
        assert _outcome(lambda: _brent_root(f, a, b, xtol)) == _outcome(
            lambda: brentq(f, a, b, xtol=xtol)), (c, a, b)


def test_brent_root_raises():
    with pytest.raises(ValueError, match="same sign"):
        _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)
    # a bisection toward a root at 0 cannot reach xtol = 5e-324 in 100 steps
    with pytest.raises(RuntimeError, match="100 iterations"):
        _brent_root(lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 3.0, 5e-324)
    assert _brent_root(lambda x: x - 0.5, 0.5, 2.0, 1e-9) == 0.5   # f(a) = 0


@pytest.mark.parametrize("xtol", [1e-15, 1e-9])
def test_brent_root_is_brentq_on_the_edit60_gap(xtol):
    # the window searches' gap of the 60-degree EDIT merge (stage 1-2
    # results as pinned in test_steering), over the 1e-3 step that holds its
    # sign change
    brentq = pytest.importorskip("scipy.optimize").brentq
    theta, beta_g, eta = math.radians(60.0), 2.9471596875548824, 2.1319459999781842
    beta_odd = resonance_beta("odd", eta, 0.0, (beta_g - 0.05, beta_g + 0.05),
                              theta_i=theta)
    window = (beta_odd - 0.05, beta_odd + 0.05)

    def gap(xi):
        return resonance_beta("even", eta, xi, window, theta_i=theta) - beta_odd

    b = float(np.linspace(0.15, 0.30, 151)[98])
    a = b - 0.15 / 150
    assert _brent_root(gap, a, b, xtol) == brentq(gap, a, b, xtol=xtol)


def _stencil_close(f, grid: list[float]):
    """_stencil_root run alone on the plain function f from the grid's first sign change.

    Returns its root, f there, the bracket and the points of each round (one
    request each).
    """
    values = np.array([f(x) for x in grid])
    i = _sign_changes(values)[0]
    rounds = []

    def step(xs: list[float]):
        rounds.append(xs)
        yield from ()     # a step that requests nothing
        return np.array([f(x) for x in xs])

    x, fx = _run(_stencil_root(step, grid, values, i))
    return x, fx, (grid[i], grid[i + 1]), rounds


@functools.cache
def _stencil_closes(family: str, points: int) -> list:
    """(index, f, grid, _stencil_close's outcome) for each seeded bracket whose grid changes sign.

    150 brackets per family, as for brentq above.
    """
    closes = []
    for index, (c, a, b) in enumerate(_brackets(sorted(FAMILIES).index(family), 150)):
        f, grid = FAMILIES[family](c), np.linspace(a, b, points).tolist()
        if _sign_changes(np.array([f(x) for x in grid])):
            closes.append((index, f, grid, _stencil_close(f, grid)))
    return closes


@pytest.mark.parametrize("points", [2, 5, 31])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stencil_root_returns_the_straddling_float_with_the_smaller_f(family, points):
    for index, f, _, (x, fx, (a, b), _) in _stencil_closes(family, points):
        assert a <= x <= b and fx == f(x), index
        if fx != 0.0:
            straddling = [y for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                          if (f(y) > 0) != (fx > 0)]
            assert straddling and abs(fx) <= min(abs(f(y)) for y in straddling), index


@pytest.mark.parametrize("points", [2, 5, 31])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stencil_root_never_evaluates_a_point_twice_or_a_grid_point(family, points):
    for index, _, _, (_, _, (a, b), rounds) in _stencil_closes(family, points):
        evaluated = [x for xs in rounds for x in xs]
        assert len(set(evaluated)) == len(evaluated), index
        assert all(a < x < b for x in evaluated), index


# Rounds of the Brent close that _stencil_root replaced (_brent_steps to 1e-15,
# then one float a step to the nearest sign change, each point one round) on
# each case, generated by it; on "flat" it raised after Brent's 100
# iterations.  In one case of the 3,600 Brent's third point happened to be
# the root float itself (f = 0 exactly), and the stencil takes a fourth
# round to close the bracket.
_BRENT_ROUNDS = json.loads((DATA / "nearest_root_rounds.json").read_text())
_EXACT_HITS = {("sine", 5, 149): 1}


@pytest.mark.parametrize("points", [2, 5, 31])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stencil_root_takes_no_more_rounds_than_the_brent_close(family, points):
    brent = _BRENT_ROUNDS[f"{family} {points}"]
    closes = _stencil_closes(family, points)
    assert [close[0] for close in closes] == [i for i, n in enumerate(brent) if n is not None]
    for index, _, _, (_, _, _, rounds) in closes:
        assert len(rounds) <= brent[index] + _EXACT_HITS.get((family, points, index), 0), index


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stencil_root_returns_an_end_where_f_is_zero(sign):
    # the grid 0, 0.25, ..., 1 holds the root 0.5: rising, the sign change is
    # (0.5, 0.75) and f is 0 at its lower end; falling, (0.25, 0.5) and 0 at
    # its upper end
    x, fx, _, rounds = _stencil_close(lambda x: sign * (x - 0.5), np.linspace(0, 1, 5).tolist())
    assert (x, fx, rounds) == (0.5, 0.0, [])


def _e1_points() -> np.ndarray:
    rng = np.random.default_rng(11)
    re = np.exp(rng.uniform(math.log(1e-6), math.log(45.0), 600))
    near_one = rng.uniform(0.9, 1.3, 200)      # both sides of the series' edge
    re = np.concatenate([re, near_one, [1e-6, 1.0, 45.0]])
    return re + 1j * rng.uniform(-0.05, 0.05, re.size)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_exp1_matches_mpmath(kind):
    mpmath = pytest.importorskip("mpmath")
    z = _e1_points()
    if kind == "real":
        z = z.real.copy()
    values = _exp1(z)
    assert values.dtype == z.dtype
    ref = np.array([complex(mpmath.e1(mpmath.mpc(w.real, w.imag))) for w in z.astype(complex)])
    assert np.max(np.abs(values - ref) / np.abs(ref)) <= 1e-13


_CLI = "from pinstacks.cli import main\nassert main({}) == 0"
_RUNS = {
    "import": "import pinstacks",
    "import cli": "import pinstacks.cli",
    "steer": _CLI.format("['steer', '--theta', '60', '--with-q', '--format', 'json',"
                         " '--no-timestamp']"),
    "spectrum": _CLI.format("['spectrum', '--stack', 'triplet', '--eta', '1.0', '--xi', '0.252',"
                            " '--beta-min', '3.3', '--beta-max', '3.9', '--resolution', '41',"
                            " '--theta', '30', '--format', 'json', '--no-timestamp']"),
    "greens command": _CLI.format("['greens', '--beta', '2.7', '--alpha0', '1.2', '--x', '0.3',"
                                  " '--y', '0.4', '--no-timestamp']"),
    "matrix": _CLI.format("['matrix', '--beta', '3.61747', '--theta', '30', '--eta', '1.0',"
                          " '--xi', '0.252', '--no-timestamp']"),
    "dispersion-grid": _CLI.format("['dispersion-grid', '--alpha0-min', '1.58', '--alpha0-max',"
                                   " '1.75', '--alpha0-steps', '3', '--beta-min', '3.57',"
                                   " '--beta-max', '3.63', '--beta-steps', '3', '--eta', '1.0',"
                                   " '--no-timestamp']"),
    # y = 0.05 d on the column takes the damped branch of the closed-form tail
    "greens": (
        "import importlib\n"
        "g = importlib.import_module('pinstacks.greens')\n"
        "calls = []\n"
        "exp1 = g._exp1\n"
        "g._exp1 = lambda z: calls.append(z) or exp1(z)\n"
        "g.greens(g.SpectralPoint(1.2, 2.7), 0.0, 0.05)\n"
        "assert calls"
    ),
}

# the pinstacks modules a run leaves unloaded: a command imports what it runs
_UNLOADED = {
    "import": {"modes", "scattering", "steering"},
    "import cli": {"modes", "scattering", "steering"},
    "spectrum": {"modes", "steering"},
    "greens command": {"modes", "steering"},
    "matrix": {"steering"},
    "dispersion-grid": {"steering"},
}


def _loaded(run: str, package: str) -> list[str]:
    """The modules of package, itself included, that run loads in a fresh process."""
    script = _RUNS[run] + (
        "\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package!r} + '.')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_no_run_imports_scipy(run):
    assert _loaded(run, "scipy") == []


@pytest.mark.parametrize("run", sorted(_UNLOADED))
def test_a_run_imports_only_the_modules_it_runs(run):
    loaded = _loaded(run, "pinstacks")
    assert "pinstacks.greens" in loaded
    assert not {f"pinstacks.{name}" for name in _UNLOADED[run]} & set(loaded), loaded
