"""Generate the converged references behind every accuracy metric.

    python3 bench/refs.py [m11] [table1] [scan30] [edit60]

writes bench/refs/<part>.json for each part named (all four by default).
Each quantity is computed through the package's public functions with the
on-line truncation raised by ``TruncationPolicy(n_self=N)`` at N = 32000 and
again at N = 64000.  The stored value is the N = 64000 one; the stored
certificate is the change between the two.  The source-line sum converges
like N^-2, so the remaining error is about a third of that change.  Each
metric's clip floor is its largest certificate rounded up to a power of ten.
``m11`` also checks the source-line sum against mpmath.

Searches at the high N start from the default-policy answer and keep their
brackets narrow, so the whole set takes about 20 minutes on one core.  None
of this runs inside the benchmark.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from scipy.optimize import brentq  # noqa: E402

from pinstacks.greens import SpectralPoint, TruncationPolicy, greens  # noqa: E402
from pinstacks.scattering import IncidentWave, PinStack, scatter, spectrum_scan  # noqa: E402
from pinstacks.steering import (  # noqa: E402
    feature_scan, find_beta_g, find_eta_star, find_xi_edit, q_factor,
    resonance_beta, slab_guess, steer,
)

import workloads as W  # noqa: E402

LEVELS = (32000, 64000)


def policies():
    return [TruncationPolicy(n_self=n) for n in LEVELS]


def floor_of(cert: float) -> float:
    """Smallest power of ten at or above a certificate."""
    return 10.0 ** math.ceil(math.log10(max(cert, 1e-300)))


def certify(values: list[dict]) -> tuple[dict, dict]:
    """Finer-level values and |fine - coarse| for each key of two level dicts."""
    coarse, fine = values
    cert = {k: (None if fine[k] is None else abs(fine[k] - coarse[k])) for k in fine}
    return fine, cert


def part_m11() -> dict:
    """M11 = G(0, 0) at the README's 30-degree EDIT point, cross-checked with mpmath."""
    import mpmath

    alpha0, beta = 1.808735, 3.61747
    point = SpectralPoint(alpha0, beta)
    vals = [greens(point, 0.0, 0.0, p) for p in policies()]
    cert = abs(vals[1] - vals[0])

    mpmath.mp.dps = 30
    a0, b = mpmath.mpf(alpha0), mpmath.mpf(beta)
    two_pi = 2 * mpmath.pi

    def term(n):
        # order n of the paired sum on the source line, d = 1
        a = a0 + two_pi * n
        w = b * b - a * a
        tau = mpmath.sqrt(b * b + a * a)
        helm = -1j / (2 * mpmath.sqrt(w)) if w > 0 else -1 / (2 * mpmath.sqrt(-w))
        return helm + 1 / (2 * tau)

    # evanescent orders on both sides form smooth tails; sum them with
    # Richardson/Shanks extrapolation, and the few propagating ones directly
    lo = int(mpmath.ceil((-b - a0) / two_pi))
    hi = int(mpmath.floor((b - a0) / two_pi))
    total = sum(term(n) for n in range(lo, hi + 1))
    total += mpmath.nsum(term, [hi + 1, mpmath.inf])
    total += mpmath.nsum(lambda k: term(-k), [-lo + 1, mpmath.inf])
    m11_mp = complex(-total / (2 * b * b))
    diff = abs(vals[1] - m11_mp)
    if diff > cert:
        raise RuntimeError(f"mpmath M11 differs by {diff:.3e}, certificate {cert:.3e}")
    return {
        "alpha0": alpha0, "beta": beta, "levels": LEVELS,
        "m11": [vals[1].real, vals[1].imag], "cert": cert,
        "m11_mpmath": [m11_mp.real, m11_mp.imag], "mpmath_diff": diff,
        "default_policy_rel_error": abs(greens(point, 0.0, 0.0) - m11_mp) / abs(m11_mp),
    }


def part_table1() -> dict:
    angles = [row[0] for row in W.TABLE1]
    start = steer([math.radians(t) for t in angles], with_modes=False)
    out = {k: [] for k in ("beta_g", "eta_star", "beta_odd", "beta_even")}
    certs = {k: [] for k in out}
    for deg, res in zip(angles, start):
        theta = math.radians(deg)
        # the default window (beta_g +- 0.05) misses the odd resonance at
        # 9-27 degrees; this wider one holds both resonances at every angle
        wide = (res.beta_g - 0.05, res.beta_g + 0.15)
        seeds = {k: resonance_beta(k, res.eta_star, 0.0, wide, theta_i=theta)
                 for k in ("odd", "even")}

        def chain(policy):
            bg = find_beta_g(theta, (res.beta_g - 1e-3, res.beta_g + 1e-3), policy, coarse=9)
            eta = find_eta_star(bg, res.eta_star, policy, theta_i=theta)
            got = {"beta_g": bg, "eta_star": eta}
            for kind in ("odd", "even"):
                got[f"beta_{kind}"] = resonance_beta(
                    kind, eta, 0.0, (bg - 0.05, bg + 0.15), policy, theta_i=theta, coarse=41)
                if abs(got[f"beta_{kind}"] - seeds[kind]) > 1e-5:
                    raise RuntimeError(f"{deg} deg: {kind} resonance moved to another minimum")
            return got

        fine, cert = certify([chain(p) for p in policies()])
        for k in out:
            out[k].append(fine[k])
            certs[k].append(cert[k])
        print(f"  table1 {deg:g} deg done", flush=True)
    floors = {
        "err_beta_g_max": floor_of(max(certs["beta_g"])),
        "err_eta_star_max": floor_of(max(certs["eta_star"])),
        "err_beta_res_max": floor_of(max(certs["beta_odd"] + certs["beta_even"])),
    }
    return {"levels": LEVELS, "theta_deg": angles, **out,
            "cert": certs, "floors": floors}


def part_scan30() -> dict:
    lo, hi = W.scan30_window(-W.SCAN30_MAX_SHIFT)
    lo_max, hi_max = W.scan30_window(W.SCAN30_MAX_SHIFT)
    n_master = W.SCAN30_POINTS + 2 * W.SCAN30_MAX_SHIFT
    grid = [lo + j * (hi - lo) / (W.SCAN30_POINTS - 1) for j in range(n_master)]
    stack = PinStack.triplet(1.0, 0.252)
    theta = math.radians(W.SCAN30_THETA_DEG)
    # bisection points of --refine: the same intervals are refined in every
    # seeded window, since each window's grid is a slice of the master grid
    refined = spectrum_scan(stack, (lo, hi_max), theta_i=theta,
                            resolution=n_master, refine=True)
    extra = [r.beta for r in refined if W.nearest(grid, r.beta) is None]
    tables = {}
    cert_max = 0.0
    for name, betas, incident in (
        ("theta", sorted(grid + extra), lambda b: IncidentWave.from_angle(theta, b)),
        ("alpha0", grid, lambda b: IncidentWave.from_alpha0(W.SCAN30_ALPHA0, b)),
    ):
        coarse, fine = ([scatter(stack, incident(b), p).T for b in betas] for p in policies())
        cert = [abs(f - c) for f, c in zip(fine, coarse)]
        cert_max = max(cert_max, max(cert))
        tables[name] = {"beta": betas, "T": fine, "cert": cert}
        print(f"  scan30 {name} done ({len(betas)} points)", flush=True)
    return {"levels": LEVELS, **tables, "floors": {"err_T_max": floor_of(cert_max)}}


def part_edit60() -> dict:
    theta = W.EDIT60_THETA
    bg0 = find_beta_g(theta)
    eta0 = slab_guess(bg0, bg0 * math.sin(theta))
    xi0, _ = find_xi_edit(theta, bg0, eta0)

    def chain(policy):
        bg = find_beta_g(theta, (bg0 - 1e-3, bg0 + 1e-3), policy, coarse=9)
        eta = slab_guess(bg, bg * math.sin(theta))
        beta_edit = resonance_beta("odd", eta, 0.0, (bg - 0.05, bg + 0.05), policy,
                                   theta_i=theta, coarse=41)

        def gap(xi):
            return resonance_beta("even", eta, xi, (beta_edit - 0.05, beta_edit + 0.05),
                                  policy, theta_i=theta, coarse=41) - beta_edit

        xi = brentq(gap, xi0 - 3e-4, xi0 + 3e-4, xtol=1e-12)
        stack = PinStack.triplet(eta, xi)
        notch = feature_scan(stack, beta_edit, W.EDIT60_NOTCH_HALFWIDTH, "notch",
                             policy, theta_i=theta)
        half = W.EDIT60_ENVELOPE_HALFWIDTH
        env = spectrum_scan(stack, (beta_edit - half, beta_edit + half), theta_i=theta,
                            resolution=W.EDIT60_ENVELOPE_POINTS, policy=policy)
        print(f"  edit60 N={policy.n_self} done", flush=True)
        return {"beta_g": bg, "eta": eta, "beta_edit": beta_edit, "xi_edit": xi,
                "q_notch": q_factor(notch, "notch").q, "q_env": q_factor(env, "peak").q}

    fine, cert = certify([chain(p) for p in policies()])
    # the notch's half-width in the spectroscopic sense, its full width at
    # half depth beta / Q: the unit of err_beta_edit_hw
    hw = fine["beta_edit"] / fine["q_notch"]
    floors = {
        "err_beta_g_max": floor_of(cert["beta_g"]),
        "err_xi_edit": floor_of(cert["xi_edit"]),
        "err_beta_edit_hw": floor_of(cert["beta_edit"] / hw),
        "err_q_notch_rel": floor_of(cert["q_notch"] / fine["q_notch"]),
        "err_q_env_rel": floor_of(cert["q_env"] / fine["q_env"]),
    }
    return {"levels": LEVELS, **fine, "notch_hw": hw, "cert": cert, "floors": floors}


PARTS = {"m11": part_m11, "table1": part_table1, "scan30": part_scan30, "edit60": part_edit60}


def main(names: list[str]) -> None:
    W.REFS_DIR.mkdir(exist_ok=True)
    for name in names or list(PARTS):
        t0 = time.perf_counter()
        data = PARTS[name]()
        (W.REFS_DIR / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
        print(f"{name}: {time.perf_counter() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
