"""The benchmark's three workloads: inputs, one pass, and the output check.

Each workload calls the package only through attributes of its modules,
looked up at call time, so that the tracer's wrappers see every call.  A
pass returns the raw output; ``check`` turns it into an ``Outcome`` by
comparing it with the acceptance gates and with the stored converged
references written by ``refs.py``.

Operations (the unit of ``attempted``/``failed``):
  table1  one angle of ``pinstacks steer --table1``
  scan30  one spectral point of the three ``pinstacks spectrum`` scans
  edit60  one pipeline stage of the 60-degree EDIT + Q study
An operation fails when it raises, returns an error row, or misses the
acceptance-gate tolerance of tests/test_acceptance.py.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Published Table 1 (theta_deg, beta_g, alpha0_g, eta_star, m) and the
# tolerances criterion 1 of the acceptance suite applies to it.
TABLE1 = [
    (0.0, 4.456001, 0.0, 0.6956042, 0.987),
    (3.0, 4.438147, 0.232275, 0.698890, 0.986),
    (6.0, 4.387466, 0.458615, 0.708612, 0.984),
    (9.0, 4.311191, 0.674419, 0.7244056, 0.982),
    (12.0, 4.217801, 0.87693, 0.7458665, 0.979),
    (15.0, 4.11476, 1.06498, 0.77268, 0.978),
    (18.0, 4.007707, 1.23845, 0.804674, 0.976),
    (21.0, 3.900536, 1.39783, 0.841832, 0.976),
    (24.0, 3.79580, 1.54389, 0.884279, 0.976),
    (27.0, 3.6950925, 1.67754, 0.932281, 0.979),
    (30.0, 3.599363, 1.79968, 0.98624, 0.977),
    (33.0, 3.509134, 1.91121, 1.046715, 0.981),
    (36.0, 3.424645, 2.01296, 1.114446, 0.983),
    (45.0, 3.205694, 2.26677, 1.3723329, 0.990),
    (60.0, 2.94716, 2.55232, 2.12866291, 0.998),
]
GATE_BETA = 1e-4      # beta_g, beta_edit (criteria 1 and 3)
GATE_ETA = 5e-4       # eta_star (criterion 1)
GATE_M = 5e-3         # m_eff (criterion 1)
GATE_XI = 2e-3        # xi_edit around 0.2476 (criterion 3)
GATE_ENERGY = 1e-8    # |R + T - 1| per spectral point (criterion 6)

# A value further than this from its converged reference is a wrong answer,
# not an inaccurate one: it makes the run incorrect.
WRONG_T = 1e-2
WRONG_Q_REL = 0.1

# scan30: the README's 30-degree triplet.  The seed shifts the beta window by
# a whole number of grid steps, so every window's grid points lie on one
# master grid whose converged transmittances are stored.
SCAN30_STACK = ["--stack", "triplet", "--eta", "1.0", "--xi", "0.252"]
SCAN30_BETA = (3.3, 3.9)
SCAN30_POINTS = 401
SCAN30_MAX_SHIFT = 20          # grid steps either way
SCAN30_THETA_DEG = 30.0
SCAN30_ALPHA0 = 1.8
SCAN30_VARIANTS = {
    "theta": ["--theta", "30"],
    "refine": ["--theta", "30", "--refine"],
    "alpha0": ["--alpha0", "1.8"],
}

# edit60: README quickstart / demos/edit_60deg.py.
EDIT60_THETA = math.radians(60.0)
EDIT60_BETA = 2.94716
EDIT60_XI = 0.2476
EDIT60_NOTCH_HALFWIDTH = 1e-7
EDIT60_ENVELOPE_HALFWIDTH = 1.2e-4
EDIT60_ENVELOPE_POINTS = 2000
EDIT60_Q_NOTCH_MIN = 1e9
EDIT60_Q_ENV = (5e4, 5e5)

# Every accuracy metric, in the order BENCHMARK.json lists them.
ERROR_METRICS = (
    "err_beta_g_max", "err_eta_star_max", "err_beta_res_max", "err_T_max",
    "energy_residual_max", "err_beta_edit_hw", "err_xi_edit",
    "err_q_notch_rel", "err_q_env_rel",
)
# |R + T - 1| has no reference; this floor sits far above double-precision
# rounding of R + T and far below the 1e-8 gate.
ENERGY_FLOOR = 1e-12


def pkg(name: str):
    """A pinstacks submodule (``import pinstacks.greens`` yields the function)."""
    return importlib.import_module(f"pinstacks.{name}")


def load_refs() -> dict:
    return {p.stem: json.loads(p.read_text()) for p in REFS_DIR.glob("*.json")}


def floors(refs: dict) -> dict:
    """The clip floor of every accuracy metric, from the references' certificates.

    A metric two workloads compute (err_beta_g_max) takes the larger floor.
    """
    out = {"energy_residual_max": ENERGY_FLOOR}
    for part in ("table1", "scan30", "edit60"):
        for metric, floor in refs[part]["floors"].items():
            out[metric] = max(floor, out.get(metric, 0.0))
    return out


@dataclass
class Outcome:
    """What one pass produced, judged against the gates and the references."""

    attempted: int
    failed: int
    errors: dict = field(default_factory=dict)   # metric -> raw error
    problems: list = field(default_factory=list)  # reasons the output is wrong
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg("cli").main(argv)
    return code, buf.getvalue()


def nearest(ref_betas: list[float], beta: float) -> int | None:
    """Index of the stored point at this beta (to 1e-10 relative), else None."""
    i = bisect.bisect_left(ref_betas, beta)
    for j in (i - 1, i):
        if 0 <= j < len(ref_betas) and abs(ref_betas[j] - beta) <= 1e-10 * beta:
            return j
    return None


class Table1:
    """``pinstacks steer --table1``: fifteen angles, stages 1-2 and the pair."""

    name = "table1"
    argv = ["steer", "--table1", "--format", "json", "--no-timestamp"]

    def __init__(self, seed: int):
        self.seed = seed   # fixed paper problem: the seed changes nothing

    def warm(self) -> None:
        pkg("cli").build_parser().parse_args(self.argv)
        sc = pkg("scattering")
        sc.scatter(sc.PinStack.single(), sc.IncidentWave.from_angle(0.0, TABLE1[0][1]))

    def run_pass(self):
        return _cli(self.argv)

    def check(self, raw, refs: dict) -> Outcome:
        code, text = raw
        ref = refs["table1"]
        out = Outcome(attempted=len(TABLE1), failed=0)
        if code != 0:
            out.problems.append(f"exit code {code}")
            out.failed = out.attempted
            return out
        rows = json.loads(text)["rows"]
        if [r["theta_deg"] for r in rows] != [t[0] for t in TABLE1]:
            out.problems.append("rows do not match the fifteen Table 1 angles")
            out.failed = out.attempted
            return out
        err = {"err_beta_g_max": 0.0, "err_eta_star_max": 0.0, "err_beta_res_max": 0.0}
        for i, (row, (deg, beta_g, _, eta_star, m)) in enumerate(zip(rows, TABLE1)):
            gate_ok = (not row["error"]
                       and row["beta_odd"] is not None and row["beta_even"] is not None
                       and abs(row["beta_g"] - beta_g) <= GATE_BETA
                       and abs(row["eta_star"] - eta_star) <= GATE_ETA
                       and abs(row["m_eff"] - m) <= GATE_M)
            if not gate_ok:
                out.failed += 1
                out.notes.append(f"{deg:g} deg failed: {row['error'] or 'gate missed'}")
            for key, metric, wrong in (("beta_g", "err_beta_g_max", GATE_BETA),
                                       ("eta_star", "err_eta_star_max", GATE_ETA),
                                       ("beta_odd", "err_beta_res_max", GATE_BETA),
                                       ("beta_even", "err_beta_res_max", GATE_BETA)):
                if row[key] is None or ref[key][i] is None:
                    continue
                e = abs(row[key] - ref[key][i])
                err[metric] = max(err[metric], e)
                if e > wrong:
                    out.problems.append(f"{deg:g} deg {key} off its reference by {e:.3g}")
        out.errors = err
        return out


class Scan30:
    """Three ``pinstacks spectrum`` scans of the 30-degree triplet."""

    name = "scan30"

    def __init__(self, seed: int):
        self.seed = seed
        self.shift = random.Random(seed).randint(-SCAN30_MAX_SHIFT, SCAN30_MAX_SHIFT)
        lo, hi = scan30_window(self.shift)
        window = ["--beta-min", repr(lo), "--beta-max", repr(hi),
                  "--resolution", str(SCAN30_POINTS)]
        self.argvs = {k: ["spectrum", *SCAN30_STACK, *window, *v,
                          "--format", "json", "--no-timestamp"]
                      for k, v in SCAN30_VARIANTS.items()}

    def warm(self) -> None:
        parser = pkg("cli").build_parser()
        for argv in self.argvs.values():
            parser.parse_args(argv)
        sc = pkg("scattering")
        lo, _ = scan30_window(self.shift)
        sc.scatter(sc.PinStack.triplet(1.0, 0.252),
                   sc.IncidentWave.from_angle(math.radians(SCAN30_THETA_DEG), lo))

    def run_pass(self):
        return {k: _cli(argv) for k, argv in self.argvs.items()}

    def check(self, raw, refs: dict) -> Outcome:
        ref = refs["scan30"]
        out = Outcome(attempted=0, failed=0)
        err_t = energy = 0.0
        uncompared = 0
        for variant, (code, text) in raw.items():
            table = ref["alpha0" if variant == "alpha0" else "theta"]
            if code != 0:
                out.problems.append(f"{variant}: exit code {code}")
                out.attempted += SCAN30_POINTS
                out.failed += SCAN30_POINTS
                continue
            rows = json.loads(text)["rows"]
            if len(rows) < SCAN30_POINTS or (variant != "refine" and len(rows) != SCAN30_POINTS):
                out.problems.append(f"{variant}: {len(rows)} rows")
            out.attempted += len(rows)
            for row in rows:
                t, res = row["T"], row["energy_residual"]
                if row["status"] != "ok" or not math.isfinite(t):
                    out.failed += 1
                    continue
                energy = max(energy, res)
                if not res <= GATE_ENERGY:
                    out.failed += 1
                j = nearest(table["beta"], row["beta"])
                if j is None:
                    uncompared += 1
                    continue
                e = abs(t - table["T"][j])
                err_t = max(err_t, e)
                if e > WRONG_T:
                    out.problems.append(f"{variant}: T off its reference by {e:.3g} "
                                        f"at beta={row['beta']!r}")
        if uncompared:
            out.notes.append(f"{uncompared} points have no stored reference")
        out.errors = {"err_T_max": err_t, "energy_residual_max": energy}
        return out


def scan30_window(shift: int) -> tuple[float, float]:
    lo, hi = SCAN30_BETA
    step = (hi - lo) / (SCAN30_POINTS - 1)
    return lo + shift * step, hi + shift * step


class Edit60:
    """The 60-degree EDIT pipeline and both Q measurements, stage by stage."""

    name = "edit60"
    stages = ("beta_g", "slab_eta", "xi_edit", "notch_q", "envelope_q")

    def __init__(self, seed: int):
        self.seed = seed   # fixed paper problem: the seed changes nothing

    def warm(self) -> None:
        sc = pkg("scattering")
        sc.scatter(sc.PinStack.triplet(2.13, EDIT60_XI),
                   sc.IncidentWave.from_angle(EDIT60_THETA, EDIT60_BETA))

    def run_pass(self) -> dict:
        st, sc = pkg("steering"), pkg("scattering")
        theta = EDIT60_THETA
        got: dict = {}
        try:
            got["beta_g"] = st.find_beta_g(theta)
            got["eta"] = st.slab_guess(got["beta_g"], got["beta_g"] * math.sin(theta))
            got["xi_edit"], got["beta_edit"] = st.find_xi_edit(theta, got["beta_g"], got["eta"])
            stack = sc.PinStack.triplet(got["eta"], got["xi_edit"])
            notch = st.feature_scan(stack, got["beta_edit"], EDIT60_NOTCH_HALFWIDTH,
                                    "notch", theta_i=theta)
            got["q_notch"] = st.q_factor(notch, "notch").q
            half = EDIT60_ENVELOPE_HALFWIDTH
            envelope = sc.spectrum_scan(stack, (got["beta_edit"] - half, got["beta_edit"] + half),
                                        theta_i=theta, resolution=EDIT60_ENVELOPE_POINTS)
            got["envelope_residuals"] = [r.energy_residual for r in envelope
                                         if r.error is None]
            got["q_env"] = st.q_factor(envelope, "peak").q
        except Exception as exc:  # noqa: BLE001 - a failed stage is counted, later ones too
            got["error"] = f"{type(exc).__name__}: {exc}"
        return got

    def check(self, got: dict, refs: dict) -> Outcome:
        ref = refs["edit60"]
        out = Outcome(attempted=len(self.stages), failed=0)
        passed = {
            "beta_g": "beta_g" in got and abs(got["beta_g"] - EDIT60_BETA) <= GATE_BETA,
            "slab_eta": "eta" in got and math.isfinite(got["eta"]) and got["eta"] > 0.0,
            "xi_edit": ("xi_edit" in got and abs(got["xi_edit"] - EDIT60_XI) <= GATE_XI
                        and abs(got["beta_edit"] - EDIT60_BETA) <= GATE_BETA),
            "notch_q": "q_notch" in got and got["q_notch"] >= EDIT60_Q_NOTCH_MIN,
            "envelope_q": ("q_env" in got
                           and EDIT60_Q_ENV[0] <= got["q_env"] <= EDIT60_Q_ENV[1]),
        }
        for stage in self.stages:
            if not passed[stage]:
                out.failed += 1
                out.notes.append(f"stage {stage} failed: {got.get('error', 'gate missed')}")
        err = {}
        if "beta_g" in got:
            err["err_beta_g_max"] = abs(got["beta_g"] - ref["beta_g"])
        if "xi_edit" in got:
            err["err_xi_edit"] = abs(got["xi_edit"] - ref["xi_edit"])
            err["err_beta_edit_hw"] = abs(got["beta_edit"] - ref["beta_edit"]) / ref["notch_hw"]
        if "q_notch" in got:
            err["err_q_notch_rel"] = abs(got["q_notch"] - ref["q_notch"]) / ref["q_notch"]
        if "envelope_residuals" in got:
            err["energy_residual_max"] = max(got["envelope_residuals"], default=0.0)
        if "q_env" in got:
            err["err_q_env_rel"] = abs(got["q_env"] - ref["q_env"]) / ref["q_env"]
        for key, wrong in (("err_beta_g_max", GATE_BETA), ("err_xi_edit", GATE_XI),
                           ("err_q_notch_rel", WRONG_Q_REL), ("err_q_env_rel", WRONG_Q_REL)):
            if err.get(key, 0.0) > wrong:
                out.problems.append(f"{key} = {err[key]:.3g} exceeds {wrong:g}")
        out.errors = err
        return out


WORKLOADS = {w.name: w for w in (Table1, Scan30, Edit60)}
