"""Command-line front end: every capability as a subcommand with file outputs.

Subcommands
-----------
greens           evaluate the quasi-periodic Green's function at one point
matrix           assemble the triplet mode matrix and its eigensystem
dispersion-grid  dispersion-factor residuals over an (alpha0, beta) box
spectrum         transmittance / reflectance scan of a pin stack
steer            run the resonance-steering pipeline over angles

Conventions
-----------
All lengths are in units of the grating period (d = 1); angles on the command
line are in degrees.  Single-point diagnostics print JSON; scans print CSV
(``--format json`` switches to a JSON row list).  With ``--out`` the result
goes to that file and the exact parsed parameters are echoed alongside it as
``<out>.config.json``; ``--config`` re-runs such an echo, reproducing the
output (an option the echo lacks takes its default; a value that no command
line gives, such as a string for an int or a stack not among the choices, or
two options that exclude each other, such as steer's --theta and --table1,
is refused with exit 2 before any evaluation).  Outputs are
deterministic; the timestamp header is suppressed by ``--no-timestamp``.
JSON outputs are byte for byte ``json.dumps(payload, indent=2)``.

Exit codes: 0 success, 2 numeric-domain error or invalid parameter (light
lines, invalid geometry, any ValueError), 3 search failure (optimization or
refinement did not converge).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DomainError, SearchError
from .greens import _MAX_EXTENT, DEFAULT_POLICY, N_FAR, SpectralPoint, TruncationPolicy, greens
from .modes import (
    StackGeometry,
    assemble,
    dispersion_grid,
    dispersion_residual,
    eigensystem,
    locate_crossing,
)
from .scattering import PinStack, _alpha0_rule, scan, spectrum_scan
from .steering import steer

TABLE1_ANGLES_DEG = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0,
                     24.0, 27.0, 30.0, 33.0, 36.0, 45.0, 60.0]

_STEER_COLUMNS = ["theta_deg", "beta_g", "alpha0_g", "eta_star", "m_eff",
                  "beta_odd", "beta_even", "eta_edit", "xi_edit", "beta_edit",
                  "q_notch", "q_pair", "error"]
_SPECTRUM_COLUMNS = ["beta", "alpha0", "T", "R", "energy_residual", "status"]


def _policy(args: argparse.Namespace) -> TruncationPolicy:
    return TruncationPolicy(n_self=args.n_self)


def _theta_i(args: argparse.Namespace) -> float | None:
    return math.radians(args.theta) if args.theta is not None else None


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _config_echo(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "config", "subcommand")}
    return {"subcommand": args.subcommand, "args": params}


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    echo = Path(str(out) + ".config.json")
    echo.write_text(json.dumps(_config_echo(args), indent=2, sort_keys=True) + "\n")


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    if not args.no_timestamp:
        payload = {"generated": _timestamp(), **payload}
    _emit(json.dumps(payload, indent=2) + "\n", args)


def _csv_text(rows: list[dict], columns: list[str], args: argparse.Namespace,
              trailer: str | None = None) -> str:
    buf = io.StringIO()
    if not args.no_timestamp:
        buf.write(f"# generated {_timestamp()}\n")
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n",
                            extrasaction="ignore", restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if trailer:
        buf.write(f"# {trailer}\n")
    return buf.getvalue()


def _json_text(rows: list[dict], args: argparse.Namespace,
               trailer: str | None = None) -> str:
    """``json.dumps(payload, indent=2)`` of {"generated", "rows", "note"}, byte for byte.

    ``indent`` selects the pure-Python encoder.  Rows that are non-empty
    dicts of scalars go through the C one in a single call instead: its item
    separator carries the newline and indent of depth 3, and since no JSON
    string holds a raw newline, ``"},\\n      {"`` occurs only between two
    rows, where the indented close and open replace it.  Any other rows take
    ``json.dumps`` and are re-indented by one level.  One join builds the
    text: chained concatenation would hold more copies of it at once.
    """
    types = {type(v) for row in rows for v in row.values()}
    if rows and all(rows) and not any(issubclass(t, (dict, list, tuple)) for t in types):
        text = json.JSONEncoder(separators=(",\n      ", ": ")).encode(rows).replace(
            "},\n      {", "\n    },\n    {\n      ")
        pieces = ["[\n    {\n      ", text[2:-2], "\n    }\n  ]"]
    else:
        pieces = [json.dumps(rows, indent=2).replace("\n", "\n  ")]
    head = "{\n" if args.no_timestamp else f'{{\n  "generated": {json.dumps(_timestamp())},\n'
    tail = f',\n  "note": {json.dumps(trailer)}\n}}\n' if trailer else "\n}\n"
    return "".join([head, '  "rows": ', *pieces, tail])


def _emit_rows(rows: list[dict], columns: list[str], args: argparse.Namespace,
               trailer: str | None = None) -> None:
    if args.format == "json":
        _emit(_json_text(rows, args, trailer), args)
        return
    _emit(_csv_text(rows, columns, args, trailer), args)


def _emit_table(rows: list[dict], columns: list[str],
                args: argparse.Namespace) -> None:
    """Aligned human-readable table (steer --format table)."""
    def cell(v) -> str:
        if v is None or v == "":
            return "-"
        if isinstance(v, float):
            return f"{v:.9g}"
        return str(v)

    text_rows = [[cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(tr[i]) for tr in text_rows)) if text_rows
              else len(c) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for tr in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(tr, widths)).rstrip())
    _emit("\n".join(lines) + "\n", args)


def _add_shared(p: argparse.ArgumentParser, *, incidence: bool = True,
                formats: tuple[str, ...] = ("csv", "json")) -> None:
    if incidence:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--alpha0", type=float,
                       help="Bloch parameter alpha0 (fixed along scans)")
        g.add_argument("--theta", type=float,
                       help="incidence angle in degrees (alpha0 = beta sin "
                            "theta re-derived per beta along scans)")
    p.add_argument("--n-self", type=int, default=DEFAULT_POLICY.n_self,
                   help="on-line window where no closed-form tail applies "
                        "(y = 0, x != 0): the cap of the windows off x = 0, "
                        f"which grow from {N_FAR} as |y| -> 0; at least {N_FAR}, "
                        "at most 2^20 (default %(default)s)")
    p.add_argument("--out", help="write output to this file (and echo the "
                                 "config to <out>.config.json)")
    p.add_argument("--format", choices=list(formats), default=formats[0],
                   help="output format (default %(default)s)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated-at header for byte-identical "
                        "reruns")


def cmd_greens(args: argparse.Namespace) -> int:
    policy = _policy(args)
    alpha0 = _alpha0_rule(_theta_i(args), args.alpha0)(args.beta)
    point = SpectralPoint(alpha0, args.beta)
    n_terms = policy.window(alpha0, args.beta, args.x, args.y, args.n)
    value = greens(point, args.x, args.y, policy, n_terms=n_terms)
    # compare with N/2; where the kernel's minimum raises N/2 back to N
    # (the same sum), with 2N, at most the 2^20 orders the kernel sums
    compare = policy.window(alpha0, args.beta, args.x, args.y, max(n_terms // 2, 1))
    if compare == n_terms:
        compare = min(2 * n_terms, _MAX_EXTENT)
    other = greens(point, args.x, args.y, policy, n_terms=compare)
    _emit_json({
        "alpha0": alpha0,
        "beta": args.beta,
        "x": args.x,
        "y": args.y,
        "n_terms": n_terms,
        "value": _complex_json(value),
        "convergence_estimate": abs(value - other),
        "comparison_terms": compare,
    }, args)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    policy = _policy(args)
    alpha0 = _alpha0_rule(_theta_i(args), args.alpha0)(args.beta)
    geometry = StackGeometry(eta=args.eta, xi=args.xi)
    m = assemble(SpectralPoint(alpha0, args.beta), geometry, policy)
    es = eigensystem(m)
    r = dispersion_residual(m)
    _emit_json({
        "alpha0": alpha0,
        "beta": args.beta,
        "eta": args.eta,
        "xi": args.xi,
        "entries": {
            "m11": _complex_json(m.m11), "m12": _complex_json(m.m12),
            "m13": _complex_json(m.m13), "m21": _complex_json(m.m21),
        },
        "eigenvalues": {
            "lambda_1": _complex_json(es.lambda_1),
            "lambda_minus": _complex_json(es.lambda_minus),
            "lambda_plus": _complex_json(es.lambda_plus),
        },
        "eigenvectors": {
            "v_odd": [_complex_json(c) for c in es.v_odd],
            "v_e_minus": [_complex_json(c) for c in es.v_e_minus],
            "v_e_plus": [_complex_json(c) for c in es.v_e_plus],
        },
        "dispersion": {
            "odd": r.odd, "even": r.even,
            "log10_odd": r.log10_odd, "log10_even": r.log10_even,
        },
    }, args)
    return 0


def cmd_dispersion_grid(args: argparse.Namespace) -> int:
    policy = _policy(args)
    geometry = StackGeometry(eta=args.eta, xi=args.xi)
    alpha0_values = np.linspace(args.alpha0_min, args.alpha0_max,
                                args.alpha0_steps)
    beta_values = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    rows = dispersion_grid(alpha0_values, beta_values, geometry, policy)
    trailer = None
    if args.crossing:
        ca, cb = locate_crossing(rows)
        trailer = f"crossing alpha0={ca:.9g} beta={cb:.9g}"
    _emit_rows(rows, ["alpha0", "beta", "log10_odd", "log10_even", "status"],
               args, trailer=trailer)
    return 0


def _build_stack(args: argparse.Namespace) -> PinStack:
    if args.stack == "single":
        return PinStack.single()
    if args.stack == "empty":
        return PinStack(pins=())
    if args.eta is None:
        raise DomainError(f"--eta is required for --stack {args.stack}")
    if args.stack == "pair":
        return PinStack.pair(args.eta)
    return PinStack.triplet(args.eta, args.xi)


def _spectrum_rows(records: list, per_order: bool = False) -> tuple[list[dict], list[str]]:
    """A scan's rows and columns as spectrum writes them (R_n / T_n with per_order)."""
    orders = sorted({n for rec in records for n in rec.R_orders}) if per_order else []
    rows = []
    for rec in records:
        row = dict(zip(_SPECTRUM_COLUMNS, (rec.beta, rec.alpha0, rec.T, rec.R,
                                           rec.energy_residual, rec.error or "ok")))
        for n in orders:
            row[f"R_{n}"], row[f"T_{n}"] = rec.R_orders.get(n, ""), rec.T_orders.get(n, "")
        rows.append(row)
    return rows, _SPECTRUM_COLUMNS + [f"{side}_{n}" for n in orders for side in ("R", "T")]


def cmd_spectrum(args: argparse.Namespace) -> int:
    policy = _policy(args)
    stack = _build_stack(args)
    records = spectrum_scan(
        stack, (args.beta_min, args.beta_max),
        theta_i=_theta_i(args), alpha0=args.alpha0,
        resolution=args.resolution, policy=policy,
        refine=args.refine, refine_jump=args.refine_jump,
    )
    _emit_rows(*_spectrum_rows(records, args.per_order), args)
    return 0


def cmd_steer(args: argparse.Namespace) -> int:
    policy = _policy(args)
    if args.table1:
        degrees = TABLE1_ANGLES_DEG
    elif args.theta:
        degrees = args.theta
    else:
        raise DomainError("give at least one --theta angle or --table1")
    if args.results_dir is not None and not args.with_q:
        raise DomainError("--results-dir holds the --with-q notch scans: give --with-q")
    radians = [math.radians(t) for t in degrees]
    results = steer(radians, policy, m=args.m, with_modes=not args.no_modes,
                    with_edit=args.with_edit, with_q=args.with_q)
    rows = [{"theta_deg": deg, **{c: getattr(res, c) for c in _STEER_COLUMNS[1:-1]},
             "error": res.error or ""} for deg, res in zip(degrees, results)]
    if args.results_dir is not None:
        # a plain scan of beta_edit +- 12 |Im beta_dark| = 6 beta_edit / q_notch;
        # the table's own config echo re-creates these files
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        for deg, res in zip(degrees, results):
            if res.q_notch is None:
                continue
            name, hw = f"theta{deg:g}_notch.csv", 6.0 * res.beta_edit / res.q_notch
            betas = np.linspace(res.beta_edit - hw, res.beta_edit + hw, 1001)
            if np.unique(betas).size < betas.size:
                print(f"{name} not written: beta_edit +- {hw:.3g} holds fewer than "
                      f"{betas.size} doubles", file=sys.stderr)
                continue
            records = scan(PinStack.triplet(res.eta_edit, res.xi_edit), betas,
                           theta_i=res.theta_i, policy=policy)
            (results_dir / name).write_text(_csv_text(*_spectrum_rows(records), args))
    if args.format == "table":
        _emit_table(rows, _STEER_COLUMNS, args)
    else:
        _emit_rows(rows, _STEER_COLUMNS, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinstacks",
        description="Flexural plate waves on stacks of pinned gratings: "
                    "Green's function, trapped modes, scattering spectra, "
                    "and EDIT resonance steering.",
    )
    parser.add_argument("--config",
                        help="re-run from a config echo written by --out")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("greens", help="evaluate the Green's function at one point")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--n", type=int, default=None,
                   help="override the truncation window for this evaluation "
                        "(at most 2^20)")
    _add_shared(p, formats=("json",))
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("matrix", help="triplet mode matrix and eigensystem")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    _add_shared(p, formats=("json",))
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("dispersion-grid",
                       help="dispersion residuals over an (alpha0, beta) box")
    p.add_argument("--alpha0-min", type=float, required=True)
    p.add_argument("--alpha0-max", type=float, required=True)
    p.add_argument("--alpha0-steps", type=int, default=41)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, default=41)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--crossing", action="store_true",
                   help="append the even/odd crossing estimate as a trailer")
    _add_shared(p, incidence=False)
    p.set_defaults(func=cmd_dispersion_grid)

    p = sub.add_parser("spectrum", help="transmittance scan of a pin stack")
    p.add_argument("--stack", choices=["single", "pair", "triplet", "empty"],
                   default="triplet")
    p.add_argument("--eta", type=float, help="grating separation (pair, triplet)")
    p.add_argument("--xi", type=float, default=0.0,
                   help="central-grating shift (triplet)")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--resolution", type=int, default=401)
    p.add_argument("--refine", action="store_true",
                   help="bisect intervals with transmittance jumps")
    p.add_argument("--refine-jump", type=float, default=0.1)
    p.add_argument("--per-order", action="store_true",
                   help="emit per-order R_n / T_n columns")
    _add_shared(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("steer", help="resonance-steering pipeline over angles")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--theta", type=float, nargs="+",
                   help="angles of incidence in degrees")
    g.add_argument("--table1", action="store_true",
                   help="run the fifteen tabulated angles 0..60 degrees")
    p.add_argument("--m", type=int, default=1, help="trapped-mode order")
    p.add_argument("--no-modes", action="store_true",
                   help="skip the unshifted even/odd resonance pair")
    p.add_argument("--with-edit", action="store_true",
                   help="tune the central-grating shift to the EDIT point")
    p.add_argument("--with-q", action="store_true",
                   help="read the notch and envelope Q factors off the dark and "
                        "bright poles (implies --with-edit)")
    p.add_argument("--results-dir",
                   help="write each angle's 1001-point notch scan (needs --with-q) "
                        "into this directory where its points are distinct")
    _add_shared(p, incidence=False, formats=("csv", "json", "table"))
    p.set_defaults(func=cmd_steer)

    return parser


def _replayed(value, action: argparse.Action):
    """value as its option parses it; ValueError if no command line gives it."""
    if value is None and action.default is None and not action.required:
        return None
    if action.nargs == 0:                       # a flag
        if isinstance(value, bool):
            return value
        raise ValueError
    items = value if action.nargs == "+" else [value]
    if not isinstance(items, list) or not items:
        raise ValueError
    kind = action.type or str
    parsed = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float) if kind is float else kind):
            raise ValueError
        parsed.append(kind(item))
        if action.choices is not None and parsed[-1] not in action.choices:
            raise ValueError
    return parsed if action.nargs == "+" else parsed[0]


def _namespace_from_config(path: str,
                           parser: argparse.ArgumentParser) -> argparse.Namespace:
    with open(path) as f:
        saved = json.load(f)
    try:
        subcommand = saved["subcommand"]
        params = saved["args"]
    except (KeyError, TypeError):
        parser.error(f"{path} is not a config echo")
    if not isinstance(params, dict):
        parser.error(f"{path} is not a config echo")
    subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
    if subcommand not in subparsers:
        parser.error(f"unknown subcommand {subcommand!r} in {path}")
    # an echo written with --n-far replays where it gave the now fixed window
    if "n_far" in params:
        n_far = params.pop("n_far")
        if type(n_far) is not int or n_far != N_FAR:
            parser.error(f"n_far is fixed at {N_FAR}; {path} gives {n_far!r}")
    # an echo written before an option existed replays with its default
    sub = subparsers[subcommand]
    options = {a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS}
    for key, value in params.items():
        if key not in options:
            parser.error(f"unknown option {key!r} for {subcommand} in {path}")
        try:
            params[key] = _replayed(value, options[key])
        except (ValueError, OverflowError):      # float(10**400) overflows
            parser.error(f"invalid value {value!r} for {key!r} in {path}")
    for dest, action in options.items():
        if action.required and dest not in params:
            parser.error(f"{path} gives no {'/'.join(action.option_strings)}")
    values = {dest: sub.get_default(dest) for dest in options} | params
    # a group's option counts as given where it differs from its default, as
    # argparse counts it on a command line
    for group in sub._mutually_exclusive_groups:
        given = [a.option_strings[0] for a in group._group_actions
                 if values[a.dest] != sub.get_default(a.dest)]
        if len(given) > 1:
            parser.error(f"{path} gives {' and '.join(given)}, which exclude each other")
        if group.required and not given:
            names = " or ".join(a.option_strings[0] for a in group._group_actions)
            parser.error(f"{path} gives none of {names}")
    return argparse.Namespace(config=None, subcommand=subcommand,
                              func=sub.get_default("func"), **values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args = _namespace_from_config(args.config, parser)
    elif args.subcommand is None:
        parser.error("a subcommand is required unless --config is given")
    try:
        return args.func(args)
    except ValueError as exc:      # DomainError included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SearchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
