"""Command-line front-end.

Subcommands:

- ``angles``: evaluate all angle-region checks on a JSON configuration.
- ``split``: invert the weighted factorization map and report branches.
- ``spectrum``: tabulate football eigenvalues or a spectral-flow path.
- ``solve``: run a constant-curvature solve and emit samples/diagnostics.
- ``pair``: evaluate the obstruction pairing from solve diagnostics.
- ``verify``: run the acceptance suite.

Exit codes: 0 success, 2 invalid configuration or input, 3 solver failure,
4 verification mismatch.  JSON output is canonical: keys sorted, floats
rendered with 17 significant digits, so identical configurations and seeds
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED, run_acceptance
from .angles import (AdmissibilityError, AngleVector, coaxial_check,
                     conic_euler_char, mp_distance, mp_membership,
                     splitting_spec, subcritical_check, troyanov_check)
from .factorization import (CoeffVector, ContinuationError, WeightVector,
                            blowup_chart_J2, expansion_coeffs, inverse_map)
# unused here (inverse_map records each branch's condition number), but the
# span tracer in bench/spans.py wraps cli.jacobian by name
from .factorization import jacobian  # noqa: F401
from .liouville import (ConicProblem, SolverError, projected_solve,
                        solve_liouville, spectrum_near_two)
from .pairing import (EigenCoeffs, classify_case, direction_coeffs,
                      direction_counts, extract_eigf_coeffs, pairing_B,
                      pairing_matrix, solution_space)
from .spectrum import (eigenvalue_flow, football_eigenfunction,
                       football_eigenvalues, strict_count_below_two)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# canonical serialization

def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return "%.17g" % x


def canonical_json(obj, indent=0):
    """Render obj as canonical JSON: sorted keys, 17-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return pad + "{}"
        items = []
        for key in sorted(obj):
            items.append(pad + "  " + json.dumps(str(key)) + ": "
                         + canonical_json(obj[key], indent + 2).lstrip())
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return pad + "[]"
        items = [canonical_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return pad + "[" + _fmt_float(obj.real) + ", " \
            + _fmt_float(obj.imag) + "]"
    return pad + json.dumps(str(obj))


def _write(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report, output):
    _write(canonical_json(report) + "\n", output)


def _emit_csv(header, rows, output, comments=()):
    lines = ["# " + c for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            _fmt_float(v).strip('"') if isinstance(v, float) else str(v)
            for v in row))
    _write("\n".join(lines) + "\n", output)


def _meta(**extra):
    out = {"version": __version__}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# parsing helpers

def _parse_floats(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}")


def _parse_complexes(text):
    try:
        return [complex(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad complex list {text!r}: {exc}")


def _parse_points(text):
    pts = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        pts.append(tuple(_parse_floats(chunk)))
    if not pts:
        raise ConfigError("empty point list")
    return pts


# ---------------------------------------------------------------------------
# subcommands

_ANGLES_KEYS = {"genus", "beta", "B"}


def cmd_angles(args):
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    unknown = set(cfg) - _ANGLES_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "beta" not in cfg:
        raise ConfigError("config must provide 'beta'")
    av = AngleVector(int(cfg.get("genus", 0)), tuple(cfg["beta"]))
    coax = coaxial_check(av)
    report = {
        "meta": _meta(subcommand="angles"),
        "genus": av.genus,
        "beta": list(av.beta),
        "chi": conic_euler_char(av),
        "troyanov": troyanov_check(av),
        "mp_distance": mp_distance(av),
        "mp_membership": mp_membership(av),
        "subcritical": subcritical_check(av),
        "coaxial": {
            "status": coax.status,
            "case": coax.case,
            "epsilon": list(coax.epsilon),
            "k1": coax.k1,
            "k2": coax.k2,
            "b": list(coax.b),
            "eta": None if coax.eta is None else [coax.eta.numerator,
                                                  coax.eta.denominator],
        },
    }
    if "B" in cfg:
        spec = splitting_spec(av, tuple(cfg["B"]))
        report["splitting"] = {
            "k0": spec.k0,
            "K": spec.K,
            "cluster_sizes": list(spec.cluster_sizes),
            "B": list(spec.B),
            "weights": list(spec.weights),
            "order": list(spec.order),
        }
    _emit(report, args.output)
    return EXIT_OK


def cmd_split(args):
    weights = _parse_floats(args.weights)
    coeffs = _parse_complexes(args.coeffs)
    if len(weights) != len(coeffs):
        raise ConfigError("weights and coeffs must have equal length")
    try:
        b = WeightVector(tuple(weights))
        A = CoeffVector(tuple(coeffs))
    except ValueError as exc:
        raise ConfigError(str(exc))
    branches = inverse_map(A, b)
    if args.branch is not None and not 0 <= args.branch < len(branches):
        raise ConfigError(f"branch must lie in [0, {len(branches)})")
    out_branches = []
    for br in branches:
        if args.branch is not None and br.branch_id != args.branch:
            continue
        out_branches.append({
            "branch_id": br.branch_id,
            "z": [complex(z) for z in br.z],
            "condition": br.condition,
            "near_discriminant": br.near_discriminant,
        })
    report = {
        "meta": _meta(subcommand="split"),
        "J": b.J,
        "weights": list(b.b),
        "coeffs": [complex(a) for a in A.A],
        "branches": out_branches,
    }
    if args.ray_samples:
        data = expansion_coeffs(A.theta, A.Atilde[:b.J - 1], b,
                                branch=args.branch or 0)
        rhos = np.linspace(A.rho / args.ray_samples, A.rho, args.ray_samples)
        report["expansion"] = {
            "theta": data.theta,
            "branch_id": data.branch_id,
            "c": [[complex(v) for v in row] for row in data.c],
            "ray": [{"rho": float(r),
                     "z": [complex(v) for v in data.evaluate(float(r))]}
                    for r in rhos],
        }
    if b.J == 2:
        chart = blowup_chart_J2(A, b, branch=args.branch or 0)
        report["blowup"] = {
            "R": chart.R, "phi": chart.phi, "z0_2": complex(chart.z0_2),
            "R_lead": chart.R_lead, "phi_lead": chart.phi_lead,
            "z0_2_lead": complex(chart.z0_2_lead), "z0": complex(chart.z0),
        }
    _emit(report, args.output)
    return EXIT_OK


def cmd_spectrum(args):
    if args.flow:
        try:
            a, bnd, n = args.flow.split(":")
            a, bnd, n = float(a), float(bnd), int(n)
        except ValueError:
            raise ConfigError("--flow expects start:stop:count")
        if n < 2 or a <= 0 or bnd <= 0:
            raise ConfigError("flow path needs two positive endpoints")
        path = list(np.linspace(a, bnd, n))
        flow = eigenvalue_flow(path)
        comments = [f"spectral flow {a}:{bnd}:{n}, version {__version__}"]
        for c in flow["crossings"]:
            comments.append(
                f"crossing beta={c.beta:g} j={c.j} between samples "
                f"{c.s_index},{c.s_index + 1}")
        rows = [(i, float(bv), flow["counts"][i])
                for i, bv in enumerate(path)]
        _emit_csv(("sample", "beta", "count_below_2"), rows, args.output,
                  comments)
        return EXIT_OK
    if args.beta is None:
        raise ConfigError("provide --beta or --flow")
    if args.beta <= 0 or args.lambda_max < 0:
        raise ConfigError("beta must be positive and lambda-max nonnegative")
    modes = football_eigenvalues(args.beta, args.lambda_max)
    # one row per eigenvalue: doubled angular modes contribute two rows
    rows = [(m.j, m.ell, float(m.lam), m.multiplicity)
            for m in modes for _ in range(m.multiplicity)]
    _emit_csv(("j", "ell", "lambda", "multiplicity"), rows, args.output,
              [f"football beta={args.beta:g} lambda_max={args.lambda_max:g}, "
               f"version {__version__}",
               f"count_below_2_strict={strict_count_below_two(args.beta)}"])
    return EXIT_OK


def _football_eigrows(beta, tol=1e-9):
    """Cone-chart coefficient rows of the eigenvalue-2 eigenfunctions.

    The (j=0, ell=1) mode is cos(distance) at either pole; integer beta adds
    the doubled (j=beta, ell=0) mode with profile R(r) ~ r^{j/beta}.
    """
    rows = []

    def both_poles(fn):
        north = extract_eigf_coeffs(fn, beta)
        south = extract_eigf_coeffs(
            lambda r, t: fn(math.pi - np.asarray(r), t), beta)
        return [north, south]

    rows.append(both_poles(lambda r, t: np.cos(np.asarray(r))))
    j = int(round(beta))
    if abs(beta - j) < tol and j >= 1:
        prof = football_eigenfunction(beta, j, 0)
        rows.append(both_poles(lambda r, t: prof(r) * np.cos(j * t)))
        rows.append(both_poles(lambda r, t: prof(r) * np.sin(j * t)))
    return rows


def _coeff_row_json(row):
    return [{
        "beta": e.beta,
        "constant": e.constant,
        "modes": [[m, ac, asn] for m, ac, asn in e.modes],
        "residual": e.residual,
        "reliable": e.reliable,
    } for e in row]


def cmd_solve(args):
    points = _parse_points(args.points)
    betas = _parse_floats(args.beta)
    if len(points) != len(betas):
        raise ConfigError("need one point per angle parameter")
    if args.mesh <= 0:
        raise ConfigError("mesh size must be positive")
    try:
        av = AngleVector(0, tuple(betas))
        problem = ConicProblem(args.background, points, av, args.curvature)
    except (ValueError, AdmissibilityError) as exc:
        raise ConfigError(str(exc))
    metric = solve_liouville(problem, {"n": args.mesh})
    if args.axisym and metric.kind != "football":
        raise ConfigError("--axisym requires an antipodal equal-angle pair")

    diagnostics = {
        "meta": _meta(subcommand="solve", mesh=args.mesh,
                      tolerance=metric.residual),
        "background": args.background,
        "kind": metric.kind,
        "points": [list(p) for p in points],
        "beta": list(av.beta),
        "curvature": args.curvature,
        "residual": metric.residual,
        "sing_coeffs": [float(c) for c in metric.sing_coeffs],
    }
    if args.curvature == 1:
        chi = conic_euler_char(av)
        diagnostics["chi"] = chi
        diagnostics["area"] = metric.area()
        diagnostics["area_target"] = 2.0 * math.pi * chi
        fiber = spectrum_near_two(metric)
        diagnostics["ell"] = fiber.ell
        diagnostics["eigenvalues_near_2"] = [float(v) for v in
                                             fiber.eigenvalues_near_2]
        if metric.kind == "football":
            proj = projected_solve(metric, fiber)
            diagnostics["Lambda"] = [float(v) for v in np.atleast_1d(proj[1])]
            rows = _football_eigrows(av.beta[0])
            diagnostics["eigen_coeffs"] = [_coeff_row_json(r) for r in rows]
        else:
            # the projected solve runs in the axisymmetric reduction only
            diagnostics["Lambda"] = []
            diagnostics["eigen_coeffs"] = []

    if args.samples:
        if metric.kind == "football":
            phi = metric.mesh["phi"]
            dens = metric.density()
            rows = list(zip((float(p) for p in phi),
                            (float(v) for v in metric.w),
                            (float(v) for v in dens[:len(phi)])))
            _emit_csv(("colatitude", "w", "density"), rows, args.samples,
                      [f"axisymmetric solve, version {__version__}"])
        elif metric.kind == "sphere2d":
            g = metric.mesh
            dens = metric.density()
            rows = []
            for i, p in enumerate(g["phi"]):
                for k, t in enumerate(g["theta"]):
                    rows.append((float(p), float(t), float(metric.w[i, k]),
                                 float(dens[i, k])))
            _emit_csv(("colatitude", "longitude", "w", "density"), rows,
                      args.samples, [f"2d solve, version {__version__}"])
        else:
            r = metric.mesh["r"]
            rows = list(zip((float(v) for v in r),
                            (float(v) for v in metric.w)))
            _emit_csv(("r", "w"), rows, args.samples,
                      [f"disk solve, version {__version__}"])
    _emit(diagnostics, args.output)
    return EXIT_OK


def cmd_pair(args):
    try:
        with open(args.diagnostics) as fh:
            diag = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read diagnostics {args.diagnostics!r}: "
                          f"{exc}")
    raw_rows = diag.get("eigen_coeffs")
    betas = diag.get("beta")
    if not betas:
        raise ConfigError("diagnostics carry no cone angles")
    if raw_rows is None:
        raise ConfigError("diagnostics carry no eigenfunction coefficients")
    rows = []
    for raw in raw_rows:
        row = []
        for e in raw:
            row.append(EigenCoeffs(
                beta=float(e["beta"]), constant=float(e["constant"]),
                modes=tuple((int(m), float(a), float(b))
                            for m, a, b in e["modes"]),
                residual=float(e["residual"]), reliable=bool(e["reliable"])))
        rows.append(row)

    dir_groups = [_parse_complexes(chunk)
                  for chunk in args.direction.split(";") if chunk.strip()]
    if len(dir_groups) != len(betas):
        raise ConfigError("need one direction coefficient group per cone "
                          "point")
    dirs = [direction_coeffs(tuple(g), float(b))
            for g, b in zip(dir_groups, betas)]

    ell = len(rows)
    K, K0, k0 = direction_counts(betas)
    report = {
        "meta": _meta(subcommand="pair"),
        "beta": [float(b) for b in betas],
        "ell": ell,
        "K": K, "K0": K0, "k0": k0,
        "direction": {
            "coefficients": [[complex(c) for c in g] for g in dir_groups],
            # branch convention: coefficients are those of the monic
            # splitting polynomial for branch 0 of the inverse map
            "branch": 0,
        },
    }
    if ell:
        unreliable = [i for i, row in enumerate(rows)
                      if not all(e.reliable for e in row)]
        matrix = pairing_matrix(rows)
        kernel, info = solution_space(matrix, atol=args.rank_atol)
        result = classify_case(ell, K, K0, info["rank"])
        report.update({
            "B_values": [float(v) for v in pairing_B(rows, dirs)],
            "B_matrix": [[float(v) for v in r] for r in matrix],
            "kernel": [[float(v) for v in col] for col in kernel.T],
            "rank": info["rank"],
            "unreliable_rows": unreliable,
            "classification": result,
        })
    else:
        report["classification"] = classify_case(ell, K, K0, 0)
    _emit(report, args.output)
    return EXIT_OK


def cmd_verify(args):
    indices = None
    if args.criteria:
        try:
            indices = [int(x) for x in args.criteria.split(",")]
        except ValueError:
            raise ConfigError("--criteria expects a comma-separated list "
                              "of indices")
    results = run_acceptance(indices, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.index:2d} ({r.name}): {r.detail} "
              f"[{r.elapsed:.2f}s]")
    failed = [r.index for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} criterion(s) failed: {failed}")
        return EXIT_VERIFY
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="conemetric",
        description="numerics for spherical cone metrics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("angles", help="angle-region membership report")
    p.add_argument("config", help="JSON file with genus, beta and "
                   "optionally split angles B")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("split", help="invert the weighted factorization map")
    p.add_argument("--weights", required=True,
                   help="comma-separated splitting weights (sum J)")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated complex coefficients A_1..A_J")
    p.add_argument("--branch", type=int, default=None,
                   help="restrict the report to one branch id")
    p.add_argument("--ray-samples", type=int, default=0,
                   help="emit the ray expansion at this many radii")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("spectrum", help="football eigenvalue tables")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=2.0)
    p.add_argument("--flow", default=None,
                   help="start:stop:count path for the crossing report")
    p.add_argument("--output", help="write the CSV table here")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("solve", help="constant-curvature solve")
    p.add_argument("--points", required=True,
                   help="semicolon-separated points, e.g. '0,0;3.14159,0' "
                        "(colatitude,longitude) or 'x' on the disk")
    p.add_argument("--beta", required=True,
                   help="comma-separated angle parameters")
    p.add_argument("--curvature", type=int, default=1, choices=(-1, 0, 1))
    p.add_argument("--mesh", type=int, default=144,
                   help="grid resolution n")
    p.add_argument("--background", default="sphere",
                   choices=("sphere", "disk"))
    p.add_argument("--axisym", action="store_true",
                   help="require the axisymmetric (football) fast path")
    p.add_argument("--samples", help="write solution samples CSV here")
    p.add_argument("--output", help="write the diagnostics JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pair", help="obstruction pairing report")
    p.add_argument("--diagnostics", required=True,
                   help="diagnostics JSON produced by solve")
    p.add_argument("--direction", required=True,
                   help="semicolon-separated complex coefficient groups, "
                        "one per cone point")
    p.add_argument("--rank-atol", type=float, default=1e-8,
                   help="absolute singular-value floor for the kernel")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion indices (default all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AdmissibilityError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ContinuationError, np.linalg.LinAlgError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
