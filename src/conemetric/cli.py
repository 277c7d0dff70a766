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
from .factorization import (CoeffVector, WeightVector, blowup_chart_J2,
                            expansion_coeffs, inverse_map)
# unused here (inverse_map records each branch's condition number), but the
# span tracer in bench/spans.py wraps cli.jacobian by name
from .factorization import jacobian  # noqa: F401
from .liouville import (ConicProblem, projected_solve, solve_liouville,
                        spectrum_near_two)
from .pairing import (EigenCoeffs, classify_case, direction_coeffs,
                      direction_counts, extract_eigf_coeffs, pairing_B,
                      pairing_matrix, solution_space)
from .spectrum import (eigenvalue_flow, football_eigenfunction,
                       football_eigenvalues, strict_count_below_two)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

#: most radii `split --ray-samples` may ask for
MAX_RAY_SAMPLES = 10_000
#: most samples `spectrum --flow start:stop:count` may ask for
MAX_FLOW_SAMPLES = 10_000
#: most entries of an `angles` config's beta or B list
MAX_ANGLES = 16


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
    """One line per row; floats as %.17g (nan and inf unquoted), other
    values by str.  The types of the first row fix each column's format."""
    rows = [tuple(row) for row in rows]
    fmt = ",".join("%.17g" if isinstance(v, float) else "%s"
                   for v in rows[0]) if rows else ""
    lines = ["# " + c for c in comments]
    lines.append(",".join(header))
    lines.extend(fmt % row for row in rows)
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


def _angle_list(cfg, key):
    """cfg[key] as at most MAX_ANGLES finite floats: the coaxial and
    subcluster searches take time exponential in the count."""
    value = cfg[key]
    # the bound also fails nan, inf and integers beyond the float range
    if type(value) is list and len(value) <= MAX_ANGLES and all(
            type(x) in (int, float) and abs(x) <= sys.float_info.max
            for x in value):
        return tuple(float(x) for x in value)
    raise ConfigError(f"{key!r} must be a list of at most {MAX_ANGLES} "
                      "finite numbers")


def cmd_angles(args):
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config!r} must hold a JSON object")
    unknown = set(cfg) - _ANGLES_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "beta" not in cfg:
        raise ConfigError("config must provide 'beta'")
    genus = cfg.get("genus", 0)
    if type(genus) not in (int, float) or not 0 <= genus < 2 ** 53 \
            or genus != int(genus):
        raise ConfigError("'genus' must be a nonnegative integer")
    av = AngleVector(int(genus), _angle_list(cfg, "beta"))
    B = _angle_list(cfg, "B") if "B" in cfg else None
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
    if B is not None:
        spec = splitting_spec(av, B)
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
    if not 0 <= args.ray_samples <= MAX_RAY_SAMPLES:
        raise ConfigError(f"--ray-samples must lie in [0, {MAX_RAY_SAMPLES}]")
    try:
        b = WeightVector(tuple(weights))
        A = CoeffVector(tuple(coeffs))
        Atilde = A.Atilde if args.ray_samples else None
    except ValueError as exc:
        raise ConfigError(str(exc))
    # inverse_map returns one branch per ordering of the J split points
    if args.branch is not None \
            and not 0 <= args.branch < math.factorial(b.J):
        raise ConfigError(f"branch must lie in [0, {math.factorial(b.J)})")
    branches = inverse_map(A, b)
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
        data = expansion_coeffs(A.theta, Atilde[:b.J - 1], b,
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
        if n > MAX_FLOW_SAMPLES:
            raise ConfigError(f"--flow asks for {n} samples; the limit is "
                              f"{MAX_FLOW_SAMPLES}")
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


def _football_eigrows(beta):
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
    if abs(beta - j) < 1e-9 and j >= 1:
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
    if args.axisym and not problem.is_football:
        raise ConfigError("--axisym requires an antipodal equal-angle pair")
    metric = solve_liouville(problem, {"n": args.mesh})

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
        g, w = metric.mesh, metric.w
        if metric.kind == "football":
            header, cols, what = (("colatitude", "w", "density"),
                                  (g["phi"], w, metric.density()),
                                  "axisymmetric solve")
        elif metric.kind == "sphere2d":
            header, cols, what = (("colatitude", "longitude", "w", "density"),
                                  (*np.meshgrid(g["phi"], g["theta"],
                                                indexing="ij"),
                                   w, metric.density()), "2d solve")
        else:
            header, cols, what = ("r", "w"), (g["r"], w), "disk solve"
        rows = zip(*(np.ravel(c).tolist() for c in cols))
        _emit_csv(header, rows, args.samples,
                  [f"{what}, version {__version__}"])
    _emit(diagnostics, args.output)
    return EXIT_OK


def cmd_pair(args):
    try:
        with open(args.diagnostics) as fh:
            diag = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read diagnostics {args.diagnostics!r}: "
                          f"{exc}")
    if not isinstance(diag, dict):
        raise ConfigError(f"diagnostics {args.diagnostics!r} must hold a "
                          "JSON object, as solve writes")
    raw_rows = diag.get("eigen_coeffs")
    betas = diag.get("beta")
    if not betas:
        raise ConfigError("diagnostics carry no cone angles")
    if raw_rows is None:
        raise ConfigError("diagnostics carry no eigenfunction coefficients")
    try:
        betas = [float(b) for b in betas]
        rows = [[EigenCoeffs(
            beta=float(e["beta"]), constant=float(e["constant"]),
            modes=tuple((int(m), float(a), float(b))
                        for m, a, b in e["modes"]),
            residual=float(e["residual"]), reliable=bool(e["reliable"]))
            for e in raw] for raw in raw_rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed diagnostics {args.diagnostics!r}: "
                          f"{exc!r}")

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
                        "(colatitude,longitude) or '0' on the disk")
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
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # SolverError, ContinuationError and ARPACK's ArpackError are all
        # RuntimeErrors
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
