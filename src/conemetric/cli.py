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
import functools
import json
import math
import sys
# json.dumps of a str, without its per-call set-up
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED, run_acceptance
from .angles import (AngleVector, coaxial_check, conic_euler_char, int_part,
                     is_integer, mp_distance, mp_membership, splitting_spec,
                     subcritical_check, troyanov_check)
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


# ---------------------------------------------------------------------------
# canonical serialization

def _fmt_float(x):
    if math.isfinite(x):
        return "%.17g" % x
    return _quote(str(x))


def canonical_json(obj, indent=0):
    """Render obj as canonical JSON: sorted keys, 17-digit floats.  The
    leaves come first, since a report holds more of them than containers."""
    pad = " " * indent
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return pad + "[" + _fmt_float(obj.real) + ", " \
            + _fmt_float(obj.imag) + "]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, dict):
        if not obj:
            return pad + "{}"
        items = []
        for key in sorted(obj):
            items.append(pad + "  " + _quote(str(key)) + ": "
                         + canonical_json(obj[key], indent + 2).lstrip())
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return pad + "[]"
        items = [canonical_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    return pad + _quote(str(obj))


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

def _parse_list(text, kind):
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {kind.__name__} list {text!r}: {exc}")


def _parse_points(text):
    pts = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        pts.append(tuple(_parse_list(chunk, float)))
    if not pts:
        raise ValueError("empty point list")
    return pts


# ---------------------------------------------------------------------------
# subcommands

_ANGLES_KEYS = {"genus", "beta", "B"}


def cmd_angles(args):
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {args.config!r}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config!r} must hold a JSON object")
    unknown = set(cfg) - _ANGLES_KEYS
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    if "beta" not in cfg:
        raise ValueError("config must provide 'beta'")
    av = AngleVector(cfg.get("genus", 0), cfg["beta"])
    chi = conic_euler_char(av)
    # the lattice and coaxial tests are those of the sphere; the Troyanov
    # region needs chi > 0
    sphere = av.genus == 0
    report = {
        "meta": _meta(subcommand="angles"),
        "genus": av.genus,
        "beta": av.beta,
        "chi": chi,
        "troyanov": chi > 0 and troyanov_check(av),
        "mp_distance": mp_distance(av) if sphere else None,
        "mp_membership": mp_membership(av) if sphere else None,
        "subcritical": subcritical_check(av),
        "coaxial": None,
    }
    if sphere:
        coax = coaxial_check(av)
        eta = None if coax.eta is None else [coax.eta.numerator,
                                             coax.eta.denominator]
        report["coaxial"] = {**vars(coax), "eta": eta}
    if "B" in cfg:
        report["splitting"] = vars(splitting_spec(av, cfg["B"]))
    _emit(report, args.output)
    return EXIT_OK


def cmd_split(args):
    weights = _parse_list(args.weights, float)
    coeffs = _parse_list(args.coeffs, complex)
    if not 0 <= args.ray_samples <= MAX_RAY_SAMPLES:
        raise ValueError(f"--ray-samples must lie in [0, {MAX_RAY_SAMPLES}]")
    b = WeightVector(tuple(weights))
    A = CoeffVector(tuple(coeffs))
    Atilde = A.Atilde if args.ray_samples else None
    # inverse_map returns one branch per ordering of the J split points
    if args.branch is not None \
            and not 0 <= args.branch < math.factorial(b.J):
        raise ValueError(f"branch must lie in [0, {math.factorial(b.J)})")
    branches = inverse_map(A, b)
    report = {
        "meta": _meta(subcommand="split"),
        "J": b.J,
        "weights": b.b,
        "coeffs": A.A,
        "branches": [vars(br) for br in branches
                     if args.branch in (None, br.branch_id)],
    }
    if args.ray_samples:
        data = expansion_coeffs(A.theta, Atilde[:b.J - 1], b,
                                branch=args.branch or 0)
        rhos = np.linspace(A.rho / args.ray_samples, A.rho, args.ray_samples)
        report["expansion"] = {
            **vars(data),
            "ray": [{"rho": r, "z": data.evaluate(r)} for r in rhos.tolist()],
        }
    if b.J == 2:
        chart = blowup_chart_J2(A, b, branches[args.branch or 0])
        report["blowup"] = vars(chart)
    _emit(report, args.output)
    return EXIT_OK


def cmd_spectrum(args):
    if (args.beta is None) == (args.flow is None):
        raise ValueError("provide exactly one of --beta and --flow")
    if args.flow is not None:
        try:
            a, bnd, n = args.flow.split(":")
            a, bnd, n = float(a), float(bnd), int(n)
        except ValueError:
            raise ValueError("--flow expects start:stop:count")
        if n < 2 or not (0 < a < math.inf and 0 < bnd < math.inf):
            raise ValueError("flow path needs two positive finite endpoints")
        if n > MAX_FLOW_SAMPLES:
            raise ValueError(f"--flow asks for {n} samples; the limit is "
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
    j = int_part(beta)
    if is_integer(beta) and j >= 1:
        prof = football_eigenfunction(beta, j, 0)
        rows.append(both_poles(lambda r, t: prof(r) * np.cos(j * t)))
        rows.append(both_poles(lambda r, t: prof(r) * np.sin(j * t)))
    return rows


def cmd_solve(args):
    points = _parse_points(args.points)
    av = AngleVector(0, _parse_list(args.beta, float))
    problem = ConicProblem(args.background, points, av, args.curvature)
    metric = solve_liouville(problem, args.mesh)

    diagnostics = {
        "meta": _meta(subcommand="solve", mesh=args.mesh,
                      tolerance=metric.residual),
        "background": args.background,
        "kind": metric.kind,
        "points": points,
        "beta": av.beta,
        "curvature": args.curvature,
        "residual": metric.residual,
        "sing_coeffs": metric.sing_coeffs,
    }
    if args.curvature == 1:
        diagnostics["chi"] = chi = problem.chi
        diagnostics["area"] = metric.area()
        diagnostics["area_target"] = 2.0 * math.pi * chi
        fiber = spectrum_near_two(metric)
        diagnostics["ell"] = fiber.ell
        diagnostics["eigenvalues_near_2"] = fiber.eigenvalues_near_2
        if metric.kind == "football":
            diagnostics["Lambda"] = projected_solve(metric, fiber)[1]
            diagnostics["eigen_coeffs"] = [[vars(e) for e in row] for row
                                           in _football_eigrows(av.beta[0])]
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
            # each of the n colatitudes and 2n longitudes formatted once,
            # not once per row
            lat, lon = (["%.17g" % x for x in g[k].tolist()]
                        for k in ("phi", "theta"))
            header, cols, what = (("colatitude", "longitude", "w", "density"),
                                  ([s for s in lat for _ in lon],
                                   lon * len(lat), w, metric.density()),
                                  "2d solve")
        else:
            header, cols, what = ("r", "w"), (g["r"], w), "disk solve"
        rows = zip(*(c if isinstance(c, list) else np.ravel(c).tolist()
                     for c in cols))
        _emit_csv(header, rows, args.samples,
                  [f"{what}, version {__version__}"])
    _emit(diagnostics, args.output)
    return EXIT_OK


def cmd_pair(args):
    try:
        with open(args.diagnostics) as fh:
            diag = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read diagnostics {args.diagnostics!r}: "
                         f"{exc}")
    if not isinstance(diag, dict) or not {"beta", "eigen_coeffs"} <= set(diag):
        raise ValueError(f"diagnostics {args.diagnostics!r} must hold a "
                         "JSON object with beta and eigen_coeffs, as solve "
                         "writes")
    betas = AngleVector(0, diag["beta"]).beta
    raw_rows = diag["eigen_coeffs"]
    if type(raw_rows) is not list or not all(type(r) is list
                                             for r in raw_rows):
        raise ValueError("malformed eigen_coeffs: need a list of rows, each "
                         "a list of entries")
    rows = [[EigenCoeffs.from_report(e) for e in raw] for raw in raw_rows]
    if not 0 <= args.rank_atol < math.inf:
        raise ValueError("--rank-atol must be finite and nonnegative")

    dir_groups = [_parse_list(chunk, complex)
                  for chunk in args.direction.split(";") if chunk.strip()]
    if len(dir_groups) != len(betas):
        raise ValueError("need one direction coefficient group per cone "
                         "point")
    dirs = [direction_coeffs(g, b) for g, b in zip(dir_groups, betas)]

    ell = len(rows)
    K, K0, k0 = direction_counts(betas)
    report = {
        "meta": _meta(subcommand="pair"),
        "beta": betas,
        "ell": ell,
        "K": K, "K0": K0, "k0": k0,
        "direction": {
            "coefficients": dir_groups,
            # branch convention: coefficients are those of the monic
            # splitting polynomial for branch 0 of the inverse map
            "branch": 0,
        },
    }
    if ell:
        values = pairing_B(rows, dirs)  # checks the mode indices first
        matrix = pairing_matrix(rows)
        kernel, info = solution_space(matrix, atol=args.rank_atol)
        report.update({
            "B_values": values,
            "B_matrix": matrix,
            "kernel": kernel.T,
            "rank": info["rank"],
            "unreliable_rows": [i for i, row in enumerate(rows)
                                if not all(e.reliable for e in row)],
            "classification": classify_case(ell, K, K0, info["rank"]),
        })
    else:
        report["classification"] = classify_case(ell, K, K0, 0)
    _emit(report, args.output)
    return EXIT_OK


def cmd_verify(args):
    indices = _parse_list(args.criteria, int) if args.criteria else None
    if indices == []:
        raise ValueError(f"--criteria {args.criteria!r} names no criterion")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got "
                         f"{args.seed}")
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

@functools.cache
def build_parser():
    """The argument parser, built on the first call of the process."""
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
                   help="semicolon-separated points, e.g. "
                        "'0,0;3.141592653589793,0' "
                        "(colatitude,longitude) or '0' on the disk")
    p.add_argument("--beta", required=True,
                   help="comma-separated angle parameters")
    p.add_argument("--curvature", type=int, default=1, choices=(-1, 0, 1))
    p.add_argument("--mesh", type=int, default=144,
                   help="grid resolution n")
    p.add_argument("--background", default="sphere",
                   choices=("sphere", "disk"))
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
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # SolverError, ContinuationError and ARPACK's ArpackError are all
        # RuntimeErrors; LinAlgError is a ValueError, so it comes first
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        # AdmissibilityError, every input rule's ValueError, and an output
        # file that cannot be written
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
