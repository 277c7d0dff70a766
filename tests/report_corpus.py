"""Write every report of a fixed list of CLI runs to one directory, or
compare two such directories leaf by leaf.

    python tests/report_corpus.py OUTDIR
    python tests/report_corpus.py --compare REF OUT

Runs ``conemetric.cli.main`` in-process, with ``CONEMETRIC_THREADS=1``,
over the README examples, footballs at n = 512 with a ``pair`` each, a 2-D
solve with samples, and ``split`` on four fixed unequal-weight inputs.
Every ``--output`` and ``--samples`` file lands in OUTDIR, with
``exit_codes.json``.  Two checkouts give byte-identical reports exactly
when ``diff -r`` of their two OUTDIRs is empty.  ``--compare`` tells a
round-off change from a real one: see ``compare``.  ``reference_corpus``
next to this file holds the output of the commit, with the numpy and scipy
versions, that ``reference_corpus.json`` names; tier-1 compares a fresh run
with it, and a change that moves a number beyond tolerance regenerates it
with ``python tests/report_corpus.py tests/reference_corpus``.  The package
is imported from the ``src`` directory next to this file.  pytest does not
collect this file.
"""

import json
import math
import os
import sys
from pathlib import Path

os.environ["CONEMETRIC_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conemetric.cli import main  # noqa: E402

ANTIPODAL = "0,0;3.141592653589793,0"
EQUATOR3 = "1.5708,0;1.5708,2.0944;1.5708,4.1888"

#: a float leaf passes within ATOL + RTOL |a|, a its reference value
ATOL, RTOL = 1e-14, 1e-10
#: a Lambda coefficient at most this large is a zero of the projected solve
LAMBDA_ZERO = 1e-12
#: a Newton residual at most this large is converged: damped_newton stops
#: each row at max(NEWTON_TOL, its rounding floor), and the floor of a 2-D
#: solve lifts sup|F| above NEWTON_TOL = 1e-9 (1.47e-9 for the (0.6, 0.6,
#: 0.6) solve at n = 96).  Reports do not carry the per-row tolerance.
RESIDUAL_ZERO = 1e-8

#: the unequal-weight inputs the splitting benchmark runs at J = 4, 5, 6
SPLIT_FIXED = (
    ("0.7241291278713904,0.8131571735021613,1.2916452480410805,"
     "1.1710684505853677",
     "-0.02260299210315629+0.10831743391646849j,"
     "-0.0666796186877048-0.1757576756710971j,"
     "-0.03693040294813947+0.06338006066822899j,"
     "0.005256031697763622+0.00784482493659058j"),
    ("1.1034766992306608,0.563346802573179,0.8903913451944339,"
     "1.3107429691065267,1.1320421838951997",
     "-0.37700043994190297+0.2708758024275179j,"
     "0.05182717629563358-0.1459424460763985j,"
     "0.037772432857540415-0.004271110038275524j,"
     "0.010710614291935561+0.003640819850064067j,"
     "-0.0007282673921768261-0.003264950606141939j"),
    ("0.7524433787536944,1.2633320557731225,1.0719949680854317,"
     "0.9647499945954672,0.947479602792284",
     "-0.08761424556580903+0.21602034600273393j,"
     "-0.028075439537115814+0.04632346851963929j,"
     "0.008203554930027933-0.0017314542621229422j,"
     "-0.00216804844785515-0.0006923601618054815j,"
     "-0.0005489585326266089+0.0003910266640775162j"),
    ("0.6083733893685939,0.5718360184639002,1.0617511983020822,"
     "1.3093398155299678,1.064702102094969,1.3839974762404872",
     "-0.36281648609229483+0.07726733052386169j,"
     "-0.12710628121267065+0.028161262659123037j,"
     "0.014621764407436426-0.0035319156360328766j,"
     "0.0060907091040172615+0.010286863275790254j,"
     "-0.00160078757654891-0.00022589877229187938j,"
     "-0.0008957040645354065-4.822399808221186e-05j"),
)


def runs(out):
    """(name, argv) of every run, in order; argv paths point into out."""
    config = out / "config.json"
    config.write_text('{"genus": 0, "beta": [2.5, 0.7], '
                      '"B": [1.75, 1.75, 0.7]}\n')
    yield "angles", ["angles", str(config)]
    yield "split-J3", ["split", "--weights", "0.8,1.2,1.0",
                       "--coeffs", "0.1+0.05j,0.04,0.01"]
    yield "split-J2-ray", ["split", "--weights", "1.0,1.0",
                           "--coeffs", "0.1,0.04", "--branch", "0",
                           "--ray-samples", "8"]
    yield "spectrum-beta", ["spectrum", "--beta", "2.5",
                            "--lambda-max", "2"]
    yield "spectrum-flow", ["spectrum", "--flow", "1.5:3.5:21"]
    yield "solve-football-1.7", ["solve", "--points", ANTIPODAL,
                                 "--beta", "1.7,1.7", "--mesh", "256",
                                 "--samples",
                                 str(out / "samples-football-1.7.csv")]
    yield "pair-football-1.7", ["pair", "--diagnostics",
                                str(out / "solve-football-1.7.json"),
                                "--direction", "0.1+0.2j;-0.05"]
    yield "solve-equator-0.6", ["solve", "--points", EQUATOR3,
                                "--beta", "0.6,0.6,0.6", "--mesh", "96"]
    yield "solve-disk", ["solve", "--background", "disk", "--points", "0",
                         "--beta", "0.7", "--curvature", "-1"]
    for beta in ("0.7", "1.7", "2", "3", "3.35"):
        name = f"football-{beta}-512"
        yield f"solve-{name}", ["solve", "--points", ANTIPODAL,
                                "--beta", f"{beta},{beta}", "--mesh", "512"]
        # one coefficient per indicial mode: max(1, [beta]) at each pole
        group = ",".join(["0.1+0.2j", "-0.05+0.01j", "0.03-0.07j"]
                         [:max(1, int(float(beta)))])
        yield f"pair-{name}", ["pair", "--diagnostics",
                               str(out / f"solve-{name}.json"),
                               f"--direction={group};{group}"]
    yield "solve-equator-678", ["solve", "--points", EQUATOR3,
                                "--beta", "0.6,0.7,0.8", "--mesh", "48",
                                "--samples",
                                str(out / "samples-equator-678.csv")]
    for i, (weights, coeffs) in enumerate(SPLIT_FIXED):
        yield f"split-fixed-{i}", ["split", "--weights=" + weights,
                                   "--coeffs=" + coeffs, "--ray-samples", "8"]


def main_corpus(outdir):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in runs(out):
        ext = ".csv" if argv[0] == "spectrum" else ".json"
        codes[name] = main(argv + ["--output", str(out / (name + ext))])
    (out / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return codes


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load(path):
    """A JSON report as parsed, any other file as rows of typed cells."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _within(path, a, b):
    """Whether leaf b at path passes against the reference leaf a.

    Numbers of which either is a float compare within ATOL + RTOL |a|
    (``%.17g`` writes an integral float as an integer); Lambda coefficients
    both at most LAMBDA_ZERO, and Newton residuals both at most
    RESIDUAL_ZERO, pass whatever their change.  Every other leaf must match
    exactly.
    """
    if not (_number(a) and _number(b)):
        return type(a) is type(b) and a == b
    if path.startswith("Lambda[") and max(abs(a), abs(b)) <= LAMBDA_ZERO:
        return True
    if path in ("residual", "meta.tolerance") \
            and max(abs(a), abs(b)) <= RESIDUAL_ZERO:
        return True
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= ATOL + RTOL * abs(a)


def _leaves(ref, out, path=""):
    """(path, ref leaf, out leaf, within tolerance) of every leaf; a key or
    item present on one side only is a leaf out of tolerance.  CSV paths
    read [row][column], from 0."""
    if isinstance(ref, dict) and isinstance(out, dict):
        for key in sorted(ref.keys() | out.keys()):
            sub = f"{path}.{key}" if path else key
            if key in ref and key in out:
                yield from _leaves(ref[key], out[key], sub)
            else:
                yield sub, ref.get(key, "<absent>"), \
                    out.get(key, "<absent>"), False
    elif isinstance(ref, list) and isinstance(out, list):
        for i in range(max(len(ref), len(out))):
            sub = f"{path}[{i}]"
            if i < min(len(ref), len(out)):
                yield from _leaves(ref[i], out[i], sub)
            else:
                yield sub, ref[i] if i < len(ref) else "<absent>", \
                    out[i] if i < len(out) else "<absent>", False
    else:
        yield path, ref, out, _within(path, ref, out)


def compare(ref_dir, out_dir, stream=None):
    """Compare every file of two corpus directories leaf by leaf.

    Prints to stream (stdout by default) each leaf out of tolerance (see
    ``_within``) and, per file with any change, the largest absolute and
    relative change of a number with its path.  Returns 1 if any leaf, or
    a whole file, is out of tolerance, else 0.
    """
    ref_dir, out_dir = Path(ref_dir), Path(out_dir)
    names = sorted({p.name for d in (ref_dir, out_dir) for p in d.iterdir()
                    if p.is_file()})
    failed = changed = 0
    for name in names:
        if not (ref_dir / name).is_file() or not (out_dir / name).is_file():
            print(f"{name}: present on one side only", file=stream)
            failed += 1
            continue
        worst_abs, worst_rel = (0.0, ""), (0.0, "")
        differs = False
        for path, a, b, ok in _leaves(_load(ref_dir / name),
                                      _load(out_dir / name)):
            if not ok:
                print(f"{name}: {path}: {a!r} -> {b!r}", file=stream)
                failed += 1
            if a == b and type(a) is type(b):
                continue
            differs = True
            if _number(a) and _number(b):
                change = abs(a - b)
                rel = change / abs(a) if a else math.inf
                worst_abs = max(worst_abs, (change, path))
                worst_rel = max(worst_rel, (rel, path))
        if differs:
            changed += 1
            print(f"{name}: largest change {worst_abs[0]:.3g} at "
                  f"{worst_abs[1] or '-'}, relative {worst_rel[0]:.3g} at "
                  f"{worst_rel[1] or '-'}", file=stream)
    print(f"{len(names)} files, {changed} changed, {failed} out of tolerance",
          file=stream)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/report_corpus.py OUTDIR\n"
                 "       python tests/report_corpus.py --compare REF OUT")
    main_corpus(sys.argv[1])
