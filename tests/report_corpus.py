"""Write every report of a fixed list of CLI runs to one directory.

    python tests/report_corpus.py OUTDIR

Runs ``conemetric.cli.main`` in-process, with ``CONEMETRIC_THREADS=1``,
over the README examples, footballs at n = 512 with a ``pair`` each, a 2-D
solve with samples, and ``split`` on four fixed unequal-weight inputs.
Every ``--output`` and ``--samples`` file lands in OUTDIR, with
``exit_codes.json``.  Two checkouts give byte-identical reports exactly
when ``diff -r`` of their two OUTDIRs is empty.  The package is imported
from the ``src`` directory next to this file.  pytest does not collect this
file.
"""

import json
import os
import sys
from pathlib import Path

os.environ["CONEMETRIC_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conemetric.cli import main  # noqa: E402

ANTIPODAL = "0,0;3.141592653589793,0"
EQUATOR3 = "1.5708,0;1.5708,2.0944;1.5708,4.1888"

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/report_corpus.py OUTDIR")
    main_corpus(sys.argv[1])
