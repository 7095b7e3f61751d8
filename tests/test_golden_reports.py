"""Recorded report files stay byte-stable modulo wall time."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from schubres.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "reports"

CASES = [
    ("building-sigma.json", ["building", "--perm", "4,8,6,2,7,3,1,5"]),
    ("embres-n4-beta2-4-p2.json", ["embres", "verify", "--n", "4", "--beta", "2,4"]),
    ("embres-n4-beta1-3-p2.json", ["embres", "verify", "--n", "4", "--beta", "1,3"]),
    ("wflag-n5-beta2-4-p2.json", ["wflag", "verify", "--n", "5", "--beta", "2,4"]),
    ("suite.json", ["suite"]),
    ("rankmatrix-3-1-2.json", ["rankmatrix", "--perm", "3,1,2"]),
    ("bubblesort-4-1-3-2.json", ["bubblesort", "--perm", "4,1,3,2"]),
    ("biflag-enumerate-2-3-1-p2.json", ["biflag", "enumerate", "--perm", "2,3,1"]),
    (
        "biflag-enumerate-flw-1-2-3-p2.json",
        ["biflag", "enumerate", "--perm", "1,2,3", "--variety", "flw"],
    ),
    ("bs-enumerate-3-1-2-p3.json", ["bs", "enumerate", "--perm", "3,1,2", "--field", "3"]),
    ("wflag-enumerate-n5-beta1-3-p2.json", ["wflag", "enumerate", "--n", "5", "--beta", "1,3"]),
    ("wflag-lift-n4-beta1-3-p2.json", ["wflag", "lift", "--n", "4", "--beta", "1,3"]),
    ("grass-phi-n4-beta2-4-p2.json", ["grass", "verify-phi", "--n", "4", "--beta", "2,4"]),
    (
        "grass-phistar-n4-beta2-4-p2.json",
        ["grass", "verify-phistar", "--n", "4", "--beta", "2,4"],
    ),
    (
        "grass-transversal-n4-beta2-4-p2.json",
        ["grass", "verify-transversal", "--n", "4", "--beta", "2,4"],
    ),
    ("biflag-verify-3-4-1-2-p2.json", ["biflag", "verify", "--perm", "3,4,1,2", "--field", "2"]),
    ("bs-iso-3-4-1-2-p2.json", ["bs", "iso", "--perm", "3,4,1,2", "--field", "2"]),
    ("biflag-verify-2-4-1-3-p3.json", ["biflag", "verify", "--perm", "2,4,1,3", "--field", "3"]),
]

WALL_TIME = re.compile(r'"wall_time_s": [-+.0-9e]+')


def masked(text: str) -> str:
    """The report text with its one wall time value masked."""
    out, count = WALL_TIME.subn('"wall_time_s": _', text)
    assert count == 1, text
    return out


def golden_text(fname: str) -> str:
    return masked((GOLDEN_DIR / fname).read_text())


@pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(fname, argv, capsys):
    code = run(argv)
    assert code == 0
    assert masked(capsys.readouterr().out) == golden_text(fname)


# the verifiers whose verdicts must not rest on assert statements
OPTIMIZED_CASES = [
    c
    for c in CASES
    if c[1][0] in ("grass", "embres", "suite")
    or c[1][:2] in (["wflag", "verify"], ["wflag", "lift"], ["biflag", "verify"])
]


@pytest.mark.parametrize("fname,argv", OPTIMIZED_CASES, ids=[c[0] for c in OPTIMIZED_CASES])
def test_report_matches_golden_under_optimize(fname, argv):
    # python -O strips asserts, so every check must live in the report
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "schubres", *argv, "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert masked(proc.stdout) == golden_text(fname)


def test_golden_closed_count_matches_cell_decomposition():
    # independent oracle: the closed locus is the disjoint union of the
    # cells of all componentwise-smaller multi-indices
    import itertools

    from oracles import rank_filter

    from schubres.grassfib import make_frame

    cfg = make_frame(4, 2, (2, 4))
    closed = len(list(rank_filter(cfg, "closed")))
    total = 0
    for beta in itertools.combinations(range(1, 5), 2):
        if all(b <= c for b, c in zip(beta, (2, 4))):
            total += 2 ** sum(b - i for i, b in enumerate(beta, start=1))
    assert closed == total == 19
