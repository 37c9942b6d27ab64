"""The narrative demos run in-process: each exits cleanly and prints no False verdict."""

import re
import runpy
from fractions import Fraction
from pathlib import Path

from krallhahn.hahn import HahnParams, hahn_polynomial, hahn_weight
from krallhahn.measures import orthogonality_certificate
from krallhahn.rationals import format_rational

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_print_true_verdicts_and_hahn_norms(capsys):
    assert DEMOS
    printed = {}
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")
        printed[demo.stem] = capsys.readouterr().out
        assert not re.search(r"\bFalse\b", printed[demo.stem]), demo.name
    # hahn_basics prints the certificate's norms of h_0..h_4 and no nonorthogonal pair
    p = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
    norms, pairs = orthogonality_certificate(hahn_weight(p), [hahn_polynomial(n, p) for n in range(5)])
    assert pairs == [] and len(norms) == 5
    for n, norm in enumerate(norms):
        assert f"n = {n}: {format_rational(norm)}\n" in printed["hahn_basics"]
    assert "!= 0: []\n" in printed["hahn_basics"]
