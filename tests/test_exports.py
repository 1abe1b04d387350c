"""Export bytes pinned by digest on the 12-instance acceptance matrix.

`profile_csv` and `profile_svg` at 256 samples are hashed and compared
with digests recorded from the released exports.  The d >= 3 rows are
also pinned at 2048 samples, where the arcs hold most of the grid.
Reruns are compared elsewhere (`test_cli.test_determinism_byte_identical`);
this test is the one that notices when a change to the solvers or the
profile model moves an exported byte.  A deliberate change of output
updates these digests in the same commit and says so.  Float formatting
is repr, so the digests hold on any IEEE-754 platform whose libm agrees
to the last bit.
"""

import hashlib

import pytest

from minres import solve
from minres.render import profile_csv, profile_svg
from test_acceptance import MATRIX, _spec_for

# (d, T, H, flux): first 16 hex digits of sha256 of (CSV, SVG);
# `python tests/test_exports.py` prints both tables as the exports hash now.
# The d >= 3 rows here and at 2048 samples were last re-recorded when arc
# nodes moved from geometric to uniform spacing in slope: on the 257
# uniform CSV rows of the four parallel d >= 3 rows, the exported x_front
# now lies within 5.4e-7 of the closed-form bodies of minres.classical
# (1.75e-4 before), and test_classical holds every arc sample to them.
# The first d = 2 row last moved when u0 became one bracketed root of
# the stationarity function, by at most 1.5e-15 per exported value;
# test_references.test_criticals_match_mpmath_references holds u0, B and
# u_bar to the 1e-12 root tolerance.  The CSV of the d = 3 split row
# (3, 1.0, 0.8, "pair"), at both sample counts, last moved when the split
# root was bracketed from u0_minus instead of inside the rear height
# inversion, by a few ulps per value; its SVG did not move, and
# test_references.test_split_matches_mpmath_references holds the split
# to its 50-digit roots.
DIGESTS = {
    (2, 2.0, 1.0, "parallel"): ("d96ad5b9cf7775a8", "84afa565d3ff3e2f"),
    (2, 2.0, 3.0, "parallel"): ("8b2541bf734a648b", "e9a659161633cb4b"),
    (2, 2.0, 1.0, "pair"): ("716f6bf361c7845d", "1275e8f6073cbb01"),
    (2, 2.0, 6.0, "pair"): ("a49e7bb615008953", "2e2423203c9acf84"),
    (3, 1.0, 0.4, "parallel"): ("798a081718d14a80", "69c93b8fe3581568"),
    (3, 1.0, 0.55, "parallel"): ("e2a667348dc60818", "cd4d3c2bbb63d400"),
    (3, 1.0, 0.4, "pair"): ("1f026b87e1e38334", "69c93b8fe3581568"),
    (3, 1.0, 0.8, "pair"): ("e8537a08d63132c1", "e4857165bc641c59"),
    (4, 1.0, 0.25, "parallel"): ("57e309b8bb41a5ea", "43bb4fbd8e203748"),
    (4, 1.0, 0.45, "parallel"): ("a4edf35033d35c73", "9639142a6db12b05"),
    (4, 1.0, 0.2, "pair"): ("e2b27b86633b3749", "639691934428acea"),
    (4, 1.0, 0.5, "pair"): ("c2cec236d06316b4", "3e3181510adb9cd0"),
}

# the d >= 3 rows at --samples 2048, where the arcs hold most of the grid
DIGESTS_2048 = {
    (3, 1.0, 0.4, "parallel"): ("29caf428e4ab6df5", "f56e6984b74fdea0"),
    (3, 1.0, 0.55, "parallel"): ("96bca2a62dba9de4", "56d435871bbbdc98"),
    (3, 1.0, 0.4, "pair"): ("c0150d93a06baa96", "f56e6984b74fdea0"),
    (3, 1.0, 0.8, "pair"): ("e9ce5c8f43a56d56", "867a912ecd2d0283"),
    (4, 1.0, 0.25, "parallel"): ("a44523d05300ae58", "2abbdfe5ac8d9c54"),
    (4, 1.0, 0.45, "parallel"): ("08d9a8bcb59da8f6", "1631951f744d8503"),
    (4, 1.0, 0.2, "pair"): ("40edfa1f0dcd4848", "32cfb2b3a969c257"),
    (4, 1.0, 0.5, "pair"): ("5dc36ddc2d4bd9da", "b389a7db2e0a0adc"),
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _exports_digest(row, n):
    sol = solve(_spec_for(*row), n_samples=n)
    return _digest(profile_csv(sol, n)), _digest(profile_svg(sol, n))


@pytest.mark.parametrize("row", MATRIX, ids=lambda r: "-".join(map(str, r)))
def test_exports_match_recorded_digests(row):
    assert _exports_digest(row, 256) == DIGESTS[row]


@pytest.mark.parametrize("row", tuple(DIGESTS_2048),
                         ids=lambda r: "-".join(map(str, r)))
def test_arc_exports_match_recorded_digests_at_2048_samples(row):
    assert _exports_digest(row, 2048) == DIGESTS_2048[row]


if __name__ == "__main__":
    # print both tables as the exports hash now, to paste over the ones
    # above after a deliberate change of output
    for name, rows, n in (("DIGESTS", MATRIX, 256),
                          ("DIGESTS_2048", DIGESTS_2048, 2048)):
        print(f"{name} = {{")
        for d, T, H, flux in rows:
            csv, svg = _exports_digest((d, T, H, flux), n)
            print(f'    ({d}, {T!r}, {H!r}, "{flux}"): ("{csv}", "{svg}"),')
        print("}")
