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

# (d, T, H, flux): first 16 hex digits of sha256 of (CSV, SVG)
# The CSVs of the two split rows (d >= 3, curved rear) were re-recorded
# when the split moved to one equation in the shared multiplier: the
# terminal slopes moved in the last bits, within 1e-15 of the 50-digit
# references in test_references.test_split_matches_mpmath_references.
DIGESTS = {
    (2, 2.0, 1.0, "parallel"): ("0dddae57e61e20a0", "11536fda67e05bde"),
    (2, 2.0, 3.0, "parallel"): ("8b2541bf734a648b", "e9a659161633cb4b"),
    (2, 2.0, 1.0, "pair"): ("716f6bf361c7845d", "1275e8f6073cbb01"),
    (2, 2.0, 6.0, "pair"): ("a49e7bb615008953", "2e2423203c9acf84"),
    (3, 1.0, 0.4, "parallel"): ("9607b9401438d158", "7a0fb2e08d5fc8da"),
    (3, 1.0, 0.55, "parallel"): ("2ba51acf26cad591", "4a98e2c84a5c78ec"),
    (3, 1.0, 0.4, "pair"): ("ae10b8275c3de00f", "7a0fb2e08d5fc8da"),
    (3, 1.0, 0.8, "pair"): ("8514d817d4a7bf7f", "c482187e5c9a3b6f"),
    (4, 1.0, 0.25, "parallel"): ("2e9cf6c7f7b6fae4", "87baff5ed086d9c6"),
    (4, 1.0, 0.45, "parallel"): ("646f7cfd2ed152f0", "e044472a0cd84b44"),
    (4, 1.0, 0.2, "pair"): ("9fd53b9c2324f7d2", "2982f205758e5ca2"),
    (4, 1.0, 0.5, "pair"): ("7fbf50281d5f6364", "74a35d26a2c97691"),
}

# the d >= 3 rows at --samples 2048, recorded from the per-point lookups
# that the grid evaluation replaced
DIGESTS_2048 = {
    (3, 1.0, 0.4, "parallel"): ("fe820c0f929ae340", "935d23aed6694a1b"),
    (3, 1.0, 0.55, "parallel"): ("6af4d5c25793ecca", "5e4181bdccbea2d9"),
    (3, 1.0, 0.4, "pair"): ("67408265704afe62", "935d23aed6694a1b"),
    (3, 1.0, 0.8, "pair"): ("a5fed4090c0dedee", "b5e13f596e1527c3"),
    (4, 1.0, 0.25, "parallel"): ("9a07b33e97836ce7", "17bc1b4fabc1a56b"),
    (4, 1.0, 0.45, "parallel"): ("d73e4eb19b797542", "0e0e5cf2c19850c0"),
    (4, 1.0, 0.2, "pair"): ("6e7a81c3f44b206a", "28f6541f8e226434"),
    (4, 1.0, 0.5, "pair"): ("1057aa7a5585b37f", "0cc7acb1b5d24191"),
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("row", MATRIX, ids=lambda r: "-".join(map(str, r)))
def test_exports_match_recorded_digests(row):
    sol = solve(_spec_for(*row), n_samples=256)
    assert (_digest(profile_csv(sol, 256)),
            _digest(profile_svg(sol, 256))) == DIGESTS[row]


@pytest.mark.parametrize("row", tuple(DIGESTS_2048),
                         ids=lambda r: "-".join(map(str, r)))
def test_arc_exports_match_recorded_digests_at_2048_samples(row):
    sol = solve(_spec_for(*row), n_samples=2048)
    assert (_digest(profile_csv(sol, 2048)),
            _digest(profile_svg(sol, 2048))) == DIGESTS_2048[row]
