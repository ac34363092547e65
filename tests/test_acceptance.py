"""Acceptance suite: every exit criterion at its stated tolerance.

The suite solves at band limit 32 (about 3 s of the test run on 2
vCPUs); leaves are shared between criteria.  One pass/fail line is
printed per criterion.
"""

import pytest

from cmclab.acceptance import AcceptanceSuite, run_acceptance
from cmclab.surfaces import SurfaceEmbedding


@pytest.fixture(scope="module")
def results():
    out = {r.index: r for r in run_acceptance(verbose=True)}
    return out


def _check(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_schwarzschild_oracle_equivalence(results):
    """m=1, sigma in {8,16,32}: concentric spheres matching the 1-D
    bisection root to relative 1e-8 at L=32, each solve under 10 s.

    The solve times are wall clock, so they sit outside the record."""
    r = results[1]
    _check(r)
    for row in r.details["leaves"]:
        assert row["rel_error"] <= 1e-8
        assert row["radial_spread"] <= 1e-8
    assert sorted(r.solve_seconds) == [8.0, 16.0, 32.0]
    for seconds in r.solve_seconds.values():
        assert seconds < 10.0
    assert "seconds" not in r.to_record()


def test_criterion_2_eigenvalue_law(results):
    """Three smallest-|lambda| eigenvalues within 10% of 6m/sigma^3 at
    sigma=32; the relative deviation shrinks at sigma=64."""
    r = results[2]
    _check(r)
    dev = r.details["relative_deviation"]
    assert dev[32.0] <= 0.10
    assert dev[64.0] < dev[32.0]


def test_criterion_3_evolution_law(results):
    """Synthetic data (B=1, delta=1, b=e1, eps=1): residual decay exponent
    >= 0.7 with fit residual < 0.1; time-symmetric control <= 1e-8."""
    r = results[3]
    _check(r)
    assert r.details["fitted_exponent"] >= 0.7
    assert r.details["fit_residual"] < 0.1
    assert r.details["time_symmetric_control"] <= 1e-8


def test_criterion_4_cmc_adm_center_equivalence(results):
    """Odd perturbation (A=0.1, eps=0.5): leaf-center/flux-formula gap
    decays with exponent >= 0.3 and is <= 1e-2 at the largest sigma."""
    r = results[4]
    _check(r)
    assert r.details["gap_exponent"] >= 0.3
    assert r.details["largest_sigma_gap"] <= 1e-2


def test_criterion_5_artificial_flow(results):
    """RK4 flow endpoint within 5e-2 relative of the solved center at
    sigma=32, shrinking at 64; step halving changes it by <= 1e-8."""
    r = results[5]
    _check(r)
    by_sigma = r.details["by_sigma"]
    assert by_sigma[32.0]["relative_gap"] <= 5e-2
    assert by_sigma[64.0]["relative_gap"] < by_sigma[32.0]["relative_gap"]
    assert r.details["step_halving_change"] <= 1e-8
    assert r.details["matching_kbar_variant"] == "definitional (gS - g)/2"


def test_criterion_6_equivariance_suite(results):
    """Translation by (5,0,0) shifts leaf centers, the centered-domain
    flux center, and the flow endpoint by exactly a within 1e-8."""
    r = results[6]
    _check(r)
    assert r.details["leaf_center_shift_error"] <= 1e-8
    assert r.details["adm_center_shift_error"] <= 1e-8
    assert r.details["artificial_flow_shift_error"] <= 1e-8


def test_criterion_7_almost_concentric_bound(results):
    """|z_sigma| / sigma^(1-eps) stays bounded without a growth trend."""
    r = results[7]
    _check(r)
    assert r.details["growth_exponent"] <= 0.6
    assert max(r.details["scaled_ratios"]) <= 5.0


def test_criterion_8_numerical_hygiene(results):
    """Round trip 1e-12, self-adjointness 1e-8, linearization order >= 0.9."""
    r = results[8]
    _check(r)
    assert r.details["spectral_roundtrip"] <= 1e-12
    assert r.details["self_adjointness"] <= 1e-8
    assert r.details["linearization_order"] >= 0.9


def test_linearization_order_sits_above_round_off(monkeypatch):
    """A one-ulp rescale of the bumped radii moves criterion 8's linearization order by < 1e-7."""
    suite = AcceptanceSuite()
    order = suite.criterion_8_numerical_hygiene()["linearization_order"]
    from_radial_values = SurfaceEmbedding.from_radial_values.__func__

    def rescaled(cls, grid, values, center=(0.0, 0.0, 0.0)):
        return from_radial_values(cls, grid, values * (1.0 + 2.2e-16), center)

    monkeypatch.setattr(SurfaceEmbedding, "from_radial_values", classmethod(rescaled))
    moved = suite.criterion_8_numerical_hygiene()["linearization_order"]
    assert abs(moved - order) < 1e-7
