"""Tent family construction, powers, and condition certification."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import geometry_oracle
from geometry_oracle import box
from tentstab import geom2d, maps
from tentstab.errors import CellExplosion, NotOctilinear, OutsideRegion, ParameterOutOfRange
from tentstab.experiments import seeded_start
from tentstab.geom2d import (
    EPS_AREA,
    AffineMap2,
    ConvexPolygon,
    Matrix2,
    affine_image,
    intersect,
    matrix_norms,
    snap_key,
)
from tentstab.maps import (
    TENT_T_MIN,
    Branch,
    BranchGeometry,
    NormConvention,
    PiecewiseMap,
    apply,
    certify,
    estimate_long_branches,
    make_tent2d,
    power,
    tent_power,
    verify_distortion,
    verify_expansion,
)


TAU = TENT_T_MIN
BETA_OCTANT = math.sin(math.pi / 8.0)


class TestMakeTent2d:
    def test_t1_jacobians(self):
        m = make_tent2d(1.0)
        assert len(m.branches) == 2
        for b in m.branches:
            assert b.jacobian_abs == pytest.approx(2.0, abs=1e-15)
            assert b.jacobian_abs == abs(b.map.linear.det())

    def test_tau_jacobian(self):
        m = make_tent2d(TAU)
        assert m.branches[0].jacobian_abs == pytest.approx(2.0 * TAU * TAU, abs=1e-15)

    def test_right_corner_maps_to_origin(self):
        m = make_tent2d(0.7)
        img = apply(m, (2.0, 0.0))
        assert img.x == pytest.approx(0.0, abs=1e-12)
        assert img.y == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, math.inf])
    def test_bad_parameter(self, t):
        with pytest.raises(ParameterOutOfRange):
            make_tent2d(t)

    def test_branch_images_inside_region(self):
        for t in (TAU, 0.9, 1.0):
            m = make_tent2d(t)
            for b in m.branches:
                img = maps.affine_image(b.map, b.domain)
                assert intersect(img, m.region).area == pytest.approx(
                    img.area, abs=1e-10
                )


class TestApply:
    def test_critical_line_tie_breaks_to_first_branch(self):
        m = make_tent2d(1.0)
        img = apply(m, (1.0, 0.0))
        assert (img.x, img.y) == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_origin_fixed(self):
        for t in (TAU, 0.9, 1.0):
            img = apply(make_tent2d(t), (0.0, 0.0))
            assert (img.x, img.y) == (0.0, 0.0)

    def test_second_branch(self):
        img = apply(make_tent2d(1.0), (1.5, 0.5))
        assert (img.x, img.y) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_outside_region_raises(self):
        with pytest.raises(OutsideRegion):
            apply(make_tent2d(1.0), (1.5, 1.5))

    @pytest.mark.parametrize("p", [(math.nan, 0.2), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_point_raises(self, p):
        with pytest.raises(OutsideRegion):
            apply(make_tent2d(0.9), p)

    def test_point_in_no_branch_domain_raises(self):
        m = make_tent2d(0.9)
        left_only = PiecewiseMap(m.region, m.branches[:1])
        with pytest.raises(OutsideRegion, match="in no branch domain"):
            apply(left_only, (1.5, 0.2))


class TestPower:
    # Branch counts at powers 1..8, as the clipping pullback found them.
    @pytest.mark.parametrize(
        "t, counts",
        [
            (TAU, (2, 4, 8, 16, 32, 64, 124, 224)),
            (0.9, (2, 4, 8, 16, 32, 64, 128, 242)),
            (0.95, (2, 4, 8, 16, 32, 64, 128, 256)),
            (0.99999, (2, 4, 8, 16, 32, 64, 128, 256)),
            (1.0, (2, 4, 8, 16, 32, 64, 128, 256)),
            (1.0 - 1.3e-9, (2, 4, 8, 16, 32, 64, 128, 256)),
        ],
    )
    def test_branch_counts(self, t, counts):
        m = make_tent2d(t)
        assert tuple(len(power(m, n).branches) for n in range(1, 9)) == counts

    def test_cube_has_eight_branches_across_the_expanding_range(self):
        # TENT_T_MIN does not bound the cube's branch count: it has 8
        # branches at 60 points of [0.7072, 1], all with sqrt(2) t > 1,
        # and 4 at t = 0.70, below the expanding range.
        ts = np.linspace(0.7072, 1.0, 60)
        assert {len(tent_power(float(t), 3).branches) for t in ts} == {8}
        assert len(tent_power(0.70, 3).branches) == 4

    @pytest.mark.parametrize("t", [TAU, 0.9, 0.95, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partition_closure(self, t, n):
        mp = tent_power(t, n)
        total = sum(b.domain.area for b in mp.branches)
        assert abs(total - 1.0) <= 1e-8
        doms = [b.domain for b in mp.branches]
        for i in range(len(doms)):
            bi = geometry_oracle.bbox(doms[i])
            for j in range(i + 1, len(doms)):
                bj = geometry_oracle.bbox(doms[j])
                if bi[0] > bj[2] or bi[2] < bj[0] or bi[1] > bj[3] or bi[3] < bj[1]:
                    continue
                assert intersect(doms[i], doms[j]).area <= EPS_AREA

    def test_conjugated_application(self, rng):
        m1 = make_tent2d(0.9)
        m3 = tent_power(0.9, 3)
        checked = 0
        for _ in range(10000):
            p = seeded_start(0.9, int(rng.integers(2**31)))
            if not any(br.domain.contains(p, -1e-6) for br in m3.branches):
                continue
            checked += 1
            q_pow = apply(m3, p)
            q_it = p
            for _ in range(3):
                q_it = apply(m1, q_it)
            assert math.hypot(q_pow.x - q_it.x, q_pow.y - q_it.y) <= 1e-7
        assert checked > 9000

    @pytest.mark.parametrize("t", [TAU, 0.95, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conformality(self, t, n):
        expected = (math.sqrt(2.0) * t) ** n
        for b in tent_power(t, n).branches:
            norms = matrix_norms(b.map.linear)
            smax = norms["spectral"]
            smin = abs(norms["det"]) / smax
            assert smax == pytest.approx(expected, abs=1e-12)
            assert smin == pytest.approx(expected, abs=1e-12)

    def test_power_zero_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="power must be >= 1"):
            power(make_tent2d(0.9), 0)

    def test_power_one_is_identity(self):
        m = make_tent2d(0.9)
        assert power(m, 1) is m

    def test_parameter_and_power_are_keyword_only(self):
        m = tent_power(0.9, 3)
        assert (m.param_t, m.power) == (0.9, 3)
        with pytest.raises(TypeError):
            PiecewiseMap(m.region, m.branches, 0.9)

    @pytest.mark.parametrize("n", [20, 40, 10**9])
    def test_branch_budget_checked_before_composing(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(CellExplosion, match=f"power {n} of a map with 2 branches"):
                tent_power(0.9, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestOctagonPullback:
    """maps.power pulls the domains back on geom2d's octagon bounds."""

    def test_power_clips_and_merges_nothing(self, monkeypatch):
        calls = []
        for name in ("intersect", "_clip_verts", "_dedup"):
            real = getattr(geom2d, name)

            def counting(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(geom2d, name, counting)
            monkeypatch.setattr(maps, name, counting, raising=False)
        for t in (TAU, 0.9, 1.0 - 1.3e-9):
            m = make_tent2d(t)
            calls.clear()
            assert len(power(m, 6).branches) == 64
            assert calls == []

    def test_a_fold_is_rejected_before_composing(self, monkeypatch):
        # the unit square folded at x = 1/2: diag(2, -1) sends x + y to
        # 2x - y, which is none of the four directions
        flip_y = AffineMap2(Matrix2(2.0, 0.0, 0.0, -1.0), (0.0, 1.0))
        flip_x = AffineMap2(Matrix2(-2.0, 0.0, 0.0, 1.0), (2.0, 0.0))
        branches = (
            Branch(box(0.0, 0.0, 0.5, 1.0), flip_y, 2.0),
            Branch(box(0.5, 0.0, 1.0, 1.0), flip_x, 2.0),
        )
        m = PiecewiseMap(box(0.0, 0.0, 1.0, 1.0), branches)

        def no_compose(self, inner):
            raise AssertionError("composed before the check")

        monkeypatch.setattr(AffineMap2, "compose", no_compose)
        with pytest.raises(NotOctilinear, match="linear part"):
            power(m, 2)

    def test_a_tilted_domain_is_rejected(self):
        tilted = ConvexPolygon(((0.0, 0.0), (1.0, 0.2), (0.2, 1.0)))
        identity = AffineMap2(Matrix2(1.0, 0.0, 0.0, 1.0), (0.0, 0.0))
        m = PiecewiseMap(tilted, (Branch(tilted, identity, 1.0),))
        with pytest.raises(NotOctilinear, match="branch domain 0"):
            power(m, 2)

    # |beta - sin(pi/8)| of the clipping pullback at powers 3 and 5, which
    # merged vertices of the domains near t = 1 (it read up to 1.2e-9 and
    # 1.8e-9 at powers 4 and 6).  Octagon bounds keep every angle a
    # multiple of pi/4; at powers 3 and 5 geom2d._vertices still moves
    # vertices by up to EPS_GEOM (ROADMAP item 9).
    @pytest.mark.parametrize(
        "t, clipped_3, clipped_5",
        [
            (1.0 - 1e-9, 4.6193981972919573e-10, 9.238796394583915e-10),
            (1.0 - 1.3e-9, 6.005217989546452e-10, 1.2010435423981392e-09),
            (1.0 - 1e-6, 1.6653345369377348e-16, 3.885780586188048e-16),
        ],
    )
    def test_beta_near_t1(self, t, clipped_3, clipped_5):
        for k in (4, 6):
            assert abs(certify(tent_power(t, k)).beta - BETA_OCTANT) <= 1e-15
        for k, clipped in ((3, clipped_3), (5, clipped_5)):
            assert abs(certify(tent_power(t, k)).beta - BETA_OCTANT) <= clipped

    # (beta, rho) of the clipping pullback's domains
    CERTIFIED = {
        (TAU, 3): (0.38268343236508967, 0.052194413235048476),
        (TAU, 6): (0.38268343236508895, 0.004992455440749888),
        (TAU, 8): (0.3826834323650856, 0.00321311562955362),
        (0.9, 3): (0.3826834323650895, 0.056047467797635864),
        (0.9, 6): (0.3826834323650891, 0.008045910278614954),
        (0.9, 8): (0.3826834323650062, 7.38280055594398e-05),
        (0.95, 3): (0.3826834323650896, 0.065312753779731),
        (0.95, 6): (0.3826834323650889, 0.016819559929559136),
        (0.95, 8): (0.38268343236508817, 0.0018983177350862523),
        (1.0, 3): (0.3826834323650898, 0.07322330470336302),
        (1.0, 6): (0.3826834323650898, 0.025888347648318266),
        (1.0, 8): (0.3826834323650898, 0.012944173824159022),
    }

    @pytest.mark.parametrize("key", list(CERTIFIED), ids=str)
    def test_certificates_pinned(self, key):
        beta, rho = self.CERTIFIED[key]
        cert = certify(tent_power(*key))
        assert cert.beta == pytest.approx(beta, rel=1e-12)
        assert cert.rho == pytest.approx(rho, rel=1e-12)


class TestExpansion:
    def test_cube_at_t1(self):
        rep = verify_expansion(tent_power(1.0, 3))
        assert rep.sigma_spectral == pytest.approx(2.0**-1.5, abs=1e-14)
        # Max entry of the composed inverse is 1/(4 t^3): two-fold products
        # of the branch inverses are 2x(signed permutation), so the triple
        # products have every entry of magnitude 2 / (2t)^3.
        assert rep.sigma_max_entry == pytest.approx(0.25, abs=1e-14)

    def test_cube_at_tau(self):
        cert = certify(tent_power(TAU, 3))
        assert cert.sigma_paper == pytest.approx(1.0 / (8.0 * TAU**3), abs=1e-14)
        assert cert.sigma_spectral == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0) * TAU**3), abs=1e-12
        )

    def test_distortion_is_zero(self):
        for t in (TAU, 1.0):
            assert verify_distortion(tent_power(t, 3)) == 0.0
            assert verify_distortion(make_tent2d(t)) == 0.0


class TestLongBranches:
    def test_unit_square_identity_branch(self):
        square = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        ident = AffineMap2(Matrix2(1.0, 0.0, 0.0, 1.0), (0.0, 0.0))
        m = PiecewiseMap(square, (Branch(square, ident, 1.0),))
        rep = estimate_long_branches(m)
        assert rep.beta == pytest.approx(math.sin(math.pi / 4.0), abs=1e-12)
        assert rep.rho == pytest.approx(0.25, abs=1e-9)

    def test_tent_first_power(self):
        rep = estimate_long_branches(make_tent2d(1.0))
        assert rep.beta == pytest.approx(BETA_OCTANT, abs=1e-12)

    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    def test_cube_angles(self, t):
        rep = estimate_long_branches(tent_power(t, 3))
        for rec in rep.per_branch:
            assert rec.theta_min_domain >= math.pi / 4.0 - 1e-9
            assert rec.theta_min_image >= math.pi / 4.0 - 1e-9
        assert rep.beta == pytest.approx(BETA_OCTANT, abs=1e-6)

    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0 - 1.3e-9, 1.0])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_batch_matches_the_per_polygon_loops(self, t, k):
        # Every domain and image of the power, mapped and measured one
        # polygon at a time by the loops the batch replaced.
        m = tent_power(t, k)
        want = []
        for i, b in enumerate(m.branches):
            dom, img = b.domain, geometry_oracle.affine_image(b.map, b.domain)
            assert (affine_image(b.map, dom).vertices, affine_image(b.map, dom).area) == (img.vertices, img.area)
            angles = [geometry_oracle.min_interior_angle(p) for p in (dom, img)]
            radii = [geometry_oracle.inradius(p) for p in (dom, img)]
            beta, rho = math.sin(min(angles) / 2.0), min(radii) / 2.0
            want.append(BranchGeometry(i, *angles, *radii, beta, rho))
        got = estimate_long_branches(m).per_branch
        assert [[float.hex(float(v)) for v in g] for g in got] == [
            [float.hex(float(v)) for v in w] for w in want
        ]

    def test_batch_in_chunks_matches_one_batch(self, monkeypatch):
        # 64 branches, 128 polygons: one batch, then batches of 7.
        m = tent_power(0.9, 6)
        want = estimate_long_branches(m)
        monkeypatch.setattr(geom2d, "OVERLAY_CHUNK", 7)
        assert estimate_long_branches(m) == want


class TestCertify:
    def test_map_without_parameter_rejected(self):
        m = tent_power(0.9, 3)
        with pytest.raises(ParameterOutOfRange, match="tent-family parameter"):
            certify(PiecewiseMap(m.region, m.branches))

    def test_paper_formula_at_tau(self):
        cert = certify(tent_power(TAU, 3), NormConvention.PAPER_FORMULA)
        sigma = 1.0 / (8.0 * TAU**3)
        lam = sigma * (1.0 + 1.0 / BETA_OCTANT)
        assert cert.lam == pytest.approx(lam, rel=1e-9)
        assert cert.lam < 1.0
        assert cert.satisfied
        assert cert.K == pytest.approx(1.0 / (cert.beta * cert.rho), rel=1e-12)
        assert cert.K1 == pytest.approx(cert.K / (1.0 - cert.lam), rel=1e-12)

    def test_paper_formula_at_one(self):
        cert = certify(tent_power(1.0, 3))
        assert cert.lam == pytest.approx(0.125 * (1.0 + 1.0 / BETA_OCTANT), rel=1e-9)
        assert cert.satisfied

    def test_spectral_at_tau_fails(self):
        cert = certify(tent_power(TAU, 3), NormConvention.SPECTRAL)
        assert cert.lam >= 1.0
        assert not cert.satisfied
        assert math.isinf(cert.K1)

    def test_lambda_monotone_in_t(self):
        lams = [
            certify(tent_power(t, 3)).lam
            for t in np.linspace(TAU, 1.0, 7)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))

    def test_higher_power_certifies_spectrally(self):
        # Spectral contraction per step is 1/(sqrt(2) t) < 1, so a high
        # enough power beats the 1 + 1/beta factor even at the left edge.
        cert = certify(tent_power(TAU, 6), NormConvention.SPECTRAL)
        assert cert.lam < 1.0
        assert cert.satisfied

    def test_json_keys_and_values(self):
        cert = certify(tent_power(TAU, 3))
        data = json.loads(cert.to_json())
        assert list(data.keys()) == [
            "t",
            "power",
            "sigma_spectral",
            "sigma_max_entry",
            "sigma_paper",
            "D",
            "beta",
            "rho",
            "lambda",
            "K",
            "K1",
            "norm_convention",
            "satisfied",
        ]
        assert data["t"] == pytest.approx(TAU, abs=1e-15)
        assert data["power"] == 3
        assert data["lambda"] == pytest.approx(cert.lam, rel=1e-15)
        assert data["norm_convention"] == "PaperFormula"
        assert data["satisfied"] is True

    def test_json_infinity_for_unsatisfied(self):
        cert = certify(tent_power(TAU, 3), NormConvention.SPECTRAL)
        data = json.loads(cert.to_json())
        assert data["satisfied"] is False
        assert math.isinf(data["K1"])


def test_region_keys_shared_by_powers():
    m = make_tent2d(0.93)
    m2 = power(m, 2)
    assert {snap_key(v) for v in m.region.vertices} == {
        snap_key(v) for v in m2.region.vertices
    }
