"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from tentstab import density as D
from tentstab import experiments as E
from tentstab.cli import main as cli_main
from tentstab.geom2d import perimeter
from tentstab.maps import (
    TENT_T_MIN,
    NormConvention,
    certify,
    estimate_long_branches,
    make_tent2d,
    tent_power,
)

from conftest import LEFT_HALF, TRIANGLE_T, random_convex_polygon, random_grid_density

TAU = TENT_T_MIN
SHARP_SOBOLEV = 1.0 / (2.0 * math.sqrt(math.pi))

# densities produced along the way, revisited by the BV suite (criterion 8)
_PRODUCED: list = []


def _report(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_exact_invariance_at_t1():
    one = D.uniform_density(TRIANGLE_T)
    pushed = D.push_forward(make_tent2d(1.0), one)
    l1_err = D.l1_distance(pushed, one)
    assert l1_err <= 1e-9
    _PRODUCED.extend([one, pushed])
    worst = 0.0
    for res in (16, 32, 64):
        op = D.build_ulam(make_tent2d(1.0), res)
        vec = D.ulam_fixed(op, tol=1e-10)
        err = float(np.abs(vec.values - 1.0).max())
        assert err <= 1e-8, f"resolution {res}: max cell error {err}"
        worst = max(worst, err)
        _PRODUCED.append(D.density_from_vector(op.grid, vec))
    _report(1, f"pushforward L1 error {l1_err:.2e}, Ulam cell error <= {worst:.2e}")


def test_criterion_2_lyapunov_exponent():
    half_log2 = 0.5 * math.log(2.0)
    worst = 0.0
    for seed in (1, 7, 999):
        for n in (1, 3, 100, 5000):
            val = E.lyapunov_exponent(1.0, (0.37, 0.113), n, seed)
            worst = max(worst, abs(val - half_log2))
    assert worst <= 1e-9
    tau_expect = half_log2 + math.log(TAU)
    val_tau = E.lyapunov_exponent(TAU, (0.41, 0.12), 1000, 5)
    err_tau = abs(val_tau - tau_expect)
    assert err_tau <= 1e-9
    _report(
        2,
        f"t=1 worst error {worst:.2e} over seeds x n; "
        f"t=tau value {val_tau:.9f} (error {err_tau:.2e})",
    )


def test_criterion_3_certificate_reproduction():
    m3 = tent_power(TAU, 3)
    cert = certify(m3, NormConvention.PAPER_FORMULA)
    sigma_formula = 1.0 / (8.0 * TAU**3)
    beta_formula = math.sin(math.pi / 8.0)
    assert abs(cert.sigma_paper - sigma_formula) <= 1e-4
    assert abs(cert.beta - beta_formula) <= 1e-6
    report = estimate_long_branches(m3)
    assert len(report.per_branch) == 8
    for rec in report.per_branch:
        assert rec.theta_min_image >= math.pi / 4.0 - 1e-9
    assert cert.D == 0.0
    lam_formula = sigma_formula * (1.0 + 1.0 / beta_formula)
    assert abs(cert.lam - lam_formula) <= 1e-3
    assert cert.lam < 1.0
    assert cert.satisfied
    spectral = certify(m3, NormConvention.SPECTRAL)
    assert spectral.lam >= 1.0
    assert not spectral.satisfied
    _report(
        3,
        f"sigma={cert.sigma_paper:.6f} beta={cert.beta:.6f} D=0 "
        f"lambda={cert.lam:.5f}<1 (PaperFormula satisfied); "
        f"Spectral lambda={spectral.lam:.4f}>=1 not satisfied",
    )


def test_criterion_4_branch_combinatorics():
    slopes_seen = set()
    for t in (TAU, 0.9, 0.95, 1.0):
        for n in (1, 2, 3):
            mp = tent_power(t, n)
            assert len(mp.branches) == 2**n, f"t={t} n={n}"
            defect = abs(sum(b.domain.area for b in mp.branches) - 1.0)
            assert defect <= 1e-8
            for b in mp.branches:
                for a, bb in b.domain.edges():
                    dx, dy = bb[0] - a[0], bb[1] - a[1]
                    if abs(dx) <= 1e-9 * abs(dy):
                        slopes_seen.add("inf")
                        continue
                    s = dy / dx
                    closest = min((-1.0, 0.0, 1.0), key=lambda c: abs(s - c))
                    assert abs(s - closest) <= 1e-9, f"slope {s}"
                    slopes_seen.add(closest)
    _report(4, f"2^n branches for n<=3 at 4 parameters; edge slopes {sorted(map(str, slopes_seen))}")


def test_criterion_5_one_dimensional_oracle():
    res4 = E.tent1d_ulam(2.0, 4)
    expected = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
        ]
    )
    assert np.abs(res4.matrix - expected).max() <= 1e-12
    worst = 0.0
    for cells in (4, 64, 256):
        res = E.tent1d_ulam(2.0, cells)
        worst = max(worst, float(np.abs(res.fixed_density - 0.5).max()))
    assert worst <= 1e-8
    _report(5, f"4-cell matrix exact; uniform density error <= {worst:.2e}")


def test_criterion_6_statistical_stability_sweep():
    ts = [0.90, 0.925, 0.95, 0.975, 0.99]
    rows64 = E.stability_sweep(1.0, ts, 64)
    l1_64 = [r.l1_dist for r in rows64]
    assert all(a > b for a, b in zip(l1_64, l1_64[1:])), "not strictly decreasing"
    assert l1_64[-1] < l1_64[0] / 3.0
    rows128 = E.stability_sweep(1.0, ts, 128)
    rel_changes = [
        abs(b.l1_dist - a.l1_dist) / a.l1_dist for a, b in zip(rows64, rows128)
    ]
    assert max(rel_changes) < 0.25
    for t in (0.90, 0.99):
        op = D.build_ulam(make_tent2d(t), 64)
        vec = D.ulam_fixed(op, 1e-9)
        _PRODUCED.append(D.density_from_vector(op.grid, vec))
    _report(
        6,
        "l1 strictly decreasing "
        + "->".join(f"{v:.3f}" for v in l1_64)
        + f"; ratio {l1_64[-1] / l1_64[0]:.3f} < 1/3; "
        f"resolution-128 change <= {max(rel_changes) * 100:.1f}% < 25%",
    )


def test_criterion_7_operator_laws():
    rng = np.random.default_rng(7_2024)
    t_values = (TAU, 0.95, 1.0)
    count = 0
    worst_mass = worst_lin = worst_semi = 0.0
    densities = []
    for i in range(100):
        t = t_values[i % 3]
        n = int(rng.integers(2, 6))
        f = random_grid_density(rng, TRIANGLE_T, n)
        densities.append((t, f))
    for i, (t, f) in enumerate(densities):
        m = make_tent2d(t)
        pf = D.push_forward(m, f)
        worst_mass = max(worst_mass, abs(pf.mass() - f.mass()))
        assert all(v >= 0.0 for _, v in pf.cells), "positivity violated"
        if i % 3 == 0:
            _PRODUCED.append(pf)
        if i % 2 == 0:
            g = densities[(i + 1) % len(densities)][1]
            alpha, beta = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
            lhs = D.push_forward(m, D.add_scaled(f, alpha, g, beta))
            rhs = D.add_scaled(pf, alpha, D.push_forward(m, g), beta)
            worst_lin = max(worst_lin, D.l1_distance(lhs, rhs))
        if i % 4 == 0:
            m2 = tent_power(t, 2)
            once = D.push_forward(m2, f)
            twice = D.push_forward(m, pf)
            worst_semi = max(worst_semi, D.l1_distance(once, twice))
        count += 1
    assert count == 100
    assert worst_mass <= 1e-9
    assert worst_lin <= 1e-9
    assert worst_semi <= 1e-7
    _report(
        7,
        f"100 densities at 3 parameters: mass error <= {worst_mass:.2e}, "
        f"linearity <= {worst_lin:.2e}, semigroup <= {worst_semi:.2e}",
    )


def test_criterion_8_bounded_variation_suite():
    rng = np.random.default_rng(8_2024)
    worst_perim = 0.0
    for _ in range(50):
        q = random_convex_polygon(rng, inside=TRIANGLE_T)
        f = D.indicator_density(TRIANGLE_T, q, 1.0)
        worst_perim = max(worst_perim, abs(D.variation(f) - perimeter(q)))
        _PRODUCED.append(f)
    assert worst_perim <= 1e-8

    checked = 0
    worst_ratio = 0.0
    for f in _PRODUCED:
        v = D.variation(f)
        if v <= 1e-12:
            continue
        ratio = D.lp_norm(f, 2.0) / v
        worst_ratio = max(worst_ratio, ratio)
        checked += 1
    assert checked >= 50
    assert worst_ratio <= SHARP_SOBOLEV + 1e-9

    # variation growth under the certified cube operator stays under the cap
    worst_frac = 0.0
    for t in (TAU, 1.0):
        m = tent_power(t, 3)
        cert = certify(m, NormConvention.PAPER_FORMULA)
        for f0 in (
            D.uniform_density(TRIANGLE_T),
            D.indicator_density(TRIANGLE_T, LEFT_HALF, 2.0),
        ):
            rows = E.ly_check(m, f0, 4, cert)
            mass0 = D.lp_norm(f0, 1.0)
            cap = max(rows[0].variation_j, 4.0 * cert.K1 * mass0)
            for row in rows:
                assert row.variation_j <= cap
                worst_frac = max(worst_frac, row.variation_j / cap)
    _report(
        8,
        f"indicator variation = perimeter to {worst_perim:.1e} (50 polygons); "
        f"Sobolev ratio <= {worst_ratio:.5f} < {SHARP_SOBOLEV:.5f} "
        f"({checked} densities); variation growth <= {worst_frac:.3f} of cap",
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["verify", "--t", "0.9", "--power", "3"],
        ["density", "--t", "1.0", "--resolution", "16", "--format", "svg"],
        ["density", "--t", "0.95", "--resolution", "16"],
        [
            "sweep", "--t0", "1.0", "--tmin", "0.95", "--tmax", "0.99",
            "--steps", "2", "--resolution", "16",
        ],
        ["lycheck", "--t", "1.0", "--power", "3", "--jmax", "2"],
        ["orbit", "--t", "0.9", "--n", "1000", "--seed", "11"],
        ["oracle1d", "--a", "2.0", "--cells", "8"],
    ]
    for idx, args in enumerate(commands):
        first = tmp_path / f"{idx}_a.out"
        second = tmp_path / f"{idx}_b.out"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), args[0]
    _report(9, f"{len(commands)} commands re-ran byte-identically")
