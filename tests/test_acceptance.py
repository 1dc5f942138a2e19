"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3's refinement clause is known-red: the ellipsoid
quadrature converges spectrally (6e-3 at 16^3 down to 1.4e-10 at 48^3) and
by 64^3 the remaining deviation, 2.1e-14 = 1.1e-15 relative, is nine orders
below the clause's own 1e-4 budget.  The 96^3 deviation cannot drop another
10x because float64 evaluation noise floors near 7e-15 (about 2 ulp of the
target) even under exactly rounded summation.  The assertion is kept
faithful rather than weakened.
"""

import numpy as np
import pytest

import curvint as cv
from curvint import cli
from curvint.manifold import geometry_batch
from curvint.quadrature import QuadratureGrid
from conftest import CATALOG_PAIRS, ambient_shape_data, domain_samples

VOL_S3 = 2.0 * np.pi**2
WORKERS = 8


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _verify(name, fname, nodes):
    surface = cv.get_surface(name)
    field = cv.get_field(fname, surface)
    grid = QuadratureGrid.build(surface, nodes)
    return cv.verify_integral_formula(surface, field, grid, workers=WORKERS)


@pytest.fixture(scope="module")
def sphere48():
    return _verify("sphere3", "hopf", 48)


@pytest.fixture(scope="module")
def torus96():
    return _verify("torus2", "theta", 96)


@pytest.fixture(scope="module")
def ellipsoid64():
    return _verify("ellipsoid3", "hopf", 64)


@pytest.fixture(scope="module")
def ellipsoid96():
    return _verify("ellipsoid3", "hopf", 96)


@pytest.fixture(scope="module")
def tube48():
    return _verify("tube-t3", "fiber", 48)


@pytest.fixture(scope="module")
def revs48():
    return _verify("revs1s2", "theta", 48)


def test_criterion_1_boxed_formula_even_case(sphere48):
    rep = sphere48
    by_k = {r.k: r for r in rep.rows}
    checks = [
        abs(by_k[0].integral - VOL_S3) <= 1e-6 * VOL_S3,
        abs(by_k[2].integral - VOL_S3) <= 1e-6 * VOL_S3,
        abs(by_k[1].integral) <= 1e-8 * rep.volume,
        rep.degree.rounded == 1,
        rep.degree.residual < 1e-6,
    ]
    report(1, all(checks),
           f"sphere3+hopf 48^3: eta0={by_k[0].integral:.12f} "
           f"eta2={by_k[2].integral:.12f} |eta1|={abs(by_k[1].integral):.2e} "
           f"d={rep.degree.rounded} residual={rep.degree.residual:.2e}")


def test_criterion_2_boxed_formula_odd_case(torus96):
    rep = torus96
    by_k = {r.k: r for r in rep.rows}
    bound = 1e-8 * rep.volume
    checks = [
        abs(by_k[0].integral) < bound,
        abs(by_k[1].integral) < bound,
        rep.degree.rounded == 0,
    ]
    report(2, all(checks),
           f"torus2+theta 96^2: |eta0|={abs(by_k[0].integral):.2e} "
           f"|eta1|={abs(by_k[1].integral):.2e} bound={bound:.2e} "
           f"d={rep.degree.rounded}")


def test_criterion_3_diffeomorphism_stress(ellipsoid64, ellipsoid96):
    dev64 = {r.k: r.abs_dev for r in ellipsoid64.rows}
    dev96 = {r.k: r.abs_dev for r in ellipsoid96.rows}
    base_ok = (
        ellipsoid64.degree.rounded == 1
        and dev64[0] <= 1e-4 * VOL_S3
        and dev64[2] <= 1e-4 * VOL_S3
    )
    shrink_ok = dev96[0] <= dev64[0] / 10 and dev96[2] <= dev64[2] / 10
    report(3, base_ok and shrink_ok,
           f"ellipsoid3+hopf: d={ellipsoid64.degree.rounded} "
           f"dev0(64^3)={dev64[0]:.2e} dev2(64^3)={dev64[2]:.2e} "
           f"(1e-4 rel bound {'ok' if base_ok else 'FAILED'}); "
           f"refinement dev0(96^3)={dev96[0]:.2e} dev2(96^3)={dev96[2]:.2e} "
           f"{'shrank >=10x' if shrink_ok else 'did not shrink 10x: 64^3 is already pure truncation at 1e-15 relative and 96^3 sits on the float64 evaluation-noise floor'}")


def test_criterion_4_degree_zero_even_dimensional(tube48, revs48):
    checks = []
    details = []
    for rep in (tube48, revs48):
        bound = 1e-5 * rep.volume
        checks.append(rep.degree.rounded == 0)
        checks.append(rep.degree.residual < 1e-4)
        checks.append(all(abs(r.integral) <= bound for r in rep.rows))
        worst = max(abs(r.integral) for r in rep.rows)
        details.append(f"{rep.surface_key}: d={rep.degree.rounded} "
                       f"resid={rep.degree.residual:.1e} worst|eta|={worst:.1e} "
                       f"bound={bound:.1e}")
    report(4, all(checks), "; ".join(details))


def test_criterion_5_polynomial_identity():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 4
        p = n + 1
        h = rng.uniform(-1.0, 1.0, (p, p))
        h = 0.5 * (h + h.T)
        cols = cv.ColumnSystem(H=h, V=rng.uniform(-1.0, 1.0, (p, n)))
        values = cv.eta_all(cols).values
        for t in (0.1, 0.5, 1.0, 2.0):
            _, det = cv.tilt_jacobian(cols, t)
            rhs = np.sqrt(1.0 + t * t) * sum(values[k] * t**k
                                             for k in range(n + 1))
            worst = max(worst, abs(det - rhs) / max(abs(det), abs(rhs), 1.0))
    identity_ok = worst < 1e-10

    worst_oracle = 0.0
    for n in (1, 2, 3):
        for _ in range(25):
            p = n + 1
            h = rng.uniform(-1.0, 1.0, (p, p))
            h = 0.5 * (h + h.T)
            cols = cv.ColumnSystem(H=h, V=rng.uniform(-1.0, 1.0, (p, n)))
            ts = 0.25 + 0.5 * np.arange(n + 1)
            samples = [cv.tilt_jacobian(cols, t)[1] / np.sqrt(1.0 + t * t)
                       for t in ts]
            coeffs = np.linalg.solve(np.vander(ts, n + 1, increasing=True),
                                     np.array(samples))
            worst_oracle = max(worst_oracle,
                               np.max(np.abs(coeffs - cv.eta_all(cols).values)))
    oracle_ok = worst_oracle < 1e-9
    report(5, identity_ok and oracle_ok,
           f"100 systems x 4 t-values: worst rel dev={worst:.2e} (<1e-10); "
           f"interpolation oracle n<=3: worst={worst_oracle:.2e} (<1e-9)")


def test_criterion_6_frame_and_normal_invariants():
    worst = {"unit_n": 0.0, "tangent_n": 0.0, "ortho": 0.0, "h_asym": 0.0,
             "dvv_v": 0.0, "dve_v": 0.0}
    for skey, fkey in CATALOG_PAIRS:
        surface = cv.get_surface(skey)
        field = cv.get_field(fkey, surface)
        U = domain_samples(surface, 100)
        geo = geometry_batch(surface, 0, U, second=False)
        worst["unit_n"] = max(worst["unit_n"], np.max(np.abs(
            np.linalg.norm(geo.normal, axis=1) - 1.0)))
        worst["tangent_n"] = max(worst["tangent_n"], np.max(np.abs(
            np.einsum("xq,xqa->xa", geo.normal, geo.jacobian))))
        batch = ambient_shape_data(surface, field, 0, U)
        vecs = np.concatenate([batch.frame.e, batch.frame.v[:, None, :]], axis=1)
        gram = np.einsum("xiq,xjq->xij", vecs, vecs)
        p = surface.dim
        worst["ortho"] = max(worst["ortho"], np.max(np.abs(gram - np.eye(p))))
        worst["h_asym"] = max(worst["h_asym"], float(np.max(batch.h_asymmetry)))
        worst["dvv_v"] = max(worst["dvv_v"], float(np.max(np.abs(batch.dv_v_dot_v))))
        worst["dve_v"] = max(worst["dve_v"], float(np.max(np.abs(batch.dv_e_dot_v))))
    ok = (worst["unit_n"] < 1e-10 and worst["tangent_n"] < 1e-10
          and worst["ortho"] < 1e-10 and worst["h_asym"] < 1e-8
          and worst["dvv_v"] < 1e-10 and worst["dve_v"] < 1e-10)
    report(6, ok, "100 points per pair: " +
           " ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_7_milnor_predicates(sphere48, tube48, revs48, torus96):
    cases = [
        ("sphere3", sphere48.degree.rounded, (1, 0, 0, 1), 2),
        ("tube-t3", tube48.degree.rounded, (1, 3, 3, 1), 8),
        ("revs1s2", revs48.degree.rounded, (1, 1, 1, 1), 4),
        ("torus2", torus96.degree.rounded, (1, 2, 1), 4),
    ]
    oks = []
    for name, d, betti, beta in cases:
        rep = cv.milnor_constraints(cv.MilnorInput(d=d, betti=betti))
        oks.append(rep.beta_sum == beta and rep.all_ok)
    failing = cv.milnor_constraints(cv.MilnorInput(d=3, betti=(1, 0, 0, 1)))
    oks.append(not failing.all_ok)
    report(7, all(oks),
           "computed degrees satisfy the constraints for "
           + ", ".join(f"{n}(d={d}, beta={b})" for n, d, _, b in cases)
           + "; deliberate violation (d=3, beta=2) detected")


def test_criterion_8_foliation_obstruction():
    sphere = cv.get_surface("sphere3")
    hopf = cv.get_field("hopf", sphere)
    rep_s = cv.foliation_obstruction_report(
        sphere, hopf, QuadratureGrid.build(sphere, 16), workers=WORKERS)
    tube = cv.get_surface("tube-t3")
    fiber = cv.get_field("fiber", tube)
    rep_t = cv.foliation_obstruction_report(
        tube, fiber, QuadratureGrid.build(tube, 16), workers=WORKERS)

    implication_ok = True
    for skey, fkey in CATALOG_PAIRS:
        surface = cv.get_surface(skey)
        field = cv.get_field(fkey, surface)
        rep = cv.foliation_obstruction_report(
            surface, field, QuadratureGrid.build(surface, 12), workers=WORKERS)
        implication_ok = implication_ok and rep.consistent

    checks = [
        abs(rep_s.max_defect - 2.0) <= 1e-6,
        not rep_s.integrable,
        rep_t.max_defect < 1e-8,
        rep_t.integrable,
        rep_t.max_rank == 2,
        implication_ok,
    ]
    report(8, all(checks),
           f"sphere3+hopf defect={rep_s.max_defect:.9f} (non-integrable); "
           f"tube-t3+fiber defect={rep_t.max_defect:.1e} rank={rep_t.max_rank} "
           f"(integrable); hypothesis=>d=0 consistent across catalog")


def test_criterion_9_byte_identical_reports(tmp_path):
    out1 = tmp_path / "workers1.json"
    out8 = tmp_path / "workers8.json"
    code1 = cli.main(["verify", "--surface", "sphere3", "--field", "hopf",
                      "--workers", "1", "--out", str(out1)])
    code8 = cli.main(["verify", "--surface", "sphere3", "--field", "hopf",
                      "--workers", "8", "--out", str(out8)])
    identical = out1.read_bytes() == out8.read_bytes()
    report(9, code1 == 0 and code8 == 0 and identical,
           f"verify sphere3+hopf at default grid: exit codes ({code1}, {code8}), "
           f"reports byte-identical={identical}")
