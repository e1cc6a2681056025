"""Self-verification suite behind the ``vdw verify`` subcommand.

The fast level exercises the exact-coefficient expansion against
independently assembled reference polynomials, the closed-form/expectation
route agreements, the parity selection rule, and the normal-mode residual
law.  The full level adds the quadrature and diagonalization oracles,
including the sign-flip check in one dimension.  Every check returns a
measured detail string so failures are actionable.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import drude_exact, kernels, multipole, oracle, perturbation, potential
from .atoms import DrudeAtom, NumericRadialAtom, RingAtom

FIRST_ORDER_RTOL = 1e-12
SECOND_ORDER_RTOL = 1e-12
PARITY_TOL = 1e-14
ORACLE_TRUNCATED_RTOL = 1e-8
SIGN_FLIP_WINDOW = 0.15


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _pmul(p, q):
    out = {}
    for (ea, eb), cp in p.items():
        for (fa, fb), cq in q.items():
            key = (
                tuple(x + y for x, y in zip(ea, fa)),
                tuple(x + y for x, y in zip(eb, fb)),
            )
            out[key] = out.get(key, Fraction(0)) + cp * cq
    return {k: v for k, v in out.items() if v != 0}


def _padd(*polys):
    out = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def _pscale(p, s):
    s = Fraction(s)
    return {k: c * s for k, c in p.items() if c * s != 0}


def _reference_brackets():
    """Orders 3-5 of the coupling for d = 3, assembled from dot-product algebra.

    Built directly from the structured forms (r_a . r_b), |r_a|^2, x_a, ...
    rather than the kernel Taylor machinery, as an independent reference.
    """
    zero = (0, 0, 0)
    one = Fraction(1)
    xa = {((1, 0, 0), zero): one}
    xb = {(zero, (1, 0, 0)): one}
    dot = {}
    ra2 = {}
    rb2 = {}
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        e2 = tuple(2 if j == i else 0 for j in range(3))
        dot[(e, e)] = one
        ra2[(e2, zero)] = one
        rb2[(zero, e2)] = one

    n3 = _padd(dot, _pscale(_pmul(xa, xb), -3))
    n4 = _padd(
        _pscale(_pmul(dot, _padd(xa, _pscale(xb, -1))), 3),
        _pscale(_padd(_pmul(ra2, xb), _pscale(_pmul(rb2, xa), -1)), Fraction(3, 2)),
        _pscale(
            _pmul(_pmul(xa, xb), _padd(xb, _pscale(xa, -1))), Fraction(15, 2)
        ),
    )
    xa2 = _pmul(xa, xa)
    xb2 = _pmul(xb, xb)
    xaxb = _pmul(xa, xb)
    n5 = _padd(
        _pscale(
            _pmul(dot, _padd(dot, _pscale(ra2, -1), _pscale(rb2, -1))),
            Fraction(3, 2),
        ),
        _pscale(_pmul(ra2, rb2), Fraction(3, 4)),
        _pscale(
            _padd(
                _pscale(_pmul(dot, xa2), 2),
                _pscale(_pmul(dot, xb2), 2),
                _pscale(_pmul(ra2, xb2), -1),
                _pscale(_pmul(rb2, xa2), -1),
                _pscale(_pmul(ra2, xaxb), 2),
                _pscale(_pmul(rb2, xaxb), 2),
                _pscale(_pmul(dot, xaxb), -4),
            ),
            Fraction(15, 4),
        ),
        _pscale(
            _padd(
                _pscale(_pmul(xa2, xb2), 3),
                _pscale(_pmul(_pmul(xa2, xa), xb), -2),
                _pscale(_pmul(_pmul(xb2, xb), xa), -2),
            ),
            Fraction(35, 4),
        ),
    )
    return {3: n3, 4: n4, 5: n5}


def _series_as_poly(series, power):
    return {
        (m.exp_a, m.exp_b): m.coeff for m in series.terms.get(power, ())
    }


def _check(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _golden_checks():
    series = multipole.expand_interaction(3, 5)
    ref = _reference_brackets()
    out = []
    for n in (3, 4, 5):
        got = _series_as_poly(series, n)
        ok = got == ref[n]
        out.append(
            _check(
                f"golden-expansion-order-{n}",
                ok,
                f"{len(got)} monomials, exact match: {ok}",
            )
        )
    return out


def _structure_checks():
    out = []
    for dim in (1, 2, 3):
        series = multipole.expand_interaction(dim, 9)
        powers = sorted(series.terms)
        neutral = all(p >= 3 for p in powers)
        homogeneous = all(
            sum(m.exp_a) + sum(m.exp_b) == p - 1
            for p in powers
            for m in series.terms[p]
        )
        bilateral = all(
            sum(m.exp_a) >= 1 and sum(m.exp_b) >= 1
            for p in powers
            for m in series.terms[p]
        )
        relabel = all(
            m.coeff
            == (-1) ** (p - 1) * series.coefficient(p, m.exp_b, m.exp_a)
            for p in powers
            for m in series.terms[p]
        )
        out.append(
            _check(
                f"expansion-structure-d{dim}",
                neutral and homogeneous and bilateral and relabel,
                f"powers {powers[0]}..{powers[-1]}, "
                f"{series.monomial_count()} monomials",
            )
        )
    return out


def _series_consistency_check():
    series = multipole.expand_interaction(2, 5)
    report = kernels.truncation_residual(
        series, np.geomspace(10.0, 100.0, 8), sample_count=200, radius=0.1, seed=7
    )
    ok = report.fitted_exponent >= 5.9
    return [
        _check(
            "series-kernel-decay",
            ok,
            f"fitted residual exponent {report.fitted_exponent:.2f} (want >= 5.9)",
        )
    ]


def _roundtrip_check():
    series = multipole.expand_interaction(2, 6)
    back = multipole.InteractionSeries.from_dict(series.to_dict())
    ok = back == series
    return [_check("series-json-roundtrip", ok, f"equal after roundtrip: {ok}")]


def _first_order_checks():
    out = []
    R = 10.0
    series7 = {d: multipole.expand_interaction(d, 7) for d in (1, 2, 3)}
    worst5 = 0.0
    worst7 = 0.0
    for d in (1, 2, 3):
        atom = DrudeAtom.bohr_matched(d)
        by_power = perturbation.first_order_expectation(
            series7[d], atom, atom, R
        )
        r5, r7 = drude_exact.first_order_closed_form(d, atom.a, 3.0, 1.0, R)
        worst5 = max(worst5, _rel_or_abs(by_power[5], r5))
        worst7 = max(worst7, _rel_or_abs(by_power[7], r7))
        if by_power[3] != 0.0 or by_power[4] != 0.0 or by_power[6] != 0.0:
            worst5 = math.inf
    out.append(
        _check(
            "first-order-route-agreement",
            worst5 <= FIRST_ORDER_RTOL,
            f"max relative gap {worst5:.2e} at R^-5 (want <= {FIRST_ORDER_RTOL:g})",
        )
    )
    out.append(
        _check(
            "first-order-r7-agreement",
            worst7 <= FIRST_ORDER_RTOL,
            f"max relative gap {worst7:.2e} at R^-7",
        )
    )

    ring = RingAtom(2, radius=1.0)
    got = perturbation.first_order_expectation(series7[2], ring, ring, R)[5]
    want = 3.0 * 1.0 * 3.0 / 4.0 * ring.characteristic_length() ** 4 / R**5
    gap = _rel_or_abs(got, want)
    out.append(
        _check(
            "first-order-ring",
            gap <= FIRST_ORDER_RTOL,
            f"ring d=2 coefficient gap {gap:.2e}",
        )
    )

    worst = 0.0
    for d in (1, 2, 3):
        atom = DrudeAtom.bohr_matched(d)
        v5, v7 = perturbation.first_order_via_potential(atom, atom, R)
        r5, r7 = drude_exact.first_order_closed_form(d, atom.a, 3.0, 1.0, R)
        worst = max(worst, _rel_or_abs(v5, r5), _rel_or_abs(v7, r7))
    out.append(
        _check(
            "first-order-potential-route",
            worst <= 1e-11,
            f"max relative gap {worst:.2e} across d = 1, 2, 3",
        )
    )
    return out


def _rel_or_abs(got, want):
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def _second_order_checks():
    out = []
    R = 8.0
    worst = 0.0
    saturated = True
    for d in (1, 2, 3):
        atom = DrudeAtom.bohr_matched(d)
        series = multipole.expand_interaction(d, 3)
        got1 = perturbation.second_order_sum(series, atom, atom, R, cutoff=1)
        got5 = perturbation.second_order_sum(series, atom, atom, R, cutoff=5)
        want = drude_exact.second_order_drude_closed_form(
            d, atom.a, 1.0, atom.hbar_omega, R
        )
        worst = max(worst, _rel_or_abs(got1, want))
        if _rel_or_abs(got5, got1) > 1e-14:
            saturated = False
    out.append(
        _check(
            "second-order-route-agreement",
            worst <= SECOND_ORDER_RTOL and saturated,
            f"max relative gap {worst:.2e}, cutoff-1 saturation: {saturated}",
        )
    )

    atom = DrudeAtom.bohr_matched(1)
    series = multipole.expand_interaction(1, 4)
    cross = perturbation.parity_cross_term(series, atom, atom, cutoff=6)
    atom2 = DrudeAtom.bohr_matched(2)
    series2 = multipole.expand_interaction(2, 4)
    cross2 = perturbation.parity_cross_term(series2, atom2, atom2, cutoff=4)
    worst = max(abs(cross), abs(cross2))
    out.append(
        _check(
            "parity-exclusion",
            worst <= PARITY_TOL,
            f"largest cross term {worst:.2e} (want <= {PARITY_TOL:g})",
        )
    )
    return out


def _drude_exact_checks():
    preset = drude_exact.DrudePreset.bohr()
    out = []
    worst_slope = -math.inf
    for d in (1, 2, 3):
        rep = drude_exact.series_residual(d, preset, np.geomspace(10, 40, 12))
        worst_slope = max(worst_slope, rep.slope)
    out.append(
        _check(
            "normal-mode-residual-slope",
            worst_slope <= -11.5,
            f"worst log-log slope {worst_slope:.2f} (want <= -11.5)",
        )
    )
    neg = all(
        drude_exact.exact_correction(d, preset.omega, 1.0, preset.mass, R) < 0
        for d in (1, 2, 3)
        for R in (2.5, 4.0, 10.0, 50.0)
    )
    out.append(
        _check("normal-mode-attraction", neg, f"correction < 0 on grid: {neg}")
    )
    return out


def _potential_checks():
    out = []
    atom1 = DrudeAtom.bohr_matched(1)
    s = 12.0
    on_axis = potential.v_a_multipole(atom1, [s, 0, 0], order=3).value
    off_axis = potential.v_a_multipole(atom1, [0, 0, s], order=3).value
    crossing = potential.v_a_multipole(
        atom1, [s * math.sqrt(1 / 3), 0, s * math.sqrt(2 / 3)], order=3
    ).value
    ok = on_axis < 0 < off_axis and abs(crossing) < 1e-15
    out.append(
        _check(
            "quadrupole-sign-structure",
            ok,
            f"V(axis) {on_axis:.3e} < 0 < V(perp) {off_axis:.3e}, "
            f"node {crossing:.1e}",
        )
    )

    atom3 = DrudeAtom.bohr_matched(3)
    vals = [
        potential.v_a_multipole(atom3, r, order=o).value
        for o in (3, 5)
        for r in ([7.0, 0, 0], [4.0, 3.0, 2.0] if o == 3 else [7.0, 0, 0])
    ]
    ok = all(v == 0.0 for v in vals)
    out.append(
        _check("multipole-vanishes-d3", ok, f"all sampled values zero: {ok}")
    )

    cross = drude_exact.dominance_crossover(1), drude_exact.dominance_crossover(2)
    ok = all(3.0 <= c <= 6.0 for c in cross)
    out.append(
        _check(
            "dominance-crossover",
            ok,
            f"crossover radii d=1: {cross[0]:.3f}, d=2: {cross[1]:.3f}",
        )
    )
    return out


def fast_checks():
    checks = []
    checks += _golden_checks()
    checks += _structure_checks()
    checks += _series_consistency_check()
    checks += _roundtrip_check()
    checks += _first_order_checks()
    checks += _second_order_checks()
    checks += _drude_exact_checks()
    checks += _potential_checks()
    return checks


def _oracle_checks():
    out = []
    preset = drude_exact.DrudePreset.bohr()
    atom = preset.atom(1)

    res = oracle.oscillator_basis_diag(
        atom, 6.0, mode="truncated", max_power=3, cutoff=12, overlap_tol=1e-1
    )
    want = drude_exact.exact_correction(1, preset.omega, 1.0, preset.mass, 6.0)
    gap = _rel_or_abs(res.correction, want)
    out.append(
        _check(
            "oracle-vs-normal-modes",
            gap <= ORACLE_TRUNCATED_RTOL,
            f"relative gap {gap:.2e} at R/a = 6 (want <= 1e-8)",
        )
    )

    details = []
    ok = True
    for rt in (8.0, 10.0, 14.0, 20.0):
        res = oracle.oscillator_basis_diag(
            atom, rt, mode="full", cutoff=10, overlap_tol=1e-1
        )
        ref = 6.0 / rt**5 - 4.0 / rt**6 + 90.0 / rt**7
        dev = _rel_or_abs(res.correction, ref)
        details.append(f"R/a={rt:g}: dev {dev:.1%}")
        ok = ok and res.correction > 0 and dev <= SIGN_FLIP_WINDOW
    out.append(_check("sign-flip-d1", ok, "; ".join(details)))

    rep = oracle.convergence_report(
        atom, 2.5, mode="truncated", cutoffs=(4, 6, 8), overlap_tol=1.0
    )
    drops = rep.successive_differences()
    rep_full = oracle.convergence_report(
        atom, 8.0, mode="full", cutoffs=(6, 10, 14), overlap_tol=1.0
    )
    last = rep_full.successive_differences()[-1]
    ok = (
        all(d >= -1e-13 for d in drops)
        and drops[0] >= 10.0 * drops[1]
        and 0.0 <= last < 1e-7
    )
    out.append(
        _check(
            "oracle-convergence",
            ok,
            f"truncated drops {drops[0]:.2e} -> {drops[1]:.2e}; "
            f"full-mode last drop {last:.2e}",
        )
    )
    return out


def _quadrature_checks():
    out = []
    preset = drude_exact.DrudePreset.bohr()

    atom1 = preset.atom(1)
    got = oracle.direct_first_order(atom1, atom1, 12.0, overlap_tol=1e-1)
    want = 6.0 / 12.0**5 + 90.0 / 12.0**7
    dev1 = _rel_or_abs(got, want)
    atom2 = preset.atom(2)
    got = oracle.direct_first_order(atom2, atom2, 12.0, overlap_tol=1e-1)
    want = (9.0 / 4.0) / 12.0**5 + (225.0 / 8.0) / 12.0**7
    dev2 = _rel_or_abs(got, want)
    ok = dev1 <= 0.02 and dev2 <= 0.02
    out.append(
        _check(
            "direct-first-order",
            ok,
            f"deviation from asymptotics at R/a = 12: d=1 {dev1:.2%}, d=2 {dev2:.2%}",
        )
    )

    atom3 = preset.atom(3)
    got = oracle.direct_first_order(atom3, atom3, 10.0, overlap_tol=1e-1)
    out.append(
        _check(
            "direct-first-order-vanishes-d3",
            abs(got) <= 1e-8,
            f"|<H_I>| = {abs(got):.2e} (want <= 1e-8)",
        )
    )

    r = np.linspace(0.0, 1.0, 200)
    ball = NumericRadialAtom(3, r + 1e-6, np.ones_like(r))
    worst = potential.shell_theorem_check(ball, [2.0, 3.0, 5.0])
    out.append(
        _check(
            "shell-theorem-ball",
            worst <= 1e-9,
            f"max exterior |V| = {worst:.2e} (uniform ball)",
        )
    )

    atom1 = preset.atom(1)
    radii = np.geomspace(10.0, 40.0, 6)
    diffs = []
    for s in radii:
        num = potential.v_a_numeric(atom1, [s, 0, 0]).value
        mp = potential.v_a_multipole(atom1, [s, 0, 0], order=5).value
        diffs.append(abs(num - mp))
    slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
    out.append(
        _check(
            "potential-multipole-agreement",
            -slope >= 6.9,
            f"on-axis residual decays with exponent {-slope:.2f} (want >= 6.9)",
        )
    )
    return out


def full_checks():
    return fast_checks() + _oracle_checks() + _quadrature_checks()


def run(level="fast"):
    if level == "fast":
        return fast_checks()
    if level == "full":
        return full_checks()
    raise ValueError("level must be 'fast' or 'full'")
