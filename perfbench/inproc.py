"""Worker process for the in-process workloads ``series`` and ``oracle``.

    python3 perfbench/inproc.py --workload series --seed 1 --seconds 20 --mode run

``--mode setup`` imports, builds fixtures, warms up and reports the time that
took.  ``--mode run`` then runs rounds of ops in a closed loop (one client,
the next op starts when the previous one ends) until ``--seconds`` have
passed and ``--min-ops`` ops have run, at a round boundary; with
``--seconds 0`` it runs exactly the first round.  ``--mode trace`` runs the
first round under the tracer, so the two give the tracing overhead from
equally cold processes.  The last stdout line is JSON.

Every op's output is checked against a reference that does not go through
the code being timed: closed forms, the Legendre remainder bound, and the
normal-mode solution.  The reference functions are bound before the tracer
is installed, so their calls are neither traced nor timed.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    check_imported_from_checkout,
    own_rss_mb,
    write_result,
)

FLOAT_EPS = 2.220446049250313e-16


class Series:
    """Expansion, first order, dipole second order and truncation residual.

    Each round visits every (d, N) once, d in 1..3 and N in 5..12, in seeded
    order with R/a drawn from [4, 20]; the residual uses 2000 samples at three
    separations.  The expansion is used warm and repeated within one process,
    and ``kernels.series_batch`` and ``four_site_batch`` do most of the work.
    """

    SAMPLES = 2000
    CLOUD_RADIUS = 1.0  # in units of a
    SEPARATION_FACTORS = (1.0, 1.25, 1.5)
    RTOL = 1e-12

    def __init__(self):
        from vdwdim import DrudeAtom, multipole, perturbation

        self.multipole = multipole
        self.perturbation = perturbation
        self.atoms = {d: DrudeAtom.bohr_matched(d) for d in (1, 2, 3)}
        self.first_order_closed_form = perturbation.first_order_closed_form
        self.second_order_closed_form = perturbation.second_order_drude_closed_form

    def rounds(self, seed):
        rng = random.Random(seed)
        combos = [(d, n) for d in (1, 2, 3) for n in range(5, 13)]
        while True:
            yield [
                {"kind": f"d{d}", "dim": d, "order": n, "R": rng.uniform(4.0, 20.0),
                 "sample_seed": rng.randrange(2**32)}
                for d, n in rng.sample(combos, len(combos))
            ]

    def warmup_op(self):
        return {"kind": "d1", "dim": 1, "order": 5, "R": 10.0, "sample_seed": 0}

    def run(self, op):
        d, R = op["dim"], op["R"]
        atom = self.atoms[d]
        series = self.multipole.expand_interaction(d, op["order"])
        first = self.perturbation.first_order_expectation(series, atom, atom, R)
        dipole = self.multipole.InteractionSeries(d, 3, {3: series.terms[3]})
        second = self.perturbation.second_order_sum(dipole, atom, atom, R, cutoff=1)
        report = self.multipole.truncation_residual(
            series, [R * f for f in self.SEPARATION_FACTORS], self.SAMPLES,
            self.CLOUD_RADIUS, seed=op["sample_seed"],
        )
        return {
            "first": {p: first.get(p) for p in (5, 7)},
            "second": second,
            "residual": [float(x) for x in report.max_residual],
        }

    def reference(self, op):
        d, n, R = op["dim"], op["order"], op["R"]
        r5, r7 = self.first_order_closed_form(d, 1.0, 3.0, 1.0, R)
        bounds = []
        for f in self.SEPARATION_FACTORS:
            sep, x = R * f, self.CLOUD_RADIUS / (R * f)
            legendre = (2 * x) ** n / (sep * (1 - 2 * x)) + 2 * x**n / (sep * (1 - x))
            # rounding of the four O(1/R) terms of the exact kernel
            bounds.append(legendre + 8 * FLOAT_EPS / (sep - 2 * self.CLOUD_RADIUS))
        return {
            "first": {5: r5, 7: r7 if n >= 7 else None},
            "second": self.second_order_closed_form(d, 1.0, 1.0, 0.5, R),
            "residual_bound": bounds,
        }

    def check(self, op, got, ref):
        R = op["R"]
        for p in (5, 7):
            want = ref["first"][p]
            if want is None:
                continue
            scale = max(abs(want), R**-p)  # d = 3: want is 0, terms are ~R^-p
            if got["first"][p] is None or abs(got["first"][p] - want) > self.RTOL * scale:
                return False
        if not math.isclose(got["second"], ref["second"], rel_tol=self.RTOL):
            return False
        return all(r <= b for r, b in zip(got["residual"], ref["residual_bound"]))


class Oracle:
    """Hermite-basis diagonalization (full and truncated) and direct quadrature.

    Each round runs full mode at every cutoff 10..20 (R/a in [8, 20]),
    truncated mode with max_power=3 at every cutoff 12..20 (R/a in [8, 20])
    and ``direct_first_order`` for d = 1, 2, 3 (R/a in [12, 20]: at 10 the
    d = 1 value is 2.7% off the r5 + r7 asymptotics), in seeded order.
    Coupling assembly and ``pair_expectation`` dominate; expansion, series
    kernels and potential do almost no work.
    """

    OVERLAP_TOL = 1e-1
    FULL_WINDOW = 0.15
    TRUNCATED_RTOL = 1e-8
    DIRECT_WINDOW = 0.02
    DIRECT_ZERO_D3 = 1e-8

    def __init__(self):
        from vdwdim import drude_exact, oracle, perturbation

        self.oracle = oracle
        self.preset = perturbation.DrudePreset.bohr()
        self.atoms = {d: self.preset.atom(d) for d in (1, 2, 3)}
        self.exact_correction = drude_exact.exact_correction
        self.first_order_closed_form = perturbation.first_order_closed_form

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            ops = [{"kind": "full", "cutoff": c, "R": rng.uniform(8.0, 20.0)}
                   for c in range(10, 21)]
            ops += [{"kind": "truncated", "cutoff": c, "R": rng.uniform(8.0, 20.0)}
                    for c in range(12, 21)]
            ops += [{"kind": f"direct-d{d}", "dim": d, "R": rng.uniform(12.0, 20.0)}
                    for d in (1, 2, 3)]
            rng.shuffle(ops)
            yield ops

    def warmup_op(self):
        return {"kind": "full", "cutoff": 4, "R": 10.0}

    def run(self, op):
        R = op["R"]
        if op["kind"] == "full":
            res = self.oracle.oscillator_basis_diag(
                self.atoms[1], R, mode="full", cutoff=op["cutoff"],
                overlap_tol=self.OVERLAP_TOL,
            )
            return res.correction
        if op["kind"] == "truncated":
            res = self.oracle.oscillator_basis_diag(
                self.atoms[1], R, mode="truncated", max_power=3,
                cutoff=op["cutoff"], overlap_tol=self.OVERLAP_TOL,
            )
            return res.correction
        atom = self.atoms[op["dim"]]
        return self.oracle.direct_first_order(
            atom, atom, R, overlap_tol=self.OVERLAP_TOL
        )

    def reference(self, op):
        R = op["R"]
        if op["kind"] == "full":
            return 6.0 / R**5 - 4.0 / R**6 + 90.0 / R**7
        if op["kind"] == "truncated":
            p = self.preset
            return self.exact_correction(1, p.omega, 1.0, p.mass, R)
        r5, r7 = self.first_order_closed_form(op["dim"], 1.0, 3.0, 1.0, R)
        return r5 + r7

    def check(self, op, got, ref):
        if op["kind"] == "full":
            return got > 0 and abs(got / ref - 1.0) <= self.FULL_WINDOW
        if op["kind"] == "truncated":
            return math.isclose(got, ref, rel_tol=self.TRUNCATED_RTOL)
        if op["dim"] == 3:  # ref is exactly 0: a spherical cloud has no field outside
            return abs(got - ref) <= self.DIRECT_ZERO_D3
        return abs(got / ref - 1.0) <= self.DIRECT_WINDOW


WORKLOADS = {"series": Series, "oracle": Oracle}


def run_op(workload, op):
    """(latency seconds, 'pass' | 'crash' | 'mismatch', detail)."""
    t0 = time.perf_counter()
    try:
        got = workload.run(op)
    except Exception as exc:  # an op that raises is counted, never fatal
        return time.perf_counter() - t0, "crash", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    ok = workload.check(op, got, workload.reference(op))
    return latency, ("pass" if ok else "mismatch"), None


def timed_loop(workload, ops_rounds, seconds, min_ops=0):
    """Run whole rounds; returns the records and each round's wall time."""
    records, round_walls = [], []
    t0 = time.perf_counter()
    for ops in ops_rounds:
        r0 = time.perf_counter()
        for op in ops:
            latency, outcome, detail = run_op(workload, op)
            records.append({"kind": op["kind"], "latency_s": latency,
                            "outcome": outcome, "detail": detail})
        round_walls.append(time.perf_counter() - r0)
        if len(records) >= min_ops and time.perf_counter() - t0 >= seconds:
            break
    return records, round_walls


def traced_pass(workload, ops, tracer):
    records = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = i
        frame = tracer.enter("bench.op")
        try:
            latency, outcome, detail = run_op(workload, op)
        finally:
            tracer.exit(frame)
        records.append({"kind": op["kind"], "latency_s": latency,
                        "outcome": outcome, "detail": detail})
    return records, time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    import vdwdim

    check_imported_from_checkout(vdwdim)
    workload = WORKLOADS[args.workload]()
    rounds = workload.rounds(args.seed)
    warm = run_op(workload, workload.warmup_op())
    setup_s = time.perf_counter() - START
    out = {"setup_s": setup_s, "warmup_outcome": warm[1]}

    if args.mode == "run":
        records, round_walls = timed_loop(workload, rounds, args.seconds, args.min_ops)
        out.update(records=records, round_walls_s=round_walls,
                   wall_s=sum(round_walls), peak_rss_mb=own_rss_mb())
    elif args.mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        records, wall = traced_pass(workload, next(rounds), tracer)
        spans = write_result(
            f"spans-{args.workload}-seed{args.seed}.json", tracer.dump()
        )
        out.update(records=records, wall_s=wall, stats=tracer.stats,
                   spans_file=str(spans))
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
