"""Command-line interface: expansion, moments, potential, curves, verification.

Reduced units (k = 1, a = 1) are the default everywhere; energies are
reported in units of k/a and separations as R/a.  Output is CSV (dot decimal,
comma separator, header row) or JSON, written to stdout unless --output is
given.  Identical configurations produce byte-identical output.

Every command loads only the modules it calls (see the package docstring),
so this module names modules, never the objects in them, and looks those up
when a command runs:

* ``--version`` and usage errors load no submodule;
* ``expand`` loads ``multipole``;
* ``curve`` and ``exact`` load ``drude_exact``;
* ``moments`` loads ``atoms``, ``potential`` adds ``potential`` and
  ``verify`` loads everything.

numpy comes with ``kernels`` and the modules built on it (``oracle``,
``perturbation``, ``verify``); ``atoms`` and ``potential`` load it only
where they build arrays.  So ``--version``, ``expand``, ``curve``,
``exact``, ``moments`` and ``potential --dim 1`` and ``--dim 2`` run
without it, error exits included, and only a ``--dim 3`` quadrature and
``verify`` load it.  ``main`` reports a ``CliError``, ``ValueError`` or
``OSError``, and then the potential's own errors, before it looks up the
oracle's.  ``potential`` rejects an unknown ``--methods`` entry, a
``--radii`` or ``--thetas`` value that is not finite, a zero radius and a
ring ``--radius`` that is not finite and positive before it builds the
atom.
"""

import argparse
import json
import math
import sys

from . import __version__, atoms, drude_exact, multipole, oracle, potential, verify


class CliError(RuntimeError):
    pass


def _fmt(x):
    return f"{x:.12e}"


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _atom_from_args(args):
    if args.atom == "drude":
        return atoms.DrudeAtom.bohr_matched(args.dim)
    if args.atom == "ring":
        return atoms.RingAtom(args.dim, radius=args.radius)
    if args.atom == "hydrogen1d":
        if args.dim != 1:
            raise CliError("hydrogen1d is a one-dimensional model")
        return atoms.Hydrogen1DAtom()
    raise CliError(f"unknown atom preset {args.atom!r}")


def _preset_from_args(args):
    if args.preset == "bohr":
        return drude_exact.DrudePreset.bohr()
    if args.hbar_omega is None:
        raise CliError("--preset custom requires --hbar-omega")
    return drude_exact.DrudePreset.custom(
        hbar_omega=args.hbar_omega, a=args.a, k=args.k
    )


def _coords_name(dim, which):
    return [f"{c}{which}" for c in ("x", "y", "z")[:dim]]


def _monomial_str(mono, dim):
    parts = []
    for name, e in zip(_coords_name(dim, "A"), mono.exp_a):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    for name, e in zip(_coords_name(dim, "B"), mono.exp_b):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return f"({mono.coeff}) * " + "*".join(parts)


def cmd_expand(args):
    if args.order < 3:
        series = multipole.InteractionSeries(args.dim, args.order, {})
        note = "no terms below 1/R^3: neutrality cancels the first two orders"
    else:
        series = multipole.expand_interaction(args.dim, args.order)
        note = None
    if args.format == "json":
        _emit([json.dumps(series.to_dict(), indent=2, sort_keys=True)], args.output)
        return 0
    lines = [f"# interaction series, dim={args.dim}, max_power={args.order}"]
    if note:
        lines.append(f"# {note}")
    for power in sorted(series.terms):
        lines.append(f"1/R^{power}:")
        for mono in series.terms[power]:
            lines.append(f"  {_monomial_str(mono, args.dim)}")
    _emit(lines, args.output)
    return 0


def cmd_moments(args):
    atom = _atom_from_args(args)
    d = atom.dim
    rows = [
        ("a", atom.characteristic_length()),
        ("a2", atom.radial_moment(2) / d),
        ("r2", atom.radial_moment(2)),
        ("r4", atom.radial_moment(4)),
        ("x2", atom.moment((2,) + (0,) * (d - 1))),
        ("x4", atom.moment((4,) + (0,) * (d - 1))),
    ]
    if d >= 2:
        rows.append(("x2y2", atom.moment((2, 2) + (0,) * (d - 2))))
    try:
        rows.insert(2, ("alpha", atom.alpha()))
    except atoms.DegenerateAtomError:
        rows.insert(2, ("alpha", None))
    if args.format == "json":
        data = {k: v for k, v in rows}
        _emit([json.dumps(data, indent=2, sort_keys=True)], args.output)
        return 0
    lines = ["quantity,value"]
    for name, value in rows:
        lines.append(f"{name},{'' if value is None else _fmt(value)}")
    _emit(lines, args.output)
    return 0


def _finite_list(text, option):
    values = [float(tok) for tok in text.split(",")]
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"{option} values must be finite")
    return values


_POTENTIAL_METHODS = ("quadrature", "multipole3", "multipole5")


def cmd_potential(args):
    methods = args.methods.split(",")
    for method in methods:
        if method not in _POTENTIAL_METHODS:
            raise CliError(f"unknown method {method!r}")
    radii = _finite_list(args.radii, "--radii")
    thetas = _finite_list(args.thetas, "--thetas")
    if 0.0 in radii:  # the nucleus: every method rejects that field point
        raise CliError("field point must be finite and nonzero")
    if args.atom == "ring":
        drude_exact._check_terms({"radius": args.radius})  # RingAtom's check
    atom = _atom_from_args(args)
    lines = ["r,theta_deg,value,method"]
    for s in radii:
        for theta in thetas:
            rad = math.radians(theta)
            point = (s * math.cos(rad), 0.0, s * math.sin(rad))
            for method in methods:
                if method == "quadrature":
                    sample = potential.v_a_numeric(atom, point)
                elif method == "multipole3":
                    sample = potential.v_a_multipole(atom, point, order=3)
                else:
                    try:
                        sample = potential.v_a_multipole(atom, point, order=5)
                    except potential.UnsupportedOrderError:
                        continue  # next order is available on axis only
                lines.append(
                    f"{_fmt(s)},{_fmt(theta)},{_fmt(sample.value)},{sample.method}"
                )
    _emit(lines, args.output)
    return 0


_CURVE_COLUMNS = ("R_tilde", "r5", "r6", "r7", "total", "exact", "dim", "preset")
_EXACT_COLUMNS = ("R_tilde", "exact", "r6", "residual", "dim", "preset")


def _cell(value):
    """One CSV cell: None is empty, a float is ``_fmt``, anything else str."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _csv_lines(columns, records):
    return [",".join(columns)] + [
        ",".join(_cell(rec[c]) for c in columns) for rec in records
    ]


def _linspace(start, stop, num):
    """``np.linspace(start, stop, num)`` bit for bit, as a list of floats.

    numpy forms start + i * step and sets the last point to stop; when the
    step underflows to zero it forms start + (i / div) * delta instead.
    """
    if num == 1:
        return [start]
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def _curve_rows(args):
    """Curve rows, their scale, and one record dict per row."""
    preset = _preset_from_args(args)
    grid = _linspace(args.rmin, args.rmax, args.steps)
    rows = drude_exact.total_energy_curve(args.dim, grid, preset)
    scale = preset.k / preset.a if args.si else 1.0
    records = [
        {
            "R_tilde": row.r_tilde,
            "r5": row.first_order_r5 * scale,
            "r6": row.second_order_r6 * scale,
            "r7": row.first_order_r7 * scale,
            "total": row.total_truncated * scale,
            "exact": None if row.exact is None else row.exact * scale,
            "exact_valid": row.exact_valid,
            "dim": row.dim,
            "preset": preset.name,
        }
        for row in rows
    ]
    return rows, scale, records


def cmd_curve(args):
    _, _, records = _curve_rows(args)
    if args.format == "json":
        _emit([json.dumps(records, indent=2, sort_keys=True)], args.output)
    else:
        _emit(_csv_lines(_CURVE_COLUMNS, records), args.output)
    return 0


def cmd_exact(args):
    rows, scale, records = _curve_rows(args)
    for row, rec in zip(rows, records):
        rec["residual"] = (
            None
            if row.exact is None
            else abs(row.exact - row.second_order_r6) * scale
        )
    _emit(_csv_lines(_EXACT_COLUMNS, records), args.output)
    return 0


def cmd_verify(args):
    checks = verify.run(args.level)
    failed = [c for c in checks if not c.passed]
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name}: {c.detail}")
    lines.append(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed "
        f"(level {args.level})"
    )
    _emit(lines, args.output)
    return 1 if failed else 0


def _add_output_args(p):
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_preset_args(p):
    p.add_argument(
        "--preset", choices=("bohr", "custom"), default="bohr",
        help="unit system: bohr (hbar*omega = k/2a) or custom",
    )
    p.add_argument("--hbar-omega", type=float, default=None, dest="hbar_omega")
    p.add_argument("--a", type=float, default=1.0, help="characteristic length")
    p.add_argument("--k", type=float, default=1.0, help="Coulomb constant")
    p.add_argument(
        "--si", action="store_true",
        help="report absolute energies (k/a with user-supplied k, a)",
    )


def _add_atom_args(p):
    p.add_argument(
        "--atom", choices=("drude", "ring", "hydrogen1d"), default="drude"
    )
    p.add_argument("--radius", type=float, default=1.0, help="ring radius")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vdw",
        description="Van der Waals interaction of atoms confined to d dimensions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="exact interaction series in 1/R")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--order", type=int, default=5, help="highest inverse power")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_output_args(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("moments", help="atom moments, a, and alpha")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    _add_atom_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output_args(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("potential", help="electrostatic potential samples")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    _add_atom_args(p)
    p.add_argument("--radii", default="10,20", help="comma list of |r| values")
    p.add_argument("--thetas", default="0", help="comma list of angles (deg)")
    p.add_argument(
        "--methods", default="quadrature,multipole3,multipole5",
        help="comma list drawn from " + ", ".join(_POTENTIAL_METHODS),
    )
    _add_output_args(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("curve", help="energy-correction curve over R/a")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--rmin", type=float, default=3.0)
    p.add_argument("--rmax", type=float, default=12.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_preset_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("exact", help="normal-mode ground-state correction")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--rmin", type=float, default=3.0)
    p.add_argument("--rmax", type=float, default=12.0)
    p.add_argument("--steps", type=int, default=10)
    _add_preset_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    _add_output_args(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "rmin", None) is not None:
        if not 0 < args.rmin <= args.rmax < math.inf or args.steps < 1:
            parser.error("need 0 < rmin <= rmax < inf and steps >= 1")
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except potential.QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except oracle.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
