"""Command line front-end: reproducible eigenvalue tables per scenario.

Subcommands:

  model-spectrum  merged SN/SD model spectrum of a scenario at each eps
  bracket         two-sided bounds for sigma_ell across an eps grid
  rates           representative-mode limits fitted over an eps sweep
  sphere-caps     closed forms for the sphere with two caps removed
  fem             triangle-mesh Steklov/Neumann spectra (disk, annulus,
                  flat torus minus disks)
  bounds          explicit lower-bound constant and threshold checks
  verify-all      the full acceptance suite

model-spectrum, bracket and rates share --scenario/--eps/--delta: each
loads the scenario, echoes the delta in effect on stderr and checks the
eps grid before any work.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 acceptance failure.  Failures print one JSON object on stderr.

Output tables are byte-stable: floats are written with repr, JSON keys
are sorted, and no timestamps appear in any artifact.  A CSV header is
the key order of the command's rows, as the layers build them.  Run
metadata that is not part of the artifact (the delta in effect, progress
lines) goes to stderr.

main(argv) may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it on every later one.

Importing this module loads only the standard library and the light
modules (errors, harmonics, tables, bounds); each subcommand imports the
layers it runs.  bounds, sphere-caps without --oracle-grid, and the
model commands on scenarios whose modes all have lambda = 0 (points)
load neither numpy nor scipy.  A lambda > 0 mode loads numpy and
scipy.special (the Bessel kernels), --oracle-grid loads numpy and
scipy.linalg, and fem and verify-all load the FEM layer (numpy,
scipy.sparse, scipy.linalg).  The first torus mesh a process builds
also loads scipy.spatial, for its one Delaunay call; disk and annulus
runs never load it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import bounds as bounds_mod
from . import tables
from .errors import ConfigurationError, NumericalError
from .harmonics import load_scenario

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with
    # the numerical-failure code; reroute to the configuration path.
    def error(self, message):
        raise ConfigurationError(message)


def _eps_grid(values: list[float], delta: float | None = None) -> list[float]:
    if not values:
        raise ConfigurationError("need at least one --eps value")
    if any(e <= 0 for e in values):
        raise ConfigurationError(f"eps values must be > 0, got {values}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(f"eps grid must be strictly decreasing, got {values}")
    if delta is not None and values[0] >= delta:
        raise ConfigurationError(
            f"every eps must be < delta, got eps={values[0]}, delta={delta}"
        )
    return list(values)


def _sweep(args):
    """Scenario, delta and eps grid of a model sweep; the delta goes to stderr."""
    from . import families

    scenario = load_scenario(args.scenario)
    delta = families.DELTA_DEFAULT if args.delta is None else args.delta
    note = " (default)" if args.delta is None else ""
    print(f"# delta = {delta!r}{note}", file=sys.stderr)
    if delta <= 0:
        raise ConfigurationError(f"delta must be > 0, got {delta}")
    return scenario, delta, _eps_grid(args.eps, delta)


def _check_out(path: str) -> None:
    """Raise OSError before any work if path cannot be written; change nothing."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _emit(obj, args, table: bool = False) -> None:
    """Write obj as JSON, or, for a table under --format csv, its rows as CSV.

    The CSV header is the key order of the first row.
    """

    def write(out):
        if table and args.format == "csv":
            tables.write_csv(obj, tuple(obj[0]), out)
        else:
            tables.write_json(obj, out)

    if args.out is None:
        write(sys.stdout)
    else:
        with open(args.out, "w") as out:
            write(out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_model_spectrum(args) -> int:
    from . import families

    scenario, delta, grid = _sweep(args)
    rows = []
    for eps in grid:
        entries = families.truncated_spectrum(
            scenario,
            eps,
            delta,
            args.count,
            family_kind=args.family,
            k_max=args.kmax,
            q_max=args.qmax,
            include_zero_modes=args.include_zero_modes,
        )
        rows.extend(tables.mode_rows(eps, entries))
    _emit(rows, args, table=True)
    return 0


def _cmd_bracket(args) -> int:
    from . import families

    scenario, delta, grid = _sweep(args)
    rows = []
    for eps in grid:
        pairs = families.bracket(scenario, eps, delta, args.ell_max)
        for ell, (lower, upper) in enumerate(pairs):
            rows.append({"eps": eps, "ell": ell, "lower": lower, "upper": upper})
    _emit(rows, args, table=True)
    return 0


def _cmd_rates(args) -> int:
    from . import families

    scenario, delta, grid = _sweep(args)
    if len(grid) < 3:
        raise ConfigurationError(f"rates needs at least 3 eps values, got {len(grid)}")
    _emit(families.rate_table(scenario, grid, delta, q_max=args.qmax), args, table=True)
    return 0


def _cmd_sphere_caps(args) -> int:
    from . import spherecaps

    grid = _eps_grid(args.eps)
    if args.oracle_grid is not None and args.n is None:
        raise ConfigurationError(
            "--oracle-grid solves one angular index; add --n or drop --oracle-grid"
        )
    rows = []
    for eps in grid:
        if args.n is None:
            modes = spherecaps.full_spectrum(eps, args.count)
        else:
            modes = spherecaps.mode_pair(args.n, eps)
        cells = [(mode.n, mode.parity, mode.multiplicity, mode.value) for mode in modes]
        if args.oracle_grid is not None:
            oracle = spherecaps.ode_oracle(args.n, eps, args.oracle_grid)
            cells += [(args.n, "oracle", 0, sig) for sig in oracle]
        rows += [tables.mode_row(eps, "", "", *cell) for cell in cells]
    _emit(rows, args, table=True)
    return 0


def _parse_centers(specs: list[str]) -> list[tuple[float, float]]:
    centers = []
    for spec in specs:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"center must be 'x,y', got {spec!r}")
        try:
            centers.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigurationError(f"bad center {spec!r}: {exc}") from exc
        if not all(map(math.isfinite, centers[-1])):
            raise ConfigurationError(f"center {spec!r} must be finite")
    return centers


def _cmd_fem(args) -> int:
    from . import fem

    if args.domain == "torus":
        if args.eps is None:
            raise ConfigurationError("--eps is required for the torus domain")
        centers = _parse_centers(args.centers)
        markers, eps_col = set(range(len(centers))), args.eps
        build = functools.partial(fem.mesh_torus_minus_disks, args.side, centers, args.eps)
    else:
        if args.eps is not None:
            raise ConfigurationError(
                f"--eps is the torus hole radius; drop it for the {args.domain} domain"
            )
        if args.domain == "disk":
            markers, shape = {1}, fem.Disk(args.radius)
        else:
            markers, shape = {0, 1}, fem.Annulus(args.r_in, args.r_out)
        eps_col, build = "", functools.partial(fem.mesh_planar, shape)
    # refuse what the solvers would refuse or ignore before the mesh is built
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    if not args.neumann:
        fem.solve.split_markers(markers, args.dirichlet_markers, args.neumann_markers)
    elif args.dirichlet_markers or args.neumann_markers:
        raise ConfigurationError(
            "--neumann solves without boundary conditions; "
            "drop --dirichlet-markers and --neumann-markers"
        )
    mesh = build(args.h)
    print(
        f"# mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles",
        file=sys.stderr,
    )
    if args.neumann:
        values = fem.neumann_spectrum(mesh, args.count)
        family = "Neumann"
    else:
        values = fem.steklov_spectrum(
            mesh,
            args.count,
            dirichlet_markers=tuple(args.dirichlet_markers),
            neumann_markers=tuple(args.neumann_markers),
        )
        family = "Steklov"
    rows = [tables.mode_row(eps_col, "", "", "", family, "", sig) for sig in values]
    _emit(rows, args, table=True)
    return 0


def _cmd_bounds(args) -> int:
    scenario = load_scenario(args.scenario)
    report = bounds_mod.constant_C(scenario)
    if args.eps or args.sigma1:
        if args.format == "csv":
            raise ConfigurationError(
                "threshold checks are only emitted as json; drop --format csv"
            )
        if len(args.eps or []) != len(args.sigma1 or []):
            raise ConfigurationError("--eps and --sigma1 must pair up")
        obj = report.to_json()
        obj["checks"] = [
            dataclasses.asdict(
                bounds_mod.lower_bound_check(scenario, eps, sigma1, slack=args.slack)
            )
            for eps, sigma1 in zip(args.eps, args.sigma1)
        ]
        _emit(obj, args)
        return 0
    csv = args.format == "csv"
    _emit([dataclasses.asdict(report)] if csv else report.to_json(), args, table=csv)
    return 0


def _cmd_verify_all(args) -> int:
    from . import acceptance

    indices = None
    if args.criteria:
        try:
            indices = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError as exc:
            raise ConfigurationError(f"bad --criteria list: {exc}") from exc
    results = acceptance.run(indices=indices, seed=args.seed)
    for res in results:
        print(res.header())
        for line in res.failures:
            print(f"  {line}")
    if args.out is not None:
        # no elapsed times, so the summary is byte-stable
        fields = ("index", "name", "passed", "checks")
        _emit([{f: getattr(res, f) for f in fields} for res in results], args)
    return 0 if all(res.passed for res in results) else 3


# ---------------------------------------------------------------------------
# parser


def _add_sweep_flags(sub, eps_help: str = "decreasing, each below delta") -> None:
    sub.add_argument("--scenario", required=True, help="scenario JSON path")
    sub.add_argument("--eps", type=float, nargs="+", required=True, help=eps_help)
    sub.add_argument("--delta", type=float, default=None)


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="table format"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steklov-tubes", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "model-spectrum", help="merged model spectrum of a scenario"
    )
    _add_sweep_flags(sub)
    sub.add_argument("--count", type=int, default=12)
    sub.add_argument("--kmax", type=int, default=None)
    sub.add_argument("--qmax", type=int, default=None)
    sub.add_argument("--family", choices=("SN", "SD"), default="SN")
    sub.add_argument(
        "--include-zero-modes",
        action="store_true",
        help="keep the b zero SN modes in the listing",
    )
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_model_spectrum)

    sub = subs.add_parser("bracket", help="SN/SD bracketing pairs per ell")
    _add_sweep_flags(sub)
    sub.add_argument("--ell-max", type=int, default=8)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_bracket)

    sub = subs.add_parser("rates", help="fitted limits vs predicted")
    _add_sweep_flags(sub, eps_help="at least 3, decreasing, each below delta")
    sub.add_argument("--qmax", type=int, default=2)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_rates)

    sub = subs.add_parser("sphere-caps", help="sphere-with-two-caps closed forms")
    sub.add_argument("--eps", type=float, nargs="+", required=True)
    sub.add_argument("--n", type=int, default=None, help="single angular index")
    sub.add_argument("--count", type=int, default=8)
    sub.add_argument(
        "--oracle-grid",
        type=int,
        default=None,
        help="with --n, add finite-difference oracle rows at this grid size (100 to 10**6)",
    )
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_sphere_caps)

    sub = subs.add_parser("fem", help="triangle-mesh spectra")
    sub.add_argument("--domain", choices=("disk", "annulus", "torus"), required=True)
    sub.add_argument("--h", type=float, required=True, help="target edge length")
    sub.add_argument("--count", type=int, default=8)
    sub.add_argument("--radius", type=float, default=1.0, help="disk radius")
    sub.add_argument("--r-in", type=float, default=0.5, help="annulus inner radius")
    sub.add_argument("--r-out", type=float, default=1.0, help="annulus outer radius")
    sub.add_argument("--side", type=float, default=1.0, help="torus side length")
    sub.add_argument(
        "--centers",
        nargs="+",
        default=("0.25,0.25", "0.75,0.75"),
        help="hole centers as x,y pairs",
    )
    sub.add_argument("--eps", type=float, default=None, help="hole radius (torus)")
    sub.add_argument(
        "--neumann", action="store_true", help="Laplace-Neumann instead of Steklov"
    )
    sub.add_argument("--dirichlet-markers", type=int, nargs="*", default=())
    sub.add_argument("--neumann-markers", type=int, nargs="*", default=())
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_fem)

    sub = subs.add_parser("bounds", help="lower-bound constant and checks")
    sub.add_argument("--scenario", required=True)
    sub.add_argument("--eps", type=float, nargs="*", default=None)
    sub.add_argument(
        "--sigma1",
        type=float,
        nargs="*",
        default=None,
        help="first nonzero Steklov eigenvalues paired with --eps",
    )
    sub.add_argument("--slack", type=float, default=0.0)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_bounds)

    sub = subs.add_parser("verify-all", help="run the acceptance suite")
    sub.add_argument(
        "--criteria", default=None, help="comma-separated subset, e.g. 1,3,9"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="JSON summary path")
    sub.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except (ConfigurationError, ValueError, OSError, NumericalError) as exc:
        numerical = isinstance(exc, NumericalError)
        kind, code = ("numerical", 2) if numerical else ("configuration", 1)
        json.dump({"error": kind, "message": str(exc)}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
