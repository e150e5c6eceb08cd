"""Command-line front end.

Subcommands: couplings, schedule, simulate, sweep, table, magnus,
symmetry-check. Every command is deterministic given its flags and seed;
floats are serialized with 17 significant digits so files round-trip
bit-exactly. A JSON config file may supply any option of the subcommand
but sweep's --out-dir (key = the option's destination, e.g. `nx_max` for
--nx-max, `M`, `symmetry_class` for --class, `lam` for --lambda); explicit
flags take precedence over the config, which takes precedence over built-in
defaults. A config value passes through its flag's type and choices as if
it were given on the command line, and a key the subcommand does not have
is an error. The cell of schedule, simulate and magnus (--nx, --nz and
--tau) has no default: it must come from a flag or the config.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .evolution import TogglingEvolver, qdd_decomposition
from .linalg import PauliAxis
from .magnus import nested_integrals
from .metrics import BathKind, default_directions, make_states, qdd_distance, series_csv
from .model import CouplingSet, SymmetryClass, Topology, build_hamiltonian, random_couplings
from .scaling import D_HI, D_LO, AdaptiveGrid, GeometricGrid, SweepSpec, exponent_table
from .sequence import qdd_schedule, switching_profile
from .symmetry import symmetry_report

_CLASS = {"anisotropic": SymmetryClass.ANISOTROPIC, "isotropic": SymmetryClass.ISOTROPIC}
_TOPOLOGY = {"central-spin": Topology.CENTRAL_SPIN, "chain": Topology.CHAIN}
_BATH = {"product": BathKind.PRODUCT, "mixed": BathKind.MAXIMALLY_MIXED}
_DIRECTION = re.compile(r"([xyz])([+-]?)")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_directions(text: str, m: int) -> list[tuple[PauliAxis, int]]:
    """Parse 'x+,y-,z' into per-spin (axis, sign) pairs; a bare axis means +."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    if len(entries) != m:
        raise ValueError(f"expected {m} directions, got {len(entries)}")
    out = []
    for e in entries:
        match = _DIRECTION.fullmatch(e.lower())
        if match is None:
            raise ValueError(f"bad direction {e!r}: want x, y or z with an optional + or -")
        out.append((PauliAxis(match[1]), -1 if match[2] == "-" else +1))
    return out


def _load_couplings(args) -> CouplingSet:
    if getattr(args, "couplings", None):
        return CouplingSet.from_json(Path(args.couplings).read_text())
    return random_couplings(
        seed=args.seed,
        m=args.M,
        symmetry_class=_CLASS[args.symmetry_class],
        topology=_TOPOLOGY[args.topology],
        alpha=args.alpha,
        lam=getattr(args, "lam"),
    )


def _directions_for(args, m: int):
    if getattr(args, "directions", None):
        return _parse_directions(args.directions, m)
    return None  # metrics defaults handle the product case


def _bath_for(args, m: int):
    """The bath ket (None when maximally mixed), its kind and its directions."""
    kind = _BATH[args.bath]
    directions = _directions_for(args, m)
    if kind is BathKind.PRODUCT and directions is None:
        directions = default_directions(m)
    return make_states(kind, m, directions), kind, directions


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--couplings", help="JSON coupling file (overrides draw flags)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--M", type=int, default=None, help="number of bath spins")
    p.add_argument(
        "--class",
        dest="symmetry_class",
        choices=sorted(_CLASS),
        default=None,
    )
    p.add_argument("--topology", choices=sorted(_TOPOLOGY), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)


def _add_bath_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bath", choices=sorted(_BATH), default=None)
    p.add_argument("--directions", default=None, help="product-bath spins, e.g. 'x+,y-,z+'")


#: Built-in defaults, applied after the config file. tau_min and tau_max are
#: intentionally absent: leaving them unset selects the adaptive tau grid.
_DEFAULTS = {
    "seed": 1,
    "M": 3,
    "symmetry_class": "anisotropic",
    "topology": "central-spin",
    "alpha": 1.0,
    "lam": 1.0,
    "bath": "product",
    "points": AdaptiveGrid.points,
    "d_lo": D_LO,
    "d_hi": D_HI,
    "nx_max": 3,
    "nz_max": 3,
    "workers": 1,
    # symmetry-check's cell; the commands in _REQUIRED take no default
    "nx": 1,
    "nz": 1,
    "tau": 0.5,
}

#: Options that a flag or the config must supply, per subcommand.
_REQUIRED = {
    "schedule": ("nx", "nz", "tau"),
    "simulate": ("nx", "nz"),
    "magnus": ("nx", "nz", "tau"),
}


def _config_value(action: argparse.Action, key: str, value) -> object:
    """A config value read as its flag's command-line text would be."""
    text = str(value)
    try:
        converted = text if action.type is None else action.type(text)
    except ValueError:
        raise ValueError(f"config {key!r}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ValueError(f"config {key!r}: {value!r} is not one of {choices}")
    return converted


def _apply_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> argparse.Namespace:
    """Resolve each option as flag, else config value, else built-in default.

    An option of `_REQUIRED` that neither a flag nor the config supplies is
    a usage error (exit 2), as argparse reports a missing required flag.
    """
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        # argparse lists a parser's options only in its `_actions`
        options = {
            a.dest: a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")
        }
        unknown = sorted(set(config) - set(options))
        if unknown:
            raise ValueError(
                f"config keys {', '.join(unknown)} are not options of {args.command}; "
                f"its options are {', '.join(sorted(options))}"
            )
        for key, value in config.items():
            if getattr(args, key) is None:
                setattr(args, key, _config_value(options[key], key, value))
    missing = [f"--{key}" for key in _REQUIRED.get(args.command, ()) if getattr(args, key) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)
    return args


def _grid_from(args) -> GeometricGrid | AdaptiveGrid:
    if args.tau_min is not None or args.tau_max is not None:
        return GeometricGrid(
            tau_min=1e-3 if args.tau_min is None else args.tau_min,
            tau_max=1.0 if args.tau_max is None else args.tau_max,
            points=args.points,
        )
    return AdaptiveGrid(points=args.points)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-min", type=float, default=None)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--d-lo", type=float, default=None)
    p.add_argument("--d-hi", type=float, default=None)


def cmd_couplings(args) -> int:
    couplings = _load_couplings(args)
    _emit(couplings.to_json() + "\n", args.output)
    return 0


def cmd_schedule(args) -> int:
    schedule = qdd_schedule(args.nx, args.nz, args.tau)
    _emit(schedule.to_json() + "\n", args.output)
    return 0


def cmd_simulate(args) -> int:
    couplings = _load_couplings(args)
    parts = build_hamiltonian(couplings)
    evolver = TogglingEvolver(parts)
    ket, _, _ = _bath_for(args, couplings.m)
    grid = _grid_from(args)
    if isinstance(grid, AdaptiveGrid):
        grid = GeometricGrid(1e-3, 1.0, args.points)  # a plain series needs a fixed grid
    results = [
        qdd_distance(parts, ket, args.nx, args.nz, tau, evolver)
        for tau in grid.taus()
    ]
    _emit(series_csv(results), args.output)
    return 0


def _build_spec(args) -> SweepSpec:
    couplings = _load_couplings(args)
    _, kind, directions = _bath_for(args, couplings.m)
    return SweepSpec(
        couplings=couplings,
        bath_kind=kind,
        directions=directions,
        n_x_values=tuple(range(args.nx_max + 1)),
        n_z_values=tuple(range(args.nz_max + 1)),
        tau_grid=_grid_from(args),
        workers=args.workers,
        d_lo=args.d_lo,
        d_hi=args.d_hi,
    )


def _report_failures(table) -> None:
    for (nx, nz), message in sorted(table.failures.items()):
        sys.stderr.write(f"cell ({nx},{nz}) failed: {message}\n")


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    table = exponent_table(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (nx, nz), cell in sorted(table.cells.items()):
        stem = f"cell_nx{nx}_nz{nz}"
        (out_dir / f"{stem}.csv").write_text(series_csv(cell.points))
        (out_dir / f"{stem}.json").write_text(
            json.dumps(cell.to_json_dict(spec), indent=2) + "\n"
        )
    _report_failures(table)
    return 2 if table.failures else 0


def cmd_table(args) -> int:
    spec = _build_spec(args)
    table = exponent_table(spec)
    _emit(table.to_csv(), args.output)
    if args.bundle_dir:
        out_dir = Path(args.bundle_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for (nx, nz), cell in sorted(table.cells.items()):
            (out_dir / f"cell_nx{nx}_nz{nz}.json").write_text(
                json.dumps(cell.to_json_dict(spec), indent=2) + "\n"
            )
    _report_failures(table)
    return 2 if table.failures else 0


def cmd_magnus(args) -> int:
    profile = switching_profile(qdd_schedule(args.nx, args.nz, args.tau))
    report = nested_integrals(profile)
    _emit(json.dumps(report.integrals_json_dict(), indent=2) + "\n", args.output)
    return 0


def cmd_symmetry_check(args) -> int:
    couplings = _load_couplings(args)
    parts = build_hamiltonian(couplings)
    ket, _, _ = _bath_for(args, couplings.m)
    dec = qdd_decomposition(parts, args.nx, args.nz, args.tau)
    report = symmetry_report(dec, ket, couplings.m)
    _emit(report.to_json() + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qddsim",
        description="Quadratic dynamical decoupling of a qubit in a spin bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, bath=False, output=True):
        p.set_defaults(parser=p)
        p.add_argument("--config", help="JSON config supplying default flag values")
        if model:
            _add_model_args(p)
        if bath:
            _add_bath_args(p)
        if output:
            p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("couplings", help="draw and emit a coupling set as JSON")
    common(p)
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("schedule", help="emit the pulse schedule of one cell as JSON")
    common(p, model=False)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--nz", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "simulate",
        help="emit the (tau, d) series of one cell as CSV",
        description=(
            "Emit the (tau, d) series of one cell as CSV on a fixed geometric "
            "tau grid. Without --tau-min and --tau-max the grid runs from 1e-3 "
            "to 1 (the adaptive grid of sweep and table is not used), and "
            "--d-lo / --d-hi do not filter the rows."
        ),
    )
    common(p, bath=True)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--nz", type=int, default=None)
    _add_grid_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a cell grid; write per-cell series and fit bundles")
    common(p, bath=True, output=False)
    p.add_argument("--nx-max", type=int, default=None)
    p.add_argument("--nz-max", type=int, default=None)
    _add_grid_args(p)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="emit the fitted exponent grid as CSV")
    common(p, bath=True)
    p.add_argument("--nx-max", type=int, default=None)
    p.add_argument("--nz-max", type=int, default=None)
    _add_grid_args(p)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--bundle-dir", default=None, help="also write per-cell JSON bundles here")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("magnus", help="emit the switching-function integrals as JSON")
    common(p, model=False)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--nz", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=cmd_magnus)

    p = sub.add_parser("symmetry-check", help="emit b coefficients and parity defects as JSON")
    common(p, bath=True)
    p.add_argument("--nx", type=int, default=None, help="default 1")
    p.add_argument("--nz", type=int, default=None, help="default 1")
    p.add_argument("--tau", type=float, default=None, help="default 0.5")
    p.set_defaults(func=cmd_symmetry_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, args.parser)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    if getattr(args, "M", 1) is not None and getattr(args, "M", 1) < 1:
        parser.error("--M must be at least 1")
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
