"""Command-line front end.

Subcommands: couplings, schedule, simulate, sweep, table, magnus,
symmetry-check. Every command is deterministic given its flags and seed;
floats are serialized with 17 significant digits so files round-trip
bit-exactly. A JSON config file may supply any option of the subcommand
(key = the option's destination, e.g. `nx_max` for --nx-max, `out_dir` for
--out-dir, `M`, `symmetry_class` for --class, `lam` for --lambda). Each
option resolves as its flag, else its config value, else its built-in
default: the config's values become the parser's defaults, and the command
line is parsed again. A config value passes through its flag's type and
choices as if it were given on the command line; a null value, and a key
the subcommand does not have, are errors. The cell of schedule, simulate
and magnus (--nx, --nz and --tau) and sweep's --out-dir have no default:
they must come from a flag or the config. A draw option (--seed, --M, --class,
--topology, --alpha, --lambda) beside --couplings, as flag or config key, is an error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .evolution import qdd_decomposition
from .linalg import PauliAxis
from .magnus import nested_integrals
from .metrics import BathKind, default_directions, make_states, qdd_distances, series_csv
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


def _parse_directions(text: str) -> list[tuple[PauliAxis, int]]:
    """Parse 'x+,y-,z' into per-spin (axis, sign) pairs; a bare axis means +.
    `make_states` checks that there is one per bath spin."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    out = []
    for e in entries:
        match = _DIRECTION.fullmatch(e.lower())
        if match is None:
            raise ValueError(f"bad direction {e!r}: want x, y or z with an optional + or -")
        out.append((PauliAxis(match[1]), -1 if match[2] == "-" else +1))
    return out


def _load_couplings(args) -> CouplingSet:
    if args.couplings:
        return CouplingSet.from_json(Path(args.couplings).read_text())
    return random_couplings(
        seed=args.seed,
        m=args.M,
        symmetry_class=_CLASS[args.symmetry_class],
        topology=_TOPOLOGY[args.topology],
        alpha=args.alpha,
        lam=args.lam,
    )


def _bath_for(args, m: int):
    """The bath factor R of `make_states`, the bath kind and its directions."""
    kind = _BATH[args.bath]
    directions = _parse_directions(args.directions) if args.directions else None
    if kind is BathKind.PRODUCT and directions is None:
        directions = default_directions(m)
    return make_states(kind, m, directions), kind, directions


#: The draw options by destination, with their built-in defaults; `parse_args`
#: fills these in, and none may be given beside --couplings.
_DRAW_DEFAULTS = {
    "seed": 1, "M": 3, "symmetry_class": "anisotropic", "topology": "central-spin",
    "alpha": 1.0, "lam": 1.0,
}


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--couplings", help="JSON coupling file (instead of the draw flags)")
    p.add_argument("--seed", type=int)
    p.add_argument("--M", type=int, help="number of bath spins")
    p.add_argument("--class", dest="symmetry_class", choices=sorted(_CLASS))
    p.add_argument("--topology", choices=sorted(_TOPOLOGY))
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float)


def _resolve_draw(args: argparse.Namespace) -> None:
    """Reject draw options given beside --couplings; fill the unset ones with defaults."""
    given = [key for key in _DRAW_DEFAULTS if getattr(args, key) is not None]
    if args.couplings and given:
        flags = ", ".join(_options(args.parser)[key].option_strings[0] for key in given)
        raise ValueError(
            f"--couplings reads the model from its file; drop the draw options {flags}"
        )
    for key, default in _DRAW_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)


def _add_bath_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bath", choices=sorted(_BATH), default="product")
    p.add_argument("--directions", default=None, help="product-bath spins, e.g. 'x+,y-,z+'")


def _add_cell_args(p: argparse.ArgumentParser, keys=("nx", "nz", "tau"), cell=None) -> None:
    """--nx, --nz and --tau, defaulting to `cell` when one is given."""
    for key, value in zip(keys, cell or (None,) * len(keys)):
        p.add_argument(
            f"--{key}",
            type=float if key == "tau" else int,
            default=value,
            help=None if value is None else f"default {value}",
        )


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The tau grid; leaving --tau-min and --tau-max unset selects the adaptive one."""
    p.add_argument("--tau-min", type=float, default=None)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("--points", type=int, default=AdaptiveGrid.points)


def _add_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nx-max", type=int, default=3)
    p.add_argument("--nz-max", type=int, default=3)
    _add_grid_args(p)
    p.add_argument("--d-lo", type=float, default=D_LO)
    p.add_argument("--d-hi", type=float, default=D_HI)
    p.add_argument("--workers", type=int, default=1)


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The options a config may set, by destination."""
    # argparse lists a parser's options only in its `_actions`
    return {
        a.dest: a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")
    }


def _config_value(action: argparse.Action, key: str, value) -> object:
    """A config value read as its flag's command-line text would be; null is no value."""
    if value is None:
        raise ValueError(f"config {key!r}: null is not a value; leave the key out for its default")
    text = str(value)
    try:
        converted = text if action.type is None else action.type(text)
    except ValueError:
        raise ValueError(f"config {key!r}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ValueError(f"config {key!r}: {value!r} is not one of {choices}")
    return converted


def _config_defaults(args: argparse.Namespace) -> dict[str, object]:
    """The --config file's values, each checked and typed as its flag's would be."""
    config = json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    options = _options(args.parser)
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(
            f"config keys {', '.join(unknown)} are not options of {args.command}; "
            f"its options are {', '.join(sorted(options))}"
        )
    return {key: _config_value(options[key], key, value) for key, value in config.items()}


def _fixed_grid(args) -> GeometricGrid:
    """The geometric grid of --tau-min to --tau-max; an unset bound is 1e-3 or 1."""
    return GeometricGrid(
        tau_min=1e-3 if args.tau_min is None else args.tau_min,
        tau_max=1.0 if args.tau_max is None else args.tau_max,
        points=args.points,
    )


def _grid_from(args) -> GeometricGrid | AdaptiveGrid:
    if args.tau_min is None and args.tau_max is None:
        return AdaptiveGrid(points=args.points)
    return _fixed_grid(args)


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
    r, _, _ = _bath_for(args, couplings.m)
    taus = _fixed_grid(args).taus()
    results = qdd_distances(build_hamiltonian(couplings), r, args.nx, args.nz, taus)
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


def _write_bundles(table, spec: SweepSpec, out_dir: str, series: bool) -> None:
    """One JSON fit bundle per fitted cell, after its series CSV when `series`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (nx, nz), cell in sorted(table.cells.items()):
        stem = out / f"cell_nx{nx}_nz{nz}"
        if series:
            stem.with_suffix(".csv").write_text(series_csv(cell.points))
        stem.with_suffix(".json").write_text(json.dumps(cell.to_json_dict(spec), indent=2) + "\n")


def _report_failures(table) -> int:
    """List the failed cells on stderr; the exit code is 2 if there are any."""
    for (nx, nz), message in sorted(table.failures.items()):
        sys.stderr.write(f"cell ({nx},{nz}) failed: {message}\n")
    return 2 if table.failures else 0


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    table = exponent_table(spec)
    _write_bundles(table, spec, args.out_dir, series=True)
    return _report_failures(table)


def cmd_table(args) -> int:
    spec = _build_spec(args)
    table = exponent_table(spec)
    _emit(table.to_csv(), args.output)
    if args.bundle_dir:
        _write_bundles(table, spec, args.bundle_dir, series=False)
    return _report_failures(table)


def cmd_magnus(args) -> int:
    profile = switching_profile(qdd_schedule(args.nx, args.nz, args.tau))
    report = nested_integrals(profile)
    _emit(json.dumps(report.integrals_json_dict(), indent=2) + "\n", args.output)
    return 0


def cmd_symmetry_check(args) -> int:
    couplings = _load_couplings(args)
    parts = build_hamiltonian(couplings)
    r, _, _ = _bath_for(args, couplings.m)
    blocks = qdd_decomposition(parts, args.nx, args.nz, args.tau)
    report = symmetry_report(blocks, r, couplings.m)
    _emit(report.to_json() + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The parser; a subparser's `required` default names what a flag or the config must give.
    Flags match exactly: `--nx` is not `--nx-max`, nor `--tau` a prefix of `--tau-min`."""
    parser = argparse.ArgumentParser(
        prog="qddsim",
        description="Quadratic dynamical decoupling of a qubit in a spin bath",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, bath=False, output=True):
        p.allow_abbrev = False
        p.set_defaults(parser=p, required=())
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
    _add_cell_args(p)
    p.set_defaults(func=cmd_schedule, required=("nx", "nz", "tau"))

    p = sub.add_parser(
        "simulate",
        help="emit the (tau, d) series of one cell as CSV",
        description=(
            "Emit the (tau, d) series of one cell as CSV on a fixed geometric "
            "tau grid. Without --tau-min and --tau-max the grid runs from 1e-3 "
            "to 1 (the adaptive grid of sweep and table is not used)."
        ),
    )
    common(p, bath=True)
    _add_cell_args(p, ("nx", "nz"))
    _add_grid_args(p)
    p.set_defaults(func=cmd_simulate, required=("nx", "nz"))

    p = sub.add_parser("sweep", help="run a cell grid; write per-cell series and fit bundles")
    common(p, bath=True, output=False)
    _add_table_args(p)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep, required=("out_dir",))

    p = sub.add_parser("table", help="emit the fitted exponent grid as CSV")
    common(p, bath=True)
    _add_table_args(p)
    p.add_argument("--bundle-dir", default=None, help="also write per-cell JSON bundles here")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("magnus", help="emit the switching-function integrals as JSON")
    common(p, model=False)
    _add_cell_args(p)
    p.set_defaults(func=cmd_magnus, required=("nx", "nz", "tau"))

    p = sub.add_parser("symmetry-check", help="emit b coefficients and parity defects as JSON")
    common(p, bath=True)
    _add_cell_args(p, cell=(1, 1, 0.5))
    p.set_defaults(func=cmd_symmetry_check)

    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse `argv`, resolving each option as flag, else config, else default.

    A bad config raises ValueError or OSError, a draw option beside --couplings
    ValueError; a usage error exits with code 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args.parser.set_defaults(**_config_defaults(args))
        args = parser.parse_args(argv)  # explicit flags win over the config
    options = _options(args.parser)
    missing = [
        "/".join(options[key].option_strings) for key in args.required if getattr(args, key) is None
    ]
    if missing:
        args.parser.error(f"the following arguments are required: {', '.join(missing)}")
    if hasattr(args, "couplings"):
        _resolve_draw(args)
    if getattr(args, "M", 1) < 1:
        parser.error("--M must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
