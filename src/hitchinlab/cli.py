"""Command-line driver: deterministic solves, sweeps, and reports.

Subcommands: solve-psi, fiducial, spectrum, indicial, glue, torus.  Each
takes the flags it reads, listed in ``FLAGS``, and nothing else.  Flags win
over an optional JSON config file; every report embeds the configuration it
was produced from and floats are written with 17 significant digits, so
rerunning a command yields byte-identical artifacts.  Exit codes: 0 success,
1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import fiducial, gluing, linearized, painleve, topology
from .errors import NumericalError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    t: list = field(default_factory=lambda: [1.0, 2.0, 4.0, 8.0])
    grid: int = 2000
    lmax: int = 32
    tol: float = 1e-9
    out: str = "."
    jobs: int = 1
    format: str = "json"
    gamma: int = 2

    def validate(self) -> None:
        if not self.tol > 0:
            raise UsageError("tolerance must be positive")
        if "t" in FLAGS[self.command]:
            if not self.t:
                raise UsageError(f"{self.command}: no t given")
            repeated = sorted({t for t in self.t if self.t.count(t) > 1})
            if repeated:
                raise UsageError(f"{self.command}: t repeated: "
                                 + ", ".join(_t_name(t) for t in repeated))
        for t in self.t:
            fiducial.check_t(t)
        if self.grid < linearized.MIN_GRID:
            raise UsageError(f"grid size must be at least {linearized.MIN_GRID}")
        if self.jobs != 1:
            raise UsageError(f"jobs must be 1, not {self.jobs}: commands run serially")
        lmax_min = linearized.MIN_ELL_MAX if self.command == "spectrum" else 1
        if self.lmax < lmax_min:
            raise UsageError(f"{self.command}: lmax must be at least {lmax_min}")
        if self.format not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        if self.gamma < 2:
            raise UsageError("gamma must be at least 2")

    def to_dict(self) -> dict:
        """The command and the flags it takes, each with its value."""
        return {name: getattr(self, name) for name in ("command", *FLAGS[self.command])}


# the flags each command takes besides --config: those it reads, then --out and
# --jobs, which all six take, and accept only as 1, because bench/workload.py
# passes --jobs 1 to each; spectrum also takes the --grid it passes, unread
FLAGS = {command: (*reads, "out", "jobs") for command, reads in {
    "solve-psi": (),
    "fiducial": ("t",),
    "spectrum": ("t", "grid", "lmax"),
    "indicial": ("lmax", "format"),
    "glue": ("t", "grid", "tol"),
    "torus": ("gamma", "format"),
}.items()}

# the conversion each flag applies to its text: float for each t, else the
# type of its field's default
FLAG_TYPES = {f.name: float if f.name == "t" else type(f.default)
              for f in fields(RunConfig) if f.name != "command"}
FLAG_EXTRAS = {
    "t": {"action": "append", "help": "parameter value; repeatable"},
    "format": {"choices": ("json", "csv")},
}


def _format_value(v):
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return json.dumps(str(v))


def _emit_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_emit_json(obj[k], indent + 1)}' for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _format_value(obj)


def write_json(path: Path, payload: dict) -> None:
    path.write_text(_emit_json(payload) + "\n", encoding="utf-8")


def _outdir(config: RunConfig) -> Path:
    """The output directory, made if missing; a path that is no directory exits 2."""
    out = Path(config.out)
    try:
        out.mkdir(exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {out} as output directory: {exc.strerror}") from exc
    return out


def _t_name(t: float) -> str:
    """t in the shortest digits that read back as t, for artifact names:
    positional, or scientific where that would run past 32 characters (a
    tiny t), so that a name stays short and no two values share one."""
    name = np.format_float_positional(t, trim="-")
    return name if len(name) <= 32 else np.format_float_scientific(t, trim="-")


def cmd_solve_psi(config: RunConfig) -> int:
    out = _outdir(config)
    profile = painleve.solve_connection()
    painleve.export_profile_csv(profile, out / "psi.csv")
    write_json(out / "summary.json", {
        "config": config.to_dict(),
        "a0": profile.a0,
        "lambda": profile.lam,
        "residual_max": profile.residual_max,
        "match_mismatch": profile.match_mismatch,
        "eta_at_rho_max": profile.eta[-1],
    })
    return EXIT_OK


def cmd_fiducial(config: RunConfig) -> int:
    out = _outdir(config)
    profile = painleve.solve_connection()

    def one(t):
        fam = fiducial.build_family(t, profile)
        fiducial.export_family_csv(fam, out / f"fiducial_t{_t_name(t)}.csv")
        return fiducial.family_summary(fam)

    summaries = [one(t) for t in config.t]
    write_json(out / "fiducial_summary.json",
               {"config": config.to_dict(), "families": summaries})
    return EXIT_OK


def cmd_spectrum(config: RunConfig) -> int:
    out = _outdir(config)
    profile = painleve.solve_connection()
    reports = linearized.green_norms(config.t, config.lmax, profile)
    write_json(out / "spectrum.json", {"config": config.to_dict(),
                                       "reports": [rep.to_dict() for rep in reports]})
    return EXIT_OK


def cmd_indicial(config: RunConfig) -> int:
    out = _outdir(config)
    roots = linearized.indicial_roots(range(-config.lmax, config.lmax + 1))
    restricted = linearized.restricted_indicial_roots(range(-config.lmax, config.lmax))
    payload = {
        "config": config.to_dict(),
        "aggregate": [float(v) for v in roots["aggregate"]],
        "restricted": [float(v) for v in restricted],
        "per_ell": {
            str(ell): [[float(root), mult] for root, mult in pairs]
            for ell, pairs in roots["per_ell"].items()
        },
    }
    if config.format == "csv":
        painleve.write_columns_csv(out / "indicial.csv", "root", [payload["aggregate"]])
    write_json(out / "indicial.json", payload)
    return EXIT_OK


def cmd_glue(config: RunConfig) -> int:
    out = _outdir(config)
    profile = painleve.solve_connection()

    def one(t):
        # one glued state per t serves both the Newton repair and the decay fit
        state = gluing.glued_on_grid(t, profile, config.grid)
        result = gluing.newton_correct(state, tol=config.tol)
        return (gluing.corrected_solution_check(state, result), result.residual_history,
                state.l2_residual())

    done = [one(t) for t in config.t]
    fit = None
    if len(config.t) >= 4:  # before any file, so a fit at the residual floor writes none
        delta, intercept, r2 = fiducial.decay_fit(config.t, [norm for _, _, norm in done])
        fit = {"delta_hat": delta, "c_hat": float(np.exp(intercept)), "r_squared": r2}
    for t, (_, history, _) in zip(config.t, done):
        painleve.write_columns_csv(out / f"newton_t{_t_name(t)}.csv", "iteration,residual",
                                   [np.arange(len(history)), history])
    write_json(out / "glue.json", {"config": config.to_dict(), "delta_fit": fit,
                                   "corrections": [row for row, _, _ in done]})
    return EXIT_OK


def cmd_torus(config: RunConfig) -> int:
    out = _outdir(config)
    rows = topology.dimension_table(range(2, config.gamma + 1))
    if config.format == "csv":
        painleve.write_columns_csv(out / "torus.csv", "gamma,k,h0,h1,expected", np.array(rows).T)
    gamma = config.gamma
    write_json(out / "torus.json", {
        "config": config.to_dict(),
        "gamma": gamma,
        "dim": topology.row_dimension(rows[-1]),  # the row of gamma itself
        "table": [list(r) for r in rows],
    })
    return EXIT_OK


COMMANDS = {
    "solve-psi": cmd_solve_psi,
    "fiducial": cmd_fiducial,
    "spectrum": cmd_spectrum,
    "indicial": cmd_indicial,
    "glue": cmd_glue,
    "torus": cmd_torus,
}


def _build_parser(command) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command when it is None.

    argparse spends most of a cold call adding flags, so a call that names
    its command builds only that command's.  Its usage line still lists
    every command: argparse would list only the one registered.
    """
    parser = argparse.ArgumentParser(
        prog="hitchinlab",
        description="Model-disk solves and sweeps with machine-readable reports.",
    )
    # not on the full parser: a metavar also renames "command" in its
    # missing and invalid command errors
    metavar = None if command is None else "{" + ",".join(FLAGS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in FLAGS if command is None else [command]:
        p = sub.add_parser(name)
        for flag in FLAGS[name]:
            p.add_argument(f"--{flag}", type=FLAG_TYPES[flag], default=None,
                           **FLAG_EXTRAS.get(flag, {}))
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults; explicit flags win")
    return parser


def _config_value(name: str, value):
    """A config-file value through its flag's conversion, applied to its text;
    t takes a list.  A value no flag could carry raises UsageError."""
    items = value if name == "t" else [value]
    if isinstance(items, list) and all(type(v) in (str, int, float) for v in items):
        try:
            converted = [FLAG_TYPES[name](str(v)) for v in items]
            return converted if name == "t" else converted[0]
        except ValueError:
            pass
    raise UsageError(f"config key {name!r}: invalid value {value!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    flags = FLAGS[args.command]
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} not found")
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        for key, value in data.items():
            if key not in flags:
                raise UsageError(f"config key {key!r} is not a flag of {args.command}")
            setattr(config, key, _config_value(key, value))
    for name in flags:
        value = getattr(args, name)
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in FLAGS else None
    args = _build_parser(command).parse_args(argv)
    try:
        config = _merge_config(args)
        return COMMANDS[args.command](config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(json.dumps({"error": "numerical-failure", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
