"""Command-line interface.

Subcommands: ``simulate`` (field dump), ``estimate`` (single pipeline on a
stored field), ``mc`` (Monte Carlo summary), ``oracle`` (expected
squared-increment and asymptotic-mean table), ``cross-section`` (figure
data).  Exit status 0 on success and 1 on configuration and file errors;
estimation failure tags are data, recorded in the outputs, not process
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Replications parallelize across worker processes; a multi-threaded BLAS
# pool underneath them only adds contention.  Must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import fieldio
from .errors import ConfigError, GridMismatchError, MemoryBudgetError, ThinningError
from .harness import (ExperimentConfig, cross_section, default_config,
                      estimate_field, load_config, run_monte_carlo,
                      section_record, thinnings, write_csv)
from .increments import (asymptotic_mean, expected_squared_increment_oracle)
from .model import NoiseKind
from .simulate import simulate_field


_OPTIONS = {
    "config": dict(help="experiment configuration JSON (defaults to the "
                   "desk-scale configuration)"),
    "seed": dict(type=int, help="override the master seed"),
    "replications": dict(type=int, help="override the replication count"),
    "threads": dict(type=int, default=1,
                    help="worker processes for Monte Carlo (default 1)"),
}


def _add_options(p: argparse.ArgumentParser, *names: str):
    """Give subcommand ``p`` the shared options ``names`` and ``--out-dir``;
    a subcommand takes only the options it reads."""
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])
    p.add_argument("--out-dir", default=".", help="output directory")


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else default_config()
    overrides = config.to_dict()
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        overrides["replications"] = args.replications
    return ExperimentConfig.from_dict(overrides)


def _check_dir(path: str, what: str) -> None:
    """Refuse a directory that cannot be made: the path, or else its
    nearest existing ancestor, is not a directory."""
    existing = path
    while existing and not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(f"{what}: {existing} is not a directory")


def _check_outputs(args) -> None:
    """Refuse, before any work, an ``--out-dir`` that cannot be made and an
    output file of the command that cannot be written there: one that is a
    directory, or whose directory cannot be made."""
    _check_dir(args.out_dir, f"--out-dir {args.out_dir}")
    for name in args.outputs(args):
        path = os.path.join(args.out_dir, name)
        if os.path.basename(path) in ("", ".", "..") or os.path.isdir(path):
            raise ConfigError(f"{path} is a directory, not an output file")
        _check_dir(os.path.dirname(path), path)


def _outpath(args, name: str) -> str:
    path = os.path.join(args.out_dir, name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _cmd_simulate(args) -> int:
    config = _load(args)
    field = simulate_field(config.params, config.kind, config.grid,
                           config.trunc, seed=config.seed, rep=args.rep)
    path = _outpath(args, args.name)
    fieldio.write_field(field, path)
    print(f"wrote {path} and {path}.meta.json")
    return 0


def _check_provenance(config: ExperimentConfig, provenance: dict) -> None:
    """Refuse a dump whose sidecar disagrees with the config on a value that
    estimation takes as known: the noise family, ``alpha``, and ``mu0`` for
    known-mu0 Q2.  The two Q2 kinds simulate the same field, so either one
    estimates a Q2 dump.  A dump without a sidecar is not checked."""
    if not (isinstance(provenance, dict)
            and isinstance(provenance.get("params", {}), dict)):
        raise ConfigError("the dump's .meta.json sidecar is not an object "
                          "with an object \"params\"")
    params = provenance.get("params", {})
    kind = provenance.get("kind")
    family = [k.value for k in NoiseKind if k.is_q2 == config.kind.is_q2]
    if kind is not None and kind not in family:
        raise ConfigError(f"kind: the dump was simulated with {kind!r}, "
                          f"the config says {config.kind.value!r}")
    known = {"alpha": config.params.alpha}
    if config.kind is NoiseKind.Q2_KNOWN_MU0:
        known["mu0"] = config.params.mu0
    for key, value in known.items():
        if params.get(key, value) != value:
            raise ConfigError(f"params.{key}: the dump was simulated with "
                              f"{params[key]!r}, the config says {value!r}")


def _cmd_estimate(args) -> int:
    config = _load(args)
    thin, coarse = thinnings(config)
    observed = fieldio.read_field(
        args.field, grid=config.grid,
        record=(thin.index_y, thin.index_z, coarse))
    _check_provenance(config, observed.provenance)
    record = estimate_field(config, observed)
    payload = record.to_dict()
    if args.covariance:
        payload["covariance"] = _covariance_at_estimates(config, record)
    path = _outpath(args, "estimate.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _covariance_at_estimates(config, record):
    """Asymptotic covariance evaluated at the plug-in estimates (null when
    the estimates are incomplete or outside the admissible region)."""
    from .model import ModelParams
    from .plugins import covariance_J, covariance_K, covariance_L

    est = record.estimates
    if est.failure is not None:
        return None
    try:
        params = ModelParams(
            theta0=est.theta0 if est.theta0 is not None else 0.0,
            theta1=est.theta1, eta1=est.eta1, theta2=est.theta2,
            sigma=est.sigma2 ** 0.5, alpha=config.params.alpha,
            mu0=est.mu0)
        if config.kind is NoiseKind.Q1:
            cov = covariance_J(params)
        elif config.kind is NoiseKind.Q2_KNOWN_MU0:
            cov = covariance_K(params)
        else:
            cov = covariance_L(params)
    except (ConfigError, ValueError):
        return None
    return {"which": cov.which, "labels": list(cov.labels),
            "entries": cov.entries.tolist()}


def _cmd_mc(args) -> int:
    config = _load(args)
    table = run_monte_carlo(config, threads=args.threads)
    csv_path = _outpath(args, "summary.csv")
    with open(csv_path, "w") as fh:
        write_csv(fh, *table.csv())
    json_path = _outpath(args, "summary.json")
    with open(json_path, "w") as fh:
        fh.write(table.to_json())
    records_path = _outpath(args, "records.json")
    with open(records_path, "w") as fh:
        fh.write(table.records_json())
    print(f"wrote {csv_path}, {json_path}, {records_path}")
    return 0


def _cmd_oracle(args) -> int:
    config = _load(args)
    n_steps = config.grid.N
    if args.i:
        try:
            idx = [int(tok) for tok in args.i.split(",")]
        except ValueError:
            raise ConfigError(f"--i takes comma-separated integers, got "
                              f"{args.i!r}") from None
    else:
        idx = list(range(1, n_steps + 1))
    rows = [(i, expected_squared_increment_oracle(
                config.params, config.kind, i, n_steps, args.y, args.z,
                config.trunc)) for i in idx]
    rows.append(("asymptotic_mean",
                 asymptotic_mean(config.params, config.kind, args.y, args.z)))
    path = _outpath(args, "oracle.csv")
    with open(path, "w") as fh:
        write_csv(fh, ("i", "expected_squared_increment"), rows)
    print(f"wrote {path}")
    return 0


def _cmd_cross_section(args) -> int:
    grid = fieldio.read_grid(args.field)
    record = section_record(grid, args.axis, args.level)
    obs = fieldio.read_field(args.field, grid=grid, record=record)
    section = cross_section(obs, args.axis, args.level)
    path = _outpath(args, _section_name(args))
    with open(path, "w") as fh:
        write_csv(fh, *section.csv())
    print(f"wrote {path}")
    return 0


def _section_name(args) -> str:
    return f"cross_section_{args.axis}_{args.level}.csv"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde2d",
        description="Simulation and estimation for linear parabolic "
                    "random fields on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one field and dump it")
    _add_options(p, "config", "seed")
    p.add_argument("--rep", type=int, default=0, help="replication index")
    p.add_argument("--name", default="field.bin", help="dump file name")
    p.set_defaults(func=_cmd_simulate,
                   outputs=lambda a: [a.name, a.name + ".meta.json"])

    p = sub.add_parser("estimate", help="estimate from a stored field dump")
    _add_options(p, "config")
    p.add_argument("--field", required=True, help="path to a field dump")
    p.add_argument("--covariance", action="store_true",
                   help="attach the asymptotic covariance evaluated at the "
                        "plug-in estimates")
    p.set_defaults(func=_cmd_estimate, outputs=lambda a: ["estimate.json"])

    p = sub.add_parser("mc", help="Monte Carlo summary over replications")
    _add_options(p, "config", "seed", "replications", "threads")
    p.set_defaults(func=_cmd_mc, outputs=lambda a: [
        "summary.csv", "summary.json", "records.json"])

    p = sub.add_parser("oracle", help="expected squared-increment table")
    _add_options(p, "config")
    p.add_argument("--y", type=float, default=0.5)
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--i", help="comma-separated increment indices "
                   "(default: all)")
    p.set_defaults(func=_cmd_oracle, outputs=lambda a: ["oracle.csv"])

    p = sub.add_parser("cross-section", help="slice a stored field dump")
    _add_options(p)
    p.add_argument("--field", required=True, help="path to a field dump")
    p.add_argument("--axis", required=True, choices=["t", "y", "z"])
    p.add_argument("--level", required=True, type=float)
    p.set_defaults(func=_cmd_cross_section,
                   outputs=lambda a: [_section_name(a)])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (ConfigError, GridMismatchError, ThinningError, MemoryBudgetError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
