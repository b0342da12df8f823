"""The `coarsehom` command line: `list` prints the catalog and `run`
runs one experiment of coarsehom.cli and prints its JSON report.

coarsehom.cli hands this group out as its `main` on first use, so the
entry point `coarsehom.cli:main` and `python -m coarsehom.cli` reach it,
and only they load click.  Exit codes are those of coarsehom.cli.
"""

from __future__ import annotations

import json
import sys

import click

from .cli import catalog, run_experiment
from .errors import GroupMismatchError, InvalidElementError, \
    NotACycleError, ResourceLimitError


@click.group()
def main():
    """Exact workbench for coarse maps, chain complexes, finite-group
    homology and finite orbit-equivalence dynamics."""


@main.command("list")
@click.option("--kind", default="all",
              type=click.Choice(["groups", "maps", "scenarios",
                                 "experiments", "all"]))
def list_cmd(kind):
    """Print the catalog of named groups, maps, scenarios and
    experiments."""
    cat = catalog()
    if kind != "all":
        cat = {kind: cat[kind]}
    click.echo(json.dumps(cat, indent=2, sort_keys=True))


@main.command("run")
@click.option("--experiment", default=None, help="experiment name")
@click.option("--config", "config_file", default=None,
              type=click.Path(exists=False), help="JSON config file")
@click.option("--out", "out_file", default=None,
              type=click.Path(), help="write the report here")
@click.option("--seed", default=None, type=int)
@click.option("--max-radius", default=None, type=int,
              help="overrides radius-like settings")
@click.option("--max-degree", default=None, type=int,
              help="overrides the degree cap")
def run_cmd(experiment, config_file, out_file, seed, max_radius,
            max_degree):
    """Run a named experiment and emit its JSON report."""
    config = {}
    if config_file is not None:
        try:
            with open(config_file) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            click.echo(json.dumps({"error": f"bad config: {exc}"}),
                       err=True)
            sys.exit(2)
        if not isinstance(config, dict):
            click.echo(json.dumps({"error": "config must be an object"}),
                       err=True)
            sys.exit(2)
    if experiment is not None:
        config["experiment"] = experiment
    if seed is not None:
        config["seed"] = seed
    if max_radius is not None:
        for key in ("radius", "check_radius", "x_radius", "tuple_radius"):
            config[key] = max_radius
    if max_degree is not None:
        config["max_degree"] = max_degree
    if "experiment" not in config:
        click.echo(json.dumps({"error": "no experiment named"}), err=True)
        sys.exit(2)
    try:
        report = run_experiment(config)
    except (ResourceLimitError, MemoryError) as exc:
        # running out of memory is a cap the machine set: exit 3, as for
        # the program's own caps, not 1, which means falsified
        click.echo(json.dumps(
            {"error": f"resource cap: {str(exc) or 'out of memory'}"}),
            err=True)
        sys.exit(3)
    except (InvalidElementError, GroupMismatchError, NotACycleError,
            KeyError, ValueError, TypeError) as exc:
        click.echo(json.dumps(
            {"error": f"{type(exc).__name__}: {exc}"}), err=True)
        sys.exit(2)
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)
    sys.exit(0 if report["body"]["pass"] else 1)

