"""Command line interface.

    hyporom fom run CONFIG      full-order solve, one snapshot CSV per variable
    hyporom rom run CONFIG      full pipeline: FOM, offline build, online ROM
    hyporom predict CONFIG      parametric training study
    hyporom sweep CONFIG        mode/window grid reusing one FOM trajectory
    hyporom wb-check SYSTEM     well-balanced preservation check

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

import sys
from pathlib import Path

import click
import numpy as np

from ..errors import ConfigError, HyporomError
from ..fluxes import FluxChoice
from ..fom import run_fom
from ..fom.swe import FAN_FIELDS, derived_fields
from ..rom.context import COEFF_MODES
from ..snapshots import SnapshotMatrix, export_csv
from .config import ExperimentConfig, load_config
from .experiment import (_case, _require_horizon, _state_fields,
                         run_experiment, run_prediction, sweep_modes_windows)
from .metrics import l1_error

CONFIG_EXIT = 2
NUMERICAL_EXIT = 3


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        _fail(exc, CONFIG_EXIT)
    except HyporomError as exc:
        _fail(exc, NUMERICAL_EXIT)


@click.group()
def main():
    """Finite-volume balance laws and their POD/DEIM reduced models."""


@main.group()
def fom():
    """Full-order model commands."""


@fom.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def fom_run(config_path):
    """Run the FOM of CONFIG and write one snapshot CSV per variable: the
    recorded ones, and for the SWE u, f and (HLL) the fan fields derived
    from h and q."""
    config = _guard(load_config, config_path)
    _guard(_require_horizon, config, "fom run")

    def body():
        _, model, state0 = _case(config)
        res = run_fom(model, state0, config.t_final, config.cfl,
                      snapshot_stride=config.snapshot_stride)
        snapshots = dict(res.snapshots)
        if config.system == "swe":
            h, q = snapshots["h"], snapshots["q"]
            names = ("u", "f") + (FAN_FIELDS if config.flux == "hll" else ())
            for name, data in derived_fields(h.data, q.data, model.params.g,
                                             names).items():
                snapshots[name] = SnapshotMatrix(data, h.times)
        outdir = Path(config.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, matrix in snapshots.items():
            export_csv(matrix, outdir / f"snapshots_{name}.csv")
        click.echo(f"{config.preset}: {res.n_steps} steps, "
                   f"{res.wall_seconds:.3f}s, outputs in {outdir}")

    _guard(body)


@main.group(name="rom")
def rom_group():
    """Reduced-order model commands."""


@rom_group.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def rom_run(config_path):
    """Run the full FOM -> ROM pipeline of CONFIG."""
    config = _guard(load_config, config_path)
    report = _guard(run_experiment, config)
    _echo_report(report)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def predict(config_path):
    """Train on CONFIG's training_set and predict target_param."""
    config = _guard(load_config, config_path)
    report = _guard(run_prediction, config)
    _echo_report(report)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def sweep(config_path):
    """Run the (sweep_modes x sweep_windows) grid of CONFIG."""
    config = _guard(load_config, config_path)
    rows = _guard(sweep_modes_windows, config, config.sweep_modes,
                  config.sweep_windows)
    for row in rows:
        errs = " ".join(f"{k}={row[k]:.3e}" for k in row if k.startswith("l1_"))
        click.echo(f"cap={row['mode_cap']} n_windows={row['n_windows']} "
                   f"M={row['selected_m']} {errs}")
    click.echo(f"sweep written to {Path(config.outdir) / 'sweep.csv'}")


_WB_PRESETS = {
    "transport": "transport_stationary",
    "burgers": "burgers_stationary",
    "swe": "swe_lake_at_rest",
}


@main.command("wb-check")
@click.argument("system", type=click.Choice(sorted(_WB_PRESETS)))
@click.option("--cells", default=200, show_default=True)
@click.option("--flux", default=None,
              type=click.Choice([flux.value for flux in FluxChoice]),
              help="Numerical flux (defaults to mlf).")
@click.option("--coeff-mode", default="tav",
              type=click.Choice(COEFF_MODES), show_default=True,
              help="HLL fan-coefficient treatment.")
@click.option("--outdir", default="out", show_default=True)
def wb_check(system, cells, flux, coeff_mode, outdir):
    """Check preservation of the stationary state for SYSTEM."""
    config = _guard(ExperimentConfig,
                    preset=_WB_PRESETS[system],
                    flux=flux or "mlf",
                    n_cells=cells,
                    n_windows=1,
                    linearization="tav" if coeff_mode == "tav"
                    else "deim_u_deim_f",
                    coeff_mode=coeff_mode,
                    snapshot_stride=max(1, cells // 200),
                    outdir=outdir)

    def body():
        grid, _, state0 = _case(config)
        report = run_experiment(config)
        # Compare the ROM final state against the initial stationary state.
        click.echo(f"wb-check {system} ({config.flux}"
                   + (f", coeff={coeff_mode}" if config.flux == "hll" else "")
                   + f"), {cells} cells:")
        initial = _state_fields(config, state0)
        ok = True
        for var in report.l1:
            err = l1_error(report.final[var], initial[var], grid.dx)
            ok &= err <= 1e-12 * max(1.0, float(np.max(np.abs(initial[var]))))
            click.echo(f"  L1(initial, final ROM) {var}: {err:.3e}")
        modes = ";".join(str(m) for m in report.modes_per_window)
        click.echo(f"  modes per window: {modes}")
        click.echo("  PASS" if ok else "  FAIL")
        if not ok:
            sys.exit(NUMERICAL_EXIT)

    _guard(body)


def _echo_report(report):
    errs = " ".join(f"l1_{v}={report.l1[v]:.3e}" for v in report.l1)
    click.echo(f"{report.case}: {errs}")
    click.echo(f"  modes per window: {report.modes_per_window}")
    click.echo(f"  fom {report.fom_seconds:.3f}s, offline "
               f"{report.offline_seconds:.3f}s, online "
               f"{report.online_seconds:.3f}s, speedup {report.speedup:.1f}x")


if __name__ == "__main__":
    main()
