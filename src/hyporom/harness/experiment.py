"""Experiment runner: FOM -> offline ROM build -> online replay -> report.

run_experiment reproduces the single-parameter studies, run_prediction the
parametric training study, and sweep_modes_windows the mode/window grids.
Each writes report.csv (fixed columns, one row per run), solution_<var>.csv
and spectrum_<var>_<window>.csv into the configured output directory.
Timings come from the monotonic clock; the speedup compares the plain
(unrecorded) FOM solve against the ROM's online stepping only.
"""

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, ExperimentError, HyporomError
from ..fluxes import FluxChoice
from ..fom import (BurgersModel, BurgersParams, SweModel, SweParams,
                   TransportModel, TransportParams, run_fom)
from ..grid import Grid1D
from ..rom import build_rom, run_rom
from ..snapshots import concat_parametric
from .config import ExperimentConfig
from .metrics import l1_error, linf_error
from .presets import get_preset

_FLUX_MAP = {
    "mlf": FluxChoice.MODIFIED_LAX_FRIEDRICHS,
    "rusanov": FluxChoice.RUSANOV,
    "lf": FluxChoice.LAX_FRIEDRICHS,
    "hll": FluxChoice.HLL,
}

REPORT_COLUMNS = [
    "case", "system", "flux", "linearization", "coeff_mode", "preset",
    "n_cells", "n_windows", "eps_pod", "mode_cap", "t_final", "cfl", "nu",
    "n_b", "target_param", "training_set", "n_steps", "n_snapshot_cols",
    "modes_per_window", "deim_indices", "l1_w", "linf_w", "l1_h", "linf_h",
    "l1_q", "linf_q", "fom_seconds", "offline_seconds", "online_seconds",
    "speedup",
]

TIMING_COLUMNS = ("fom_seconds", "offline_seconds", "online_seconds",
                  "speedup")


@dataclass
class ErrorReport:
    case: str
    l1: dict = field(default_factory=dict)
    linf: dict = field(default_factory=dict)
    fom_seconds: float = 0.0
    offline_seconds: float = 0.0
    online_seconds: float = 0.0
    modes_per_window: list = field(default_factory=list)
    spectra: dict = field(default_factory=dict)
    deim_indices: dict = field(default_factory=dict)  # (var, window) -> rows
    n_steps: int = 0
    n_snapshot_cols: int = 0
    final: dict = field(default_factory=dict)         # var -> final ROM field

    @property
    def speedup(self) -> float:
        if self.online_seconds <= 0.0:
            return float("inf")
        return self.fom_seconds / self.online_seconds


def make_model(config: ExperimentConfig, grid: Grid1D, n_b: float | None = None):
    flux = _FLUX_MAP[config.flux]
    if config.system == "transport":
        return TransportModel(
            TransportParams(c=config.c, alpha=config.alpha, nu=config.nu),
            grid, flux)
    if config.system == "burgers":
        return BurgersModel(BurgersParams(alpha=config.alpha, nu=config.nu),
                            grid, flux)
    preset = get_preset(config.preset)
    params = SweParams(g=config.g,
                       n_b=config.n_b if n_b is None else n_b,
                       nu=config.nu, bathymetry=preset.bathymetry)
    return SweModel(params, grid, flux)


def initial_state(config: ExperimentConfig, grid: Grid1D):
    return get_preset(config.preset).initial(grid, config)


def _rom_system(config: ExperimentConfig) -> str:
    if config.flux == "rusanov":
        # The reduced operators bake a constant viscosity coefficient in;
        # the state-dependent Rusanov coefficient has no reduced form.
        raise ConfigError(
            "no reduced formulation for the Rusanov flux; "
            "use mlf, lf or hll (the full-order solver still supports it)")
    if config.system in ("transport", "burgers"):
        return config.system
    return "swe_hll" if config.flux == "hll" else "swe_lf"


def _recorded_steps(result) -> np.ndarray:
    """Full-step index of each recorded snapshot column."""
    times = result.snapshots[next(iter(result.snapshots))].times
    return np.searchsorted(result.times, times)


def _state_fields(config: ExperimentConfig, state) -> dict:
    """Conserved fields of a FOM state, keyed by variable id."""
    if config.system in ("transport", "burgers"):
        return {"w": np.asarray(state, dtype=float)}
    return {"h": state.h, "q": state.q}


def _stage(label, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except HyporomError as exc:
        raise ExperimentError(label, str(exc)) from exc


def _build(config, grid, groups, model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_rom(
            _rom_system(config), groups, model.params, grid,
            n_windows=config.n_windows, eps_pod=config.eps_pod,
            mode_cap=config.mode_cap,
            linearization=config.linearization
            if config.system == "swe" else None,
            coeff_mode=config.coeff_mode if config.flux == "hll" else None)


def _deim_index_map(setup) -> dict:
    out = {}
    for win in setup.windows:
        ctx = win.context
        if ctx is None:
            continue
        for var, samples in (("u", ctx.u_samples), ("f", ctx.f_samples),
                             ("alpha0", ctx.a0_samples),
                             ("alpha1", ctx.a1_samples)):
            if samples is not None:
                out[(var, win.index)] = [int(i) for i in
                                         samples.interp.indices]
    return out


def _trivial_report(config: ExperimentConfig) -> ErrorReport:
    names = ("w",) if config.system in ("transport", "burgers") else ("h", "q")
    return ErrorReport(case=config.preset,
                       l1={v: 0.0 for v in names},
                       linf={v: 0.0 for v in names})


def run_experiment(config: ExperimentConfig,
                   write_outputs: bool = True) -> ErrorReport:
    """FOM (timed), offline build (timed), online ROM (timed), errors, CSVs."""
    _rom_system(config)
    grid = Grid1D(config.x_min, config.x_max, config.n_cells)
    if config.t_final == 0.0:
        report = _trivial_report(config)
        if write_outputs:
            write_report(config, report)
        return report
    model = make_model(config, grid)
    state0 = initial_state(config, grid)

    timed = _stage("fom", run_fom, model, state0, config.t_final,
                   config.cfl, record=False)
    recorded = _stage("fom", run_fom, model, state0, config.t_final,
                      config.cfl, snapshot_stride=config.snapshot_stride)

    t0 = time.perf_counter()
    setup = _stage("offline", _build, config, grid, [recorded.snapshots],
                   model)
    offline_seconds = time.perf_counter() - t0

    recorded_steps = _recorded_steps(recorded)
    out = _stage("online", run_rom, setup,
                 _state_fields(config, state0), recorded.dts,
                 recorded_steps=recorded_steps)

    fom_final = _state_fields(config, recorded.final_state)
    report = ErrorReport(
        case=config.preset,
        l1={v: l1_error(out.final[v], fom_final[v], grid.dx)
            for v in out.final},
        linf={v: linf_error(out.final[v], fom_final[v]) for v in out.final},
        fom_seconds=timed.wall_seconds,
        offline_seconds=offline_seconds,
        online_seconds=out.online_seconds,
        modes_per_window=out.modes_per_window,
        spectra=setup.spectra,
        deim_indices=_deim_index_map(setup),
        n_steps=recorded.n_steps,
        n_snapshot_cols=len(recorded_steps),
        final=out.final,
    )
    if write_outputs:
        _stage("report", write_report, config, report,
               grid=grid, initial=_state_fields(config, state0),
               fom=fom_final, rom=out.final)
    return report


def run_prediction(config: ExperimentConfig,
                   write_outputs: bool = True) -> ErrorReport:
    """Parametric study: train on config.training_set, predict target_param.

    The training snapshot matrices are concatenated per variable and the
    window partition spans the concatenated columns; the replayed steps
    visit the windows covering the first training run.  The target Manning
    coefficient enters only through the online friction factor g*n_b^2.
    """
    if config.target_param is None:
        raise ConfigError("prediction needs a target_param")
    _rom_system(config)
    grid = Grid1D(config.x_min, config.x_max, config.n_cells)
    state0 = initial_state(config, grid)

    runs = []
    fom_seconds = 0.0
    for mu in config.training_set:
        model_mu = make_model(config, grid, n_b=mu)
        res = _stage("fom", run_fom, model_mu, state0, config.t_final,
                     config.cfl, snapshot_stride=config.snapshot_stride,
                     param_tag=mu)
        fom_seconds += res.wall_seconds
        runs.append(res)

    reference_model = make_model(config, grid, n_b=config.target_param)
    reference = _stage("fom", run_fom, reference_model, state0,
                       config.t_final, config.cfl, record=False)

    t0 = time.perf_counter()
    merged = {var: concat_parametric([r.snapshots[var] for r in runs])
              for var in runs[0].snapshots}
    setup = _stage("offline", _build, config, grid, [merged], reference_model)
    offline_seconds = time.perf_counter() - t0

    out = _stage("online", run_rom, setup, _state_fields(config, state0),
                 runs[0].dts, recorded_steps=_recorded_steps(runs[0]))

    fom_final = _state_fields(config, reference.final_state)
    report = ErrorReport(
        case=f"{config.preset}:predict:{config.target_param}",
        l1={v: l1_error(out.final[v], fom_final[v], grid.dx)
            for v in out.final},
        linf={v: linf_error(out.final[v], fom_final[v]) for v in out.final},
        fom_seconds=fom_seconds,
        offline_seconds=offline_seconds,
        online_seconds=out.online_seconds,
        modes_per_window=out.modes_per_window,
        spectra=setup.spectra,
        deim_indices=_deim_index_map(setup),
        n_steps=runs[0].n_steps,
        n_snapshot_cols=merged[next(iter(merged))].n_cols,
        final=out.final,
    )
    if write_outputs:
        _stage("report", write_report, config, report, grid=grid,
               initial=_state_fields(config, state0), fom=fom_final,
               rom=out.final)
    return report


def sweep_modes_windows(config: ExperimentConfig, m_list, nv_list,
                        write_outputs: bool = True):
    """Grid of (mode cap, window count) runs sharing one FOM trajectory."""
    if not m_list or not nv_list:
        raise ConfigError("sweep lists must be nonempty")
    _rom_system(config)
    grid = Grid1D(config.x_min, config.x_max, config.n_cells)
    model = make_model(config, grid)
    state0 = initial_state(config, grid)
    recorded = _stage("fom", run_fom, model, state0, config.t_final,
                      config.cfl, snapshot_stride=config.snapshot_stride)
    fom_final = _state_fields(config, recorded.final_state)

    rows = []
    for n_windows in nv_list:
        for cap in m_list:
            cfg = ExperimentConfig(**{**config.__dict__,
                                      "mode_cap": None if cap == 0 else cap,
                                      "n_windows": n_windows})
            t0 = time.perf_counter()
            setup = _stage("offline", _build, cfg, grid,
                           [recorded.snapshots], model)
            offline_seconds = time.perf_counter() - t0
            out = _stage("online", run_rom, setup,
                         _state_fields(cfg, state0), recorded.dts,
                         recorded_steps=_recorded_steps(recorded))
            row = {"mode_cap": cap, "n_windows": n_windows,
                   "selected_m": max(out.modes_per_window),
                   "offline_seconds": offline_seconds,
                   "online_seconds": out.online_seconds}
            for var, final in out.final.items():
                row[f"l1_{var}"] = l1_error(final, fom_final[var], grid.dx)
            rows.append(row)
    if write_outputs:
        _stage("report", write_sweep, config, rows)
    return rows


# ---------------------------------------------------------------------------
# CSV writers (repr() floats keep the scientific content bitwise stable)

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_row(config: ExperimentConfig, report: ErrorReport) -> dict:
    row = {name: "" for name in REPORT_COLUMNS}
    row.update({
        "case": report.case,
        "system": config.system,
        "flux": config.flux,
        "linearization": config.linearization if config.system == "swe" else "",
        "coeff_mode": config.coeff_mode if config.flux == "hll" else "",
        "preset": config.preset,
        "n_cells": config.n_cells,
        "n_windows": config.n_windows,
        "eps_pod": _fmt(config.eps_pod),
        "mode_cap": "" if config.mode_cap is None else config.mode_cap,
        "t_final": _fmt(config.t_final),
        "cfl": _fmt(config.cfl),
        "nu": _fmt(config.nu),
        "n_b": _fmt(config.n_b) if config.system == "swe" else "",
        "target_param": _fmt(config.target_param),
        "training_set": ";".join(_fmt(mu) for mu in config.training_set),
        "n_steps": report.n_steps,
        "n_snapshot_cols": report.n_snapshot_cols,
        "modes_per_window": ";".join(str(m) for m in report.modes_per_window),
        "deim_indices": ";".join(
            f"{var}@{win}:" + ".".join(str(i) for i in idx)
            for (var, win), idx in sorted(report.deim_indices.items())),
        "fom_seconds": _fmt(report.fom_seconds),
        "offline_seconds": _fmt(report.offline_seconds),
        "online_seconds": _fmt(report.online_seconds),
        "speedup": _fmt(report.speedup),
    })
    for var in report.l1:
        row[f"l1_{var}"] = _fmt(report.l1[var])
        row[f"linf_{var}"] = _fmt(report.linf[var])
    return row


def write_report(config: ExperimentConfig, report: ErrorReport, *,
                 grid=None, initial=None, fom=None, rom=None) -> Path:
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    row = report_row(config, report)
    path = outdir / "report.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        fh.write(",".join(str(row[c]) for c in REPORT_COLUMNS) + "\n")
    if grid is not None and rom is not None:
        for var in rom:
            with open(outdir / f"solution_{var}.csv", "w",
                      encoding="utf-8") as fh:
                fh.write("x,initial,fom,rom\n")
                for i, x in enumerate(grid.centers):
                    fh.write(f"{_fmt(float(x))},{_fmt(float(initial[var][i]))},"
                             f"{_fmt(float(fom[var][i]))},"
                             f"{_fmt(float(rom[var][i]))}\n")
    for (var, window), sigma in report.spectra.items():
        with open(outdir / f"spectrum_{var}_{window}.csv", "w",
                  encoding="utf-8") as fh:
            fh.write("index,sigma\n")
            for i, s in enumerate(sigma):
                fh.write(f"{i},{_fmt(float(s))}\n")
    return path


def write_sweep(config: ExperimentConfig, rows) -> Path:
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    keys = ["mode_cap", "n_windows", "selected_m"]
    var_keys = sorted({k for row in rows for k in row if k.startswith("l1_")})
    timing_keys = ["offline_seconds", "online_seconds"]
    header = keys + var_keys + timing_keys
    path = outdir / "sweep.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(row[k]) for k in keys]
            cells += [_fmt(row.get(k, "")) for k in var_keys]
            cells += [_fmt(row[k]) for k in timing_keys]
            fh.write(",".join(cells) + "\n")
    return path
