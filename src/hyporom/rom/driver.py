"""Offline assembly and online time-stepping of the reduced models.

Offline: the snapshot columns of each training run are partitioned into
N_v uniform windows; same-window blocks are pooled across runs, one POD
basis per (variable, window) is built, the per-system mode count is
unified, and the window averages and compiled operators are assembled;
a SWE window then gets DEIM interpolants for exactly the inputs its
operators read (``ops.inputs``).

Online: the reduced state replays the first run's recorded dt sequence.
It stays packed, x = [c_var for each conserved variable], and the replay
loops over precomputed runs of consecutive steps that share a window.
Entering a run in a new window transfers the conserved coefficients
through the continuity-of-projection jump condition, so the crossing
step already uses the incoming window's operators; each step is one call
``step(x, ops, ctx, dt)`` of the system's step function (ctx is None for
transport and Burgers).  A SWE state is checked for a non-positive
lifted depth after each transfer and for NaN/Inf once at the end of each
run; transport and Burgers replays hand a non-finite state back to the
caller, which judges the divergence.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..deim import deim_offline
from ..errors import (BreakdownInEigensolve, HyporomError, NonFiniteState,
                      NonPositiveDepth, ShapeMismatch, UnsupportedSystem)
from ..grid import Grid1D
from ..pod import (fallback_basis, lift, numerical_rank, pod_basis,
                   select_modes, thin_svd, window_transfer)
from ..snapshots import WindowPartition, partition_uniform
from .burgers import assemble_burgers_rom, rom_burgers_step
from .context import (COEFF_DEIM, COEFF_MODES, LIN_DEIM_U_TAV_F, LIN_TAV,
                      LINEARIZATIONS, build_swe_context)
from .operators import TimeAverages, time_average
from .swe_hll import assemble_swe_hll_rom, rom_swe_hll_step
from .swe_lf import assemble_swe_lf_rom, rom_swe_lf_step, swe_inputs
from .transport import assemble_transport_rom, rom_transport_step

# A variable whose window slice never exceeds this fraction of the
# window's overall field scale is rounding noise of an identically-zero
# trajectory (e.g. the discharge of a lake at rest): it gets a fallback
# basis instead of noise modes that would inflate the unified mode count.
_ZERO_SLICE_RTOL = 1e-12

SYSTEMS = ("transport", "burgers", "swe_lf", "swe_hll")


def conserved_variables(system: str) -> tuple[str, ...]:
    return ("w",) if system in ("transport", "burgers") else ("h", "q")


def basis_variables(system: str, linearization: str | None,
                    coeff_mode: str | None, n_b: float) -> tuple[str, ...]:
    """Variables that need a POD basis for the given configuration: the
    inputs of a SWE window's step (``swe_inputs``)."""
    if system in ("transport", "burgers"):
        return ("w",)
    return swe_inputs(linearization,
                      coeff_mode if system == "swe_hll" else None, n_b)


def average_variables(system: str, linearization: str | None,
                      coeff_mode: str | None) -> tuple[str, ...]:
    if system in ("transport", "burgers"):
        return ()
    names = []
    if linearization in (LIN_TAV, LIN_DEIM_U_TAV_F):
        names += ["u", "h"]
    if system == "swe_hll":
        names += ["utilde", "htilde"]
        if coeff_mode != COEFF_DEIM:
            names += ["alpha0", "alpha1"]
    return tuple(names)


@dataclass
class RomWindow:
    index: int
    bases: dict
    ops: object
    context: object | None = None
    averages: TimeAverages | None = None


@dataclass
class RomSetup:
    system: str
    grid: Grid1D
    partition: WindowPartition        # of the replayed (first) run's columns
    windows: list
    modes_per_window: list
    spectra: dict = field(default_factory=dict)   # (var, window) -> sigma


def _pooled_slice(groups, partitions, var, v) -> np.ndarray:
    """Window slice pooled across training runs, with one column of
    look-back: the junction snapshot belongs to both adjacent windows
    (the time windows are closed intervals sharing their endpoints), so
    the incoming basis can represent the transferred state."""
    blocks = []
    for g, p in zip(groups, partitions):
        start, stop = p.ranges[v]
        blocks.append(g[var].window(max(start - 1, 0), stop))
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def _window_bases(groups, partitions, variables, v, eps_pod, mode_cap):
    """Per-variable bases for window v with a unified mode count."""
    slices = {var: _pooled_slice(groups, partitions, var, v)
              for var in variables}
    # max|s| without an |s| temporary; a NaN makes both reductions NaN.
    peaks = {var: float(max(s.max(), -s.min())) for var, s in slices.items()}
    if not np.all(np.isfinite(list(peaks.values()))):
        # Checked before the zero rule: an Inf scale makes every slice
        # pass as zero and get a fallback basis.
        raise BreakdownInEigensolve(f"window {v}: snapshot slice holds "
                                    "NaN or Inf")
    zero_tol = _ZERO_SLICE_RTOL * max(max(peaks.values()), 1e-300)
    svds = {}
    for var, data in slices.items():
        if peaks[var] <= zero_tol:
            svds[var] = None        # zero trajectory up to rounding noise
            continue
        # No unified M exceeds the cap, so only that many modes are formed.
        u, s = thin_svd(data, mode_cap)
        rank = numerical_rank(s, *data.shape)
        m_sel = select_modes(s, eps_pod, m_max=mode_cap)
        svds[var] = (u, s, rank, m_sel, min(data.shape))

    live = {var: t for var, t in svds.items() if t is not None}
    if live:
        # One mode count for the whole system (the reduced tensors carry a
        # single M).  Variables whose slice rank falls short keep their own
        # trailing singular vectors as padding: orthonormal, noise-level
        # directions whose coefficients the dynamics leave near zero.
        m = max(t[3] for t in live.values())
        m = min(m, *(t[4] for t in live.values()))
        min_rank = min(t[2] for t in live.values())
        if m > min_rank:
            warnings.warn(
                f"window {v}: unified mode count {m} exceeds the smallest "
                f"numerical rank {min_rank}; padding deficient bases",
                stacklevel=2)
    else:
        m = 1

    bases, spectra = {}, {}
    for var, entry in svds.items():
        if entry is None:
            bases[var] = fallback_basis(slices[var].shape[0], m,
                                        variable_id=var, window_index=v)
            spectra[var] = np.zeros(1)
            continue
        u, s, rank, _, _ = entry
        bases[var] = pod_basis(u, s, rank, m, variable_id=var,
                               window_index=v, eps_pod=eps_pod)
        spectra[var] = bases[var].singular_values.copy()
    return bases, spectra, m


def build_rom(system: str, groups: list, params, grid: Grid1D, *,
              n_windows: int = 1, eps_pod: float = 1e-10,
              mode_cap: int | None = None, linearization: str | None = None,
              coeff_mode: str | None = None) -> RomSetup:
    """Offline stage: windows, bases, averages, interpolants, operators.

    ``groups`` is a list of snapshot dictionaries, one per training run
    (a single-element list for the non-parametric pipeline).
    """
    if system not in SYSTEMS:
        raise UnsupportedSystem(f"unknown reduced system {system!r}")
    swe = system in ("swe_lf", "swe_hll")
    if swe and linearization not in LINEARIZATIONS:
        raise UnsupportedSystem(f"unknown linearization {linearization!r}")
    if system == "swe_hll" and coeff_mode not in COEFF_MODES:
        raise UnsupportedSystem(f"unknown coeff_mode {coeff_mode!r}")
    if not groups:
        raise ShapeMismatch("need at least one snapshot group")
    variables = basis_variables(system, linearization, coeff_mode,
                                params.n_b if swe else 0.0)
    avg_vars = average_variables(system, linearization, coeff_mode)
    for g in groups:
        missing = [v for v in set(variables) | set(avg_vars) if v not in g]
        if missing:
            raise ShapeMismatch(f"snapshot group lacks variables {missing}")

    partitions = [partition_uniform(g[variables[0]].n_cols, n_windows)
                  for g in groups]

    windows = []
    modes_per_window = []
    spectra = {}
    for v in range(n_windows):
        bases, win_spectra, m = _window_bases(groups, partitions, variables,
                                              v, eps_pod, mode_cap)
        for var, sig in win_spectra.items():
            spectra[(var, v)] = sig
        modes_per_window.append(m)

        averages = None
        if avg_vars:
            averages = TimeAverages(fields={
                var: time_average(_pooled_slice(groups, partitions, var, v))
                for var in avg_vars})

        context = None
        if system == "transport":
            ops = assemble_transport_rom(bases["w"], params, grid,
                                         window_index=v)
        elif system == "burgers":
            ops = assemble_burgers_rom(bases["w"], params, grid,
                                       window_index=v)
        else:
            if system == "swe_lf":
                ops = assemble_swe_lf_rom(bases, params, grid, linearization,
                                          averages, window_index=v)
            else:
                ops = assemble_swe_hll_rom(bases, params, grid, linearization,
                                           coeff_mode, averages,
                                           window_index=v)
            interpolants = {var: deim_offline(bases[var].modes)
                            for var in ops.inputs[2:]}
            context = build_swe_context(bases, interpolants, ops.inputs,
                                        params.g)
        windows.append(RomWindow(index=v, bases=bases, ops=ops,
                                 context=context, averages=averages))

    return RomSetup(system=system, grid=grid, partition=partitions[0],
                    windows=windows, modes_per_window=modes_per_window,
                    spectra=spectra)


@dataclass
class RomResult:
    final: dict                       # lifted fields at t_final
    last_two: list                    # lifted fields at the last two times
    modes_per_window: list
    n_steps: int
    online_seconds: float
    history: dict | None = None       # var -> n_rows x n_times lifted


def _project_state(window: RomWindow, fields: dict, names) -> np.ndarray:
    """Packed coefficients [c_var for var in names]."""
    return np.concatenate([window.bases[var].modes.T
                           @ np.asarray(fields[var], float) for var in names])


def _lift_state(window: RomWindow, x: np.ndarray, names) -> dict:
    return {var: window.bases[var].modes @ c
            for var, c in zip(names, np.split(x, len(names)))}


def _transfer(x: np.ndarray, old: RomWindow, new: RomWindow,
              names) -> np.ndarray:
    return np.concatenate([window_transfer(c, old.bases[var], new.bases[var])
                           for var, c in zip(names, np.split(x, len(names)))])


def _segments(step_window: np.ndarray) -> list:
    """(window, first step, stop) for each run of steps in one window."""
    cuts = (np.flatnonzero(np.diff(step_window)) + 1).tolist()
    starts = [0] + cuts
    stops = cuts + [len(step_window)]
    return [(int(step_window[a]), a, b) for a, b in zip(starts, stops)
            if b > a]


def run_rom(setup: RomSetup, initial_fields: dict, dts: np.ndarray, *,
            recorded_steps: np.ndarray | None = None,
            keep_history: bool = False) -> RomResult:
    """Replay the recorded dt sequence in the reduced coordinates."""
    dts = np.asarray(dts, dtype=float)
    names = conserved_variables(setup.system)
    ranges = setup.partition.ranges
    n_cols = ranges[-1][1]
    if recorded_steps is None:
        recorded_steps = np.arange(min(len(dts) + 1, n_cols))
    recorded_steps = np.asarray(recorded_steps)
    # A training partition may cover more columns than the replayed run
    # (concatenated parametric snapshots); later windows are never visited.
    if (not 0 < len(recorded_steps) <= n_cols
            or recorded_steps[-1] != len(dts)):
        raise ShapeMismatch("dt sequence inconsistent with the partition")

    # Window of each full step: the window owning the first recorded
    # column at or after the step's target index.
    col_window = np.empty(n_cols, dtype=int)
    for v, (start, stop) in enumerate(ranges):
        col_window[start:stop] = v
    step_window = col_window[
        np.searchsorted(recorded_steps, np.arange(1, len(dts) + 1))]

    step_fn = {
        "transport": rom_transport_step,
        "burgers": rom_burgers_step,
        "swe_lf": rom_swe_lf_step,
        "swe_hll": rom_swe_hll_step,
    }[setup.system]
    swe = setup.system in ("swe_lf", "swe_hll")

    window = setup.windows[0]
    x = _project_state(window, initial_fields, names)
    history = [(window, x)] if keep_history else None
    prev = None
    steps = dts.tolist()

    t0 = time.perf_counter()
    for v, start, stop in _segments(step_window):
        if v != window.index:
            nxt = setup.windows[v]
            x = _transfer(x, window, nxt, names)
            window = nxt
            # No DEIM point checks the depth on the tav path, so the
            # transferred state is checked here, lifted in its new basis.
            if swe:
                h = lift(window.bases["h"], np.split(x, len(names))[0])
                if h.min() <= 0.0:
                    t = float(dts[:start].sum())
                    raise NonPositiveDepth(
                        f"non-positive depth after the transfer into window "
                        f"{v} (step {start}, t={t:.6g})")
        ops, ctx = window.ops, window.context
        try:
            for n in range(start, stop):
                prev = x
                x = step_fn(x, ops, ctx, steps[n])
                if history is not None:
                    history.append((window, x))
        except HyporomError as exc:
            raise type(exc)(f"{exc} (step from t={float(dts[:n].sum()):.6g}, "
                            f"window {v})") from exc
        if swe and not np.isfinite(x).all():
            raise NonFiniteState(
                f"non-finite reduced state after step {stop - 1} "
                f"(window {v})")
    online = time.perf_counter() - t0

    last_lifted = _lift_state(window, x, names)
    last_two = [last_lifted]
    if prev is not None:
        last_two.insert(0, _lift_state(window, prev, names))
    if history is not None:
        lifted = [_lift_state(w, c, names) for w, c in history]
        history = {var: np.column_stack([f[var] for f in lifted])
                   for var in names}
    return RomResult(final=last_lifted, last_two=last_two,
                     modes_per_window=list(setup.modes_per_window),
                     n_steps=len(dts), online_seconds=online,
                     history=history)
