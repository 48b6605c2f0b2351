"""Offline assembly and online time-stepping of the reduced models.

Offline: the snapshot columns of each training run are partitioned into
N_v uniform windows; same-window blocks are pooled across runs.  A run
records its conserved variables only (w, or h and q); a SWE window's
auxiliary slices (u, f, the HLL fan) are derived from its h and q slices
(``fom.swe.derived_fields``), only for the variables the configuration
reads, and die with the window.  One POD basis per (variable, window) is
built (a window's slices are decomposed in two fixed halves, the second
on a worker thread; a derived slice is factored in place), the
per-system mode count is unified, and the window averages and compiled
operators are assembled; a SWE window then gets DEIM interpolants for
exactly the inputs its operators read (``ops.inputs``).

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
from ..fom.swe import derived_fields
from ..grid import Grid1D
from ..pod import (SliceSvd, fallback_basis, lift, numerical_rank,
                   pod_basis, select_modes, thin_svd, window_transfer)
from ..snapshots import WindowPartition, partition_uniform
from .burgers import assemble_burgers_rom, rom_burgers_step
from .context import (COEFF_DEIM, COEFF_MODES, LIN_DEIM_U_TAV_F, LIN_TAV,
                      LINEARIZATIONS, build_swe_context)
from .operators import in_two_halves, time_average
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
    averages: dict | None = None        # var -> window-mean field


@dataclass
class RomSetup:
    system: str
    grid: Grid1D
    partition: WindowPartition        # of the replayed (first) run's columns
    windows: list
    modes_per_window: list
    spectra: dict = field(default_factory=dict)   # (var, window) -> sigma


def _window_cols(partition: WindowPartition, v: int) -> tuple[int, int]:
    """Columns of window v with one column of look-back: the junction
    snapshot belongs to both adjacent windows (the time windows are
    closed intervals sharing their endpoints), so the incoming basis can
    represent the transferred state."""
    start, stop = partition.ranges[v]
    return max(start - 1, 0), stop


def _pooled_slice(groups, partitions, var, v) -> np.ndarray:
    """Window slice of a recorded variable, pooled across training runs."""
    blocks = [g[var].window(*_window_cols(p, v))
              for g, p in zip(groups, partitions)]
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def _window_slices(groups, partitions, recorded, derived, v, g) -> dict:
    """Window v's slice of each recorded variable, and of each ``derived``
    one: a new F-order array formed from the (pooled) h and q slices, so
    its columns are bitwise those of the whole-recording derivation."""
    slices = {var: _pooled_slice(groups, partitions, var, v)
              for var in recorded}
    if derived:
        slices.update(derived_fields(slices["h"], slices["q"], g, derived))
    return slices


def _kept_svd(groups, partitions, recorded, var, v, g) -> dict | None:
    """The ``kept`` dict of ``thin_svd`` for a window slice, or None.  A
    single run whose recorded matrices are read-only keeps the small SVDs
    of its window slices, derived ones included, on its first recorded
    matrix (w, or h).  The key names the variable, the window columns and
    what else a derived slice is a function of: the other recorded
    matrices (q) and gravity.  A pooled slice is a new copy, and writable
    data (that of a deep-copied matrix) could change under a kept SVD."""
    first, *others = (groups[0][name] for name in recorded)
    if len(groups) > 1 or any(m.data.flags.writeable
                              for m in (first, *others)):
        return None
    key = (var, *_window_cols(partitions[0], v), *others, g)
    return first.window_svds.setdefault(key, {})


def _window_bases(slices, owned, v, eps_pod, mode_cap, kept_svd):
    """Per-variable bases for window v with a unified mode count.  The
    slices named in ``owned`` are the build's own buffers: the SVD factors
    them in place.  ``kept_svd(var)`` gives the ``kept`` dict of a slice."""
    # max|s| without an |s| temporary; a NaN makes both reductions NaN.
    peaks = {var: float(max(s.max(), -s.min())) for var, s in slices.items()}
    if not np.all(np.isfinite(list(peaks.values()))):
        # Checked before the zero rule: an Inf scale makes every slice
        # pass as zero and get a fallback basis.
        raise BreakdownInEigensolve(f"window {v}: snapshot slice holds "
                                    "NaN or Inf")
    zero_tol = _ZERO_SLICE_RTOL * max(max(peaks.values()), 1e-300)
    # Slices at or below zero_tol are a zero trajectory up to rounding
    # noise.  The others are decomposed in two fixed halves, in variable
    # order: the first by the caller, through the name the benchmark traces,
    # the second on a worker thread, into arrays allocated here.  The split
    # does not depend on the CPU count, so neither do the bases.
    nonzero = [var for var in slices if peaks[var] > zero_tol]
    kept = {var: kept_svd(var) for var in nonzero}
    mine = nonzero[:len(nonzero) - len(nonzero) // 2]
    # No unified M exceeds the cap, so only that many modes are formed.
    theirs = [SliceSvd(slices[var], mode_cap, kept[var], var in owned)
              for var in nonzero[len(mine):]]
    decomposed = {}

    def first_half():
        for var in mine:
            decomposed[var] = thin_svd(slices[var], mode_cap, kept[var],
                                       overwrite=var in owned)

    def second_half():
        for svd in theirs:
            svd.factor()

    in_two_halves(first_half, second_half)
    for var, svd in zip(nonzero[len(mine):], theirs):
        decomposed[var] = svd.result()

    svds = {}
    for var, data in slices.items():
        if var not in decomposed:
            svds[var] = None
            continue
        u, s = decomposed[var]
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
    (a single-element list for the non-parametric pipeline), each holding
    the run's conserved variables (w, or h and q); other entries are not
    read.  Each window derives the other variables it needs from its h
    and q slices.
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
    recorded = conserved_variables(system)
    variables = basis_variables(system, linearization, coeff_mode,
                                params.n_b if swe else 0.0)
    avg_vars = average_variables(system, linearization, coeff_mode)
    derived = tuple(var for var in dict.fromkeys(variables + avg_vars)
                    if var not in recorded)
    for group in groups:
        missing = [var for var in recorded if var not in group]
        if missing:
            raise ShapeMismatch(f"snapshot group lacks variables {missing}")

    g = params.g if swe else None
    partitions = [partition_uniform(group[recorded[0]].n_cols, n_windows)
                  for group in groups]

    windows = []
    modes_per_window = []
    spectra = {}
    for v in range(n_windows):
        slices = _window_slices(groups, partitions, recorded, derived, v, g)
        # Averaged before the SVDs factor the derived slices in place.
        averages = {var: time_average(slices[var])
                    for var in avg_vars} or None
        bases, win_spectra, m = _window_bases(
            {var: slices[var] for var in variables}, derived, v, eps_pod,
            mode_cap,
            lambda var: _kept_svd(groups, partitions, recorded, var, v, g))
        del slices                      # the derived slices die here
        for var, sig in win_spectra.items():
            spectra[(var, v)] = sig
        modes_per_window.append(m)

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
            recorded_steps: np.ndarray | None = None) -> RomResult:
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
    return RomResult(final=last_lifted, last_two=last_two,
                     modes_per_window=list(setup.modes_per_window),
                     n_steps=len(dts), online_seconds=online)
