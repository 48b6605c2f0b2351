"""Workloads, pipeline passes, correctness checks and metrics.

Importing this module imports hyporom; ``run.py`` pins the BLAS thread
count and puts the checkout's ``src`` first on ``sys.path`` before it does.

One pass drives the public functions in the order ``hyporom rom run`` uses
them: plain ``run_fom`` (the reference the ROM competes with), then the
pipeline the user waits for -- recorded ``run_fom``, ``build_rom`` per mode
cap, ``run_rom`` per mode cap.  Extra plain and recorded FOM runs and
replays give the short stages more samples.  Passes run one at a time in
one process (a closed loop with a single caller).
"""

import contextlib
import dataclasses
import resource
import statistics
import time
import warnings
from pathlib import Path

import numpy as np

from hyporom.fom import SweState, run_fom
from hyporom.grid import Grid1D
from hyporom.harness import (ErrorReport, ExperimentConfig, initial_state,
                             l1_error, linf_error, make_model, write_report)
from hyporom.rom import build_rom, run_rom

from tracing import ARG, NAME, PARENT, PASS, Tracer

# Calls per repeating pass; the pipeline itself holds one record and one
# replay, the rest run after it so short stages get more samples.
FOM_REPEATS = 3        # plain run_fom
RECORD_REPEATS = 2     # recorded run_fom
REPLAY_REPEATS = 5     # run_rom per mode cap
L1_RTOL = 1e-9         # seed-0 reference tolerance on per-variable L1
L1_CEILING = 2.0       # any seed: L1(h or w) at most this x the seed-0 value
SWEEP_CAPS = (5, 10, 20, 40)

END_TO_END_UNITS = {
    "setup_s": "s", "fom_s": "s", "record_s": "s", "offline_s": "s",
    "online_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "l1_err": "-",
}

PER_LAYER_UNITS = {
    "fom.steps": "count", "fom.step_us_p50": "us", "fom.step_us_p99": "us",
    "fom.cfl_s": "s",
    "snapshots.record_s": "s", "snapshots.cols": "count", "snapshots.mb": "MB",
    "pod.svd_s": "s", "pod.svd_calls": "count", "pod.svd_in_mb": "MB",
    "pod.m_max": "count", "pod.m_sum": "count", "pod.pad_warnings": "count",
    "pod.transfer_s": "s", "pod.transfer_calls": "count",
    "deim.select_s": "s", "deim.points": "count", "deim.cond_max": "-",
    "deim.online_s": "s", "deim.online_calls": "count",
    "rom.assemble_s": "s", "rom.assemble_calls": "count", "rom.tensor_mb": "MB",
    "rom.average_s": "s", "rom.context_s": "s",
    "online.steps": "count", "online.step_us_p50": "us",
    "online.step_us_p99": "us", "online.contract_s": "s",
    "online.contract_calls": "count", "online.contract_mb_per_step": "MB",
    "online.refresh_s": "s", "online.refresh_calls": "count",
    "online.dispatch_s": "s", "online.loop_s": "s",
    "harness.report_s": "s", "trace.overhead_s": "s",
    **{f"online.step_us_p50.m{c}": "us" for c in SWEEP_CAPS},
    **{f"l1_h.m{c}": "-" for c in SWEEP_CAPS},
}


# ---------------------------------------------------------------------------
# Workloads and seeded inputs

def _dam_state(grid, model, rng):
    """Dam break with the upstream surface level 2.0 scaled by up to +-0.5 %."""
    level = 2.0 if rng is None else 2.0 * (1.0 + rng.uniform(-0.005, 0.005))
    x = grid.centers
    z = model.params.bathymetry(x)
    h = np.where(x <= 6.0, level - z, 1.0 - z)
    return SweState(h=h, q=np.zeros_like(h))


def _burgers_state(grid, model, rng):
    """Burgers pulse with its centre 0.3 moved by up to +-0.005."""
    centre = 0.3 if rng is None else 0.3 + rng.uniform(-0.005, 0.005)
    x = grid.centers
    return 0.1 * np.exp(x) + 0.3 * np.exp(-100.0 * (x - centre) ** 2)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    flux: str
    caps: tuple                  # mode caps built and replayed in each pass
    make_state: object           # (grid, model, rng or None) -> state
    n_cells: int = 1600
    n_windows: int = 5


WORKLOADS = {w.name: w for w in (
    Workload("dam_hll_deim", "swe_dam_break", "hll", (40,), _dam_state),
    Workload("dam_mlf_sweep", "swe_dam_break", "mlf", SWEEP_CAPS, _dam_state),
    Workload("burgers_m40", "burgers_perturbation", "mlf", (40,),
             _burgers_state),
)}


@dataclasses.dataclass
class Case:
    """Everything a pass needs: the package objects built by setup."""

    workload: Workload
    config: ExperimentConfig
    grid: Grid1D
    model: object
    state0: object
    system: str
    conserved: tuple

    def fields(self, state):
        if self.system == "burgers":
            return {"w": np.asarray(state, dtype=float)}
        return {"h": state.h, "q": state.q}


def setup(workload: Workload, seed: int, outdir: Path | None = None) -> Case:
    """Config, grid, model and initial state; seed 0 is the preset itself.

    ``outdir`` receives the report a traced pass writes.
    """
    config = ExperimentConfig(preset=workload.preset, flux=workload.flux,
                              n_cells=workload.n_cells,
                              n_windows=workload.n_windows,
                              outdir=str(outdir or "out"))
    grid = Grid1D(config.x_min, config.x_max, config.n_cells)
    model = make_model(config, grid)
    rng = None if seed == 0 else np.random.default_rng(seed)
    state0 = workload.make_state(grid, model, rng)
    if seed == 0:
        preset = initial_state(config, grid)
        same = (np.array_equal(state0, preset) if config.system == "burgers"
                else np.array_equal(state0.h, preset.h)
                and np.array_equal(state0.q, preset.q))
        if not same:
            raise RuntimeError("seed-0 inputs differ from the preset")
    if config.system == "burgers":
        return Case(workload, config, grid, model, state0, "burgers", ("w",))
    system = "swe_hll" if config.flux == "hll" else "swe_lf"
    return Case(workload, config, grid, model, state0, system, ("h", "q"))


# ---------------------------------------------------------------------------
# One pipeline pass

@dataclasses.dataclass
class Point:
    """One mode cap of a pass: timings, and what the checks and layers read.

    Setups and snapshots are dropped when the pass ends, so peak memory is
    that of one pass however many passes a run makes.
    """

    cap: int
    offline_s: float
    online_s: float
    modes: list
    final: dict                 # ROM fields at t_final
    l1: dict                    # variable -> L1 error against the FOM
    warnings: list              # every warning build_rom raised, as text
    pad_warnings: int           # how many of them were UserWarnings
    tensor_mb: float            # computed M^3 tensor storage of the setup
    deim_points: int
    deim_cond_max: float


@dataclasses.dataclass
class PassResult:
    traced: bool
    fom_s: list
    record_s: list
    pipeline_s: float
    online_s: list              # one sample per replay round over all caps
    points: list
    plain_final: dict           # unrecorded FOM fields at t_final
    fom_final: dict             # recorded FOM fields at t_final
    n_steps: int
    snapshot_cols: int
    snapshot_mb: float
    report_s: float = 0.0

    @property
    def offline_s(self):
        return sum(p.offline_s for p in self.points)


def _build(case, recorded, cap):
    cfg = case.config
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup_ = build_rom(
            case.system, [recorded.snapshots], case.model.params, case.grid,
            n_windows=cfg.n_windows, eps_pod=cfg.eps_pod, mode_cap=cap,
            linearization=cfg.linearization if case.system != "burgers"
            else None,
            coeff_mode=cfg.coeff_mode if case.system == "swe_hll" else None)
    return setup_, caught


def _interpolants(setup_):
    for w in setup_.windows:
        ctx = w.context
        if ctx is None:
            continue
        for samples_ in (ctx.u_samples, ctx.f_samples, ctx.a0_samples,
                         ctx.a1_samples):
            if samples_ is not None:
                yield samples_.interp


def _point(case, cap, setup_, offline_s, online_s, rom, fom, caught):
    interps = list(_interpolants(setup_))
    return Point(
        cap=cap, offline_s=offline_s, online_s=online_s,
        modes=list(rom.modes_per_window), final=rom.final,
        l1={v: l1_error(rom.final[v], fom[v], case.grid.dx)
            for v in case.conserved},
        warnings=[f"{w.category.__name__}: {w.message}" for w in caught],
        pad_warnings=sum(issubclass(w.category, UserWarning) for w in caught),
        tensor_mb=sum(t.nbytes for w in setup_.windows
                      for t in w.ops.tensors3.values()) / 1e6,
        deim_points=sum(it.m for it in interps),
        deim_cond_max=max((it.condition_estimate for it in interps),
                          default=0.0))


def run_pass(case: Case, tracer: Tracer | None = None,
             repeat: bool = True) -> PassResult:
    """One pass; ``repeat=False`` makes each call once (traced runs).

    Order: plain FOM, extra recorded FOMs, the pipeline, then the remaining
    replays and plain FOMs alternately, so that samples of the short stages
    spread over the pass.  The extra recorded runs come first, so their
    snapshots are freed before the pipeline records its own.
    """
    fom_repeats, record_repeats, replay_repeats = (
        (FOM_REPEATS, RECORD_REPEATS, REPLAY_REPEATS) if repeat else (1, 1, 1))
    clock = time.perf_counter
    stage = tracer.span if tracer else (
        lambda *a, **k: contextlib.nullcontext())
    cfg = case.config
    initial = case.fields(case.state0)
    fom_s, record_s, online_s = [], [], []

    def plain_fom():
        with stage("fom.run"):
            t0 = clock()
            result = run_fom(case.model, case.state0, cfg.t_final, cfg.cfl,
                             record=False)
            fom_s.append(clock() - t0)
        return result

    def replay_all():
        t0 = clock()
        for setup_ in setups:
            run_rom(setup_, initial, recorded.dts,
                    recorded_steps=recorded_steps)
        online_s.append(clock() - t0)

    with stage("pass"):
        plain = plain_fom()
        for _ in range(record_repeats - 1):
            t0 = clock()
            run_fom(case.model, case.state0, cfg.t_final, cfg.cfl)
            record_s.append(clock() - t0)

        setups, points = [], []
        t_start = clock()
        with stage("record"):
            recorded = run_fom(case.model, case.state0, cfg.t_final, cfg.cfl)
        t_rec = clock()
        fom = case.fields(recorded.final_state)
        recorded_steps = np.searchsorted(
            recorded.times, recorded.snapshots[case.conserved[0]].times)
        for cap in case.workload.caps:
            t0 = clock()
            with stage("build", arg=cap):
                setup_, caught = _build(case, recorded, cap)
            t1 = clock()
            with stage("rom.run_rom", arg=cap):
                rom = run_rom(setup_, initial, recorded.dts,
                              recorded_steps=recorded_steps)
            t2 = clock()
            setups.append(setup_)
            points.append(_point(case, cap, setup_, t1 - t0, t2 - t1, rom,
                                 fom, caught))
        t_end = clock()
        record_s.append(t_rec - t_start)
        online_s.append(sum(p.online_s for p in points))

        for i in range(max(replay_repeats, fom_repeats) - 1):
            if i < replay_repeats - 1:
                replay_all()
            if i < fom_repeats - 1:
                plain_fom()

        snaps = recorded.snapshots
        result = PassResult(
            traced=tracer is not None, fom_s=fom_s, record_s=record_s,
            pipeline_s=t_end - t_start, online_s=online_s, points=points,
            plain_final=case.fields(plain.final_state), fom_final=fom,
            n_steps=recorded.n_steps,
            snapshot_cols=snaps[case.conserved[0]].n_cols,
            snapshot_mb=sum(m.data.nbytes for m in snaps.values()) / 1e6)
        if tracer is not None:
            with stage("harness.report"):
                t0 = clock()
                _write_report(case, result, setups[-1])
                result.report_s = clock() - t0
    return result


def _write_report(case, result, setup_):
    """report.csv, solution and spectrum CSVs of the last point."""
    point = result.points[-1]
    report = ErrorReport(
        case=case.workload.name, l1=point.l1,
        linf={v: linf_error(point.final[v], result.fom_final[v])
              for v in case.conserved},
        fom_seconds=statistics.median(result.fom_s),
        offline_seconds=point.offline_s, online_seconds=point.online_s,
        modes_per_window=point.modes, spectra=setup_.spectra,
        n_steps=result.n_steps, n_snapshot_cols=result.snapshot_cols)
    write_report(dataclasses.replace(case.config, mode_cap=point.cap), report,
                 grid=case.grid, initial=case.fields(case.state0),
                 fom=result.fom_final, rom=point.final)


# ---------------------------------------------------------------------------
# Correctness

def check_pass(case: Case, seed: int, result: PassResult,
               reference: dict) -> list:
    """Failed checks of one pass, as messages (empty when correct)."""
    failures = []
    ref = reference[case.workload.name]
    lead = case.conserved[0]
    if any(not np.array_equal(result.plain_final[v], result.fom_final[v])
           for v in case.conserved):
        failures.append("recorded FOM final state differs from the plain run")
    for p in result.points:
        ref_point = ref["points"][str(p.cap)]
        if not all(np.isfinite(f).all() for f in p.final.values()):
            failures.append(f"cap {p.cap}: non-finite ROM output")
        if any(m != p.cap for m in p.modes):
            failures.append(f"cap {p.cap}: M per window {p.modes} "
                            "is not the cap")
        if not p.l1[lead] <= L1_CEILING * ref_point["l1"][lead]:
            failures.append(f"cap {p.cap}: L1({lead}) {p.l1[lead]:.6e} "
                            f"above {L1_CEILING} x the seed-0 value")
        if seed != 0:
            continue
        if p.modes != ref_point["modes"]:
            failures.append(f"cap {p.cap}: M per window {p.modes} != "
                            f"reference {ref_point['modes']}")
        for var, want in ref_point["l1"].items():
            got = p.l1[var]
            if not abs(got - want) <= L1_RTOL * want:
                failures.append(f"cap {p.cap}: L1({var}) {got!r} != "
                                f"reference {want!r} (rtol {L1_RTOL})")
    if seed == 0 and result.n_steps != ref["n_steps"]:
        failures.append(f"n_steps {result.n_steps} != "
                        f"reference {ref['n_steps']}")
    return failures


def reference_entry(result: PassResult) -> dict:
    """The values ``check_pass`` pins at seed 0, taken from one pass."""
    return {"n_steps": result.n_steps,
            "points": {str(p.cap): {"modes": p.modes, "l1": p.l1}
                       for p in result.points}}


# ---------------------------------------------------------------------------
# Metrics

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def samples(passes: list, setup_s: list) -> dict:
    """Raw samples behind each timed end-to-end metric (untraced passes)."""
    plain = [p for p in passes if not p.traced]
    return {
        "setup_s": list(setup_s),
        "fom_s": [t for p in plain for t in p.fom_s],
        "record_s": [t for p in plain for t in p.record_s],
        "offline_s": [p.offline_s for p in plain],
        "online_s": [t for p in plain for t in p.online_s],
        "pipeline_s": [p.pipeline_s for p in plain],
    }


def end_to_end(case: Case, passes: list, setup_s: list) -> dict:
    """Medians of the samples, peak RSS, and the last pass's L1 error."""
    values = {k: statistics.median(v)
              for k, v in samples(passes, setup_s).items()}
    values["peak_rss_mb"] = peak_rss_mb()
    values["l1_err"] = passes[-1].points[-1].l1[case.conserved[0]]
    return {k: values[k] for k in END_TO_END_UNITS}


def per_layer(case: Case, passes: list, tracer: Tracer) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals,
    and step-time percentiles pooled over the traced passes."""
    spans = tracer.spans
    own = tracer.self_times()
    durations = [s[2] - s[1] for s in spans]
    traced = [(i, p) for i, p in enumerate(passes) if p.traced]

    per_pass = []
    for pass_id, p in traced:
        idx = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
        total, calls, self_total, nbytes = {}, {}, {}, {}
        for i in idx:
            name = spans[i][NAME]
            total[name] = total.get(name, 0.0) + durations[i]
            calls[name] = calls.get(name, 0) + 1
            self_total[name] = self_total.get(name, 0.0) + own[i]
            nbytes[name] = nbytes.get(name, 0) + spans[i][ARG]
        fom_steps = sum(1 for i in idx if spans[i][NAME] == "fom.step"
                        and spans[spans[i][PARENT]][NAME] == "record")
        online_steps = calls.get("online.step", 0)
        modes = [m for pt in p.points for m in pt.modes]
        per_pass.append({
            "fom.steps": fom_steps,
            "fom.cfl_s": total.get("fom.cfl", 0.0),
            "snapshots.record_s": total.get("snapshots.record", 0.0)
            + total.get("snapshots.fields", 0.0),
            "snapshots.cols": p.snapshot_cols,
            "snapshots.mb": p.snapshot_mb,
            "pod.svd_s": total.get("pod.svd", 0.0),
            "pod.svd_calls": calls.get("pod.svd", 0),
            "pod.svd_in_mb": nbytes.get("pod.svd", 0) / 1e6,
            "pod.m_max": max(modes),
            "pod.m_sum": sum(modes),
            "pod.pad_warnings": sum(pt.pad_warnings for pt in p.points),
            "pod.transfer_s": total.get("pod.transfer", 0.0),
            "pod.transfer_calls": calls.get("pod.transfer", 0),
            "deim.select_s": total.get("deim.select", 0.0),
            "deim.points": sum(pt.deim_points for pt in p.points),
            "deim.cond_max": max(pt.deim_cond_max for pt in p.points),
            "deim.online_s": total.get("deim.online", 0.0),
            "deim.online_calls": calls.get("deim.online", 0),
            "rom.assemble_s": total.get("rom.assemble", 0.0),
            "rom.assemble_calls": calls.get("rom.assemble", 0),
            "rom.tensor_mb": sum(pt.tensor_mb for pt in p.points),
            "rom.average_s": total.get("rom.average", 0.0),
            "rom.context_s": total.get("rom.context", 0.0),
            "online.steps": online_steps,
            "online.contract_s": total.get("online.contract", 0.0),
            "online.contract_calls": calls.get("online.contract", 0),
            "online.contract_mb_per_step":
                nbytes.get("online.contract", 0) / 1e6 / max(online_steps, 1),
            "online.refresh_s": total.get("online.refresh", 0.0),
            "online.refresh_calls": calls.get("online.refresh", 0),
            "online.dispatch_s": self_total.get("online.step", 0.0),
            "online.loop_s": self_total.get("rom.run_rom", 0.0),
            "harness.report_s": p.report_s,
        })
    out = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}

    traced_ids = {i for i, _ in traced}

    def step_us(name, cap=None):
        """Durations of traced step spans, optionally of one replay's cap."""
        return [durations[i] * 1e6 for i, s in enumerate(spans)
                if s[NAME] == name and s[PASS] in traced_ids
                and (cap is None or spans[s[PARENT]][ARG] == cap)]

    fom_us = step_us("fom.step")
    online_us = step_us("online.step")
    out["fom.step_us_p50"] = float(np.percentile(fom_us, 50))
    out["fom.step_us_p99"] = float(np.percentile(fom_us, 99))
    out["online.step_us_p50"] = float(np.percentile(online_us, 50))
    out["online.step_us_p99"] = float(np.percentile(online_us, 99))

    last = {pt.cap: pt for pt in traced[-1][1].points}
    for cap in SWEEP_CAPS:
        in_sweep = cap in case.workload.caps and len(case.workload.caps) > 1
        vals = step_us("online.step", cap) if in_sweep else []
        out[f"online.step_us_p50.m{cap}"] = (
            float(np.percentile(vals, 50)) if vals else 0.0)
        out[f"l1_h.m{cap}"] = last[cap].l1["h"] if in_sweep else 0.0

    plain = [p.pipeline_s for p in passes if not p.traced]
    traced_pipe = [p.pipeline_s for _, p in traced]
    out["trace.overhead_s"] = (statistics.median(traced_pipe)
                               - statistics.median(plain))
    return {k: out[k] for k in PER_LAYER_UNITS}
