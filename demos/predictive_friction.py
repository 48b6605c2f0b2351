"""Predicting the dam break at an unseen Manning coefficient.

Snapshots from a few training values of n_b are concatenated into one
training matrix; the reduced operators are assembled once and the target
coefficient only enters the online friction factor g*n_b^2.  Training
sets bracketing the target tightly predict best; sets far from it
degrade gracefully.
"""

import warnings

import numpy as np

from hyporom.fluxes import FluxChoice
from hyporom.fom import SweModel, SweParams, SweState, run_fom
from hyporom.grid import Grid1D
from hyporom.harness import dam_break_bed, l1_error
from hyporom.rom import LIN_DEIM_U_DEIM_F, build_rom, run_rom
from hyporom.snapshots import concat_parametric

grid = Grid1D(0.0, 12.0, 200)
z = dam_break_bed(grid.centers)
h0 = np.where(grid.centers <= 6.0, 2.0 - z, 1.0 - z)
state0 = SweState(h=h0, q=np.zeros_like(h0))

TARGET = 0.035
N_WINDOWS = 25


def solve(n_b):
    params = SweParams(g=9.81, n_b=n_b, nu=0.9, bathymetry=dam_break_bed)
    model = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
    return params, run_fom(model, state0, t_final=1.0, cfl=0.9)


target_params, reference = solve(TARGET)
print(f"target n_b = {TARGET}, reference FOM: {reference.n_steps} steps\n")


def predict(training):
    runs = [solve(mu)[1] for mu in training]
    merged = {var: concat_parametric([r.snapshots[var] for r in runs])
              for var in runs[0].snapshots}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        setup = build_rom("swe_lf", [merged], target_params, grid,
                          n_windows=N_WINDOWS, eps_pod=1e-10,
                          linearization=LIN_DEIM_U_DEIM_F)
    out = run_rom(setup, {"h": h0, "q": state0.q}, runs[0].dts)
    return (l1_error(out.final["h"], reference.final_state.h, grid.dx),
            l1_error(out.final["q"], reference.final_state.q, grid.dx))


eh, eq = predict((TARGET,))
print(f"self-trained validation: h = {eh:.3e}, q = {eq:.3e}\n")

print("training set                 ->  L1 errors vs reference FOM")
for label, training in [
    ("C1 = {0, 1}             ", (0.0, 1.0)),
    ("C2 = {0.01, 0.05, 0.09} ", (0.01, 0.05, 0.09)),
    ("C3 = {0.03, 0.04}       ", (0.03, 0.04)),
    ("C4 = {0.07, 0.09}       ", (0.07, 0.09)),
]:
    eh, eq = predict(training)
    print(f"{label} ->  h = {eh:.3e}, q = {eq:.3e}")
