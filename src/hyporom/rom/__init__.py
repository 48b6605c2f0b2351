"""Reduced-order models: operator assembly and online stepping."""

from .burgers import assemble_burgers_rom, rom_burgers_step
from .context import (COEFF_DEIM, COEFF_TAV, LIN_DEIM_U_DEIM_F,
                      LIN_DEIM_U_TAV_F, LIN_TAV, LINEARIZATIONS,
                      SweRomContext, build_swe_context, refresh_alphas,
                      refresh_f, refresh_u)
from .driver import (RomResult, RomSetup, RomWindow, build_rom,
                     conserved_variables, run_rom)
from .operators import (RomOperators, TimeAverages, contract_quadratic,
                        pad_rows, time_average)
from .swe_hll import assemble_swe_hll_rom, rom_swe_hll_step
from .swe_lf import assemble_swe_lf_rom, rom_swe_lf_step
from .transport import assemble_transport_rom, rom_transport_step

__all__ = [
    "COEFF_DEIM", "COEFF_TAV", "LIN_DEIM_U_DEIM_F", "LIN_DEIM_U_TAV_F",
    "LIN_TAV", "LINEARIZATIONS", "RomOperators", "RomResult", "RomSetup",
    "RomWindow", "SweRomContext", "TimeAverages", "assemble_burgers_rom",
    "assemble_swe_hll_rom", "assemble_swe_lf_rom", "assemble_transport_rom",
    "build_rom", "build_swe_context", "conserved_variables",
    "contract_quadratic", "pad_rows", "refresh_alphas", "refresh_f",
    "refresh_u", "rom_burgers_step", "rom_swe_hll_step", "rom_swe_lf_step",
    "rom_transport_step", "run_rom", "time_average",
]
