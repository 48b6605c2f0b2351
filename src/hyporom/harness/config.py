"""Experiment configuration: flat key=value files with # comments."""

from dataclasses import dataclass, fields

from ..errors import ConfigError
from ..fluxes import FluxChoice
from ..rom.context import COEFF_MODES, LINEARIZATIONS
from .presets import get_preset

_FLUXES = tuple(flux.value for flux in FluxChoice)


@dataclass
class ExperimentConfig:
    """One experiment; unset domain/horizon/friction fields inherit the
    preset's values."""

    preset: str
    system: str = ""
    flux: str = "mlf"
    x_min: float | None = None
    x_max: float | None = None
    n_cells: int = 200
    t_final: float | None = None
    cfl: float = 0.9
    nu: float = 0.9
    c: float = 1.0
    alpha: float = 1.0
    g: float = 9.81
    n_b: float | None = None
    eps_pod: float = 1e-10
    n_windows: int = 1
    mode_cap: int | None = None
    linearization: str = "deim_u_deim_f"
    coeff_mode: str = "deim"
    training_set: tuple = ()
    target_param: float | None = None
    allow_target_in_training: bool = False
    snapshot_stride: int = 1
    sweep_modes: tuple = ()
    sweep_windows: tuple = ()
    outdir: str = "out"

    def __post_init__(self):
        preset = get_preset(self.preset)
        if not self.system:
            self.system = preset.system
        if self.system != preset.system:
            raise ConfigError(
                f"preset {self.preset!r} is a {preset.system} case, "
                f"not {self.system}")
        if self.x_min is None:
            self.x_min = preset.x_min
        if self.x_max is None:
            self.x_max = preset.x_max
        if self.t_final is None:
            self.t_final = preset.t_final
        if self.n_b is None:
            self.n_b = preset.n_b
        if self.flux not in _FLUXES:
            raise ConfigError(f"unknown flux {self.flux!r}")
        if self.flux == "hll" and self.system != "swe":
            raise ConfigError("the HLL flux is only defined for the SWE system")
        if self.flux == "lf":
            # Plain Lax-Friedrichs is the nu = 1 member of the modified
            # family; pin nu so the reduced viscosity operators match.
            self.nu = 1.0
        if self.linearization not in LINEARIZATIONS:
            raise ConfigError(f"unknown linearization {self.linearization!r}")
        if self.coeff_mode not in COEFF_MODES:
            raise ConfigError(f"unknown coeff_mode {self.coeff_mode!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError("cfl must lie in (0, 1]")
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError("nu must lie in (0, 1]")
        if not 0.0 < self.eps_pod < 1.0:
            raise ConfigError("eps_pod must lie in (0, 1)")
        if self.n_cells < 1:
            raise ConfigError("n_cells must be >= 1")
        if self.n_windows < 1:
            raise ConfigError("n_windows must be >= 1")
        if self.mode_cap is not None and self.mode_cap < 1:
            raise ConfigError("mode_cap must be >= 1 (empty for no cap)")
        if self.t_final < 0.0:
            raise ConfigError("t_final must be >= 0")
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")
        if self.system == "transport" and self.c == 0.0:
            raise ConfigError("advection speed c must be nonzero")
        if self.g <= 0.0:
            raise ConfigError("g must be positive")
        if self.n_b < 0.0 or any(mu < 0.0 for mu in self.training_set) \
                or (self.target_param is not None and self.target_param < 0.0):
            raise ConfigError("Manning coefficients (n_b, training_set, "
                              "target_param) must be >= 0")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")
        if self.target_param is not None and not self.training_set:
            raise ConfigError("prediction needs a nonempty training_set")
        if (self.target_param is not None
                and not self.allow_target_in_training
                and any(mu == self.target_param for mu in self.training_set)):
            raise ConfigError(
                "target_param inside training_set "
                "(set allow_target_in_training = true for validation runs)")


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _number(name: str, kind, raw: str):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from None


def _parse_value(name: str, kind, raw: str):
    raw = raw.strip()
    if kind == "tuple":
        if not raw:
            return ()
        return tuple(_number(name, float, v) for v in raw.split(","))
    if raw == "" or raw.lower() == "none":
        return None
    if kind is bool:
        try:
            return _BOOL[raw.lower()]
        except KeyError:
            raise ConfigError(f"{name}: expected a boolean, got {raw!r}") \
                from None
    return _number(name, kind, raw)


def parse_config(text: str) -> ExperimentConfig:
    kinds = {}
    for f in fields(ExperimentConfig):
        if f.name in ("training_set", "sweep_modes", "sweep_windows"):
            kinds[f.name] = "tuple"
        elif f.name in ("n_cells", "n_windows", "mode_cap", "snapshot_stride"):
            kinds[f.name] = int
        elif f.name in ("preset", "system", "flux", "linearization",
                        "coeff_mode", "outdir"):
            kinds[f.name] = str
        elif f.name == "allow_target_in_training":
            kinds[f.name] = bool
        else:
            kinds[f.name] = float

    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, kinds[key], raw)

    if "preset" not in values:
        raise ConfigError("config must name a preset")
    for key in ("sweep_modes", "sweep_windows"):
        if key in values:
            if not all(v.is_integer() for v in values[key]):
                raise ConfigError(f"{key}: expected integers, got "
                                  f"{values[key]}")
            values[key] = tuple(int(v) for v in values[key])
    clean = {k: v for k, v in values.items()
             if v is not None or k == "mode_cap"}
    return ExperimentConfig(**clean)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
