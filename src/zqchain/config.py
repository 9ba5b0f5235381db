"""Scenario configuration: YAML files, flag overrides, validation.

A scenario is one simulation or spectrum run. Config files are YAML
mappings whose keys mirror the CLI flag names; flags override file values.
Every validation failure names the offending field and, when the value
came from a file, the file and line it was set on. ``check_chain`` alone
checks the chain itself (model, length, couplings) for every command.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .hamiltonians import AliphaticParams, XYParams
from .dynamics import DEFAULT_DT, DEFAULT_HORIZON, InitialPattern
from .spectra import DEFAULT_TAU, DEFAULT_ZERO_PAD
from .spinops import ProductLabel, parse_label

# hard dimension guards: exponential growth must be an explicit decision
MAX_FULL_DIM = 4096        # alpha/beta spaces (xy chains, full engine)
MAX_RESTRICTED_DIM = 8192  # {T0,S0} spaces; memory-bound (README, Size guards)
# time steps per trajectory (horizon/dt); the default run takes 4000
MAX_STEPS = 1_000_000
# levels per analytic transition table, which lists n(n-1)/2 transitions
MAX_TABLE_LEVELS = 1000
# padded samples per FFT, (steps + 1) * zero_pad; MAX_STEPS at the default
# zero_pad of 4 fits
MAX_FFT_POINTS = 2 ** 24


class ConfigError(ValueError):
    """Invalid scenario field; message carries field name and file location."""

    def __init__(self, fld: str, message: str, path: str | None = None,
                 line: int | None = None):
        self.field = fld
        loc = ""
        if path is not None:
            loc = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(f"{loc}{fld}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    model: str = "xy"
    n: int = 4
    couplings: dict = field(default_factory=dict)
    flips: tuple[int, ...] = ()
    t0_sites: tuple[int, ...] = ()
    signs: tuple[float, ...] = ()
    observe: tuple = ("all",)
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    tau: float = DEFAULT_TAU
    zero_pad: int = DEFAULT_ZERO_PAD
    engine: str = "restricted"

    # -- derived accessors -------------------------------------------------

    def xy_params(self) -> XYParams:
        return XYParams(self.n, float(self.couplings["J"]))

    def aliphatic_params(self) -> AliphaticParams:
        c = self.couplings
        return AliphaticParams(self.n, float(c["J_gem"]),
                               float(c["J_gauche"]), float(c["J_anti"]))

    def initial_pattern(self) -> InitialPattern:
        sites = self.flips if self.model == "xy" else self.t0_sites
        return InitialPattern(self.n, frozenset(sites))

    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def observables(self) -> list[tuple[str, object]]:
        """Expand the observe field to (id, site-or-label) pairs."""
        out = []
        targets = self.observe
        if targets == ("all",) or targets == "all":
            targets = tuple(range(1, self.n + 1))
        for item in targets:
            if isinstance(item, int):
                out.append((f"site{item}", item))
            else:
                label = parse_label(str(item), "st2")
                out.append((str(label), label))
        return out


def validate(cfg: ScenarioConfig, path: str | None = None,
             source_text: str | None = None) -> ScenarioConfig:
    """Check every field, raising ConfigError naming the first bad one."""

    def fail(fld, msg):
        raise ConfigError(fld, msg, path, _field_line(source_text, fld))

    def check_sites(fld, sites):
        for i, s in enumerate(sites):
            if not 1 <= s <= cfg.n:
                fail(fld, f"site {s} outside 1..{cfg.n}")
            if s in sites[:i]:
                fail(fld, f"site {s} listed twice")

    check_chain(cfg, path, source_text)
    if cfg.engine not in ("restricted", "full"):
        fail("engine", f"must be 'restricted' or 'full', got {cfg.engine!r}")
    if cfg.model == "xy":
        if cfg.engine != "restricted":
            fail("engine", f"the xy model has one engine, got {cfg.engine!r}")
        check_dimension(cfg.model, cfg.n, cfg.engine, path, source_text)
        check_sites("flips", cfg.flips)
        if cfg.t0_sites:
            fail("t0_sites", "only meaningful for the aliphatic model")
        if cfg.signs:
            fail("signs", "only meaningful for the aliphatic model")
    else:
        check_dimension(cfg.model, cfg.n, cfg.engine, path, source_text)
        if not cfg.t0_sites:
            fail("t0_sites", "aliphatic model needs at least one T0 site")
        check_sites("t0_sites", cfg.t0_sites)
        if len(cfg.signs) != len(cfg.t0_sites):
            fail("signs", f"{len(cfg.t0_sites)} t0_sites need "
                          f"{len(cfg.t0_sites)} signs, got {len(cfg.signs)}")
        if any(s not in (1.0, -1.0) for s in cfg.signs):
            fail("signs", "entries must be +1 or -1")
        if cfg.flips:
            fail("flips", "only meaningful for the xy model")

    if not (cfg.dt > 0 and math.isfinite(cfg.dt)):
        fail("dt", f"must be positive and finite, got {cfg.dt}")
    if not (cfg.horizon >= cfg.dt and math.isfinite(cfg.horizon)):
        fail("horizon", f"must be finite and >= dt, got {cfg.horizon}")
    if not cfg.horizon / cfg.dt <= MAX_STEPS:
        fail("horizon", f"horizon/dt = {cfg.horizon / cfg.dt:.4g} steps exceeds "
                        f"the {MAX_STEPS}-step limit")
    if not cfg.tau > 0:
        fail("tau", f"must be positive, got {cfg.tau}")
    if cfg.zero_pad < 1:
        fail("zero_pad", f"must be >= 1, got {cfg.zero_pad}")
    if (cfg.steps() + 1) * cfg.zero_pad > MAX_FFT_POINTS:
        fail("zero_pad", f"(steps + 1) * zero_pad = "
                         f"{(cfg.steps() + 1) * cfg.zero_pad} padded points "
                         f"exceeds the {MAX_FFT_POINTS}-point FFT limit")

    # observable expansion performs its own symbol validation
    try:
        obs = cfg.observables()
    except ValueError as exc:
        fail("observe", str(exc))
    if not obs:
        fail("observe", "names no observables")
    for obs_id, target in obs:
        if isinstance(target, int) and not 1 <= target <= cfg.n:
            fail("observe", f"site {target} outside 1..{cfg.n}")
        if isinstance(target, ProductLabel):
            if cfg.model != "aliphatic":
                fail("observe", "product-state labels need the aliphatic model")
            if len(target) != cfg.n:
                fail("observe", f"label {target} has {len(target)} sites, "
                                f"chain has {cfg.n}")
    return cfg


def check_chain(cfg: ScenarioConfig, path: str | None = None,
                source_text: str | None = None) -> None:
    """Refuse an unknown model, n < 2, or a missing or non-finite coupling.

    ``validate`` runs this first; ``analytic`` and ``blocks``, which take no
    scenario, run it alone before anything is built.
    """

    def fail(fld, msg):
        raise ConfigError(fld, msg, path, _field_line(source_text, fld))

    c = cfg.couplings
    if cfg.model not in ("xy", "aliphatic"):
        fail("model", f"must be 'xy' or 'aliphatic', got {cfg.model!r}")
    if cfg.n < 2:
        fail("n", f"chain length must be >= 2, got {cfg.n}")
    if cfg.model == "xy":
        if "J" not in c:
            fail("couplings", "xy model needs coupling J (Hz)")
        if not _finite(c["J"]):
            fail("couplings", f"J must be a finite number (Hz), got {c['J']!r}")
        return
    missing = [k for k in ("J_gem", "J_gauche", "J_anti") if k not in c]
    if missing:
        fail("couplings", f"aliphatic model needs {missing} (Hz)")
    bad = {k: c[k] for k in ("J_gem", "J_gauche", "J_anti") if not _finite(c[k])}
    if bad:
        fail("couplings", f"must be finite numbers (Hz), got {bad}")


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def check_dimension(model: str, n: int, engine: str,
                    path: str | None = None,
                    source_text: str | None = None) -> None:
    """Refuse a chain whose dense matrix would exceed the dimension guards.

    Runs before anything is allocated: ``validate`` calls it, and so do the
    commands that build matrices without a scenario. ``engine`` is ignored
    for the xy model.
    """
    if model == "xy":
        too_big = 2 ** n > MAX_FULL_DIM
        msg = f"2^{n} exceeds the {MAX_FULL_DIM}-dim full-matrix limit (n <= 12)"
    elif engine == "full":
        too_big = 4 ** n > MAX_FULL_DIM
        msg = (f"4^{n} exceeds the {MAX_FULL_DIM}-dim full-engine limit "
               f"(n <= 6); use engine=restricted")
    else:
        too_big = 2 ** n > MAX_RESTRICTED_DIM
        msg = (f"2^{n} exceeds the {MAX_RESTRICTED_DIM}-dim restricted-engine "
               f"limit (n <= 13)")
    if too_big:
        raise ConfigError("n", msg, path, _field_line(source_text, "n"))


def check_table_levels(n: int) -> None:
    """Refuse, before it is built, a table of over MAX_TABLE_LEVELS levels."""
    if n > MAX_TABLE_LEVELS:
        raise ConfigError("n", f"{n} levels exceed the {MAX_TABLE_LEVELS}-level "
                               f"transition-table limit")


def _field_line(source_text: str | None, fld: str) -> int | None:
    """Best-effort line reference: first line mentioning the field key."""
    if source_text is None:
        return None
    for i, line in enumerate(source_text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        if stripped.strip().startswith(fld):
            return i
    return None


def _coerce(raw: dict, path: str | None, text: str | None) -> ScenarioConfig:
    """The scenario of ``raw``; a field it leaves out keeps its dataclass default."""
    unknown = set(raw) - set(_CONVERT) - {"initial"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field", path,
                          _field_line(text, sorted(unknown)[0]))

    data = dict(raw)
    initial = data.pop("initial", None)
    if initial is not None:
        if not isinstance(initial, dict):
            raise ConfigError("initial", "must be a mapping", path,
                              _field_line(text, "initial"))
        stray = set(initial) - {"flips", "t0_sites", "signs"}
        if stray:
            raise ConfigError("initial", f"unknown keys {sorted(stray)}", path,
                              _field_line(text, "initial"))
        data.update(initial)

    try:
        return ScenarioConfig(**{k: f(data[k]) for k, f in _CONVERT.items()
                                 if k in data})
    except (TypeError, ValueError) as exc:
        raise ConfigError("config", f"malformed value: {exc}", path) from exc


def _norm_observe(value) -> tuple:
    if value in ("all", ("all",), ["all"]):
        return ("all",)
    if isinstance(value, (str, int)):
        value = [value]
    out = []
    for item in value:
        out.append(int(item) if str(item).lstrip("+-").isdigit() else str(item))
    return tuple(out)


def _int(value) -> int:
    """An integer, from an integral number or a decimal string; 4.7 is refused."""
    if isinstance(value, bool) or not (isinstance(value, (int, str))
                                       or float(value).is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(s) for s in values)


def _signs(values) -> tuple[float, ...]:
    return tuple(float({"+": 1.0, "-": -1.0}.get(s, s)) for s in values)


# the one conversion of every ScenarioConfig field, read from a file or
# from the flags (which pass their comma lists here as strings)
_CONVERT = {"model": str, "n": _int, "couplings": dict, "flips": _ints,
            "t0_sites": _ints, "signs": _signs, "observe": _norm_observe,
            "dt": float, "horizon": float, "tau": float, "zero_pad": _int,
            "engine": str}


def load_config(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Read a YAML scenario file, apply overrides, validate."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"not valid YAML: {exc}", path) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a mapping", path)
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return validate(_coerce(raw, path, text), path, text)


def config_from_overrides(overrides: dict) -> ScenarioConfig:
    """Build a scenario purely from CLI flags."""
    raw = {k: v for k, v in overrides.items() if v is not None}
    return validate(_coerce(raw, None, None))
