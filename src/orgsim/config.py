"""Scenario configuration: INI file in, validated ScenarioConfig out.

A scenario file fully determines a run together with one integer seed. The
raw text is kept around verbatim because run logs embed it, which is what
makes a finished log replayable with nothing but the log file itself.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .behaviors import EMERGENCY_FRACTION, REGISTRY
from .energy import DEFAULT_CONTACT_RANGE_M, Tariff
from .errors import ConfigError
from .robot_model import OVERRIDABLE, Health, ModuleClass
from .world import Arena, TerrainClass, parse_arena

SECONDS_PER_DAY = 86400.0

_CLASS_KEYS = {
    "scout": ModuleClass.SCOUT,
    "backbone": ModuleClass.BACKBONE,
    "active_wheel": ModuleClass.ACTIVE_WHEEL,
}

_KNOWN_KEYS = {
    "run": {"name", "days", "dt", "seed"},
    "arena": {"map"},
    "energy": {*(f.name for f in fields(Tariff)),
               "contact_range_m", "hazard_rate", "credit_log"},
    "schedule": {"mode", "active_count", "dwell_min", "dwell_max"},
    "roster": set(_CLASS_KEYS),
    "modules": {*OVERRIDABLE, "start_fraction"},
    "controllers": {"all", "emergency_fraction", *_CLASS_KEYS},
    "sensing": {"range_m", "radio_range_m"},
    "spawns": None,   # numeric module ids, checked separately
    "output": {"log"},
}


@dataclass(frozen=True)
class SpawnSpec:
    x: float
    y: float
    heading: float
    battery: float | None = None      # fraction; None means the roster default
    health: Health | None = None


@dataclass
class ScenarioConfig:
    name: str
    days: float
    dt: float
    seed: int
    map_ref: str                      # path as written in the file, or "<inline>"
    map_text: str
    tariff: Tariff
    contact_range_m: float
    hazard_rate: float
    credit_log: bool
    schedule_mode: str                # always_on | rotating
    active_count: int
    dwell_min: int
    dwell_max: int
    roster: dict[ModuleClass, int]
    module_overrides: dict[str, float]
    start_fraction: float
    controllers_all: list[str]
    controllers_by_class: dict[ModuleClass, list[str]]
    controller_params: dict[str, float]
    sensing_range_m: float
    radio_range_m: float
    spawn_mode: str                   # fixed | seeded
    fixed_spawns: dict[int, SpawnSpec]
    log_enabled: bool
    raw_text: str
    findings: list[str] = field(default_factory=list)

    @property
    def total_ticks(self) -> int:
        return round(self.days * SECONDS_PER_DAY / self.dt)

    @property
    def ticks_per_day(self) -> int:
        return max(1, round(SECONDS_PER_DAY / self.dt))

    @property
    def module_count(self) -> int:
        return sum(self.roster.values())

    def class_of(self, module_id: int) -> ModuleClass:
        """Ids are dense and 0-based: scouts first, backbones, then wheels."""
        n = module_id
        for mc in (ModuleClass.SCOUT, ModuleClass.BACKBONE,
                   ModuleClass.ACTIVE_WHEEL):
            if n < self.roster.get(mc, 0):
                return mc
            n -= self.roster.get(mc, 0)
        raise ValueError(f"module id {module_id} beyond roster")

    def controllers_for(self, mc: ModuleClass) -> list[str]:
        return self.controllers_by_class.get(mc, self.controllers_all)

    def build_arena(self) -> Arena:
        try:
            return parse_arena(self.map_text)
        except ConfigError as exc:
            raise ConfigError(f"map does not load: {exc}") from exc


def _parse_spawn(raw: str) -> SpawnSpec:
    parts = raw.split()
    if len(parts) < 3:
        raise ConfigError(f"spawn needs at least 'x y heading', got {raw!r}")
    x, y, heading = (float(p) for p in parts[:3])
    battery = None
    health = None
    for extra in parts[3:]:
        if "=" not in extra:
            raise ConfigError(f"bad spawn option {extra!r}, want key=value")
        key, _, val = extra.partition("=")
        if key == "battery":
            battery = float(val)
        elif key == "health":
            try:
                health = Health(val)
            except ValueError:
                raise ConfigError(f"unknown health {val!r}") from None
        else:
            raise ConfigError(f"unknown spawn option {key!r}")
    return SpawnSpec(x, y, heading, battery, health)


def _controller_list(raw: str) -> list[str]:
    return [p.strip() for p in raw.split(",") if p.strip()]


def load_scenario(text: str, *, base_dir: Path | None = None,
                  map_text: str | None = None,
                  name_hint: str = "scenario") -> ScenarioConfig:
    """Parse scenario INI text. Map text may be supplied directly (replay)
    or read from the path in [arena]; one of the two must work."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario file: {exc}") from exc

    findings: list[str] = []
    for section in cp.sections():
        known = _KNOWN_KEYS.get(section)
        if section not in _KNOWN_KEYS:
            findings.append(f"unknown section [{section}]")
            continue
        if known is None:
            continue
        for key in cp[section]:
            if key not in known:
                findings.append(f"unknown key {key!r} in [{section}]")

    def get(section, key, default, conv=str):
        try:
            raw = cp.get(section, key, fallback=None)
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from exc
        if raw is None:
            return default
        try:
            if conv is bool:
                return cp.getboolean(section, key)
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key} in [{section}]: {raw!r}") from exc

    name = get("run", "name", name_hint)
    days = get("run", "days", 1.0, float)
    dt = get("run", "dt", 10.0, float)
    seed = get("run", "seed", 0, int)
    # written so that NaN fails each comparison, here and in validation;
    # an infinite dt or days has no tick count
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if not 0 < days < math.inf:
        raise ConfigError(f"days must be positive and finite, got {days}")

    map_ref = get("arena", "map", None)
    if map_text is None:
        if map_ref is None:
            raise ConfigError("[arena] map is required")
        map_path = Path(map_ref)
        if not map_path.is_absolute():
            map_path = (base_dir or Path.cwd()) / map_path
        try:
            map_text = map_path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read map {map_path}: {exc}") from exc
    else:
        map_ref = map_ref or "<inline>"

    prices = {f.name: get("energy", f.name, f.default, float)
              for f in fields(Tariff)}
    try:
        tariff = Tariff(**prices)
    except ValueError as exc:
        findings.append(str(exc))
        tariff = Tariff()     # never billed: a Simulation refuses findings

    roster = {mc: get("roster", key, 0, int) for key, mc in _CLASS_KEYS.items()}
    overrides = {}
    for key in OVERRIDABLE:
        val = get("modules", key, None, float)
        if val is not None:
            overrides[key] = val

    controllers_all = _controller_list(get("controllers", "all", ""))
    by_class = {}
    for key, mc in _CLASS_KEYS.items():
        raw = get("controllers", key, None)
        if raw is not None:
            by_class[mc] = _controller_list(raw)

    fixed_spawns = {}
    if cp.has_section("spawns"):
        for key in cp["spawns"]:
            if key == "mode":
                continue
            try:
                mid = int(key)
            except ValueError:
                raise ConfigError(
                    f"spawn keys are module ids, got {key!r}") from None
            fixed_spawns[mid] = get("spawns", key, None, _parse_spawn)

    cfg = ScenarioConfig(
        name=name,
        days=days,
        dt=dt,
        seed=seed,
        map_ref=map_ref or "<inline>",
        map_text=map_text,
        tariff=tariff,
        contact_range_m=get("energy", "contact_range_m",
                            DEFAULT_CONTACT_RANGE_M, float),
        hazard_rate=get("energy", "hazard_rate", 0.0, float),
        credit_log=get("energy", "credit_log", False, bool),
        schedule_mode=get("schedule", "mode", "always_on"),
        active_count=get("schedule", "active_count", 0, int),
        dwell_min=get("schedule", "dwell_min", 360, int),
        dwell_max=get("schedule", "dwell_max", 1440, int),
        roster=roster,
        module_overrides=overrides,
        start_fraction=get("modules", "start_fraction", 1.0, float),
        controllers_all=controllers_all,
        controllers_by_class=by_class,
        controller_params={
            "emergency_fraction": get("controllers", "emergency_fraction",
                                      EMERGENCY_FRACTION, float),
        },
        sensing_range_m=get("sensing", "range_m", 5.0, float),
        radio_range_m=get("sensing", "radio_range_m", 10.0, float),
        spawn_mode=get("spawns", "mode", "seeded"),
        fixed_spawns=fixed_spawns,
        log_enabled=get("output", "log", True, bool),
        raw_text=text,
        findings=findings,
    )
    return cfg


def load_scenario_file(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(text, base_dir=path.parent, name_hint=path.stem)


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Semantic checks beyond what parsing already enforced.

    Returns human-readable findings; an empty list means the scenario is
    runnable. Unknown keys found during parsing are included.
    """
    try:
        arena = cfg.build_arena()
    except ConfigError as exc:
        return [*cfg.findings, str(exc)]
    return scenario_findings(cfg, arena)


def scenario_findings(cfg: ScenarioConfig, arena: Arena) -> list[str]:
    """The findings of `validate_scenario` for a config whose map already
    built `arena`. A `Simulation` refuses a config with any."""
    findings = list(cfg.findings)
    n = cfg.module_count
    if n == 0:
        findings.append("roster is empty")
    for mc, count in cfg.roster.items():
        if count < 0:
            findings.append(f"negative roster count for {mc.value}")

    if cfg.schedule_mode not in ("always_on", "rotating"):
        findings.append(f"unknown schedule mode {cfg.schedule_mode!r}")
    if cfg.spawn_mode not in ("fixed", "seeded"):
        findings.append(f"unknown spawn mode {cfg.spawn_mode!r}")
    if cfg.schedule_mode == "rotating":
        if cfg.active_count <= 0:
            findings.append("rotating schedule needs active_count > 0")
        if cfg.active_count > len(arena.sockets):
            findings.append(
                f"active_count {cfg.active_count} exceeds the "
                f"{len(arena.sockets)} sockets on the map")
        if not 0 < cfg.dwell_min <= cfg.dwell_max:
            findings.append(
                f"dwell bounds must satisfy 0 < min <= max, got "
                f"[{cfg.dwell_min}, {cfg.dwell_max}]")

    if not 0.0 <= cfg.hazard_rate < 1.0:
        findings.append(f"hazard_rate {cfg.hazard_rate} outside [0, 1)")
    if not 0.0 <= cfg.start_fraction <= 1.0:
        findings.append(f"start_fraction {cfg.start_fraction} outside [0, 1]")
    emergency = cfg.controller_params["emergency_fraction"]
    if not 0.0 <= emergency <= 1.0:
        findings.append(f"emergency_fraction {emergency} outside [0, 1]")
    for key, val in cfg.module_overrides.items():
        if not val > 0:
            findings.append(f"module override {key} {val} must be positive")
        elif val == math.inf:
            findings.append(f"module override {key} {val} must be finite")
    if not cfg.sensing_range_m >= 0:
        findings.append(
            f"sensing range_m {cfg.sensing_range_m} must not be negative")
    if not cfg.radio_range_m >= 0:
        findings.append(
            f"radio_range_m {cfg.radio_range_m} must not be negative")
    if not cfg.contact_range_m >= 0:
        findings.append(
            f"contact_range_m {cfg.contact_range_m} must not be negative")

    all_lists = [cfg.controllers_all, *cfg.controllers_by_class.values()]
    for names in all_lists:
        for cname in names:
            if cname not in REGISTRY:
                findings.append(f"unknown controller {cname!r}")

    if cfg.spawn_mode == "fixed":
        missing = [i for i in range(n) if i not in cfg.fixed_spawns]
        if missing:
            findings.append(f"fixed spawns missing for modules {missing}")
        extra = [i for i in cfg.fixed_spawns if not 0 <= i < n]
        if extra:
            findings.append(f"spawns given for ids beyond the roster: {extra}")
        for mid, sp in sorted(cfg.fixed_spawns.items()):
            if not math.isfinite(sp.heading):
                findings.append(f"spawn {mid} heading {sp.heading} is not finite")
            if not arena.in_bounds(sp.x, sp.y):
                findings.append(f"spawn {mid} at ({sp.x}, {sp.y}) outside arena")
                continue
            if arena.terrain_at(sp.x, sp.y) is TerrainClass.OBSTACLE:
                findings.append(f"spawn {mid} is inside a wall")
            if sp.battery is not None and not 0.0 <= sp.battery <= 1.0:
                findings.append(f"spawn {mid} battery {sp.battery} outside [0, 1]")
    else:
        free = len(arena.free_cells())
        if n > free:
            findings.append(f"{n} modules cannot spawn on {free} free cells")

    return findings
