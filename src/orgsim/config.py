"""Scenario configuration: INI file in, validated ScenarioConfig out.

A scenario file fully determines a run together with one integer seed. The
raw text is kept around verbatim because run logs embed it, which is what
makes a finished log replayable with nothing but the log file itself.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from .behaviors import EMERGENCY_FRACTION, REGISTRY
from .energy import DEFAULT_CONTACT_RANGE_M, Tariff
from .errors import ConfigError
from .robot_model import OVERRIDABLE, Health, ModuleClass
from .world import Arena, TerrainClass, parse_arena, schedule_findings

SECONDS_PER_DAY = 86400.0

_CLASS_KEYS = {
    "scout": ModuleClass.SCOUT,
    "backbone": ModuleClass.BACKBONE,
    "active_wheel": ModuleClass.ACTIVE_WHEEL,
}

# the order in which a roster's classes take their dense ids
ROSTER_ORDER = (ModuleClass.SCOUT, ModuleClass.BACKBONE,
                ModuleClass.ACTIVE_WHEEL)

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

    def controllers_for(self, mc: ModuleClass) -> list[str]:
        return self.controllers_by_class.get(mc, self.controllers_all)

    @cached_property
    def arena(self) -> Arena:
        """The map, parsed on first use and shared by every run of this
        config: validation and each run, sweep seeds included. A map that
        does not parse raises ConfigError on each use."""
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


# Every scenario key, once: section -> key -> (default, converter). Any
# other section or key is a finding. A None default is an unset key: the
# name falls back to the name hint, the map to the text handed in, and an
# override or per-class list is left out. The other keys of [spawns] are
# module ids, one _parse_spawn line each. A bool is read as configparser
# reads one: yes/no, on/off, true/false or 1/0.
SCENARIO_KEYS = {
    "run": {"name": (None, str), "days": (1.0, float), "dt": (10.0, float),
            "seed": (0, int)},
    "arena": {"map": (None, str)},
    "energy": {**{f.name: (f.default, float) for f in fields(Tariff)},
               "contact_range_m": (DEFAULT_CONTACT_RANGE_M, float),
               "hazard_rate": (0.0, float),
               "credit_log": (False, bool)},
    "schedule": {"mode": ("always_on", str), "active_count": (0, int),
                 "dwell_min": (360, int), "dwell_max": (1440, int)},
    "roster": {key: (0, int) for key in _CLASS_KEYS},
    "modules": {**{key: (None, float) for key in OVERRIDABLE},
                "start_fraction": (1.0, float)},
    "controllers": {"all": ("", str),
                    **{key: (None, str) for key in _CLASS_KEYS},
                    "emergency_fraction": (EMERGENCY_FRACTION, float)},
    "sensing": {"range_m": (5.0, float), "radio_range_m": (10.0, float)},
    "spawns": {"mode": ("seeded", str)},
    "output": {"log": (True, bool)},
}


def load_scenario(text: str, *, base_dir: Path | None = None,
                  map_text: str | None = None,
                  name_hint: str = "scenario") -> ScenarioConfig:
    """Parse scenario INI text. Map text may be supplied directly (replay)
    or read from the path in [arena]; one of the two must work."""
    # configparser's defaults section gets a name no header can spell, a
    # line break, so [DEFAULT] is an ordinary section and so a finding
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                   interpolation=None, default_section="\n")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario file: {exc}") from exc

    findings: list[str] = []
    for section in cp.sections():
        known = SCENARIO_KEYS.get(section)
        if known is None:
            findings.append(f"unknown section [{section}]")
        elif section != "spawns":        # its other keys are module ids
            findings.extend(f"unknown key {key!r} in [{section}]"
                            for key in cp[section] if key not in known)

    def get(section, key, default, conv):
        raw = cp.get(section, key, fallback=None)
        if raw is None:
            return default
        try:
            if conv is bool:
                return cp.getboolean(section, key)
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key} in [{section}]: {raw!r}") from exc

    value = {(section, key): get(section, key, default, conv)
             for section, keys in SCENARIO_KEYS.items()
             for key, (default, conv) in keys.items()}

    days, dt = value["run", "days"], value["run", "dt"]
    # written so that NaN fails each comparison, here and in validation;
    # an infinite dt or days has no tick count
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if not 0 < days < math.inf:
        raise ConfigError(f"days must be positive and finite, got {days}")

    map_ref = value["arena", "map"]
    if map_text is None:
        if map_ref is None:
            raise ConfigError("[arena] map is required")
        map_path = Path(map_ref)
        if not map_path.is_absolute():
            map_path = (base_dir or Path.cwd()) / map_path
        try:
            map_text = map_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read map {map_path}: {exc}") from exc

    try:
        tariff = Tariff(**{f.name: value["energy", f.name]
                           for f in fields(Tariff)})
    except ValueError as exc:
        findings.append(str(exc))
        tariff = Tariff()     # never billed: a Simulation refuses findings

    fixed_spawns = {}
    if cp.has_section("spawns"):
        for key in cp["spawns"]:
            if key == "mode":
                continue
            # an id in plain decimal only: int() also reads 01, 0_1 and
            # +1, and two spellings of one id would overwrite each other
            try:
                mid = int(key)
            except ValueError:
                mid = None
            if mid is None or str(mid) != key:
                raise ConfigError(f"spawn keys are module ids, got {key!r}")
            fixed_spawns[mid] = get("spawns", key, None, _parse_spawn)

    name = value["run", "name"]
    return ScenarioConfig(
        name=name_hint if name is None else name,
        days=days,
        dt=dt,
        seed=value["run", "seed"],
        map_ref=map_ref or "<inline>",
        map_text=map_text,
        tariff=tariff,
        contact_range_m=value["energy", "contact_range_m"],
        hazard_rate=value["energy", "hazard_rate"],
        credit_log=value["energy", "credit_log"],
        schedule_mode=value["schedule", "mode"],
        active_count=value["schedule", "active_count"],
        dwell_min=value["schedule", "dwell_min"],
        dwell_max=value["schedule", "dwell_max"],
        roster={mc: value["roster", key] for key, mc in _CLASS_KEYS.items()},
        module_overrides={key: value["modules", key] for key in OVERRIDABLE
                          if value["modules", key] is not None},
        start_fraction=value["modules", "start_fraction"],
        controllers_all=_controller_list(value["controllers", "all"]),
        controllers_by_class={
            mc: _controller_list(value["controllers", key])
            for key, mc in _CLASS_KEYS.items()
            if value["controllers", key] is not None},
        controller_params={
            "emergency_fraction": value["controllers", "emergency_fraction"],
        },
        sensing_range_m=value["sensing", "range_m"],
        radio_range_m=value["sensing", "radio_range_m"],
        spawn_mode=value["spawns", "mode"],
        fixed_spawns=fixed_spawns,
        log_enabled=value["output", "log"],
        raw_text=text,
        findings=findings,
    )


def load_scenario_file(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(text, base_dir=path.parent, name_hint=path.stem)


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Semantic checks beyond what parsing already enforced.

    Returns human-readable findings; an empty list means the scenario is
    runnable. Unknown keys found during parsing are included. A
    `Simulation` refuses a config with any.
    """
    findings = list(cfg.findings)
    # the log's header gives the name one line
    if "\n" in cfg.name:
        findings.append(f"run name {cfg.name!r} must be one line")
    try:
        arena = cfg.arena
    except ConfigError as exc:
        return [*findings, str(exc)]
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
        findings += schedule_findings(len(arena.sockets), cfg.dwell_min,
                                      cfg.dwell_max, cfg.active_count)

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
        for k, cname in enumerate(names):
            if cname not in REGISTRY:
                findings.append(f"unknown controller {cname!r}")
            elif cname in names[:k]:
                findings.append(f"controller {cname!r} is listed twice")

    if cfg.spawn_mode != "fixed" and cfg.fixed_spawns:
        findings.append(
            f"[spawns] mode {cfg.spawn_mode!r} ignores the spawn lines for "
            f"ids {sorted(cfg.fixed_spawns)}; only mode = fixed reads them")
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
