"""Reference scenario loader: the per-key loader that `orgsim.config`
replaced with its one table of keys.

`reference_load_scenario` reads every key with its own `get` call and its
own default, and checks unknown keys against a separate set of names. For
any scenario text, `orgsim.config.load_scenario` must give a
`ScenarioConfig` equal to this one, field for field and findings
included, and must raise a `ConfigError` with the same words for a text
with one bad value.
"""

import configparser
import math
from dataclasses import fields
from pathlib import Path

from orgsim.behaviors import EMERGENCY_FRACTION
from orgsim.config import (_CLASS_KEYS, ScenarioConfig, _controller_list,
                           _parse_spawn)
from orgsim.energy import DEFAULT_CONTACT_RANGE_M, Tariff
from orgsim.errors import ConfigError
from orgsim.robot_model import OVERRIDABLE

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


def reference_load_scenario(text: str, *, base_dir: Path | None = None,
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
            map_text = map_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
                mid = None
            if mid is None or str(mid) != key:
                raise ConfigError(f"spawn keys are module ids, got {key!r}")
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
