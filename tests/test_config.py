"""Scenario file parsing, derived quantities, and semantic validation."""

import re
from pathlib import Path

import pytest

from orgsim import cli
from orgsim.config import (_KNOWN_KEYS, SECONDS_PER_DAY, SpawnSpec,
                           load_scenario, load_scenario_file,
                           validate_scenario)
from orgsim.errors import ConfigError
from orgsim.harness import Simulation
from orgsim.robot_model import Health, ModuleClass

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

MAP = """\
cellsize 0.25
######
#....#
#GG..#
######
socket 0 1 1 0.3 20
socket 1 4 1 0.3 10
"""

FULL = """\
[run]
name = bench
days = 3
dt = 10 ; seconds per tick
seed = 42

[energy]
idle_w = 0.4
coprocessor_w = 1.5
locomotion_j_per_m_kg = 2.5
actuation_j_per_nm_rad = 0.8
lock_j = 4.0
recharge_efficiency = 0.85
share_rate_w = 40
contact_range_m = 0.12
hazard_rate = 0.0001
credit_log = yes

[schedule]
mode = rotating
active_count = 1
dwell_min = 100
dwell_max = 200

[roster]
scout = 2
backbone = 1
active_wheel = 1

[modules]
mass = 1.2
edge_length = 0.11
battery_capacity = 18000
start_fraction = 0.5

[controllers]
all = seek_energy, explore
scout = explore
emergency_fraction = 0.2

[sensing]
range_m = 4.0
radio_range_m = 8.0

[spawns]
mode = fixed
0 = 0.3 0.3 0
1 = 0.6 0.3 90 battery=0.25
2 = 0.9 0.3 180 health=energy_dead
3 = 1.2 0.3 270 battery=1.0 health=ok

[output]
log = no
"""


def load(text, **kw):
    kw.setdefault("map_text", MAP)
    return load_scenario(text, **kw)


# -- parsing --------------------------------------------------------------


def test_full_file_round_trip():
    cfg = load(FULL)
    assert cfg.name == "bench"
    assert (cfg.days, cfg.dt, cfg.seed) == (3.0, 10.0, 42)
    assert cfg.tariff.idle_w == 0.4
    assert cfg.tariff.coprocessor_w == 1.5
    assert cfg.tariff.locomotion_j_per_m_kg == 2.5
    assert cfg.tariff.actuation_j_per_nm_rad == 0.8
    assert cfg.tariff.lock_j == 4.0
    assert cfg.tariff.recharge_efficiency == 0.85
    assert cfg.tariff.share_rate_w == 40.0
    assert cfg.contact_range_m == 0.12
    assert cfg.hazard_rate == 0.0001
    assert cfg.credit_log is True
    assert cfg.schedule_mode == "rotating"
    assert (cfg.active_count, cfg.dwell_min, cfg.dwell_max) == (1, 100, 200)
    assert cfg.roster == {ModuleClass.SCOUT: 2, ModuleClass.BACKBONE: 1,
                          ModuleClass.ACTIVE_WHEEL: 1}
    assert cfg.module_overrides == {"mass": 1.2, "edge_length": 0.11,
                                    "battery_capacity": 18000.0}
    assert cfg.start_fraction == 0.5
    assert cfg.controllers_all == ["seek_energy", "explore"]
    assert cfg.controllers_by_class == {ModuleClass.SCOUT: ["explore"]}
    assert cfg.controller_params["emergency_fraction"] == 0.2
    assert (cfg.sensing_range_m, cfg.radio_range_m) == (4.0, 8.0)
    assert cfg.spawn_mode == "fixed"
    assert cfg.log_enabled is False
    assert cfg.raw_text == FULL
    assert cfg.findings == []


def test_defaults_from_empty_file():
    cfg = load("", name_hint="blank")
    assert cfg.name == "blank"
    assert (cfg.days, cfg.dt, cfg.seed) == (1.0, 10.0, 0)
    assert cfg.tariff.idle_w == 0.5
    assert cfg.tariff.recharge_efficiency == 0.9
    assert cfg.tariff.share_rate_w == 50.0
    assert cfg.contact_range_m == 0.1
    assert cfg.hazard_rate == 0.0
    assert cfg.credit_log is False
    assert cfg.schedule_mode == "always_on"
    assert (cfg.active_count, cfg.dwell_min, cfg.dwell_max) == (0, 360, 1440)
    assert all(v == 0 for v in cfg.roster.values())
    assert cfg.module_overrides == {}
    assert cfg.start_fraction == 1.0
    assert cfg.controllers_all == []
    assert cfg.controllers_by_class == {}
    assert cfg.controller_params["emergency_fraction"] == 0.15
    assert (cfg.sensing_range_m, cfg.radio_range_m) == (5.0, 10.0)
    assert cfg.spawn_mode == "seeded"
    assert cfg.fixed_spawns == {}
    assert cfg.log_enabled is True


def test_inline_comments_are_stripped():
    cfg = load("[run]\ndays = 2 ; two full days\n")
    assert cfg.days == 2.0


def test_unknown_section_and_key_become_findings():
    cfg = load("[rnu]\ndays = 1\n[run]\ndasy = 1\n")
    assert "unknown section [rnu]" in cfg.findings
    assert "unknown key 'dasy' in [run]" in cfg.findings


def test_bad_value_raises():
    with pytest.raises(ConfigError, match="bad value for days"):
        load("[run]\ndays = soon\n")


def test_bad_boolean_raises():
    with pytest.raises(ConfigError, match="bad value for log"):
        load("[output]\nlog = maybe\n")


def test_nonpositive_dt_and_days_raise():
    with pytest.raises(ConfigError, match="dt must be positive"):
        load("[run]\ndt = 0\n")
    with pytest.raises(ConfigError, match="days must be positive"):
        load("[run]\ndays = -1\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["dt", "days"])
def test_nan_or_infinite_dt_and_days_raise(key, value):
    with pytest.raises(ConfigError,
                       match=f"{key} must be positive and finite, got {value}"):
        load(f"[run]\n{key} = {value}\n")


def test_broken_ini_raises():
    with pytest.raises(ConfigError, match="cannot parse scenario file"):
        load("no section header here\n")


# -- map sourcing ---------------------------------------------------------


def test_map_read_from_path(tmp_path):
    (tmp_path / "room.map").write_text(MAP)
    cfg = load_scenario("[arena]\nmap = room.map\n", base_dir=tmp_path)
    assert cfg.map_ref == "room.map"
    assert cfg.map_text == MAP
    assert cfg.build_arena().width == 6


def test_map_text_kwarg_wins_for_replay():
    cfg = load_scenario("[arena]\nmap = does/not/exist.map\n", map_text=MAP)
    assert cfg.map_ref == "does/not/exist.map"
    assert cfg.map_text == MAP


def test_inline_map_without_arena_section():
    cfg = load("")
    assert cfg.map_ref == "<inline>"


def test_missing_map_raises():
    with pytest.raises(ConfigError, match=r"\[arena\] map is required"):
        load_scenario("[run]\ndays = 1\n")


def test_unreadable_map_path_raises(tmp_path):
    with pytest.raises(ConfigError, match="cannot read map"):
        load_scenario("[arena]\nmap = gone.map\n", base_dir=tmp_path)


def test_load_scenario_file_uses_stem_as_name(tmp_path):
    (tmp_path / "room.map").write_text(MAP)
    f = tmp_path / "night_shift.cfg"
    f.write_text("[arena]\nmap = room.map\n")
    cfg = load_scenario_file(f)
    assert cfg.name == "night_shift"


def test_load_scenario_file_missing_raises(tmp_path):
    with pytest.raises(ConfigError, match="cannot read scenario"):
        load_scenario_file(tmp_path / "nope.cfg")


# -- spawn lines ----------------------------------------------------------


def test_spawn_options_parse():
    cfg = load(FULL)
    assert cfg.fixed_spawns[0] == SpawnSpec(0.3, 0.3, 0.0)
    assert cfg.fixed_spawns[1] == SpawnSpec(0.6, 0.3, 90.0, 0.25)
    assert cfg.fixed_spawns[2] == SpawnSpec(0.9, 0.3, 180.0, None,
                                            Health.ENERGY_DEAD)
    assert cfg.fixed_spawns[3] == SpawnSpec(1.2, 0.3, 270.0, 1.0, Health.OK)


def test_spawn_needs_three_fields():
    with pytest.raises(ConfigError, match="at least 'x y heading'"):
        load("[spawns]\n0 = 0.3 0.3\n")


def test_spawn_option_without_equals_raises():
    with pytest.raises(ConfigError, match="bad spawn option"):
        load("[spawns]\n0 = 0.3 0.3 0 full\n")


def test_spawn_unknown_option_raises():
    with pytest.raises(ConfigError, match="unknown spawn option 'charge'"):
        load("[spawns]\n0 = 0.3 0.3 0 charge=1\n")


def test_spawn_unknown_health_raises():
    with pytest.raises(ConfigError, match="unknown health 'dead'"):
        load("[spawns]\n0 = 0.3 0.3 0 health=dead\n")


@pytest.mark.parametrize("line", ["0 = abc 1.0 0", "0 = 0.3 0.3 north",
                                  "0 = 0.3 0.3 0 battery=x"],
                         ids=["bad-x", "bad-heading", "bad-battery"])
def test_a_non_numeric_spawn_field_names_its_key_and_section(line):
    raw = line.partition(" = ")[2]
    with pytest.raises(ConfigError) as err:
        load(f"[spawns]\n{line}\n")
    assert str(err.value) == f"bad value for 0 in [spawns]: {raw!r}"


def test_spawn_key_must_be_module_id():
    with pytest.raises(ConfigError, match="spawn keys are module ids"):
        load("[spawns]\nfirst = 0.3 0.3 0\n")


# -- derived quantities ---------------------------------------------------


def test_tick_counts():
    cfg = load("[run]\ndays = 3\ndt = 10\n")
    assert cfg.total_ticks == 25920
    assert cfg.ticks_per_day == 8640

    odd = load("[run]\ndays = 0.5\ndt = 7\n")
    assert odd.total_ticks == round(0.5 * SECONDS_PER_DAY / 7)
    assert odd.ticks_per_day == round(SECONDS_PER_DAY / 7)

    coarse = load("[run]\ndays = 2\ndt = 200000\n")
    assert coarse.ticks_per_day == 1   # never reported as zero


def test_class_of_is_dense_by_declaration_order():
    cfg = load("[roster]\nscout = 2\nbackbone = 1\nactive_wheel = 1\n")
    assert cfg.module_count == 4
    got = [cfg.class_of(i) for i in range(4)]
    assert got == [ModuleClass.SCOUT, ModuleClass.SCOUT,
                   ModuleClass.BACKBONE, ModuleClass.ACTIVE_WHEEL]
    with pytest.raises(ValueError, match="beyond roster"):
        cfg.class_of(4)


def test_controllers_for_falls_back_to_all():
    cfg = load(FULL)
    assert cfg.controllers_for(ModuleClass.SCOUT) == ["explore"]
    assert cfg.controllers_for(ModuleClass.BACKBONE) == ["seek_energy",
                                                         "explore"]


# -- semantic validation --------------------------------------------------


def check(text, **kw):
    return validate_scenario(load(text, **kw))


def test_valid_scenario_has_no_findings():
    assert check(FULL) == []


def test_validate_reports_broken_map_and_stops():
    findings = check("[roster]\nscout = -1\n", map_text="..X..")
    assert len(findings) == 1
    assert findings[0].startswith("map does not load:")


def test_validate_empty_and_negative_roster():
    assert "roster is empty" in check("")
    findings = check("[roster]\nscout = -1\nbackbone = 2\n")
    assert "negative roster count for scout" in findings


def test_validate_schedule_mode_and_bounds():
    assert any("unknown schedule mode" in f
               for f in check("[schedule]\nmode = weekly\n"))
    rotating = ("[schedule]\nmode = rotating\nactive_count = {}\n"
                "dwell_min = {}\ndwell_max = {}\n")
    findings = check(rotating.format(0, 100, 200))
    assert "rotating schedule needs active_count > 0" in findings
    findings = check(rotating.format(3, 100, 200))
    assert any("exceeds the 2 sockets" in f for f in findings)
    findings = check(rotating.format(1, 300, 200))
    assert any("dwell bounds" in f for f in findings)
    assert check(rotating.format(1, 100, 200) + "[roster]\nscout = 1\n") == []


def test_validate_rates_and_fractions():
    assert any("hazard_rate" in f for f in check("[energy]\nhazard_rate = 1\n"))
    assert any("start_fraction" in f
               for f in check("[modules]\nstart_fraction = 1.5\n"))
    assert any("module override mass" in f
               for f in check("[modules]\nmass = 0\n"))
    assert any("range_m" in f for f in check("[sensing]\nrange_m = -1\n"))
    assert any("radio_range_m" in f
               for f in check("[sensing]\nradio_range_m = -1\n"))


@pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
def test_validate_refuses_an_emergency_fraction_outside_0_to_1(value):
    findings = check(f"[controllers]\nemergency_fraction = {value}\n")
    assert f"emergency_fraction {float(value)} outside [0, 1]" in findings
    for edge in ("0", "1"):
        assert check(f"[roster]\nscout = 1\n[controllers]\n"
                     f"emergency_fraction = {edge}\n") == []


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_validate_refuses_a_negative_or_nan_contact_range(value):
    findings = check(f"[energy]\ncontact_range_m = {value}\n")
    assert f"contact_range_m {float(value)} must not be negative" in findings
    assert check(FULL.replace("contact_range_m = 0.12",
                              "contact_range_m = 0")) == []


@pytest.mark.parametrize("text,finding", [
    ("[sensing]\nrange_m = nan\n", "sensing range_m nan must not be negative"),
    ("[sensing]\nradio_range_m = nan\n", "radio_range_m nan must not be negative"),
    ("[modules]\nmass = nan\n", "module override mass nan must be positive"),
    ("[modules]\nedge_length = nan\n",
     "module override edge_length nan must be positive"),
    ("[modules]\nbattery_capacity = nan\n",
     "module override battery_capacity nan must be positive"),
    ("[modules]\nmass = inf\n", "module override mass inf must be finite"),
    ("[modules]\nedge_length = inf\n",
     "module override edge_length inf must be finite"),
    ("[modules]\nbattery_capacity = inf\n",
     "module override battery_capacity inf must be finite"),
])
def test_validate_refuses_nan(text, finding):
    assert finding in check(text)


@pytest.mark.parametrize("socket,detail", [
    ("socket 0 1 1 nan 20", "height nan is negative or not a number"),
    ("socket 0 1 1 0.3 nan", "rating nan must be positive"),
    ("socket 0 1 1 0.3 inf", "rating inf must be finite"),
])
def test_validate_refuses_a_nan_socket(socket, detail):
    room = "#####\n#...#\n#####\n"
    assert check("[roster]\nscout = 1\n", map_text=room) == []
    assert check("[roster]\nscout = 1\n", map_text=room + socket) == [
        f"map does not load: socket 0 {detail}"]


@pytest.mark.parametrize("size,words", [
    ("nan", "must be positive, got nan"),
    ("inf", "must be finite, got inf"),
], ids=["nan", "inf"])
def test_validate_refuses_a_nan_cellsize(size, words):
    # seeded spawns: nothing but the arena itself reads the cell size
    findings = check("[roster]\nscout = 1\n",
                     map_text=f"cellsize {size}\n#####\n#...#\n#####\n")
    assert findings == [f"map does not load: cell_size {words}"]


def test_cli_validate_refuses_a_nan_sensing_range(tmp_path, capsys):
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "ample.map").write_text(
        (CONFIG_DIR / "maps" / "ample.map").read_text())
    cfg = tmp_path / "survival_ample.cfg"
    text = (CONFIG_DIR / "survival_ample.cfg").read_text()
    cfg.write_text(text.replace("range_m = 8.0", "range_m = nan"))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    assert ("finding: sensing range_m nan must not be negative"
            in capsys.readouterr().out)


def test_cli_validate_refuses_a_negative_contact_range(tmp_path, capsys):
    # at this range no socket is ever in contact, so a run charges nothing
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "ample.map").write_text(
        (CONFIG_DIR / "maps" / "ample.map").read_text())
    cfg = tmp_path / "survival_ample.cfg"
    cfg.write_text((CONFIG_DIR / "survival_ample.cfg").read_text()
                   + "\n[energy]\ncontact_range_m = -1\n")
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    assert ("finding: contact_range_m -1.0 must not be negative"
            in capsys.readouterr().out)


def test_cli_validate_reports_a_bad_tariff_with_the_other_findings(
        tmp_path, capsys):
    # a tariff value out of range is a finding like hazard_rate's, so
    # validation goes on to list the rest
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "ample.map").write_text(
        (CONFIG_DIR / "maps" / "ample.map").read_text())
    cfg = tmp_path / "survival_ample.cfg"
    cfg.write_text((CONFIG_DIR / "survival_ample.cfg").read_text()
                   + "\n[energy]\nidle_w = -1\nhazard_rate = 2\n")
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "finding: idle_w must be >= 0\n" in out
    assert "finding: hazard_rate 2.0 outside [0, 1)\n" in out


def test_validate_unknown_controller():
    findings = check("[controllers]\nall = explore, wander\n")
    assert "unknown controller 'wander'" in findings
    findings = check("[controllers]\nscout = wander\n")
    assert "unknown controller 'wander'" in findings


def test_validate_spawn_mode_and_coverage():
    assert any("unknown spawn mode" in f
               for f in check("[spawns]\nmode = random\n"))

    base = "[roster]\nscout = 2\n[spawns]\nmode = fixed\n"
    findings = check(base + "0 = 0.3 0.3 0\n")
    assert "fixed spawns missing for modules [1]" in findings
    findings = check(base + "0 = 0.3 0.3 0\n1 = 0.6 0.3 0\n5 = 0.9 0.3 0\n")
    assert "spawns given for ids beyond the roster: [5]" in findings


def test_validate_spawn_placement():
    base = "[roster]\nscout = 1\n[spawns]\nmode = fixed\n"
    assert any("outside arena" in f for f in check(base + "0 = 9 9 0\n"))
    assert any("inside a wall" in f for f in check(base + "0 = 0.1 0.1 0\n"))
    assert any("battery 1.5 outside" in f
               for f in check(base + "0 = 0.3 0.3 0 battery=1.5\n"))


@pytest.mark.parametrize("heading", ["nan", "inf", "-inf"])
def test_validate_refuses_a_spawn_heading_that_is_not_finite(heading):
    base = "[roster]\nscout = 1\n[spawns]\nmode = fixed\n"
    assert check(base + "0 = 0.3 0.3 -450\n") == []
    assert check(base + f"0 = 0.3 0.3 {heading}\n") == [
        f"spawn 0 heading {float(heading)} is not finite"]


def test_cli_run_reports_a_spawn_heading_that_is_not_finite(tmp_path, capsys):
    # before validation checked it, Pose refused the heading mid-setup: exit 1
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "ample.map").write_text(
        (CONFIG_DIR / "maps" / "ample.map").read_text())
    cfg = tmp_path / "survival_ample.cfg"
    text = (CONFIG_DIR / "survival_ample.cfg").read_text()
    cfg.write_text(text.replace("0 = 1.10 1.60 90", "0 = 1.10 1.60 nan"))
    assert cli.main(["run", "--config", str(cfg), "--ticks", "1"]) == 2
    assert ("finding: spawn 0 heading nan is not finite"
            in capsys.readouterr().err)


def test_validate_seeded_needs_room():
    findings = check("[roster]\nscout = 99\n")
    assert any("cannot spawn on" in f for f in findings)


YARD = "#####\n#..G#\n#####\n"      # two floor cells and a graveyard cell


def test_validate_counts_the_cells_a_run_spawns_on():
    # the graveyard is walkable, but a seeded run places no module on it
    findings = check("[roster]\nscout = 3\n", map_text=YARD)
    assert "3 modules cannot spawn on 2 free cells" in findings
    with pytest.raises(ConfigError, match="3 modules cannot spawn on 2 free"):
        Simulation(load("[roster]\nscout = 3\n", map_text=YARD))
    fits = load("[roster]\nscout = 2\n", map_text=YARD)
    assert validate_scenario(fits) == []
    assert len(Simulation(fits).states) == 2


def test_cli_run_reports_a_roster_too_big_for_the_free_cells(tmp_path, capsys):
    (tmp_path / "yard.map").write_text(YARD)
    cfg = tmp_path / "yard.cfg"
    cfg.write_text("[arena]\nmap = yard.map\n[roster]\nscout = 3\n")
    assert cli.main(["run", "--config", str(cfg), "--ticks", "1"]) == 2
    assert ("finding: 3 modules cannot spawn on 2 free cells"
            in capsys.readouterr().err)


# -- one rule for a runnable scenario -------------------------------------


# each variant of desk_challenge.cfg once started a run that validation
# refuses: raising elsewhere mid-run or mid-setup, or running to the end
@pytest.mark.parametrize("old, new, finding", [
    ("range_m = 8.0", "range_m = -1",
     "sensing range_m -1.0 must not be negative"),
    ("0 = 1.00 1.00 0", "0 = 1.00 1.00 inf",
     "spawn 0 heading inf is not finite"),
    ("0 = 1.00 1.00 0", "0 = -1 1.00 0",
     "spawn 0 at (-1.0, 1.0) outside arena"),
    ("active_count = 4", "active_count = 0",
     "rotating schedule needs active_count > 0"),
    ("[roster]", "[energy]\nhazard_rate = 1.0\n\n[roster]",
     "hazard_rate 1.0 outside [0, 1)"),
    ("0 = 1.00 1.00 0", "0 = 0.10 0.10 0", "spawn 0 is inside a wall"),
    ("days = 3", "day = 3", "unknown key 'day' in [run]"),
    ("[roster]", "[energy]\nidle_w = -1\n\n[roster]", "idle_w must be >= 0"),
    ("[roster]", "[energy]\nlock_j = nan\n\n[roster]", "lock_j must be >= 0"),
    ("[roster]", "[energy]\nrecharge_efficiency = 0\n\n[roster]",
     "recharge_efficiency must be in (0, 1]"),
    ("[roster]", "[energy]\nidle_w = inf\n\n[roster]", "idle_w must be finite"),
    ("[roster]", "[energy]\nshare_rate_w = inf\n\n[roster]",
     "share_rate_w must be finite"),
    ("[roster]", "[energy]\nlock_j = inf\n\n[roster]", "lock_j must be finite"),
    ("start_fraction = 0.8", "start_fraction = 0.8\nmass = inf",
     "module override mass inf must be finite"),
    # the two edits below land in the map, not in the scenario file
    ("socket 0 4 1 0.2 20", "socket 0 4 1 0.2 inf",
     "map does not load: socket 0 rating inf must be finite"),
    ("cellsize 0.25", "cellsize inf",
     "map does not load: cell_size must be finite, got inf"),
], ids=["negative-range", "inf-heading", "off-arena", "no-active-socket",
        "certain-hazard", "spawn-in-wall", "typo-key", "negative-tariff",
        "nan-tariff", "zero-efficiency", "inf-idle", "inf-share-rate",
        "inf-lock", "inf-mass", "inf-socket-rating", "inf-cellsize"])
def test_a_simulation_refuses_what_validation_reports(old, new, finding):
    text = (CONFIG_DIR / "desk_challenge.cfg").read_text()
    map_text = (CONFIG_DIR / "maps" / "challenge.map").read_text()
    assert (old in text) != (old in map_text)
    cfg = load_scenario(text.replace(old, new), base_dir=CONFIG_DIR,
                        map_text=map_text.replace(old, new))
    assert validate_scenario(cfg) == [finding]
    with pytest.raises(ConfigError) as refused:
        Simulation(cfg)
    assert str(refused.value) == finding


def test_a_simulation_joins_every_finding_in_validation_order():
    cfg = load(FULL.replace("hazard_rate = 0.0001", "hazard_rate = 2")
               .replace("seed = 42", "seed = 42\nday = 3"))
    findings = validate_scenario(cfg)
    assert findings == ["unknown key 'day' in [run]",
                        "hazard_rate 2.0 outside [0, 1)"]
    with pytest.raises(ConfigError, match=re.escape("; ".join(findings))):
        Simulation(cfg)


def test_a_simulation_refuses_a_map_that_does_not_load_in_validation_s_words():
    cfg = load("[roster]\nscout = 1\n", map_text="..X..")
    [finding] = validate_scenario(cfg)
    assert finding.startswith("map does not load:")
    with pytest.raises(ConfigError, match=f"^{re.escape(finding)}$"):
        Simulation(cfg)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_every_bundled_scenario_is_valid_and_builds(path):
    cfg = load_scenario_file(path)
    assert validate_scenario(cfg) == []
    assert len(Simulation(cfg).states) == cfg.module_count


def _reference_sections() -> dict[str, str]:
    """Each `### `[section]`` part of docs/config_reference.md, by name."""
    text = (ROOT / "docs" / "config_reference.md").read_text()
    parts = re.split(r"^(#+ .*)$", text, flags=re.M)
    return {m.group(1): body
            for head, body in zip(parts[1::2], parts[2::2])
            if (m := re.fullmatch(r"### `\[(\w+)\]`", head))}


def test_the_reference_documents_every_key_under_its_section():
    sections = _reference_sections()
    assert set(sections) == set(_KNOWN_KEYS)
    for section, keys in _KNOWN_KEYS.items():
        for key in sorted(keys or {"mode"}):     # [spawns]: mode and ids
            assert f"`{key}`" in sections[section], (section, key)
