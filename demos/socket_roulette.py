"""Watch the rotating socket schedule reshuffle the live wall outlets.

Exactly `active_count` sockets are powered at any moment. When one's dwell
expires it goes dark and a random dark socket takes over, so the population
has to keep migrating.
"""

from orgsim.config import load_scenario_file
from orgsim.rng import Rng
from orgsim.world import SocketScheduler


def main():
    cfg = load_scenario_file("configs/desk_challenge.cfg")
    arena = cfg.arena
    sched = SocketScheduler(
        [s.id for s in arena.sockets], Rng(cfg.seed).substream("schedule"),
        cfg.dwell_min, cfg.dwell_max, cfg.active_count)

    live = [sid for sid, on in sched.active.items() if on]
    print(f"{len(arena.sockets)} sockets, {cfg.active_count} live at once, "
          f"dwell {cfg.dwell_min}..{cfg.dwell_max} ticks")
    print(f"tick {0:6d}: live {live}")

    hours = 0.0
    for tick in range(1, 6 * 360 + 1):        # six simulated hours at dt=10
        changes = sched.step(tick)
        if not changes:
            continue
        hours = tick * cfg.dt / 3600.0
        for sid, active in changes:
            print(f"tick {tick:6d} ({hours:4.1f} h): socket {sid} "
                  f"{'on' if active else 'off'}")
        live = [sid for sid, on in sched.active.items() if on]
        print(f"{'':>21s}live {live}")
        assert len(live) == cfg.active_count


if __name__ == "__main__":
    main()
