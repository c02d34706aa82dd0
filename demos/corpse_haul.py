"""The disposal chore: two wheeled haulers drag a dead scout to the graveyard.

Towing is the one docking flow that accepts a dead partner, and a carried
corpse stops counting as an obstacle to its own funeral.
"""

from orgsim.config import load_scenario_file
from orgsim.harness import Simulation
from orgsim.world import in_yard


def main():
    cfg = load_scenario_file("configs/disposal_open.cfg")
    sim = Simulation(cfg)
    corpse = cfg.fixed_spawns[0]
    print(f"dead scout at ({corpse.x}, {corpse.y}), graveyard at "
          f"{sim.arena.graveyard} (cells); haulers 1 and 2 close in\n")
    metrics = sim.run()

    for line in sim.log.lines:
        if " phase " in line or " dispose" in line or " split " in line \
                or " merge " in line:
            print(" ", line)

    body = sim.states[0]
    print(f"\ncorpse finished at ({body.pose.x:.2f}, {body.pose.y:.2f}); "
          f"in graveyard: {in_yard(sim.arena.yard, body.pose.x, body.pose.y)}")
    print(f"disposed {metrics.disposed}, tasks still open {metrics.tasks_open}")


if __name__ == "__main__":
    main()
