"""Throw bad ideas at the action guard and read the bounce reasons.

Controllers are allowed to be wrong; the guard is what keeps wrong cheap.
It clamps what it can (joint targets), scales what it must (speed), and
rejects the rest with a reason string the log keeps.
"""

from orgsim.control import (Actuate, Dock, Drive, GuardContext, Recharge,
                            Rejected, Tow, guard_action)
from orgsim.docking import Face
from orgsim.geometry import Pose
from orgsim.robot_model import (Health, ModuleClass, make_module_spec,
                                new_module_state)
from orgsim.world import parse_arena

# a 2 m x 1 m room of 0.25 m cells, walled from x = 1.25 m on
ROOM = """\
.....###
.....###
.....###
.....###
"""


def main():
    spec = make_module_spec(ModuleClass.SCOUT)
    me = new_module_state(0, spec, Pose(0.5, 0.5, 0.0))
    corpse = new_module_state(1, spec, Pose(0.7, 0.5, 0.0))
    corpse.health = Health.HARDWARE_DEAD

    arena = parse_arena(ROOM)   # the wall is 0.75 m ahead of the module

    # what the guard reads that holds for the whole run; each call names
    # the module and its organism (None: module 0 is alone)
    ctx = GuardContext(states={0: me, 1: corpse}, specs={0: spec, 1: spec},
                       path_clear=arena.path_clear, dt=10.0,
                       socket_by_id=arena.socket_by_id)

    cases = [
        ("creep forward", Drive(0.05, 0.0, 0.0)),
        ("floor it at the wall", Drive(50.0, 0.0, 0.0)),
        ("slide sideways on tracks", Drive(0.0, 0.1, 0.0)),
        ("bend joint to 400 degrees", Actuate(0, 400.0)),
        ("actuate a joint that is not there", Actuate(5, 10.0)),
        ("dock with the corpse, no tow", Dock(Face.NORTH, 1, Face.SOUTH)),
        ("tow-dock with the corpse", Tow(Face.NORTH, 1, Face.SOUTH)),
        ("recharge at socket 99", Recharge(99)),
    ]

    for label, action in cases:
        verdict = guard_action(action, me.id, None, ctx)
        if isinstance(verdict, Rejected):
            print(f"  {label:36s} -> REJECTED [{verdict.reason}] "
                  f"{verdict.detail}")
        elif verdict is action:
            print(f"  {label:36s} -> approved as proposed")
        else:
            print(f"  {label:36s} -> approved, adjusted to {verdict}")


if __name__ == "__main__":
    main()
