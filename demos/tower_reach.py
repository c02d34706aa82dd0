"""Which base class can erect which stack, and how high the result reaches.

The only joint that matters is the base one: it has to swing every module
above it through the horizontal, so the gravity torque grows with the
square-ish sum 1+2+...+n of edge lengths.
"""

from orgsim.docking import DockPhase, DockPort, Face
from orgsim.organism import (OrganismRegistry, lift_feasible, lift_torque_nm,
                             reach_height)
from orgsim.robot_model import ModuleClass, make_module_spec


def docked_pair(a, b):
    pa = DockPort(owner=a, face=Face.NORTH)
    pb = DockPort(owner=b, face=Face.SOUTH)
    pa.phase = pb.phase = DockPhase.DOCKED
    pa.peer, pb.peer = pb, pa
    return pa, pb


def chain(n):
    reg = OrganismRegistry()
    for a, b in zip(range(n), range(1, n)):
        reg.register_edge(*docked_pair(a, b))
    return reg.organisms[0]


def main():
    bases = {mc: make_module_spec(mc) for mc in ModuleClass}
    scout = bases[ModuleClass.SCOUT]

    print("torque to lift a chain of unit-mass modules (0.10 m pitch):\n")
    print(f"{'lifted':>8s} {'needs N*m':>10s}   " +
          "  ".join(f"{mc.value:>12s}" for mc in bases))
    for lifted in range(1, 5):
        specs = {i: scout for i in range(lifted + 1)}
        lift = tuple(range(1, lifted + 1))
        need = lift_torque_nm(0, lift, specs)
        verdicts = []
        for mc, spec in bases.items():
            mix = dict(specs)
            mix[0] = spec
            ok = lift_feasible(0, lift, mix)
            verdicts.append(f"{'yes' if ok else 'no':>12s}")
        print(f"{lifted:>8d} {need:>10.3f}   " + "  ".join(verdicts))

    print("\nreach of a four-module chain, by base class:")
    org = chain(4)
    for mc, spec in bases.items():
        specs = {0: spec, 1: scout, 2: scout, 3: scout}
        h = reach_height(org, specs)
        print(f"  {mc.value:>12s} base: {h:.2f} m"
              f"  ({'reaches a 0.35 m socket' if h >= 0.35 else 'too low'})")
    print(f"\nany module alone: {scout.edge_length:.2f} m")


if __name__ == "__main__":
    main()
