"""The benchmark's four seeded workloads, each a closed loop with one caller.

A workload builds the inputs of pass ``index`` from the seed alone, then
``run`` times each operation of the pass and checks its output outside
the timed region. Every timed pass gets fresh inputs, so a cache inside
the program only hits where real inputs repeat; pass 0 runs untimed
before and after them, and the two runs must produce identical outputs.
"""

from . import cs_cipher, csi_replay, ergodic_grid, sweep_tables

WORKLOADS = {
    mod.NAME: mod.Workload for mod in (ergodic_grid, csi_replay, sweep_tables, cs_cipher)
}
