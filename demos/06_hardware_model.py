"""How many microwatts does a keyword spotter cost in silicon?

An analytic model turns a frozen integer model's stages into per-frame MAC
and memory-traffic counts, then a (clock, MAC lanes) design point into a
power breakdown, a transistor count, and a real-time verdict (20 ms hops
must finish in 20 ms; two-frame latency must fit the 40 ms window).  Sweeping
the design grid exposes the power/area trade-off and its Pareto frontier.

The coefficients are the fields of ``CoefficientTable``, with their units;
a text file can override any of them.  The defaults are representative
low-power-process values, good for orders of magnitude and trade-off
shapes, not sign-off.

Run: python demos/06_hardware_model.py
"""

import numpy as np

from lmukws.configs import REFERENCE_CONFIGS
from lmukws.hwmodel import (
    CoefficientTable,
    DesignPoint,
    MCU_CYCLES_PER_S,
    estimate_power,
    mcu_power,
    profile_workload,
    sweep,
)
from lmukws.lmu import build_model
from lmukws.qmodel import calibrate_activation_scales, freeze


def main():
    cfg = REFERENCE_CONFIGS["lmu2"]
    model = build_model(cfg, np.random.default_rng(0))
    # The counts are read off the integer engine's stages, so freeze first;
    # they depend only on shapes and widths, not on the calibrated scales.
    zero = calibrate_activation_scales(model, np.zeros((1, 2, cfg.input_dim)))
    w = profile_workload(freeze(model, cfg.weight_bits, zero))
    coeffs = CoefficientTable()

    print("workload of the 361-kbit reference model, per 20 ms frame:")
    print(f"  {w.macs_per_frame:,} MACs, {w.read_bits_per_frame:,} bits read, "
          f"{w.write_bits_per_frame:,} bits written")
    print(f"  storage: {w.parameter_bits:,} parameter bits + "
          f"{w.constant_bits:,} constant bits + {w.activation_bits:,} activation bits")

    dp = DesignPoint(clock_hz=92_000.0, lanes=128)
    pb = estimate_power(w, dp, coeffs)
    print(f"\na 92 kHz, 128-lane design point:")
    print(f"  MAC dynamic  {pb.mac_dynamic_uW:7.3f} uW")
    print(f"  SRAM dynamic {pb.sram_dynamic_uW:7.3f} uW")
    print(f"  SRAM leakage {pb.sram_static_uW:7.3f} uW")
    print(f"  other logic  {pb.other_dynamic_uW:7.3f} uW")
    print(f"  total        {pb.total_uW:7.3f} uW across {pb.transistor_count:,} transistors")
    print(f"  {pb.throughput_ms:.2f} ms/frame, {pb.latency_ms:.2f} ms latency "
          f"-> realtime: {pb.realtime}")

    m4f = mcu_power(MCU_CYCLES_PER_S, 12.26)
    print(f"\nfor scale: running the same workload in software on an MCU at")
    print(f"12.26 uW/MHz costs about {m4f:.0f} uW -- roughly {m4f / pb.total_uW:.0f}x more.")

    clocks = np.geomspace(2e4, 2e6, 24)
    lanes = [1, 4, 16, 64, 256]
    records = sweep(w, clocks, lanes, coeffs)
    feasible = [r for r in records if r.realtime]
    frontier = [r for r in records if r.pareto]
    print(f"\nsweep: {len(records)} designs, {len(feasible)} meet real time, "
          f"{len(frontier)} on the power/area frontier:")
    print(f"  {'clock':>10} {'lanes':>6} {'total uW':>10} {'transistors':>12}")
    for r in frontier:
        print(f"  {r.clock_hz:>10.3g} {r.lanes:>6} {r.total_uW:>10.3f} "
              f"{r.transistor_count:>12,}")
    best = min(feasible, key=lambda r: (r.total_uW, r.transistor_count))
    print(f"\ncheapest real-time point: {best.total_uW:.3f} uW at "
          f"{best.clock_hz:.3g} Hz x {best.lanes} lanes -- slower clocks would")
    print("miss the 20 ms deadline, faster ones just burn dynamic power.")


if __name__ == "__main__":
    main()
