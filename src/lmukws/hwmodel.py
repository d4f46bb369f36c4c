"""Analytic accelerator cost model: cycles, power breakdown, area, sweeps.

The model is deliberately coarse: per-frame MAC and memory-traffic counts
read off the integer engine's stages (``qmodel.stages``), so the cost model
and the engine describe the same work; a cycle model (compute + memory
stalls + fixed overhead); and an energy model driven by a coefficient
table.  The modeled datapath is dense: it does not skip pruned weights,
which are stored zeros whose MACs it executes.  The shipped
default coefficients are representative values assembled from public
low-power process estimates; they bound designs to the right order of
magnitude and are not a substitute for synthesis.  Every coefficient is
config.

Operating convention: the engine runs continuously at its clock (no
race-to-idle), so all dynamic terms scale linearly with clock and vanish in
the zero-clock limit, while leakage persists.  A design is real-time when a
frame's cycles fit in the 20 ms hop and the two-frame pipeline latency fits
in the 40 ms window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources

from .fixedpoint import ACTIVATION_BITS
from .qmodel import QuantizedModel, stages

DEFAULT_MISC_TRANSISTORS = 400_000  # control, sequencing, I/O glue

CSV_COLUMNS = (
    "clock_hz", "lanes", "mac_uW", "sram_dyn_uW", "sram_static_uW", "other_uW",
    "total_uW", "transistors", "throughput_ms", "latency_ms", "realtime", "pareto",
)


@dataclass(frozen=True)
class CoefficientTable:
    """Energy/area coefficients; all positive, all overridable from a file."""

    e_mac_j: float = 5.0e-13        # energy per multiply-accumulate
    e_sram_bit_j: float = 4.0e-14   # energy per SRAM bit read or written
    p_static_bit_w: float = 4.0e-12  # leakage per stored SRAM bit
    p_dyn_transistor_j: float = 6.4e-17  # switching energy per transistor-cycle
    activity: float = 0.1           # fraction of "other" transistors toggling
    latency_residual_ms: float = 12.83  # pipeline fill + framing residual
    misc_transistors: int = DEFAULT_MISC_TRANSISTORS
    transistors_per: dict = field(
        default_factory=lambda: {
            "mac_lane": 6000,
            "sram_bit": 8,
            "multiplier": 3000,
            "divider": 25000,
            "misc_transistor": 1,
        }
    )

    def __post_init__(self):
        for name in ("e_mac_j", "e_sram_bit_j", "p_static_bit_w",
                     "p_dyn_transistor_j", "activity", "latency_residual_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"coefficient {name} must be positive")
        for key, val in self.transistors_per.items():
            if val <= 0:
                raise ValueError(f"transistors_per[{key!r}] must be positive")

    @classmethod
    def from_file(cls, path) -> "CoefficientTable":
        """Parse a "key = value" text table ('#' comments allowed).

        Component transistor counts use dotted keys: transistors.mac_lane.
        Unknown keys are rejected so typos cannot silently revert defaults.
        """
        scalars = {}
        per = dict(cls().transistors_per)
        known = {
            "e_mac_j", "e_sram_bit_j", "p_static_bit_w", "p_dyn_transistor_j",
            "activity", "latency_residual_ms", "misc_transistors",
        }
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{ln}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key.startswith("transistors."):
                    per[key[len("transistors."):]] = int(float(val))
                elif key in known:
                    scalars[key] = int(float(val)) if key == "misc_transistors" else float(val)
                else:
                    raise ValueError(f"{path}:{ln}: unknown coefficient {key!r}")
        return cls(transistors_per=per, **scalars)

    @classmethod
    def default(cls) -> "CoefficientTable":
        with resources.as_file(
            resources.files("lmukws").joinpath("data/hw_coefficients.txt")
        ) as path:
            return cls.from_file(path)


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-frame operation and traffic counts derived from a model."""

    macs_per_frame: int
    read_bits_per_frame: int
    write_bits_per_frame: int
    parameter_bits: int
    constant_bits: int
    activation_bits: int
    frame_period_s: float = 0.02
    window_s: float = 0.04

    def __post_init__(self):
        for name in ("macs_per_frame", "read_bits_per_frame", "write_bits_per_frame",
                     "parameter_bits", "constant_bits", "activation_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def storage_bits(self) -> int:
        return self.parameter_bits + self.constant_bits + self.activation_bits


# The head's sums are the logits, kept at the 32-bit accumulator width.
LOGIT_BITS = 32


def profile_workload(qm: QuantizedModel) -> WorkloadProfile:
    """Per-frame counts of the work the engine's stages do for ``qm``.

    Every weight and bias entry of a stage is one MAC.  Each weight MAC
    reads its weight at the weight's stored width and one 7-bit activation;
    each bias is read once at its stored width.  Every stage writes each of
    its outputs once: a 7-bit activation, or a logit for the head.  Stored
    bits are the trainable tensors (parameters) and the cells' A and B
    (constants) at their stored widths, plus the written activations.
    """
    every = stages(qm)
    macs = reads = 0
    for st in every:
        for t in st.terms:
            macs += t.q.size
            reads += t.q.size * (t.bits + ACTIVATION_BITS)
        if st.bias is not None:
            macs += st.bias.q.size
            reads += st.bias.q.size * st.bias.spec.bits
    *body, head = every
    writes = sum(len(st.terms[0].q) for st in body) * ACTIVATION_BITS
    writes += len(head.terms[0].q) * LOGIT_BITS
    constants = [qt for layer in qm.layers for cell in layer.cells for qt in (cell.A, cell.B)]
    return WorkloadProfile(
        macs_per_frame=macs,
        read_bits_per_frame=reads,
        write_bits_per_frame=writes,
        parameter_bits=sum(qt.q.size * qt.spec.bits for _, qt in qm.weight_tensor_items()),
        constant_bits=sum(qt.q.size * qt.spec.bits for qt in constants),
        activation_bits=writes,
        frame_period_s=qm.dt,
        window_s=2.0 * qm.dt,
    )


@dataclass(frozen=True)
class DesignPoint:
    """One accelerator configuration: clock, MAC lanes, memory port, extras."""

    clock_hz: float
    lanes: int
    sram_width_bits: int = 4096
    overhead_cycles: int = 64
    inventory: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if self.lanes < 1:
            raise ValueError("need at least one MAC lane")
        if self.sram_width_bits < 1:
            raise ValueError("sram_width_bits must be positive")


def default_inventory(w: WorkloadProfile, dp: DesignPoint, coeffs: CoefficientTable) -> dict:
    """Standard component inventory: lanes, all stored bits, misc control."""
    return {
        "mac_lane": dp.lanes,
        "sram_bit": w.storage_bits,
        "misc_transistor": coeffs.misc_transistors,
    }


def cycles_per_frame(w: WorkloadProfile, dp: DesignPoint) -> int:
    """Compute cycles + memory-stall cycles + fixed per-frame overhead."""
    compute = math.ceil(w.macs_per_frame / dp.lanes)
    stalls = math.ceil((w.read_bits_per_frame + w.write_bits_per_frame) / dp.sram_width_bits)
    return compute + stalls + dp.overhead_cycles


def estimate_area(dp: DesignPoint, coeffs: CoefficientTable) -> int:
    """Transistor count of the design's component inventory."""
    total = 0
    for name, count in dp.inventory.items():
        if name not in coeffs.transistors_per:
            raise ValueError(f"no transistor coefficient for component {name!r}")
        total += count * coeffs.transistors_per[name]
    return total


@dataclass
class PowerBreakdown:
    clock_hz: float
    lanes: int
    mac_dynamic_uW: float
    sram_dynamic_uW: float
    sram_static_uW: float
    other_dynamic_uW: float
    transistor_count: int
    throughput_ms: float
    latency_ms: float
    realtime: bool
    pareto: bool = False

    @property
    def total_uW(self) -> float:
        return (self.mac_dynamic_uW + self.sram_dynamic_uW
                + self.sram_static_uW + self.other_dynamic_uW)


def estimate_power(w: WorkloadProfile, dp: DesignPoint, coeffs: CoefficientTable) -> PowerBreakdown:
    """Power, timing, and feasibility of one design point.

    MAC and SRAM dynamic power follow their per-cycle work rates at the given
    clock; "other" covers the remaining logic (control and any extra
    components) at the configured activity; leakage scales with stored bits.
    """
    if not dp.inventory:
        dp = replace(dp, inventory=default_inventory(w, dp, coeffs))
    cycles = cycles_per_frame(w, dp)
    throughput_ms = cycles / dp.clock_hz * 1000.0
    latency_ms = 2.0 * throughput_ms + coeffs.latency_residual_ms
    realtime = (throughput_ms <= w.frame_period_s * 1000.0
                and latency_ms <= w.window_s * 1000.0)
    macs_per_cycle = w.macs_per_frame / cycles
    bits_per_cycle = (w.read_bits_per_frame + w.write_bits_per_frame) / cycles
    mac_uW = coeffs.e_mac_j * macs_per_cycle * dp.clock_hz * 1e6
    sram_dyn_uW = coeffs.e_sram_bit_j * bits_per_cycle * dp.clock_hz * 1e6
    sram_static_uW = coeffs.p_static_bit_w * dp.inventory.get("sram_bit", 0) * 1e6
    other_transistors = sum(
        count * coeffs.transistors_per[name]
        for name, count in dp.inventory.items()
        if name not in ("mac_lane", "sram_bit") and name in coeffs.transistors_per
    )
    other_uW = (coeffs.p_dyn_transistor_j * coeffs.activity
                * other_transistors * dp.clock_hz * 1e6)
    return PowerBreakdown(
        clock_hz=dp.clock_hz,
        lanes=dp.lanes,
        mac_dynamic_uW=mac_uW,
        sram_dynamic_uW=sram_dyn_uW,
        sram_static_uW=sram_static_uW,
        other_dynamic_uW=other_uW,
        transistor_count=estimate_area(dp, coeffs),
        throughput_ms=throughput_ms,
        latency_ms=latency_ms,
        realtime=realtime,
    )


def mcu_power(cycles_per_second: float, efficiency_uw_per_mhz: float) -> float:
    """Software baseline: cycles per second of audio times uW/MHz efficiency."""
    if cycles_per_second < 0 or efficiency_uw_per_mhz < 0:
        raise ValueError("inputs must be nonnegative")
    return cycles_per_second / 1e6 * efficiency_uw_per_mhz


def energy_per_frame_power(energy_uj: float, frames_per_second: float) -> float:
    """Convert a per-frame energy figure to average power in microwatts."""
    if energy_uj < 0 or frames_per_second < 0:
        raise ValueError("inputs must be nonnegative")
    return energy_uj * frames_per_second


def mark_pareto(records: list) -> None:
    """Flag feasible records not dominated in (total power, transistors)."""
    feasible = [r for r in records if r.realtime]
    for r in records:
        r.pareto = False
    for r in feasible:
        dominated = any(
            (o.total_uW <= r.total_uW and o.transistor_count <= r.transistor_count)
            and (o.total_uW < r.total_uW or o.transistor_count < r.transistor_count)
            for o in feasible
        )
        r.pareto = not dominated


def sweep(w: WorkloadProfile, clocks, lanes_list, coeffs: CoefficientTable,
          sram_width_bits: int = 4096, overhead_cycles: int = 64) -> list:
    """Evaluate a clock x lanes grid; rows sorted by (clock, lanes)."""
    points = sorted((float(c), int(p)) for c in clocks for p in lanes_list)
    if not points:
        raise ValueError("empty sweep grid")
    records = [
        estimate_power(
            w,
            DesignPoint(clock_hz=c, lanes=p, sram_width_bits=sram_width_bits,
                        overhead_cycles=overhead_cycles),
            coeffs,
        )
        for c, p in points
    ]
    mark_pareto(records)
    return records


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def sweep_to_csv(records: list) -> str:
    """Deterministic CSV of sweep records (byte-stable for fixed inputs)."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (
            r.clock_hz, r.lanes, r.mac_dynamic_uW, r.sram_dynamic_uW,
            r.sram_static_uW, r.other_dynamic_uW, r.total_uW, r.transistor_count,
            r.throughput_ms, r.latency_ms, r.realtime, r.pareto,
        )))
    return "\n".join(lines) + "\n"
