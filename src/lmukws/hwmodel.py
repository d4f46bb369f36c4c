"""Analytic accelerator cost model: cycles, power breakdown, area, sweeps.

The model is deliberately coarse: per-frame MAC and memory-traffic counts
read off the integer engine's stages (``qmodel.stages``), so the cost model
and the engine describe the same work; a cycle model (compute + memory
stalls + fixed overhead); and an energy model driven by a coefficient
table.  The modeled datapath is dense: it does not skip pruned weights,
which are stored zeros whose MACs it executes.  A design point varies only
its clock and MAC lanes; its SRAM port (``SRAM_WIDTH_BITS`` bits per cycle)
and fixed per-frame overhead (``OVERHEAD_CYCLES``) are constants, as is the
software baseline's cycle rate (``MCU_CYCLES_PER_S``).  The default
coefficients (``CoefficientTable``) are representative values assembled
from public low-power process estimates; they bound designs to the right
order of magnitude and are not a substitute for synthesis.  A coefficient
file overrides any of them.

Operating convention: the engine runs continuously at its clock (no
race-to-idle), so all dynamic terms scale linearly with clock and vanish in
the zero-clock limit, while leakage persists.  A design is real-time when a
frame's cycles fit in the 20 ms hop and the two-frame pipeline latency fits
in the 40 ms window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .configs import read_key_values
from .fixedpoint import ACCUMULATOR_BITS, ACTIVATION_BITS
from .frontend import FeatureConfig
from .lmu import trainable_items
from .qmodel import QuantizedModel, stages

# The sweep CSV's column -> the PowerBreakdown attribute it holds, in order.
CSV_COLUMNS = {
    "clock_hz": "clock_hz", "lanes": "lanes", "mac_uW": "mac_dynamic_uW",
    "sram_dyn_uW": "sram_dynamic_uW", "sram_static_uW": "sram_static_uW",
    "other_uW": "other_dynamic_uW", "total_uW": "total_uW",
    "transistors": "transistor_count", "throughput_ms": "throughput_ms",
    "latency_ms": "latency_ms", "realtime": "realtime", "pareto": "pareto",
}


# The coefficient-file key of each field that is not keyed by its own name.
FILE_KEYS = {
    "mac_lane_transistors": "transistors.mac_lane",
    "sram_bit_transistors": "transistors.sram_bit",
}


class CoefficientError(ValueError):
    """A coefficient file that cannot be read, a line, key or value in it
    that is not a valid coefficient, or coefficients that give a power that
    is not finite; maps to exit code 2."""


@dataclass(frozen=True)
class CoefficientTable:
    """Energy and area coefficients of the one modeled design.

    Representative values for a low-power 22 nm-class embedded process,
    assembled from public estimates.  Every field is finite and positive,
    ``activity`` is at most 1, and the transistor counts are integers.
    """

    e_mac_j: float = 5.0e-13             # J per 8x8 multiply-accumulate
    e_sram_bit_j: float = 4.0e-14        # J per SRAM bit read or written
    p_static_bit_w: float = 4.0e-12      # W of leakage per stored SRAM bit
    p_dyn_transistor_j: float = 6.4e-17  # J per toggling transistor-cycle
    activity: float = 0.1                # toggle fraction of the misc logic
    latency_residual_ms: float = 12.83   # ms of pipeline fill + framing residual
    mac_lane_transistors: int = 6000     # transistors per MAC lane
    sram_bit_transistors: int = 8        # transistors per stored bit
    misc_transistors: int = 400_000      # control, sequencing, I/O glue

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise CoefficientError(f"{f.name} must be finite and > 0, got {value!r}")
            if f.name == "activity" and value > 1:
                raise CoefficientError(f"activity must be <= 1, got {value!r}")
            if isinstance(f.default, int) and not isinstance(value, int):
                raise CoefficientError(f"{f.name} must be an integer, got {value!r}")

    @classmethod
    def from_file(cls, path) -> "CoefficientTable":
        """The defaults, overridden by a "key = value" text file (read by
        ``configs.read_key_values``, as ``--config`` files are).

        Keys are the field names, but ``transistors.mac_lane`` and
        ``transistors.sram_bit`` for the per-instance transistor counts.
        A transistor count may be written as a float with an integer value
        (6e3).  Unknown keys are rejected so typos cannot silently revert
        defaults.
        """
        by_key = {FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}
        values = {}
        for ln, key, text in read_key_values(path, "coefficient file", CoefficientError):
            f = by_key.get(key)
            if f is None:
                raise CoefficientError(f"{path}:{ln}: unknown coefficient {key!r}")
            try:
                value = float(text)
            except ValueError:
                raise CoefficientError(f"{path}:{ln}: {key} = {text!r} is not a number") from None
            if isinstance(f.default, int) and value.is_integer():
                value = int(value)
            values[f.name] = value
        try:
            return cls(**values)
        except CoefficientError as e:
            raise CoefficientError(f"{path}: {e}") from None


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-frame operation and traffic counts derived from a model."""

    macs_per_frame: int
    read_bits_per_frame: int
    write_bits_per_frame: int
    parameter_bits: int
    constant_bits: int
    activation_bits: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")

    @property
    def storage_bits(self) -> int:
        return self.parameter_bits + self.constant_bits + self.activation_bits


# Bits the SRAM port moves per cycle, and the fixed cycles of each frame.
SRAM_WIDTH_BITS = 4096
OVERHEAD_CYCLES = 64
# The MCU baseline's cycles per second of audio: the paper's reported
# figure, not one computed from a model here.
MCU_CYCLES_PER_S = 17.24e6


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
    writes += len(head.terms[0].q) * ACCUMULATOR_BITS  # the logits: the head's sums
    params = sum(qt.q.size * qt.spec.bits for _, qt in trainable_items(qm))
    stored = sum(qt.q.size * qt.spec.bits for qt in qm.stored_tensors())
    return WorkloadProfile(
        macs_per_frame=macs,
        read_bits_per_frame=reads,
        write_bits_per_frame=writes,
        parameter_bits=params,
        constant_bits=stored - params,
        activation_bits=writes,
    )


@dataclass(frozen=True)
class DesignPoint:
    """One accelerator configuration: clock and MAC lanes."""

    clock_hz: float
    lanes: int

    def __post_init__(self):
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if self.lanes < 1:
            raise ValueError("need at least one MAC lane")


def cycles_per_frame(w: WorkloadProfile, dp: DesignPoint) -> int:
    """Compute cycles + memory-stall cycles + fixed per-frame overhead."""
    compute = math.ceil(w.macs_per_frame / dp.lanes)
    stalls = math.ceil((w.read_bits_per_frame + w.write_bits_per_frame) / SRAM_WIDTH_BITS)
    return compute + stalls + OVERHEAD_CYCLES


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

    The design is its MAC lanes, an SRAM holding every stored bit and the
    misc logic (control, sequencing, I/O glue).  MAC and SRAM dynamic power
    follow their per-cycle work rates at the given clock; "other" is the
    misc logic toggling at the configured activity; leakage scales with
    stored bits.  Coefficients so large that a power term is not finite
    raise CoefficientError.
    """
    cycles = cycles_per_frame(w, dp)
    throughput_ms = cycles / dp.clock_hz * 1000.0
    latency_ms = 2.0 * throughput_ms + coeffs.latency_residual_ms
    realtime = (throughput_ms <= FeatureConfig.hop_ms
                and latency_ms <= 2 * FeatureConfig.hop_ms)
    macs_per_cycle = w.macs_per_frame / cycles
    bits_per_cycle = (w.read_bits_per_frame + w.write_bits_per_frame) / cycles
    mac_uW = coeffs.e_mac_j * macs_per_cycle * dp.clock_hz * 1e6
    sram_dyn_uW = coeffs.e_sram_bit_j * bits_per_cycle * dp.clock_hz * 1e6
    sram_static_uW = coeffs.p_static_bit_w * w.storage_bits * 1e6
    other_uW = (coeffs.p_dyn_transistor_j * coeffs.activity
                * coeffs.misc_transistors * dp.clock_hz * 1e6)
    pb = PowerBreakdown(
        clock_hz=dp.clock_hz,
        lanes=dp.lanes,
        mac_dynamic_uW=mac_uW,
        sram_dynamic_uW=sram_dyn_uW,
        sram_static_uW=sram_static_uW,
        other_dynamic_uW=other_uW,
        transistor_count=(dp.lanes * coeffs.mac_lane_transistors
                          + w.storage_bits * coeffs.sram_bit_transistors
                          + coeffs.misc_transistors),
        throughput_ms=throughput_ms,
        latency_ms=latency_ms,
        realtime=realtime,
    )
    for term in ("mac_dynamic_uW", "sram_dynamic_uW", "sram_static_uW", "other_dynamic_uW",
                 "total_uW"):
        if not math.isfinite(getattr(pb, term)):
            raise CoefficientError(f"power term {term} is not finite ({getattr(pb, term)})")
    return pb


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


def sweep(w: WorkloadProfile, clocks, lanes_list, coeffs: CoefficientTable) -> list:
    """Evaluate a clock x lanes grid; rows sorted by (clock, lanes)."""
    points = sorted((float(c), int(p)) for c in clocks for p in lanes_list)
    if not points:
        raise ValueError("empty sweep grid")
    records = [estimate_power(w, DesignPoint(clock_hz=c, lanes=p), coeffs) for c, p in points]
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
        lines.append(",".join(_fmt(getattr(r, attr)) for attr in CSV_COLUMNS.values()))
    return "\n".join(lines) + "\n"
