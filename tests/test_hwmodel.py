"""Tests for the analytic accelerator cost model."""

import math

import numpy as np
import pytest

from lmukws.configs import REFERENCE_NAMES, reference_config
from lmukws.fixedpoint import apply_mask, prune_magnitude
from lmukws.hwmodel import (
    CoefficientError,
    CoefficientTable,
    DesignPoint,
    MCU_CYCLES_PER_S,
    OVERHEAD_CYCLES,
    PowerBreakdown,
    SRAM_WIDTH_BITS,
    WorkloadProfile,
    cycles_per_frame,
    energy_per_frame_power,
    estimate_power,
    mark_pareto,
    mcu_power,
    profile_workload,
    sweep,
    sweep_to_csv,
)
from lmukws.lmu import CellConfig, LayerConfig, ModelConfig, build_model
from lmukws.qmodel import ActivationScales, freeze


def _frozen(cfg):
    """cfg's model from seeded random weights, pruned to its target sparsity
    and frozen at fixed scales: the counts depend only on its shapes and
    stored widths."""
    model = build_model(cfg, np.random.default_rng(0))
    mask = None
    if cfg.target_sparsity > 0.0:
        mask = prune_magnitude(model, cfg.target_sparsity)
        apply_mask(model, mask)
    scales = ActivationScales(input_exp=-6, layer_exps=((-6, -6, -6),) * len(cfg.layers))
    return freeze(model, cfg.weight_bits, scales, mask=mask)


def _model(layers, input_dim=40, weight_bits=8):
    return _frozen(ModelConfig(
        input_dim=input_dim,
        layers=tuple(
            LayerConfig(hidden=h, cells=tuple(CellConfig(d, 0.25) for d in orders))
            for h, orders in layers
        ),
        weight_bits=weight_bits,
    ))


def _closed_form(qm):
    """The dense per-frame counts written out from the layer shapes.

    Per layer with input n, hidden h, c cells of orders d_k (D = sum d_k):
    MACs c(n + h) for u, sum(d_k^2 + d_k) for m and hn + hD + h for h; the
    12-way head adds 12 h_last + 12.  Each MAC reads one weight and one
    7-bit activation, biases are read once at 32 bits, the fixed A and B
    are 8-bit, and every output is written once (the logits at 32 bits).
    """
    wb, n = qm.weight_bits, qm.input_dim
    macs = reads = writes = params = consts = 0
    for layer in qm.layers:
        h = layer.hidden_dim
        orders = [cell.order for cell in layer.cells]
        c, D = len(orders), sum(orders)
        m_macs = sum(d * d + d for d in orders)
        macs += c * (n + h) + m_macs + h * n + h * D + h
        reads += (c * (n + h) + h * n + h * D) * (wb + 7) + m_macs * (8 + 7) + h * 32
        writes += (c + D + h) * 7
        params += (c * n + c * h + h * n + h * D) * wb + h * 32
        consts += m_macs * 8
        n = h
    macs += 12 * n + 12
    reads += 12 * n * (wb + 7) + 12 * 32
    writes += 12 * 32
    params += 12 * n * wb + 12 * 32
    return WorkloadProfile(macs, reads, writes, params, consts, activation_bits=writes)


class TestCoefficientTable:
    def test_defaults_load_from_packaged_file(self):
        # The defaults are the fields' own; no packaged file repeats them.
        coeffs = CoefficientTable()
        assert coeffs.e_mac_j == 5.0e-13
        assert coeffs.mac_lane_transistors == 6000
        assert coeffs.sram_bit_transistors == 8
        assert coeffs.misc_transistors == 400_000

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# comment\n"
            "e_mac_j = 1.5e-12  # trailing comment\n"
            "activity = 0.25\n"
            "transistors.mac_lane = 9000\n"
            "misc_transistors = 123\n"
        )
        coeffs = CoefficientTable.from_file(path)
        assert coeffs.e_mac_j == 1.5e-12
        assert coeffs.activity == 0.25
        assert coeffs.mac_lane_transistors == 9000
        assert coeffs.misc_transistors == 123
        # untouched entries keep their defaults
        assert coeffs.e_sram_bit_j == 4.0e-14
        assert coeffs.sram_bit_transistors == 8

    def test_integral_float_count_is_an_int(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("transistors.mac_lane = 6e3\ntransistors.sram_bit = 8.0\n")
        coeffs = CoefficientTable.from_file(path)
        assert coeffs == CoefficientTable()
        assert type(coeffs.mac_lane_transistors) is int
        assert type(coeffs.sram_bit_transistors) is int

    @pytest.mark.parametrize("line, message", [
        # each line was accepted before, giving nan, inf or a negative count
        # in the report, or silently ignored or truncated
        ("e_mac_j = nan", "e_mac_j must be finite and > 0, got nan"),
        ("e_mac_j = inf", "e_mac_j must be finite and > 0, got inf"),
        ("p_static_bit_w = -inf", "p_static_bit_w must be finite and > 0"),
        ("misc_transistors = -5000000", "misc_transistors must be finite and > 0"),
        ("activity = 7", "activity must be <= 1, got 7.0"),
        ("transistors.mac_lanes = 9000", "unknown coefficient 'transistors.mac_lanes'"),
        ("transistors.multiplier = 3000", "unknown coefficient"),
        ("mac_lane_transistors = 9000", "unknown coefficient"),
        ("transistors.mac_lane = 1.9", "mac_lane_transistors must be an integer, got 1.9"),
        ("transistors.sram_bit = 0", "sram_bit_transistors must be finite and > 0"),
        # each of these raised a bare ValueError or OverflowError
        ("e_mac_j = abc", "e_mac_j = 'abc' is not a number"),
        ("transistors.mac_lane = 1e400", "mac_lane_transistors must be finite"),
        ("latency_residual_ms =", "latency_residual_ms = '' is not a number"),
    ])
    def test_bad_value_names_its_file_and_key(self, tmp_path, line, message):
        path = tmp_path / "c.txt"
        path.write_text("e_sram_bit_j = 4e-14\n" + line + "\n")
        with pytest.raises(CoefficientError, match=str(path)) as info:
            CoefficientTable.from_file(path)
        assert message in str(info.value)

    def test_unreadable_file_rejected(self, tmp_path):
        binary = tmp_path / "c.bin"
        binary.write_bytes(b"e_mac_j = 1e-12\n\xff\xfe\x00")
        for path in (binary, tmp_path, tmp_path / "missing.txt"):
            with pytest.raises(CoefficientError, match="cannot read coefficient file"):
                CoefficientTable.from_file(path)

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("e_mac_j = 1e-12\n# again\ne_mac_j = 2e-12\n")
        with pytest.raises(CoefficientError, match=":3: e_mac_j is set twice"):
            CoefficientTable.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("e_mac_pj = 1.0\n")
        with pytest.raises(ValueError, match="unknown coefficient"):
            CoefficientTable.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("e_mac_j 1.0\n")
        with pytest.raises(ValueError, match="expected"):
            CoefficientTable.from_file(path)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CoefficientTable(e_mac_j=0.0)
        with pytest.raises(ValueError):
            CoefficientTable(activity=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("e_sram_bit_j", math.nan), ("latency_residual_ms", math.inf),
        ("activity", 1.5), ("misc_transistors", 400_000.0), ("sram_bit_transistors", -8),
    ])
    def test_every_field_is_checked(self, field, value):
        with pytest.raises(CoefficientError, match=field):
            CoefficientTable(**{field: value})


class TestWorkloadProfile:
    def test_minimal_layer_mac_count(self):
        # n = h = c = d = 1: u costs 1*(1+1), memory d^2+d = 2, hidden
        # h*n + h*D + h = 3, so the layer contributes 7 MACs; the 12-way
        # head adds 12*1 + 12 = 24.
        w = profile_workload(_model([(1, [1])], input_dim=1))
        assert w.macs_per_frame == 7 + 24

    def test_two_layer_mac_count(self):
        # hand count: layer1 (40 -> 210, 4 cells of order 16):
        #   u 4*(40+210)=1000, m 4*(256+16)=1088, h 210*40+210*64+210=22050
        # layer2 (210 -> 228, same cells):
        #   u 4*(210+228)=1752, m 1088, h 228*210+228*64+228=62700
        # head: 12*228+12 = 2748; total 92426
        w = profile_workload(_model([(210, [16] * 4), (228, [16] * 4)], weight_bits=4))
        assert w.macs_per_frame == 24138 + 65540 + 2748

    def test_storage_split(self):
        w = profile_workload(_model([(210, [16] * 4), (228, [16] * 4)], weight_bits=4))
        # weights at 4 bits, biases at accumulator width, state constants
        # at 8 bits: 2 * 1088 entries
        assert w.constant_bits == 2 * 1088 * 8
        assert w.parameter_bits == 373600
        assert w.storage_bits == w.parameter_bits + w.constant_bits + w.activation_bits

    @pytest.mark.parametrize("preset", REFERENCE_NAMES)
    def test_engine_stages_run_the_profiled_macs(self, preset):
        # The profile is read off the engine's stages; all six counts equal
        # the closed form.  Dense: the pruned lmu3 and lmu4 count their
        # stored zeros.
        qm = _frozen(reference_config(preset))
        assert bool(qm.keep_masks) == (preset in ("lmu3", "lmu4"))
        assert profile_workload(qm) == _closed_form(qm)

    @pytest.mark.parametrize("layers, input_dim", [
        ([(1, [1])], 1), ([(3, [2, 1])], 5), ([(8, [4]), (5, [1, 2, 3]), (2, [2])], 3),
    ])
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_small_topologies_equal_the_closed_form(self, layers, input_dim, weight_bits):
        qm = _model(layers, input_dim=input_dim, weight_bits=weight_bits)
        assert profile_workload(qm) == _closed_form(qm)

    def test_frame_timing_defaults(self):
        # Two frames and the residual must fit twice the frontend's 20 ms
        # hop: a design at exactly 40 ms is real time, and one hertz slower
        # is not.  1000 MACs at one lane take 1064 cycles.
        w = WorkloadProfile(1000, 0, 0, 0, 0, 0)
        coeffs = CoefficientTable(latency_residual_ms=8.0)
        at_window = estimate_power(w, DesignPoint(clock_hz=66500.0, lanes=1), coeffs)
        assert (at_window.throughput_ms, at_window.latency_ms) == (16.0, 40.0)
        assert at_window.realtime
        assert not estimate_power(w, DesignPoint(clock_hz=66499.0, lanes=1), coeffs).realtime

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(-1, 0, 0, 0, 0, 0)


class TestCyclesAndArea:
    def test_cycle_formula(self):
        # the one design's memory port, frame overhead and MCU baseline
        assert (SRAM_WIDTH_BITS, OVERHEAD_CYCLES, MCU_CYCLES_PER_S) == (4096, 64, 17.24e6)
        w = WorkloadProfile(100, 3 * 4096 - 1000, 1000, 0, 0, 0)
        dp = DesignPoint(clock_hz=1000.0, lanes=10)
        # compute ceil(100/10) + stalls ceil(3 * 4096 / 4096) + overhead 64
        assert cycles_per_frame(w, dp) == 10 + 3 + 64

    def test_ceiling_rounds_up(self):
        w = WorkloadProfile(101, 4096, 1, 0, 0, 0)
        dp = DesignPoint(clock_hz=1.0, lanes=10)
        # compute ceil(10.1) + stalls ceil(4097 / 4096) + overhead
        assert cycles_per_frame(w, dp) == 11 + 2 + 64

    def test_more_lanes_never_more_cycles(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = WorkloadProfile(int(rng.integers(1, 10**6)),
                                int(rng.integers(0, 10**6)),
                                int(rng.integers(0, 10**4)), 0, 0, 0)
            prev = None
            for lanes in (1, 2, 4, 8, 64, 512):
                c = cycles_per_frame(w, DesignPoint(1.0, lanes))
                if prev is not None:
                    assert c <= prev
                prev = c

    def test_design_point_validation(self):
        with pytest.raises(ValueError):
            DesignPoint(clock_hz=0.0, lanes=1)
        with pytest.raises(ValueError):
            DesignPoint(clock_hz=1.0, lanes=0)


class TestEstimatePower:
    def test_unit_arithmetic(self):
        # engineered so every term is a short hand calculation
        w = WorkloadProfile(300, 5 * 4096, 4096, 5000, 0, 0)
        dp = DesignPoint(clock_hz=1000.0, lanes=10)
        coeffs = CoefficientTable(
            e_mac_j=1e-12, e_sram_bit_j=1e-13, p_static_bit_w=1e-12,
            p_dyn_transistor_j=1e-15, activity=0.5, misc_transistors=1000,
        )
        pb = estimate_power(w, dp, coeffs)
        # cycles = 30 + 6 + 64 = 100; 3 MACs/cycle, 245.76 bits/cycle
        assert pb.mac_dynamic_uW == pytest.approx(1e-12 * 3 * 1000 * 1e6)
        assert pb.sram_dynamic_uW == pytest.approx(1e-13 * 245.76 * 1000 * 1e6)
        assert pb.sram_static_uW == pytest.approx(1e-12 * 5000 * 1e6)
        assert pb.other_dynamic_uW == pytest.approx(1e-15 * 0.5 * 1000 * 1000 * 1e6)
        assert pb.total_uW == pytest.approx(
            pb.mac_dynamic_uW + pb.sram_dynamic_uW + pb.sram_static_uW
            + pb.other_dynamic_uW
        )
        assert pb.throughput_ms == pytest.approx(100.0)
        assert pb.latency_ms == pytest.approx(200.0 + coeffs.latency_residual_ms)

    @pytest.mark.parametrize("coefficients, term", [
        ({"e_mac_j": 1e300}, "mac_dynamic_uW"),
        # each term finite (about 1.33e308 uW), their sum not
        ({"e_mac_j": 1e299, "e_sram_bit_j": 1e298}, "total_uW"),
    ])
    def test_non_finite_power_rejected(self, coefficients, term):
        w = WorkloadProfile(100, 800, 200, 5000, 0, 0)  # 10 + 1 + 64 = 75 cycles
        dp = DesignPoint(clock_hz=1000.0, lanes=10)
        with pytest.raises(CoefficientError, match=term):
            estimate_power(w, dp, CoefficientTable(**coefficients))

    def test_default_inventory_fills_in(self):
        # The one design: its lanes, an SRAM bit per stored bit, misc logic.
        w = WorkloadProfile(100, 100, 0, 4000, 500, 500)
        pb = estimate_power(w, DesignPoint(clock_hz=1e5, lanes=3), CoefficientTable())
        assert pb.transistor_count == 3 * 6000 + 5000 * 8 + 400_000
        assert pb.sram_static_uW == pytest.approx(4.0e-12 * 5000 * 1e6)
        assert pb.other_dynamic_uW == pytest.approx(6.4e-17 * 0.1 * 400_000 * 1e5 * 1e6)
        coeffs = CoefficientTable(mac_lane_transistors=9000, sram_bit_transistors=6,
                                  misc_transistors=1000)
        pb = estimate_power(w, DesignPoint(clock_hz=1e5, lanes=3), coeffs)
        assert pb.transistor_count == 3 * 9000 + 5000 * 6 + 1000

    def test_dynamic_power_linear_in_clock(self):
        w = WorkloadProfile(10**5, 10**6, 10**4, 10**5, 10**4, 10**3)
        coeffs = CoefficientTable()
        base = estimate_power(w, DesignPoint(1e5, 16), coeffs)
        doubled = estimate_power(w, DesignPoint(2e5, 16), coeffs)
        for name in ("mac_dynamic_uW", "sram_dynamic_uW", "other_dynamic_uW"):
            assert getattr(doubled, name) == pytest.approx(2 * getattr(base, name))
        assert doubled.sram_static_uW == pytest.approx(base.sram_static_uW)
        assert doubled.throughput_ms == pytest.approx(base.throughput_ms / 2)

    def test_zero_clock_limit(self):
        w = WorkloadProfile(10**5, 10**6, 10**4, 10**5, 10**4, 10**3)
        coeffs = CoefficientTable()
        pb = estimate_power(w, DesignPoint(1e-9, 1), coeffs)
        dynamic = pb.mac_dynamic_uW + pb.sram_dynamic_uW + pb.other_dynamic_uW
        assert dynamic < 1e-6
        assert pb.sram_static_uW == pytest.approx(
            coeffs.p_static_bit_w * w.storage_bits * 1e6
        )
        assert not pb.realtime

    def test_realtime_requires_both_deadlines(self):
        coeffs = CoefficientTable()
        w = WorkloadProfile(1000, 0, 0, 0, 0, 0)
        # cycles = 1000 + 0 + 64 = 1064 at lanes=1, no traffic
        dp = DesignPoint(clock_hz=1064.0 / 0.019, lanes=1)
        pb = estimate_power(w, dp, coeffs)
        assert pb.throughput_ms == pytest.approx(19.0)
        # 2 * 19 + 12.83 = 50.83 > 40: throughput fits, latency does not
        assert not pb.realtime
        fast = estimate_power(w, DesignPoint(1064.0 / 0.010, 1), coeffs)
        assert fast.throughput_ms == pytest.approx(10.0)
        assert fast.latency_ms == pytest.approx(32.83)
        assert fast.realtime

    def test_reference_design_in_microwatt_band(self):
        # two-layer 4-bit model on a modest design point lands in the
        # single-digit-microwatt regime, below microcontroller baselines
        w = profile_workload(_model([(210, [16] * 4), (228, [16] * 4)], weight_bits=4))
        pb = estimate_power(w, DesignPoint(92000.0, 128), CoefficientTable())
        assert pb.realtime
        assert 0.879 <= pb.total_uW <= 87.9
        assert 4e6 <= pb.transistor_count <= 1.6e7
        assert pb.total_uW < mcu_power(17.24e6, 6.88)


class TestBaselines:
    def test_mcu_power_examples(self):
        assert 211.0 <= mcu_power(17.24e6, 12.26) <= 212.0
        assert 118.0 <= mcu_power(17.24e6, 6.88) <= 119.0

    def test_energy_per_frame(self):
        assert energy_per_frame_power(3.4, 50.0) == pytest.approx(170.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            mcu_power(-1.0, 10.0)
        with pytest.raises(ValueError):
            energy_per_frame_power(1.0, -50.0)


def _make_record(total, transistors, realtime):
    split = total / 4.0
    return PowerBreakdown(
        clock_hz=1.0, lanes=1, mac_dynamic_uW=split, sram_dynamic_uW=split,
        sram_static_uW=split, other_dynamic_uW=split,
        transistor_count=transistors, throughput_ms=1.0, latency_ms=1.0,
        realtime=realtime,
    )


class TestSweep:
    def test_pareto_flags_hand_case(self):
        records = [
            _make_record(10.0, 100, True),   # dominated by the next record
            _make_record(5.0, 100, True),
            _make_record(20.0, 50, True),    # cheaper area: non-dominated
            _make_record(1.0, 1, False),     # infeasible, never on frontier
        ]
        mark_pareto(records)
        assert [r.pareto for r in records] == [False, True, True, False]

    def test_frontier_is_nondominated(self):
        rng = np.random.default_rng(3)
        w = profile_workload(_model([(32, [8, 8])]))
        clocks = sorted(float(c) for c in rng.uniform(2e4, 2e6, size=12))
        records = sweep(w, clocks, [1, 8, 64], CoefficientTable())
        feasible = [r for r in records if r.realtime]
        assert any(r.pareto for r in feasible)
        for r in records:
            if not r.realtime:
                assert not r.pareto
        for r in feasible:
            dominated = any(
                o.total_uW <= r.total_uW
                and o.transistor_count <= r.transistor_count
                and (o.total_uW < r.total_uW
                     or o.transistor_count < r.transistor_count)
                for o in feasible
            )
            assert r.pareto == (not dominated)

    def test_rows_sorted_by_clock_then_lanes(self):
        w = profile_workload(_model([(8, [4])], input_dim=4))
        records = sweep(w, [3e5, 1e5, 2e5], [16, 1], CoefficientTable())
        keys = [(r.clock_hz, r.lanes) for r in records]
        assert keys == sorted(keys)

    def test_no_feasible_points_is_not_an_error(self):
        w = WorkloadProfile(10**9, 10**9, 0, 100, 0, 0)
        records = sweep(w, [1e4, 2e4], [1], CoefficientTable())
        assert all(not r.realtime for r in records)
        assert all(not r.pareto for r in records)

    def test_empty_grid_rejected(self):
        w = WorkloadProfile(100, 100, 0, 100, 0, 0)
        with pytest.raises(ValueError):
            sweep(w, [], [1], CoefficientTable())

    def test_csv_byte_deterministic(self):
        w = profile_workload(_model([(16, [8])], input_dim=8, weight_bits=4))
        coeffs = CoefficientTable()
        a = sweep_to_csv(sweep(w, [1e5, 7e5], [1, 32], coeffs))
        b = sweep_to_csv(sweep(w, [7e5, 1e5], [32, 1], coeffs))
        assert a == b
        header = a.splitlines()[0]
        assert header == ("clock_hz,lanes,mac_uW,sram_dyn_uW,sram_static_uW,"
                          "other_uW,total_uW,transistors,throughput_ms,"
                          "latency_ms,realtime,pareto")
        assert len(a.splitlines()) == 5
        for line in a.splitlines()[1:]:
            assert len(line.split(",")) == 12
            assert line.split(",")[10] in ("true", "false")
