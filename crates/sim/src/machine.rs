//! Timing and energy formulas for one chip configuration.
//!
//! The machine model turns a [`StepKind`](crate::plan::StepKind) into a
//! `(duration, energy)` pair for a given [`ChipConfig`]. The engine layers
//! resource contention on top.

use tpu_arch::{ChipConfig, EnergyTable, MemLevel};
use tpu_numerics::DType;

/// Cost of executing one step in isolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Time the owning unit (MXU/VPU/DMA engine/ICI link) is busy, seconds.
    pub unit_seconds: f64,
    /// Time a serialized memory channel is busy, seconds (0 when the step
    /// uses no serialized channel).
    pub channel_seconds: f64,
    /// Dynamic energy, joules.
    pub energy_joules: f64,
}

/// The timing/energy model for one chip.
#[derive(Debug, Clone)]
pub struct Machine {
    chip: ChipConfig,
    /// The chip's process-node energy table.
    energy: EnergyTable,
    /// `1 / clock_hz`.
    cycle_seconds: f64,
    /// Whether int8 is a native MXU type (it then streams at
    /// `int8_speedup`).
    int8_native: bool,
}

impl Machine {
    /// Wraps a chip configuration, computing once the per-chip constants
    /// every step's cost reads.
    pub fn new(chip: ChipConfig) -> Machine {
        Machine {
            energy: chip.node.energy(),
            cycle_seconds: 1.0 / chip.clock_hz,
            int8_native: chip.native_types.contains(&DType::Int8),
            chip,
        }
    }

    /// The wrapped configuration.
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Cycle time in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        self.cycle_seconds
    }

    /// MXU cycles for a `rows x inner @ inner x cols` tile group.
    ///
    /// Weight-stationary systolic model: the array is `d x d`; the
    /// operand is folded into `ceil(inner/d) * ceil(cols/d)` tiles. With
    /// resident (preloaded) weights the cost is one pipeline fill plus
    /// `rows` streaming cycles per tile; when weights must be pushed per
    /// tile, pushing (d cycles) double-buffers against streaming, so each
    /// tile costs `max(rows, d)`. int8 streams at `int8_speedup` rows per
    /// cycle on chips with native int8.
    pub fn mxu_cycles(
        &self,
        rows: u64,
        cols: u64,
        inner: u64,
        dtype: DType,
        weights_resident: bool,
    ) -> f64 {
        let d = self.chip.mxu_dim as u64;
        let tiles = inner.div_ceil(d) * cols.div_ceil(d);
        let speed = if dtype == DType::Int8 && self.int8_native {
            self.chip.int8_speedup
        } else {
            1.0
        };
        let rows_eff = rows as f64 / speed;
        // Weight pushes move bytes: int8 tiles load in half the cycles.
        let push_cycles = d as f64 / speed;
        let per_tile = if weights_resident {
            rows_eff
        } else {
            rows_eff.max(push_cycles)
        };
        d as f64 + tiles as f64 * per_tile
    }

    /// Duration and energy of a step kind, ignoring contention.
    pub fn step_cost(&self, kind: &crate::plan::StepKind) -> StepCost {
        use crate::plan::StepKind;
        let e = &self.energy;
        match *kind {
            StepKind::DmaIn { from, bytes } | StepKind::DmaOut { to: from, bytes } => {
                let spec = self.chip.mem(from).unwrap_or(&self.chip.hbm);
                let channel_seconds = bytes as f64 / spec.bandwidth_bps;
                let unit_seconds = spec.latency_ns * 1e-9 + channel_seconds;
                // Energy: source/destination channel plus the VMEM side.
                let energy_joules =
                    spec.transfer_joules(bytes) + self.chip.vmem.transfer_joules(bytes);
                StepCost {
                    unit_seconds,
                    channel_seconds,
                    energy_joules,
                }
            }
            StepKind::Mxu {
                rows,
                cols,
                inner,
                dtype,
                weights_resident,
            } => {
                let cycles = self.mxu_cycles(rows, cols, inner, dtype, weights_resident);
                let macs = (rows * cols * inner) as f64;
                let pj = match dtype {
                    DType::Int8 => e.mac_int8_pj,
                    DType::Fp32 => e.mac_fp32_pj,
                    _ => e.mac_bf16_pj,
                };
                StepCost {
                    unit_seconds: cycles * self.cycle_seconds,
                    channel_seconds: 0.0,
                    energy_joules: macs * pj * 1e-12,
                }
            }
            StepKind::Vpu {
                elements,
                ops_per_element,
            } => {
                let ops = (elements * ops_per_element) as f64;
                let throughput = (self.chip.vpu_lanes as f64) * (self.chip.vpu_sublanes as f64);
                let cycles = ops / throughput;
                // A VPU ALU op costs roughly a third of an fp32 MAC.
                StepCost {
                    unit_seconds: cycles * self.cycle_seconds,
                    channel_seconds: 0.0,
                    energy_joules: ops * (e.mac_fp32_pj / 3.0) * 1e-12,
                }
            }
            StepKind::Ici { bytes } => {
                let bw = (self.chip.ici_gbps * 1e9).max(1.0);
                let seconds = bytes as f64 / bw + 1e-6; // ~1 us link latency
                StepCost {
                    unit_seconds: seconds,
                    channel_seconds: 0.0,
                    // Off-chip SerDes energy comparable to HBM per byte.
                    energy_joules: bytes as f64 * e.hbm_pj_per_byte * 1e-12,
                }
            }
        }
    }

    /// Which serialized channel (if any) a step occupies.
    pub fn channel_of(&self, kind: &crate::plan::StepKind) -> Option<MemLevel> {
        match kind.channel_bytes() {
            Some((MemLevel::Hbm, _)) => Some(MemLevel::Hbm),
            Some((MemLevel::Cmem, _)) => Some(MemLevel::Cmem),
            // VMEM/SMEM are multi-banked; we do not serialize them.
            _ => None,
        }
    }

    /// Unit-pool sizes `(mxu, vpu, dma, ici)`.
    pub fn pool_sizes(&self) -> (usize, usize, usize, usize) {
        (
            (self.chip.cores * self.chip.mxus_per_core) as usize,
            self.chip.cores as usize,
            self.chip.dma_engines.max(1) as usize,
            self.chip.ici_links.max(1) as usize,
        )
    }

    /// Static power in watts, charged for the whole makespan.
    pub fn static_watts(&self) -> f64 {
        self.chip.idle_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepKind;
    use tpu_arch::catalog;

    fn v4i() -> Machine {
        Machine::new(catalog::tpu_v4i())
    }

    #[test]
    fn mxu_cycles_single_tile_resident() {
        let m = v4i();
        // One 128x128x128 tile with resident weights: fill + 128 rows.
        let c = m.mxu_cycles(128, 128, 128, DType::Bf16, true);
        assert_eq!(c, 128.0 + 128.0);
    }

    #[test]
    fn mxu_cycles_tiling_rounds_up() {
        let m = v4i();
        // 129 cols → 2 column tiles even though barely over.
        let c1 = m.mxu_cycles(128, 128, 128, DType::Bf16, true);
        let c2 = m.mxu_cycles(128, 129, 128, DType::Bf16, true);
        assert!(c2 > 1.9 * (c1 - 128.0), "{c2} vs {c1}");
    }

    #[test]
    fn int8_streams_twice_as_fast_on_v4i() {
        let m = v4i();
        let bf16 = m.mxu_cycles(1024, 128, 128, DType::Bf16, true);
        let int8 = m.mxu_cycles(1024, 128, 128, DType::Int8, true);
        // Fill cycles are shared; streaming halves.
        assert!((int8 - (128.0 + 512.0)).abs() < 1e-9, "{int8}");
        assert!(bf16 > int8);
    }

    #[test]
    fn int8_has_no_speedup_on_v3() {
        let m = Machine::new(catalog::tpu_v3());
        // TPUv3 has no native int8: int8 runs at bf16 rate.
        let bf16 = m.mxu_cycles(256, 128, 128, DType::Bf16, true);
        let int8 = m.mxu_cycles(256, 128, 128, DType::Int8, true);
        assert_eq!(bf16, int8);
    }

    #[test]
    fn nonresident_weights_cost_more_for_short_streams() {
        let m = v4i();
        let resident = m.mxu_cycles(16, 512, 512, DType::Bf16, true);
        let streamed = m.mxu_cycles(16, 512, 512, DType::Bf16, false);
        // 16 rows < 128 push cycles: weight pushes dominate.
        assert!(streamed > 4.0 * resident, "{streamed} vs {resident}");
        // For long streams the push hides behind streaming.
        let r2 = m.mxu_cycles(4096, 512, 512, DType::Bf16, true);
        let s2 = m.mxu_cycles(4096, 512, 512, DType::Bf16, false);
        assert_eq!(r2, s2);
    }

    #[test]
    fn dma_cost_uses_channel_bandwidth() {
        let m = v4i();
        let bytes = 614_000_000; // one second of HBM bandwidth... at 614 GB/s
        let cost = m.step_cost(&StepKind::DmaIn {
            from: tpu_arch::MemLevel::Hbm,
            bytes,
        });
        assert!((cost.channel_seconds - 0.001).abs() < 1e-5);
        assert!(cost.unit_seconds > cost.channel_seconds); // latency added
        assert!(cost.energy_joules > 0.0);
    }

    #[test]
    fn cmem_dma_is_faster_and_cheaper_than_hbm() {
        let m = v4i();
        let hbm = m.step_cost(&StepKind::DmaIn {
            from: tpu_arch::MemLevel::Hbm,
            bytes: 1 << 24,
        });
        let cmem = m.step_cost(&StepKind::DmaIn {
            from: tpu_arch::MemLevel::Cmem,
            bytes: 1 << 24,
        });
        assert!(cmem.channel_seconds < hbm.channel_seconds);
        assert!(cmem.energy_joules < hbm.energy_joules / 2.0);
    }

    #[test]
    fn channel_assignment() {
        let m = v4i();
        assert_eq!(
            m.channel_of(&StepKind::DmaIn {
                from: tpu_arch::MemLevel::Hbm,
                bytes: 1
            }),
            Some(tpu_arch::MemLevel::Hbm)
        );
        assert_eq!(
            m.channel_of(&StepKind::DmaOut {
                to: tpu_arch::MemLevel::Cmem,
                bytes: 1
            }),
            Some(tpu_arch::MemLevel::Cmem)
        );
        assert_eq!(
            m.channel_of(&StepKind::Vpu {
                elements: 1,
                ops_per_element: 1
            }),
            None
        );
    }

    #[test]
    fn pool_sizes_match_config() {
        let m = v4i();
        let (mxu, vpu, dma, ici) = m.pool_sizes();
        assert_eq!(mxu, 4);
        assert_eq!(vpu, 1);
        assert_eq!(dma, 8);
        assert_eq!(ici, 2);
    }

    #[test]
    fn vpu_cost_scales_with_ops() {
        let m = v4i();
        let a = m.step_cost(&StepKind::Vpu {
            elements: 1 << 20,
            ops_per_element: 1,
        });
        let b = m.step_cost(&StepKind::Vpu {
            elements: 1 << 20,
            ops_per_element: 10,
        });
        assert!((b.unit_seconds / a.unit_seconds - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mxu_energy_tracks_dtype() {
        let m = v4i();
        let mk = |dtype| StepKind::Mxu {
            rows: 128,
            cols: 128,
            inner: 128,
            dtype,
            weights_resident: true,
        };
        let int8 = m.step_cost(&mk(DType::Int8)).energy_joules;
        let bf16 = m.step_cost(&mk(DType::Bf16)).energy_joules;
        let fp32 = m.step_cost(&mk(DType::Fp32)).energy_joules;
        assert!(int8 < bf16 && bf16 < fp32);
    }
}
