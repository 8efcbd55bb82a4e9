//! The event-driven executor: greedy list scheduling over unit pools and
//! serialized memory channels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use tpu_arch::{ChipConfig, MemLevel};
use tpu_numerics::DType;

use crate::machine::Machine;
use crate::plan::{StepKind, StepPlan};
use crate::report::{Resource, SimReport};
use crate::trace::{Trace, TraceEntry};

/// Error produced by a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The plan DMAs to/from CMEM but the chip has none.
    NoCmem {
        /// Name of the chip.
        chip: String,
    },
    /// A plan step uses a dtype the chip cannot compute at all.
    UnsupportedType {
        /// Name of the chip.
        chip: String,
        /// The requested type.
        dtype: DType,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoCmem { chip } => write!(f, "{chip} has no CMEM"),
            SimError::UnsupportedType { chip, dtype } => {
                write!(f, "{chip} cannot compute in {dtype}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A simulator bound to one chip configuration.
#[derive(Debug, Clone)]
pub struct Simulator {
    machine: Machine,
    /// Calibration factor anchoring modeled dynamic power to the chip's
    /// published TDP at full utilization (see [`Simulator::calibration`]).
    dyn_scale: f64,
}

impl Simulator {
    /// Creates a simulator for a chip.
    pub fn new(chip: ChipConfig) -> Simulator {
        let machine = Machine::new(chip);
        let dyn_scale = Self::calibration(&machine);
        Simulator { machine, dyn_scale }
    }

    /// The underlying machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Computes the dynamic-energy calibration factor.
    ///
    /// The per-op energies from the process table capture *relative*
    /// costs well but omit clocking, control and margin, which dominate
    /// real chips. We anchor the model to the published envelope: at full
    /// MXU + HBM + VPU utilization, dynamic power should equal
    /// `TDP - idle`. All per-step dynamic energies are scaled by this one
    /// factor, preserving relative costs.
    fn calibration(machine: &Machine) -> f64 {
        let chip = machine.chip();
        let e = chip.node.energy();
        let fastest = chip.fastest_type();
        let mac_pj = match fastest {
            DType::Int8 => e.mac_int8_pj,
            DType::Fp32 => e.mac_fp32_pj,
            _ => e.mac_bf16_pj,
        };
        let macs_per_sec = chip
            .peak_macs_per_sec(fastest)
            .expect("fastest type is native");
        let mxu_w = macs_per_sec * mac_pj * 1e-12;
        let hbm_w = chip.hbm.bandwidth_bps * chip.hbm.pj_per_byte * 1e-12;
        let vpu_w = chip.peak_vpu_ops_per_sec() * (e.mac_fp32_pj / 3.0) * 1e-12;
        let modeled_peak_w = mxu_w + hbm_w + vpu_w;
        let headroom_w = (chip.tdp_w - chip.idle_w).max(1.0);
        headroom_w / modeled_peak_w.max(1e-9)
    }

    /// Executes a plan, producing a report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCmem`] if the plan addresses CMEM on a chip
    /// without one, and [`SimError::UnsupportedType`] for un-computable
    /// dtypes (note int8 on a bf16-only chip *is* computable — it runs at
    /// bf16 rate after on-the-fly conversion — but fp16 on a TPU is not).
    pub fn run(&self, plan: &StepPlan) -> Result<SimReport, SimError> {
        self.run_core(plan, false).map(|(report, _)| report)
    }

    /// Like [`Simulator::run`], additionally returning the execution
    /// [`Trace`] (per-step unit assignment and timing) for audits and
    /// Gantt rendering.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_traced(&self, plan: &StepPlan) -> Result<(SimReport, Trace), SimError> {
        self.run_core(plan, true)
    }

    /// Shared scheduling core. `want_trace` gates [`TraceEntry`]
    /// collection: an untraced [`Simulator::run`] (the sweep hot path)
    /// skips the per-step entry push, which is pure overhead when the
    /// caller discards the trace.
    fn run_core(&self, plan: &StepPlan, want_trace: bool) -> Result<(SimReport, Trace), SimError> {
        let chip = self.machine.chip();
        // Pre-validate.
        for s in plan.steps() {
            if let Some((MemLevel::Cmem, _)) = s.kind.channel_bytes() {
                if chip.cmem.is_none() {
                    return Err(SimError::NoCmem {
                        chip: chip.name.clone(),
                    });
                }
            }
            if let StepKind::Mxu { dtype, .. } = s.kind {
                let computable = match dtype {
                    DType::Fp16 => chip.native_types.contains(&DType::Fp16),
                    // int8/bf16/fp32 always computable on TPUs (possibly
                    // via widening), int8 on GPU likewise.
                    _ => true,
                };
                if !computable {
                    return Err(SimError::UnsupportedType {
                        chip: chip.name.clone(),
                        dtype,
                    });
                }
            }
        }

        let (mxu_n, vpu_n, dma_n, ici_n) = self.machine.pool_sizes();
        let mut pools = Pools {
            mxu: Pool::new(mxu_n),
            vpu: Pool::new(vpu_n),
            dma: Pool::new(dma_n),
            ici: Pool::new(ici_n),
            hbm_free: 0.0,
            cmem_free: 0.0,
        };

        let n = plan.len();
        let mut indegree = vec![0usize; n];
        // Dependents of step `i` are `dependents[dep_starts[i]..dep_starts[i + 1]]`,
        // in the order their edges appear in the plan.
        let mut dep_starts = vec![0usize; n + 1];
        for s in plan.steps() {
            let deps = plan.deps(s.id);
            indegree[s.id.index()] = deps.len();
            for d in deps {
                dep_starts[d.index() + 1] += 1;
            }
        }
        for i in 0..n {
            dep_starts[i + 1] += dep_starts[i];
        }
        let mut fill = dep_starts.clone();
        let mut dependents = vec![0usize; dep_starts[n]];
        for s in plan.steps() {
            for d in plan.deps(s.id) {
                dependents[fill[d.index()]] = s.id.index();
                fill[d.index()] += 1;
            }
        }
        let mut finish = vec![0.0f64; n];
        let mut ready: BinaryHeap<Reverse<(TimeKey, usize)>> = BinaryHeap::new();
        for (i, s) in plan.steps().iter().enumerate() {
            if plan.deps(s.id).is_empty() {
                ready.push(Reverse((TimeKey(0.0), i)));
            }
        }

        let mut report = SimReport::new(plan.name(), &chip.name);
        let mut trace = Trace::default();
        if want_trace {
            trace.entries.reserve(n);
        }
        let mut makespan = 0.0f64;
        let mut done = 0usize;

        while let Some(Reverse((TimeKey(ready_t), idx))) = ready.pop() {
            let step = &plan.steps()[idx];
            let cost = self.machine.step_cost(&step.kind);

            // Which unit pool?
            let (pool, resource) = match step.kind {
                StepKind::Mxu { .. } => (&mut pools.mxu, Resource::Mxu),
                StepKind::Vpu { .. } => (&mut pools.vpu, Resource::Vpu),
                StepKind::DmaIn { .. } | StepKind::DmaOut { .. } => (&mut pools.dma, Resource::Dma),
                StepKind::Ici { .. } => (&mut pools.ici, Resource::Ici),
            };
            let (unit_idx, unit_free) = pool.min_free();
            // Serialized channel, if any.
            let channel = self.machine.channel_of(&step.kind);
            let chan_free = match channel {
                Some(MemLevel::Hbm) => pools.hbm_free,
                Some(MemLevel::Cmem) => pools.cmem_free,
                _ => 0.0,
            };

            let start = ready_t.max(unit_free).max(chan_free);
            let end = start + cost.unit_seconds;
            pool.set(unit_idx, end);
            report.add_busy(resource, cost.unit_seconds);
            if want_trace {
                trace.entries.push(TraceEntry {
                    step: step.id,
                    tag: step.tag,
                    resource,
                    unit: unit_idx,
                    start,
                    end,
                });
            }
            match channel {
                Some(MemLevel::Hbm) => {
                    pools.hbm_free = start + cost.channel_seconds;
                    report.add_busy(Resource::HbmChannel, cost.channel_seconds);
                }
                Some(MemLevel::Cmem) => {
                    pools.cmem_free = start + cost.channel_seconds;
                    report.add_busy(Resource::CmemChannel, cost.channel_seconds);
                }
                _ => {}
            }

            report.dynamic_joules += cost.energy_joules * self.dyn_scale;
            report.add_energy(resource, cost.energy_joules * self.dyn_scale);
            report.flops += step.kind.flops();
            if let Some((level, bytes)) = step.kind.channel_bytes() {
                match level {
                    MemLevel::Hbm => report.hbm_bytes += bytes,
                    MemLevel::Cmem => report.cmem_bytes += bytes,
                    _ => {}
                }
            }

            finish[idx] = end;
            makespan = makespan.max(end);
            done += 1;
            for &dep in &dependents[dep_starts[idx]..dep_starts[idx + 1]] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    let t = plan
                        .deps(plan.steps()[dep].id)
                        .iter()
                        .map(|d| finish[d.index()])
                        .fold(0.0f64, f64::max);
                    ready.push(Reverse((TimeKey(t), dep)));
                }
            }
        }
        debug_assert_eq!(done, n, "plan must be acyclic by construction");

        report.seconds = makespan;
        report.static_joules = self.machine.static_watts() * makespan;
        report.set_pool_sizes(mxu_n, vpu_n, dma_n, ici_n);
        report.steps = n;
        Ok((report, trace))
    }
}

/// Simulation-time heap key: `f64` under `total_cmp`, so times are
/// totally ordered (the simulators never produce NaN times, and
/// `total_cmp` keeps the type an `Ord` anyway). Shared with the serving
/// DES, whose event heaps key on `(TimeKey, seq)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeKey(pub f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A pool of identical units tracked by their next-free times.
///
/// Pools are at most a few dozen units, so a linear argmin scan beats a
/// heap and lets us report *which* unit ran a step (for traces).
#[derive(Debug)]
struct Pool {
    free: Vec<f64>,
}

impl Pool {
    fn new(n: usize) -> Pool {
        Pool {
            free: vec![0.0; n.max(1)],
        }
    }

    /// The earliest-free unit: `(index, free_time)`.
    fn min_free(&self) -> (usize, f64) {
        let mut best = 0usize;
        for (i, &t) in self.free.iter().enumerate() {
            if t < self.free[best] {
                best = i;
            }
        }
        (best, self.free[best])
    }

    fn set(&mut self, unit: usize, free_at: f64) {
        self.free[unit] = free_at;
    }
}

#[derive(Debug)]
struct Pools {
    mxu: Pool,
    vpu: Pool,
    dma: Pool,
    ici: Pool,
    hbm_free: f64,
    cmem_free: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;

    fn v4i() -> Simulator {
        Simulator::new(catalog::tpu_v4i())
    }

    fn dma(bytes: u64) -> StepKind {
        StepKind::DmaIn {
            from: MemLevel::Hbm,
            bytes,
        }
    }

    fn mxu(rows: u64) -> StepKind {
        StepKind::Mxu {
            rows,
            cols: 128,
            inner: 128,
            dtype: DType::Bf16,
            weights_resident: true,
        }
    }

    #[test]
    fn empty_plan_is_instant() {
        let r = v4i().run(&StepPlan::new("empty")).unwrap();
        assert_eq!(r.seconds, 0.0);
        assert_eq!(r.flops, 0);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn dependencies_serialize() {
        let sim = v4i();
        let mut seq = StepPlan::new("seq");
        let a = seq.push(mxu(1024), &[]);
        seq.push(mxu(1024), &[a]);
        let mut par = StepPlan::new("par");
        par.push(mxu(1024), &[]);
        par.push(mxu(1024), &[]);
        let t_seq = sim.run(&seq).unwrap().seconds;
        let t_par = sim.run(&par).unwrap().seconds;
        // v4i has 4 MXUs: independent steps run fully in parallel.
        assert!(t_seq > 1.9 * t_par, "seq {t_seq} vs par {t_par}");
    }

    #[test]
    fn hbm_channel_bandwidth_serializes() {
        let sim = v4i();
        let bytes = 1 << 26; // 64 MiB
        let mut one = StepPlan::new("one");
        one.push(dma(bytes), &[]);
        let mut four = StepPlan::new("four");
        for _ in 0..4 {
            four.push(dma(bytes), &[]);
        }
        let t1 = sim.run(&one).unwrap().seconds;
        let t4 = sim.run(&four).unwrap().seconds;
        // 8 DMA engines, but one HBM channel: 4x the bytes ≈ 4x the time.
        assert!(
            (t4 / t1 - 4.0).abs() < 0.3,
            "expected ~4x serialization, got {:.2}x",
            t4 / t1
        );
    }

    #[test]
    fn compute_and_dma_overlap() {
        let sim = v4i();
        // Balanced compute and DMA that can double-buffer.
        let mut overlapped = StepPlan::new("ovl");
        for _ in 0..8 {
            overlapped.push(dma(1 << 24), &[]);
            overlapped.push(mxu(16384), &[]);
        }
        let mut serialized = StepPlan::new("ser");
        let mut prev: Option<crate::plan::StepId> = None;
        for _ in 0..8 {
            let deps: Vec<_> = prev.into_iter().collect();
            let d = serialized.push(dma(1 << 24), &deps);
            prev = Some(serialized.push(mxu(16384), &[d]));
        }
        let t_o = sim.run(&overlapped).unwrap().seconds;
        let t_s = sim.run(&serialized).unwrap().seconds;
        assert!(t_o < 0.75 * t_s, "overlap {t_o} vs serial {t_s}");
    }

    #[test]
    fn memory_bound_plan_achieves_bandwidth_roofline() {
        let sim = v4i();
        let mut plan = StepPlan::new("membound");
        let total: u64 = 1 << 30; // 1 GiB through HBM
        for _ in 0..16 {
            plan.push(dma(total / 16), &[]);
        }
        let r = sim.run(&plan).unwrap();
        let achieved_bw = r.hbm_bytes as f64 / r.seconds;
        let peak = sim.machine().chip().hbm.bandwidth_bps;
        assert!(
            achieved_bw > 0.9 * peak,
            "achieved {:.0} GB/s of {:.0}",
            achieved_bw / 1e9,
            peak / 1e9
        );
        assert!(r.utilization(Resource::HbmChannel) > 0.9);
    }

    #[test]
    fn compute_bound_plan_approaches_peak_flops() {
        let sim = v4i();
        let mut plan = StepPlan::new("compute");
        for _ in 0..16 {
            plan.push(
                StepKind::Mxu {
                    rows: 16384,
                    cols: 512,
                    inner: 512,
                    dtype: DType::Bf16,
                    weights_resident: true,
                },
                &[],
            );
        }
        let r = sim.run(&plan).unwrap();
        let peak = sim.machine().chip().peak_flops(DType::Bf16).unwrap();
        let frac = r.flops_per_second() / peak;
        assert!(frac > 0.9, "achieved {:.1}% of peak", frac * 100.0);
        assert!(r.utilization(Resource::Mxu) > 0.9);
    }

    #[test]
    fn power_is_anchored_near_tdp_when_saturated() {
        let sim = v4i();
        let mut plan = StepPlan::new("hot");
        for _ in 0..8 {
            plan.push(
                StepKind::Mxu {
                    rows: 65536,
                    cols: 512,
                    inner: 512,
                    dtype: DType::Bf16,
                    weights_resident: true,
                },
                &[],
            );
            plan.push(dma(1 << 28), &[]);
        }
        let r = sim.run(&plan).unwrap();
        let chip = catalog::tpu_v4i();
        let p = r.average_watts();
        assert!(
            p > 0.5 * chip.tdp_w && p < 1.2 * chip.tdp_w,
            "average power {p:.0} W should be near TDP {} W",
            chip.tdp_w
        );
    }

    #[test]
    fn cmem_plan_rejected_without_cmem() {
        let sim = Simulator::new(catalog::tpu_v3());
        let mut plan = StepPlan::new("cmem");
        plan.push(
            StepKind::DmaIn {
                from: MemLevel::Cmem,
                bytes: 1024,
            },
            &[],
        );
        assert_eq!(
            sim.run(&plan).unwrap_err(),
            SimError::NoCmem {
                chip: "TPUv3".to_owned()
            }
        );
    }

    #[test]
    fn fp16_rejected_on_tpus_accepted_on_gpu() {
        let mut plan = StepPlan::new("fp16");
        plan.push(
            StepKind::Mxu {
                rows: 128,
                cols: 128,
                inner: 128,
                dtype: DType::Fp16,
                weights_resident: true,
            },
            &[],
        );
        assert!(matches!(
            v4i().run(&plan).unwrap_err(),
            SimError::UnsupportedType { .. }
        ));
        assert!(Simulator::new(catalog::gpu_t4_like()).run(&plan).is_ok());
    }

    #[test]
    fn cmem_reads_beat_hbm_reads() {
        // The E6 mechanism: same bytes, CMEM channel is ~8x faster.
        let sim = v4i();
        let mut via_hbm = StepPlan::new("hbm");
        let mut via_cmem = StepPlan::new("cmem");
        for _ in 0..8 {
            via_hbm.push(dma(1 << 26), &[]);
            via_cmem.push(
                StepKind::DmaIn {
                    from: MemLevel::Cmem,
                    bytes: 1 << 26,
                },
                &[],
            );
        }
        let t_hbm = sim.run(&via_hbm).unwrap().seconds;
        let t_cmem = sim.run(&via_cmem).unwrap().seconds;
        assert!(t_cmem < t_hbm / 4.0, "cmem {t_cmem} vs hbm {t_hbm}");
    }

    #[test]
    fn report_utilizations_are_bounded() {
        let sim = v4i();
        let mut plan = StepPlan::new("mixed");
        let d = plan.push(dma(1 << 20), &[]);
        let m = plan.push(mxu(512), &[d]);
        plan.push(
            StepKind::Vpu {
                elements: 1 << 16,
                ops_per_element: 2,
            },
            &[m],
        );
        let r = sim.run(&plan).unwrap();
        for res in Resource::ALL {
            let u = r.utilization(res);
            assert!((0.0..=1.0 + 1e-9).contains(&u), "{res:?} utilization {u}");
        }
        assert!(r.seconds > 0.0);
        assert_eq!(r.steps, 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = v4i();
        let mut plan = StepPlan::new("det");
        for i in 0..32 {
            let deps: Vec<_> = if i >= 2 {
                vec![crate::plan::StepId(i - 2)]
            } else {
                vec![]
            };
            plan.push(dma(1 << 18), &deps);
            let _ = i;
        }
        let a = sim.run(&plan).unwrap();
        let b = sim.run(&plan).unwrap();
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.dynamic_joules, b.dynamic_joules);
    }
}
