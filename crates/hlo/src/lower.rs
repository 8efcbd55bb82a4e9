//! Lowering: tiling HLO onto the MXU, emitting the simulator step plan
//! and a schematic VLIW program.
//!
//! For each matrix op the lowerer walks the output-column tile loop the
//! real compiler would generate: DMA a weight tile from its home (HBM or
//! CMEM) into VMEM, stream activations through the systolic array, apply
//! fused elementwise work on the VPU, and DMA graph outputs back to HBM.
//! With double buffering enabled the weight DMA of tile *i+1* does not
//! wait for compute of tile *i*; without it the loop serializes — the
//! difference is one of the compiler gains E7 measures.

use tpu_arch::{ChipConfig, Generation, MemLevel};
use tpu_isa::prelude::*;
use tpu_numerics::DType;
use tpu_sim::plan::{StepId, StepKind, StepPlan};

use crate::fusion::FusionMap;
use crate::graph::{Graph, HloOp, Node, OpId};
use crate::liveness;
use crate::memory::MemoryPlan;
use crate::pipeline::{CompilerOptions, OptLevel};

/// Intermediates larger than this fraction of VMEM spill to HBM (the
/// rest of VMEM is needed for weight tiles and double buffering).
const SPILL_VMEM_FRACTION: f64 = 0.25;

/// Everything lowering produces.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The tile-level schedule for the simulator.
    pub plan: StepPlan,
    /// A schematic VLIW program in the target's encoding.
    pub program: Program,
    /// Whether matmuls carry extra VPU merge passes to reproduce another
    /// generation's accumulation order bit-exactly (E14).
    pub accum_emulated: bool,
}

/// Where a matmul's right-hand operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WeightSource {
    /// Streamed per tile from HBM or CMEM (weights).
    Streamed(MemLevel),
    /// Already resident in VMEM (computed activations).
    InVmem(OpId),
}

/// Lowers a graph for a chip.
pub fn lower(
    graph: &Graph,
    chip: &ChipConfig,
    fusion: &FusionMap,
    memory: &MemoryPlan,
    options: &CompilerOptions,
) -> Lowered {
    let n = graph.nodes().len();
    // Each cluster's fused VPU work, summed once per root.
    let mut fused_ops: Vec<Option<u64>> = vec![None; n];
    for (id, root) in fusion.entries() {
        *fused_ops[root.index()].get_or_insert(0) += graph.node_flops(graph.node(id));
    }
    let accum_emulate = needs_accum_emulation(chip, options.bit_exact_with);

    // Dead-code elimination: only nodes reachable from the outputs emit
    // steps (XLA always DCEs; an unused parameter must not cost a DMA).
    let live = reachable_from_outputs(graph);
    // Reserve an upper bound on what the loop below emits, so the plan
    // and program never regrow: each node's steps and bundles, plus one
    // spill-out and one reload per operand read in case values spill.
    let (mut steps, mut bundles) = (graph.outputs().len(), graph.outputs().len() + 2);
    for node in graph.nodes() {
        if !live[node.id.index()] || fusion.is_fused(node.id) {
            continue;
        }
        let fused = usize::from(fused_ops[node.id.index()].is_some());
        let (s, b) = match matmul_weights(graph, node) {
            // Per chunk, the weight tile (or its reload), the compute and
            // maybe a merge; the tile loop's three bundles, and a reload's
            // bundle per chunk unless the weights are a constant.
            Some((weights, cols)) => {
                let (_, chunks) = column_tiling(chip, memory, cols);
                let chunks = chunks as usize;
                let per_chunk = 2 + usize::from(accum_emulate);
                let reloads = match graph.node(weights).op {
                    HloOp::Constant => 0,
                    _ => chunks,
                };
                (chunks * per_chunk + fused, 3 + fused + reloads)
            }
            None if matches!(node.op, HloOp::Constant | HloOp::Reshape { .. }) => continue,
            None => (1, 1),
        };
        let spills = 1 + node.op.operands().len();
        steps += s + spills;
        bundles += b + spills;
    }
    let mut ctx = Ctx {
        graph,
        chip,
        fusion,
        memory,
        double_buffer: options.level >= OptLevel::O2,
        plan: StepPlan::with_capacity(graph.name(), steps, 2 * steps),
        program: Program::with_capacity(chip.generation, bundles),
        produced: vec![(0, 0); n],
        produced_steps: Vec::new(),
        deps: Vec::new(),
        spilled: vec![false; n],
        spill_threshold: (chip.vmem.capacity_bytes as f64 * SPILL_VMEM_FRACTION) as u64,
        last_use: liveness::last_uses(graph),
        fused_ops,
        next_mxu: 0,
        accum_emulate,
    };

    for node in graph.nodes() {
        if !live[node.id.index()] {
            continue;
        }
        if fusion.is_fused(node.id) {
            continue; // emitted with its root
        }
        ctx.lower_node(node);
    }

    // Graph outputs (or their fusion tails) stream back to HBM. A
    // spilled output is already in HBM — no second write.
    for &out in graph.outputs() {
        let node = graph.node(out);
        let root = ctx.value_of(out);
        if ctx.spilled[root.index()] {
            continue;
        }
        let bytes = node.shape.bytes(graph.dtype());
        let (a, b) = ctx.produced[root.index()];
        ctx.plan.push_tagged(
            StepKind::DmaOut {
                to: MemLevel::Hbm,
                bytes,
            },
            &ctx.produced_steps[a as usize..b as usize],
            "output",
        );
        ctx.program.push(Bundle::new().dma(DmaOp::Start {
            queue: 1,
            dir: DmaDirection::new(MemLevel::Vmem, MemLevel::Hbm),
            bytes: bytes.min(u32::MAX as u64) as u32,
        }));
    }
    ctx.program
        .push(Bundle::new().scalar(ScalarOp::SyncDma { queue: 1 }));
    ctx.program.push(Bundle::new().scalar(ScalarOp::Halt));
    debug_assert!(
        ctx.plan.len() <= steps && ctx.program.len() <= bundles,
        "lowering emitted past the bound it reserved"
    );

    Lowered {
        plan: ctx.plan,
        program: ctx.program,
        accum_emulated: ctx.accum_emulate,
    }
}

/// Marks every node reachable (transitively) from a graph output.
fn reachable_from_outputs(graph: &Graph) -> Vec<bool> {
    let mut live = vec![false; graph.nodes().len()];
    let mut stack: Vec<OpId> = graph.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        stack.extend(graph.node(id).op.operands());
    }
    live
}

/// A matrix op's weight operand and output columns (`None` for every
/// other op).
fn matmul_weights(graph: &Graph, node: &Node) -> Option<(OpId, u64)> {
    match node.op {
        HloOp::Dot { rhs, .. } => Some((rhs, graph.node(rhs).shape.trailing())),
        HloOp::Conv2d { kernel, .. } => Some((kernel, graph.node(kernel).shape.dims()[3])),
        HloOp::BatchMatmul { b, n, .. } => Some((b, n)),
        _ => None,
    }
}

/// A matmul's output-column tiling: `(tile width, chunks)`. The width is
/// bounded by the VMEM working set (memory plan) and split across the
/// MXU pool so independent output-column chunks run on different MXUs,
/// as XLA does.
fn column_tiling(chip: &ChipConfig, memory: &MemoryPlan, cols: u64) -> (u64, u64) {
    let d = chip.mxu_dim as u64;
    let pool = (chip.mxus_per_core * chip.cores).max(1) as u64;
    let target_chunks = pool.min(cols.div_ceil(d)).max(1);
    let per_mxu = cols.div_ceil(target_chunks).div_ceil(d) * d;
    let col_tile = memory.col_tile.min(cols.max(1)).min(per_mxu.max(d));
    (col_tile, cols.div_ceil(col_tile).max(1))
}

/// Whether bit-exactly reproducing `compat`'s accumulation order on
/// `chip` requires software emulation (Lesson 4 / E14).
///
/// When the systolic widths match, the hardware order *is* the compat
/// order and compatibility is free. When they differ (TPUv1's 256-wide
/// array vs everyone else's 128), the compiler must pop partial sums
/// after each inner tile and merge them on the VPU in the compat order.
pub fn needs_accum_emulation(chip: &ChipConfig, compat: Option<Generation>) -> bool {
    compat.is_some_and(|generation| compat_mxu_dim(generation) != chip.mxu_dim)
}

/// The systolic array width whose accumulation order bit-exact mode
/// reproduces for a compat generation: TPUv1's 256, everyone else's 128.
pub(crate) fn compat_mxu_dim(generation: Generation) -> u32 {
    match generation {
        Generation::TpuV1 => 256,
        _ => 128,
    }
}

struct Ctx<'a> {
    graph: &'a Graph,
    chip: &'a ChipConfig,
    fusion: &'a FusionMap,
    memory: &'a MemoryPlan,
    /// Whether a weight tile's DMA may start before the previous
    /// chunk's compute ends (O2 and above).
    double_buffer: bool,
    plan: StepPlan,
    program: Program,
    /// The steps that produce each unfused node's value in VMEM, as a
    /// range of `produced_steps`. A fused node's value is its root's.
    produced: Vec<(u32, u32)>,
    /// Append-only backing store for the `produced` ranges.
    produced_steps: Vec<StepId>,
    /// The dependency list of the step being built, reused across steps.
    deps: Vec<StepId>,
    /// Whether a node's value was written back to HBM because it exceeds
    /// the VMEM spill threshold; consumers re-load it.
    spilled: Vec<bool>,
    spill_threshold: u64,
    /// Per node: the index of its last consumer (see
    /// [`liveness::last_uses`]).
    last_use: Vec<usize>,
    /// Per cluster root: the summed flops of the nodes fused into it.
    fused_ops: Vec<Option<u64>>,
    next_mxu: u8,
    accum_emulate: bool,
}

impl Ctx<'_> {
    fn dtype(&self) -> DType {
        self.graph.dtype()
    }

    /// The node whose steps produce `id`'s value: its cluster root if
    /// it was fused, else itself.
    fn value_of(&self, id: OpId) -> OpId {
        self.fusion.root_of(id).unwrap_or(id)
    }

    /// Records `steps` as the producers of `id`'s value.
    fn set_produced(&mut self, id: OpId, steps: &[StepId]) {
        let start = self.produced_steps.len() as u32;
        self.produced_steps.extend_from_slice(steps);
        self.produced[id.index()] = (start, self.produced_steps.len() as u32);
    }

    /// Appends to `self.deps` the steps producing all operands of a
    /// node, re-loading spilled ones from HBM.
    fn operand_steps(&mut self, node: &Node) {
        self.deps.clear();
        for o in node.op.operands() {
            self.fetch_operand(o);
        }
    }

    /// Appends to `self.deps` the dependencies for reading one
    /// operand's value in VMEM: its producing steps, or a reload DMA
    /// after them if it was spilled to HBM.
    fn fetch_operand(&mut self, id: OpId) {
        let src = self.value_of(id).index();
        let (a, b) = self.produced[src];
        let producers = &self.produced_steps[a as usize..b as usize];
        if !self.spilled[src] {
            self.deps.extend_from_slice(producers);
            return;
        }
        let bytes = self.graph.node(id).shape.bytes(self.dtype());
        let reload = self.plan.push_tagged(
            StepKind::DmaIn {
                from: MemLevel::Hbm,
                bytes,
            },
            producers,
            "spill-in",
        );
        self.program.push(Bundle::new().dma(DmaOp::Start {
            queue: 2,
            dir: DmaDirection::new(MemLevel::Hbm, MemLevel::Vmem),
            bytes: bytes.min(u32::MAX as u64) as u32,
        }));
        self.deps.push(reload);
    }

    /// Spills a freshly produced value to HBM if it exceeds the VMEM
    /// threshold and is still needed later. Parameters are exempt: their
    /// pristine copy already lives in HBM, so consumers simply re-read
    /// (marked spilled with no write-back).
    fn maybe_spill(&mut self, node: &Node) {
        let bytes = node.shape.bytes(self.dtype());
        if bytes <= self.spill_threshold {
            return;
        }
        let i = node.id.index();
        if self.last_use[i] <= i {
            return; // dying immediately; nothing to keep
        }
        if matches!(node.op, HloOp::Parameter) {
            self.spilled[i] = true;
            return;
        }
        let (a, b) = self.produced[i];
        let out = self.plan.push_tagged(
            StepKind::DmaOut {
                to: MemLevel::Hbm,
                bytes,
            },
            &self.produced_steps[a as usize..b as usize],
            "spill-out",
        );
        self.program.push(Bundle::new().dma(DmaOp::Start {
            queue: 2,
            dir: DmaDirection::new(MemLevel::Vmem, MemLevel::Hbm),
            bytes: bytes.min(u32::MAX as u64) as u32,
        }));
        self.set_produced(node.id, &[out]);
        self.spilled[i] = true;
    }

    fn pick_mxu(&mut self) -> u8 {
        // ISA MXU indices are per-core (the encoding's mxu_max tracks
        // mxus_per_core); the simulator's pool covers all cores.
        let n = self.chip.mxus_per_core.max(1) as u8;
        let m = self.next_mxu % n;
        self.next_mxu = self.next_mxu.wrapping_add(1);
        m
    }

    fn lower_node(&mut self, node: &Node) {
        match node.op {
            HloOp::Parameter => {
                let bytes = node.shape.bytes(self.dtype());
                let s = self.plan.push_tagged(
                    StepKind::DmaIn {
                        from: MemLevel::Hbm,
                        bytes,
                    },
                    &[],
                    "param",
                );
                self.program.push(Bundle::new().dma(DmaOp::Start {
                    queue: 0,
                    dir: DmaDirection::new(MemLevel::Hbm, MemLevel::Vmem),
                    bytes: bytes.min(u32::MAX as u64) as u32,
                }));
                self.set_produced(node.id, &[s]);
                self.maybe_spill(node);
            }
            HloOp::Constant => {
                // Weights are streamed per tile by consumers.
            }
            HloOp::Dot { lhs, rhs } => {
                let k = self.graph.node(rhs).shape.leading();
                let n = self.graph.node(rhs).shape.trailing();
                let rows = self.graph.node(lhs).shape.elements() / k;
                let source = self.weight_source(rhs);
                self.lower_matmul(node, rows, k, n, source, lhs);
            }
            HloOp::Conv2d { input, kernel, .. } => {
                let ks = &self.graph.node(kernel).shape;
                let (kh, kw, cin, cout) = (ks.dims()[0], ks.dims()[1], ks.dims()[2], ks.dims()[3]);
                let rows = node.shape.elements() / cout; // n*oh*ow
                let inner = kh * kw * cin;
                let source = self.weight_source(kernel);
                self.lower_matmul(node, rows, inner, cout, source, input);
            }
            HloOp::BatchMatmul {
                a,
                b,
                batch,
                m,
                k,
                n,
            } => {
                self.lower_matmul(node, batch * m, k, n, WeightSource::InVmem(b), a);
            }
            HloOp::Embedding { table, .. } => {
                // Gather: random-access reads; charge 2x for row granularity.
                let bytes = 2 * node.shape.bytes(self.dtype());
                let home = match self.weight_source(table) {
                    WeightSource::Streamed(home) => home,
                    WeightSource::InVmem(_) => MemLevel::Vmem,
                };
                let s = self
                    .plan
                    .push_tagged(StepKind::DmaIn { from: home, bytes }, &[], "embed");
                self.program.push(Bundle::new().dma(DmaOp::Start {
                    queue: 0,
                    dir: DmaDirection::new(home, MemLevel::Vmem),
                    bytes: bytes.min(u32::MAX as u64) as u32,
                }));
                self.set_produced(node.id, &[s]);
                self.maybe_spill(node);
            }
            HloOp::Reshape { input } => {
                let src = self.value_of(input).index();
                self.produced[node.id.index()] = self.produced[src];
                self.spilled[node.id.index()] = self.spilled[src];
            }
            HloOp::Activate { .. }
            | HloOp::Binary { .. }
            | HloOp::Softmax { .. }
            | HloOp::LayerNorm { .. }
            | HloOp::GateReduce { .. }
            | HloOp::MaxPool2d { .. } => {
                // Standalone VPU work (fused instances are skipped upstream).
                self.operand_steps(node);
                let ops = self.graph.node_flops(node).max(1);
                let s = self.plan.push_tagged(
                    StepKind::Vpu {
                        elements: ops,
                        ops_per_element: 1,
                    },
                    &self.deps,
                    node.op.mnemonic(),
                );
                self.program.push(Bundle::new().vector(VectorOp::VXf {
                    dst: VReg(1),
                    a: VReg(0),
                }));
                self.set_produced(node.id, &[s]);
                self.maybe_spill(node);
            }
        }
    }

    /// Where a matmul's right-hand operand comes from: constants stream
    /// from their home in the memory plan (HBM or CMEM); computed
    /// operands are already in VMEM.
    fn weight_source(&self, id: OpId) -> WeightSource {
        let (a, b) = self.produced[self.value_of(id).index()];
        if matches!(self.graph.node(id).op, HloOp::Constant) {
            WeightSource::Streamed(self.memory.weight_home(id))
        } else if a == b {
            // A parameter used directly as weights: stream from HBM.
            WeightSource::Streamed(MemLevel::Hbm)
        } else {
            WeightSource::InVmem(id)
        }
    }

    /// The shared matmul/conv/batch-matmul tile loop.
    fn lower_matmul(
        &mut self,
        node: &Node,
        rows: u64,
        inner: u64,
        cols: u64,
        weights: WeightSource,
        act_input: OpId,
    ) {
        let dtype = self.dtype();
        // The activation dependencies are fetched once (a spilled input
        // reloads once) and shared by every chunk.
        self.deps.clear();
        self.fetch_operand(act_input);
        let act_start = self.produced_steps.len();
        self.produced_steps.extend_from_slice(&self.deps);
        let act_end = self.produced_steps.len();

        let d = self.chip.mxu_dim as u64;
        let (col_tile, chunks) = column_tiling(self.chip, self.memory, cols);

        let mxu = self.pick_mxu();
        let mut prev_compute: Option<StepId> = None;

        // Emit the ISA tile loop once, with a loop marker for repetition.
        let weight_tile_bytes = inner * col_tile * dtype.size_bytes();
        let mut head = Bundle::new().scalar(ScalarOp::LoadImm {
            dst: SReg(1),
            imm: chunks.min(i32::MAX as u64) as i32,
        });
        if let WeightSource::Streamed(home) = weights {
            head = head.dma(DmaOp::Start {
                queue: 0,
                dir: DmaDirection::new(home, MemLevel::Vmem),
                bytes: weight_tile_bytes.min(u32::MAX as u64) as u32,
            });
        }
        self.program.push(head);
        self.program
            .push(Bundle::new().mxu(MxuOp::PushWeights { mxu }));
        self.program.push(
            Bundle::new()
                .mxu(MxuOp::MatMul {
                    mxu,
                    rows: rows.min(u16::MAX as u64) as u16,
                })
                .scalar(ScalarOp::LoopEnd {
                    counter: SReg(1),
                    offset: 2,
                }),
        );

        // Each chunk's output step is appended to `produced_steps`, so
        // the chunks form one range (nothing else appends in the loop).
        let chunks_start = self.produced_steps.len();
        for c in 0..chunks {
            let this_cols = col_tile.min(cols - c * col_tile);
            self.deps.clear();
            match weights {
                WeightSource::Streamed(home) => {
                    let wbytes = inner * this_cols * dtype.size_bytes();
                    // Weight tile DMA. Without double buffering it waits
                    // for the previous chunk's compute.
                    let wdeps = if self.double_buffer {
                        &[]
                    } else {
                        prev_compute.as_slice()
                    };
                    let wdma = self.plan.push_tagged(
                        StepKind::DmaIn {
                            from: home,
                            bytes: wbytes,
                        },
                        wdeps,
                        "weights",
                    );
                    self.deps.push(wdma);
                }
                WeightSource::InVmem(op) => self.fetch_operand(op),
            }
            // Compute depends on its weights and the activations; chunks
            // of one op are independent and spread over the MXU pool.
            self.deps
                .extend_from_slice(&self.produced_steps[act_start..act_end]);
            let compute = self.plan.push_tagged(
                StepKind::Mxu {
                    rows,
                    cols: this_cols,
                    inner,
                    dtype,
                    weights_resident: false,
                },
                &self.deps,
                node.op.mnemonic(),
            );
            prev_compute = Some(compute);
            let chunk_out = if self.accum_emulate {
                // Bit-exact emulation of a different systolic width: pop
                // partial sums after each inner tile and merge on the VPU
                // in the compat order (see `needs_accum_emulation`).
                let inner_tiles = inner.div_ceil(d).max(1);
                self.plan.push_tagged(
                    StepKind::Vpu {
                        elements: rows * this_cols * inner_tiles,
                        ops_per_element: 1,
                    },
                    &[compute],
                    "accum-merge",
                )
            } else {
                compute
            };
            self.produced_steps.push(chunk_out);
        }
        let chunk_steps = (chunks_start as u32, self.produced_steps.len() as u32);

        // Fused elementwise tail, if any. Fused nodes read their value
        // through `value_of`, so the root's entry covers the cluster.
        self.produced[node.id.index()] = chunk_steps;
        if let Some(fused_ops) = self.fused_ops[node.id.index()] {
            let vpu = self.plan.push_tagged(
                StepKind::Vpu {
                    elements: fused_ops.max(1),
                    ops_per_element: 1,
                },
                &self.produced_steps[chunks_start..],
                "fused",
            );
            self.program.push(Bundle::new().vector(VectorOp::VXf {
                dst: VReg(2),
                a: VReg(1),
            }));
            self.set_produced(node.id, &[vpu]);
        }
        // The materialized value is the cluster tail's (same shape class
        // as the root); spill if it exceeds the threshold.
        self.maybe_spill(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::memory;
    use crate::pipeline::CompilerOptions;
    use tpu_arch::catalog;
    use tpu_sim::Simulator;

    fn simple_graph() -> Graph {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[64, 512]).unwrap();
        let w = g.constant(&[512, 2048]).unwrap();
        let d = g.dot(x, w).unwrap();
        let r = g.relu(d).unwrap();
        g.mark_output(r);
        g
    }

    /// Lowers with the fusion map and memory plan `compile` would use
    /// at `opt`'s level, without running the graph passes.
    fn lower_with(g: &Graph, chip: &tpu_arch::ChipConfig, opt: &CompilerOptions) -> Lowered {
        let f = if opt.level >= OptLevel::O1 {
            fuse(g)
        } else {
            FusionMap::default()
        };
        let m = memory::plan(g, chip, Some(opt.cmem_budget(chip)));
        lower(g, chip, &f, &m, opt)
    }

    #[test]
    fn plan_has_dma_compute_output() {
        let g = simple_graph();
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        let tags: Vec<&str> = l.plan.steps().iter().map(|s| s.tag).collect();
        assert!(tags.contains(&"param"));
        assert!(tags.contains(&"weights"));
        assert!(tags.contains(&"dot"));
        assert!(tags.contains(&"fused"));
        assert!(tags.contains(&"output"));
    }

    #[test]
    fn plan_flops_match_graph_flops_for_matmuls() {
        let g = simple_graph();
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        // The MXU flops in the plan must equal the graph's dot flops.
        let mxu_flops: u64 = l
            .plan
            .steps()
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Mxu { .. }))
            .map(|s| s.kind.flops())
            .sum();
        let dot_flops = 2 * 64 * 512 * 2048;
        assert_eq!(mxu_flops, dot_flops);
    }

    #[test]
    fn program_verifies_and_encodes_per_generation() {
        let g = simple_graph();
        for chip in catalog::all_chips() {
            let l = lower_with(&g, &chip, &CompilerOptions::no_cmem());
            l.program
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", chip.name));
            tpu_isa::encode(&l.program).unwrap();
        }
    }

    #[test]
    fn cmem_option_moves_weight_traffic() {
        let g = simple_graph();
        let chip = catalog::tpu_v4i();
        let with = lower_with(&g, &chip, &CompilerOptions::default());
        let without = lower_with(&g, &chip, &CompilerOptions::no_cmem());
        let (hbm_with, cmem_with) = with.plan.channel_traffic();
        let (hbm_without, cmem_without) = without.plan.channel_traffic();
        assert_eq!(cmem_without, 0);
        assert!(cmem_with > 0);
        assert!(hbm_with < hbm_without);
        // Total weight bytes conserved across placements.
        assert_eq!(hbm_with + cmem_with, hbm_without + cmem_without);
    }

    #[test]
    fn double_buffering_speeds_up_simulation() {
        let mut g = Graph::new("big", DType::Bf16);
        let x = g.parameter(&[256, 4096]).unwrap();
        let w = g.constant(&[4096, 8192]).unwrap();
        let d = g.dot(x, w).unwrap();
        g.mark_output(d);
        let chip = catalog::tpu_v4i();
        // O2 adds double buffering to O1; lowering runs no graph passes,
        // so it is the only difference here.
        let on = CompilerOptions::level(OptLevel::O2);
        let off = CompilerOptions::level(OptLevel::O1);
        let sim = Simulator::new(chip.clone());
        let t_on = sim.run(&lower_with(&g, &chip, &on).plan).unwrap().seconds;
        let t_off = sim.run(&lower_with(&g, &chip, &off).plan).unwrap().seconds;
        assert!(
            t_on < t_off,
            "double buffering must help: {t_on} vs {t_off}"
        );
    }

    #[test]
    fn fusion_removes_standalone_vpu_round_trips() {
        let g = simple_graph();
        let chip = catalog::tpu_v4i();
        let fused = lower_with(&g, &chip, &CompilerOptions::level(OptLevel::O1));
        let unfused = lower_with(&g, &chip, &CompilerOptions::level(OptLevel::O0));
        let count = |l: &Lowered, tag: &str| l.plan.steps().iter().filter(|s| s.tag == tag).count();
        assert_eq!(count(&fused, "fused"), 1);
        assert_eq!(count(&fused, "act"), 0);
        assert_eq!(count(&unfused, "fused"), 0);
        assert_eq!(count(&unfused, "act"), 1);
    }

    #[test]
    fn accum_emulation_rules() {
        let v4i = catalog::tpu_v4i();
        assert!(!needs_accum_emulation(&v4i, None));
        // v2/v3 use the same 128-wide order as v4i: free.
        assert!(!needs_accum_emulation(&v4i, Some(Generation::TpuV3)));
        // v1's 256-wide order must be emulated.
        assert!(needs_accum_emulation(&v4i, Some(Generation::TpuV1)));
        let v1 = catalog::tpu_v1();
        assert!(!needs_accum_emulation(&v1, Some(Generation::TpuV1)));
    }

    #[test]
    fn accum_emulation_adds_merge_steps() {
        let g = simple_graph();
        let chip = catalog::tpu_v4i();
        let opts = CompilerOptions {
            bit_exact_with: Some(Generation::TpuV1),
            ..CompilerOptions::default()
        };
        let l = lower_with(&g, &chip, &opts);
        assert!(l.accum_emulated);
        assert!(l.plan.steps().iter().any(|s| s.tag == "accum-merge"));
        let native = lower_with(&g, &chip, &CompilerOptions::default());
        assert!(!native.accum_emulated);
        assert!(!native.plan.steps().iter().any(|s| s.tag == "accum-merge"));
    }

    #[test]
    fn reshape_is_free() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 64]).unwrap();
        let r = g.reshape(x, &[512]).unwrap();
        g.mark_output(r);
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        // param DMA + output DMA only.
        assert_eq!(l.plan.len(), 2);
    }

    #[test]
    fn large_intermediates_spill_and_reload() {
        // A 16 MiB intermediate exceeds v4i's 4 MiB spill threshold.
        let mut g = Graph::new("big", DType::Bf16);
        let x = g.parameter(&[1024, 1024]).unwrap(); // 2 MiB: stays
        let w = g.constant(&[1024, 8192]).unwrap();
        let h = g.dot(x, w).unwrap(); // 16 MiB: spills
        let w2 = g.constant(&[8192, 64]).unwrap();
        let y = g.dot(h, w2).unwrap();
        g.mark_output(y);
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        let count = |tag: &str| l.plan.steps().iter().filter(|s| s.tag == tag).count();
        assert_eq!(count("spill-out"), 1);
        assert_eq!(count("spill-in"), 1);
        // The small model spills nothing.
        let small = simple_graph();
        let ls = lower_with(&small, &chip, &CompilerOptions::default());
        assert!(!ls.plan.steps().iter().any(|s| s.tag.starts_with("spill")));
    }

    #[test]
    fn spilled_outputs_are_not_written_twice() {
        let mut g = Graph::new("big-out", DType::Bf16);
        let x = g.parameter(&[2048, 1024]).unwrap();
        let w = g.constant(&[1024, 8192]).unwrap();
        let h = g.dot(x, w).unwrap(); // 32 MiB, spilled...
        let r = g.relu(h).unwrap(); // ...as the fusion tail
        g.mark_output(r);
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        let spills = l
            .plan
            .steps()
            .iter()
            .filter(|s| s.tag == "spill-out")
            .count();
        let outputs = l.plan.steps().iter().filter(|s| s.tag == "output").count();
        assert_eq!(spills, 1);
        assert_eq!(outputs, 0, "spilled output is already in HBM");
    }

    #[test]
    fn spilling_costs_simulated_time() {
        // Same matmul chain; fatter intermediate => disproportionate time.
        let build = |n: u64| {
            let mut g = Graph::new("sp", DType::Bf16);
            let x = g.parameter(&[512, 512]).unwrap();
            let w = g.constant(&[512, n]).unwrap();
            let h = g.dot(x, w).unwrap();
            let w2 = g.constant(&[n, 64]).unwrap();
            let y = g.dot(h, w2).unwrap();
            g.mark_output(y);
            g
        };
        let chip = catalog::tpu_v4i();
        let sim = Simulator::new(chip.clone());
        // 512x4096x2B = 4 MiB exactly at threshold: no spill.
        let small = lower_with(&build(4096), &chip, &CompilerOptions::default());
        // 512x16384x2B = 16 MiB: spills.
        let big = lower_with(&build(16384), &chip, &CompilerOptions::default());
        assert!(!small
            .plan
            .steps()
            .iter()
            .any(|s| s.tag.starts_with("spill")));
        assert!(big.plan.steps().iter().any(|s| s.tag.starts_with("spill")));
        let t_small = sim.run(&small.plan).unwrap().seconds;
        let t_big = sim.run(&big.plan).unwrap().seconds;
        assert!(t_big > t_small);
    }

    #[test]
    fn dead_nodes_emit_no_steps() {
        let mut g = Graph::new("dead", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap();
        let w = g.constant(&[128, 128]).unwrap();
        let y = g.dot(x, w).unwrap();
        // A dead branch: unused parameter and an unused dot.
        let dead_x = g.parameter(&[64, 512]).unwrap();
        let dead_w = g.constant(&[512, 512]).unwrap();
        let _dead = g.dot(dead_x, dead_w).unwrap();
        g.mark_output(y);
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        // Two param DMAs would exist without DCE; only one must remain.
        let params = l.plan.steps().iter().filter(|s| s.tag == "param").count();
        assert_eq!(params, 1);
        // And no MXU work for the dead dot (512-inner tiles absent).
        let mxu_flops: u64 = l
            .plan
            .steps()
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Mxu { .. }))
            .map(|s| s.kind.flops())
            .sum();
        assert_eq!(mxu_flops, 2 * 8 * 128 * 128);
    }

    #[test]
    fn conv_lowered_as_implicit_gemm() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[1, 28, 28, 64]).unwrap();
        let k = g.constant(&[3, 3, 64, 128]).unwrap();
        let c = g.conv2d(x, k, 1).unwrap();
        g.mark_output(c);
        let chip = catalog::tpu_v4i();
        let l = lower_with(&g, &chip, &CompilerOptions::default());
        let mxu_flops: u64 = l
            .plan
            .steps()
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Mxu { .. }))
            .map(|s| s.kind.flops())
            .sum();
        assert_eq!(mxu_flops, 2 * (28 * 28) * (3 * 3 * 64) * 128);
    }
}
