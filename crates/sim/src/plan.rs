//! Step plans: the tile-level schedules the compiler hands the simulator.

use std::fmt;

use tpu_arch::MemLevel;
use tpu_numerics::DType;

/// Identifier of a step within one plan.
///
/// The raw index is public so callers can reference earlier steps when
/// assembling plans by hand; [`StepPlan::push`] still rejects forward
/// references, so invalid ids cannot enter a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepId(pub u32);

impl StepId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What one step does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepKind {
    /// Asynchronous copy from `from` into VMEM.
    DmaIn {
        /// Source memory level.
        from: MemLevel,
        /// Bytes transferred.
        bytes: u64,
    },
    /// Asynchronous copy from VMEM out to `to`.
    DmaOut {
        /// Destination memory level.
        to: MemLevel,
        /// Bytes transferred.
        bytes: u64,
    },
    /// A matrix-multiply tile group on one MXU: `rows x inner @ inner x
    /// cols`, tiled over the systolic array.
    Mxu {
        /// Activation rows streamed.
        rows: u64,
        /// Output columns.
        cols: u64,
        /// Contraction dimension.
        inner: u64,
        /// Multiply precision (int8 runs at 2x on chips that support it).
        dtype: DType,
        /// Whether weights are already loaded into the array (true in the
        /// steady state of a weight-stationary schedule).
        weights_resident: bool,
    },
    /// Elementwise / reduction work on a VPU.
    Vpu {
        /// Elements processed.
        elements: u64,
        /// Vector-ops per element (1 for add/relu, ~6-10 for
        /// transcendentals; see `tpu_numerics::activation`).
        ops_per_element: u64,
    },
    /// Inter-chip transfer over one ICI link.
    Ici {
        /// Bytes transferred.
        bytes: u64,
    },
}

impl StepKind {
    /// Floating-point (or int-op) work this step performs.
    pub fn flops(&self) -> u64 {
        match *self {
            StepKind::Mxu {
                rows, cols, inner, ..
            } => 2 * rows * cols * inner,
            StepKind::Vpu {
                elements,
                ops_per_element,
            } => elements * ops_per_element,
            _ => 0,
        }
    }

    /// Bytes this step moves on the named off-VMEM channel, if any.
    pub fn channel_bytes(&self) -> Option<(MemLevel, u64)> {
        match *self {
            StepKind::DmaIn { from, bytes } => Some((from, bytes)),
            StepKind::DmaOut { to, bytes } => Some((to, bytes)),
            _ => None,
        }
    }
}

/// One node of the plan DAG. Its dependencies live in the plan's flat
/// dependency array: read them with [`StepPlan::deps`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// This step's id.
    pub id: StepId,
    /// What it does.
    pub kind: StepKind,
    /// Optional human-readable tag (the HLO op it came from).
    pub tag: &'static str,
}

/// A dependency-ordered plan of steps.
///
/// Construction enforces acyclicity structurally: a step may only depend
/// on already-pushed steps, so ids form a topological order. Every
/// step's dependencies sit back to back in one array, so pushing a step
/// allocates nothing beyond amortized growth.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepPlan {
    name: String,
    steps: Vec<Step>,
    /// All dependency lists, concatenated in step order.
    deps: Vec<StepId>,
    /// `dep_ends[i]` is where step `i`'s list ends in `deps`; it starts
    /// where step `i - 1`'s ends.
    dep_ends: Vec<u32>,
}

impl StepPlan {
    /// Creates an empty plan.
    pub fn new(name: &str) -> StepPlan {
        StepPlan {
            name: name.to_owned(),
            ..StepPlan::default()
        }
    }

    /// Creates an empty plan with room for `steps` steps and `deps`
    /// dependency edges, so a builder that knows its plan's size does
    /// not regrow it step by step.
    pub fn with_capacity(name: &str, steps: usize, deps: usize) -> StepPlan {
        StepPlan {
            name: name.to_owned(),
            steps: Vec::with_capacity(steps),
            deps: Vec::with_capacity(deps),
            dep_ends: Vec::with_capacity(steps),
        }
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a step depending on `deps`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency id has not been pushed yet (which would
    /// create a cycle or a dangling edge).
    pub fn push(&mut self, kind: StepKind, deps: &[StepId]) -> StepId {
        self.push_tagged(kind, deps, "")
    }

    /// Like [`StepPlan::push`] with a human-readable tag.
    ///
    /// # Panics
    ///
    /// Panics if any dependency id has not been pushed yet.
    pub fn push_tagged(&mut self, kind: StepKind, deps: &[StepId], tag: &'static str) -> StepId {
        let id = StepId(self.steps.len() as u32);
        for &d in deps {
            assert!(d.0 < id.0, "dependency {d} of step {id} does not exist yet");
            self.deps.push(d);
        }
        self.push_step(id, kind, tag);
        id
    }

    /// Records a step whose dependencies were just appended to `deps`.
    fn push_step(&mut self, id: StepId, kind: StepKind, tag: &'static str) {
        self.dep_ends.push(self.deps.len() as u32);
        self.steps.push(Step { id, kind, tag });
    }

    /// The steps in id (topological) order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The steps `id` depends on (all earlier ids), in push order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a step of this plan.
    pub fn deps(&self, id: StepId) -> &[StepId] {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.dep_ends[i - 1] };
        &self.deps[start as usize..self.dep_ends[i] as usize]
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total MXU+VPU work in the plan.
    pub fn total_flops(&self) -> u64 {
        self.steps.iter().map(|s| s.kind.flops()).sum()
    }

    /// Total bytes moved per memory channel `(hbm, cmem)`.
    pub fn channel_traffic(&self) -> (u64, u64) {
        let mut hbm = 0;
        let mut cmem = 0;
        for s in &self.steps {
            if let Some((level, bytes)) = s.kind.channel_bytes() {
                match level {
                    MemLevel::Hbm => hbm += bytes,
                    MemLevel::Cmem => cmem += bytes,
                    _ => {}
                }
            }
        }
        (hbm, cmem)
    }

    /// Appends every step of `other`, shifting its ids after ours and
    /// making its roots depend on `barrier` (if given). Returns the id
    /// mapping offset.
    pub fn append(&mut self, other: &StepPlan, barrier: Option<StepId>) -> u32 {
        let offset = self.steps.len() as u32;
        for s in &other.steps {
            let deps = other.deps(s.id);
            self.deps.extend(deps.iter().map(|d| StepId(d.0 + offset)));
            if let (Some(b), true) = (barrier, deps.is_empty()) {
                self.deps.push(b);
            }
            // Direct push keeps invariant: all new deps < new id.
            self.push_step(StepId(s.id.0 + offset), s.kind, s.tag);
        }
        offset
    }

    /// The operational intensity of the plan against HBM, FLOP/byte
    /// (infinite if the plan never touches HBM).
    pub fn hbm_intensity(&self) -> f64 {
        let (hbm, _) = self.channel_traffic();
        if hbm == 0 {
            f64::INFINITY
        } else {
            self.total_flops() as f64 / hbm as f64
        }
    }
}

impl fmt::Display for StepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan `{}`: {} steps, {:.2e} flops",
            self.name,
            self.len(),
            self.total_flops() as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_returns_sequential_ids() {
        let mut p = StepPlan::new("t");
        let a = p.push(StepKind::Ici { bytes: 1 }, &[]);
        let b = p.push(StepKind::Ici { bytes: 2 }, &[a]);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(p.deps(b), &[a]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut p = StepPlan::new("t");
        p.push(StepKind::Ici { bytes: 1 }, &[StepId(5)]);
    }

    #[test]
    fn flops_accounting() {
        let k = StepKind::Mxu {
            rows: 4,
            cols: 8,
            inner: 16,
            dtype: DType::Bf16,
            weights_resident: true,
        };
        assert_eq!(k.flops(), 2 * 4 * 8 * 16);
        assert_eq!(
            StepKind::Vpu {
                elements: 100,
                ops_per_element: 3
            }
            .flops(),
            300
        );
        assert_eq!(StepKind::Ici { bytes: 9 }.flops(), 0);
    }

    #[test]
    fn channel_traffic_splits_levels() {
        let mut p = StepPlan::new("t");
        p.push(
            StepKind::DmaIn {
                from: MemLevel::Hbm,
                bytes: 100,
            },
            &[],
        );
        p.push(
            StepKind::DmaIn {
                from: MemLevel::Cmem,
                bytes: 40,
            },
            &[],
        );
        p.push(
            StepKind::DmaOut {
                to: MemLevel::Hbm,
                bytes: 10,
            },
            &[],
        );
        assert_eq!(p.channel_traffic(), (110, 40));
    }

    #[test]
    fn intensity_is_flops_over_hbm_bytes() {
        let mut p = StepPlan::new("t");
        p.push(
            StepKind::DmaIn {
                from: MemLevel::Hbm,
                bytes: 1000,
            },
            &[],
        );
        p.push(
            StepKind::Mxu {
                rows: 10,
                cols: 10,
                inner: 10,
                dtype: DType::Bf16,
                weights_resident: true,
            },
            &[],
        );
        assert!((p.hbm_intensity() - 2.0).abs() < 1e-12);
        let empty = StepPlan::new("e");
        assert!(empty.hbm_intensity().is_infinite());
    }

    #[test]
    fn append_rebases_ids_and_adds_barrier() {
        let mut a = StepPlan::new("a");
        let a0 = a.push(StepKind::Ici { bytes: 1 }, &[]);
        let mut b = StepPlan::new("b");
        let b0 = b.push(StepKind::Ici { bytes: 2 }, &[]);
        b.push(StepKind::Ici { bytes: 3 }, &[b0]);
        let offset = a.append(&b, Some(a0));
        assert_eq!(offset, 1);
        assert_eq!(a.len(), 3);
        // b's root now depends on the barrier...
        assert_eq!(a.deps(StepId(1)), &[a0]);
        // ...and b's internal edge is rebased.
        assert_eq!(a.deps(StepId(2)), &[StepId(1)]);
    }

    #[test]
    fn deps_read_each_steps_own_list() {
        let mut p = StepPlan::new("t");
        let a = p.push(StepKind::Ici { bytes: 1 }, &[]);
        let b = p.push_tagged(StepKind::Ici { bytes: 2 }, &[a], "b");
        let c = p.push(StepKind::Ici { bytes: 3 }, &[]);
        let d = p.push_tagged(StepKind::Ici { bytes: 4 }, &[c, a, b], "d");
        assert_eq!(p.deps(a), &[]);
        assert_eq!(p.deps(b), &[a]);
        assert_eq!(p.deps(c), &[]);
        assert_eq!(p.deps(d), &[c, a, b]);
        assert_eq!(p.steps()[3].tag, "d");
        assert_eq!(p.steps()[2].tag, "");
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn self_dependency_panics() {
        let mut p = StepPlan::new("t");
        p.push(StepKind::Ici { bytes: 1 }, &[]);
        p.push(StepKind::Ici { bytes: 2 }, &[StepId(0), StepId(1)]);
    }

    #[test]
    fn append_keeps_offsets_barrier_and_tags() {
        let mut a = StepPlan::new("a");
        let a0 = a.push(StepKind::Ici { bytes: 1 }, &[]);
        let a1 = a.push(StepKind::Ici { bytes: 2 }, &[a0]);
        let mut b = StepPlan::new("b");
        let b0 = b.push_tagged(StepKind::Ici { bytes: 3 }, &[], "root");
        let b1 = b.push(StepKind::Ici { bytes: 4 }, &[]);
        b.push_tagged(StepKind::Ici { bytes: 5 }, &[b1, b0], "join");

        let mut with = a.clone();
        assert_eq!(with.append(&b, Some(a1)), 2);
        assert_eq!(with.len(), 5);
        // Our own steps are untouched.
        assert_eq!(with.deps(a0), &[]);
        assert_eq!(with.deps(a1), &[a0]);
        // Every root of `b` waits on the barrier; inner edges shift by 2
        // and keep their order.
        assert_eq!(with.deps(StepId(2)), &[a1]);
        assert_eq!(with.deps(StepId(3)), &[a1]);
        assert_eq!(with.deps(StepId(4)), &[StepId(3), StepId(2)]);
        let ids: Vec<u32> = with.steps().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(with.steps()[2].tag, "root");
        assert_eq!(with.steps()[4].tag, "join");
        assert_eq!(with.steps()[4].kind, StepKind::Ici { bytes: 5 });

        // Without a barrier the roots stay roots.
        let mut without = a.clone();
        assert_eq!(without.append(&b, None), 2);
        assert_eq!(without.deps(StepId(2)), &[]);
        assert_eq!(without.deps(StepId(3)), &[]);
        assert_eq!(without.deps(StepId(4)), &[StepId(3), StepId(2)]);

        // Appending keeps the plan extendable: new steps may depend on
        // appended ones.
        let e = with.push(StepKind::Ici { bytes: 6 }, &[StepId(4)]);
        assert_eq!(with.deps(e), &[StepId(4)]);
        assert_eq!(with.deps(StepId(4)), &[StepId(3), StepId(2)]);
    }

    #[test]
    fn display_mentions_name() {
        assert!(format!("{}", StepPlan::new("myplan")).contains("myplan"));
    }
}
