//! A miniature XLA: the ahead-of-time compiler of the TPU reproduction.
//!
//! Lesson 2 of the paper — *compiler compatibility trumps binary
//! compatibility* — only makes sense with a compiler in hand. This crate
//! provides one with the same pass structure as XLA's TPU backend, at
//! model scale:
//!
//! 1. an **HLO graph IR** ([`graph`]) with shape inference over the op
//!    set the production apps need (dot, conv, elementwise, softmax,
//!    layer norm, embedding lookup, pooling), plus a reference
//!    **interpreter** ([`eval`]) that defines each op's semantics;
//! 2. a **verifier** ([`verify`]): typed structural invariants over
//!    graphs, memory plans, and fusion maps — the gate every
//!    hand-assembled or pass-rewritten graph must clear;
//! 3. an **optimizing pass framework** ([`passes`]): constant folding,
//!    algebraic simplification, DCE, and fusion-as-analysis run to a
//!    fixpoint by a [`PassManager`] that sandwiches every rewrite
//!    between the verifier, an exact matrix-flop cross-check, and
//!    (optionally) interpreter-backed differential equivalence;
//! 4. **memory planning** ([`memory`]): weight placement into TPUv4i's
//!    CMEM by a benefit-per-byte knapsack, plus VMEM tile sizing;
//! 5. **lowering** ([`lower`]): tiling onto the systolic MXU, double
//!    buffering, emission of a [`tpu_sim::StepPlan`] for the performance
//!    simulator *and* a schematic [`tpu_isa::Program`] in the target
//!    generation's binary encoding.
//!
//! One knob, the optimization level ([`CompilerOptions::level`]), turns
//! the optimizations on cumulatively: O1 adds fusion, O2 adds double
//! buffering and constant folding, simplification and DCE, O3 adds CMEM
//! placement. That is how experiment E7 regenerates the paper's
//! "compiler gains over time" figure, and [`CompilerOptions::for_chip`]
//! maps each generation to the level contemporary to it — the machinery
//! behind E26's replay of Lesson 2; `CompilerOptions::bit_exact_with`
//! implements the backwards-ML-compatibility mode of E14.
//!
//! # Example
//!
//! ```
//! use tpu_hlo::{compile, CompilerOptions, Graph};
//! use tpu_arch::catalog;
//! use tpu_numerics::DType;
//! use tpu_sim::Simulator;
//!
//! let mut g = Graph::new("mlp", DType::Bf16);
//! let x = g.parameter(&[8, 256]).unwrap();
//! let w = g.constant(&[256, 1024]).unwrap();
//! let h = g.dot(x, w).unwrap();
//! let y = g.relu(h).unwrap();
//! g.mark_output(y);
//!
//! let chip = catalog::tpu_v4i();
//! let exe = compile(&g, &chip, &CompilerOptions::default()).unwrap();
//! let report = Simulator::new(chip).run(exe.plan()).unwrap();
//! assert!(report.seconds > 0.0);
//! ```

pub mod cost;
pub mod eval;
pub mod fusion;
pub mod graph;
pub mod liveness;
pub mod lower;
pub mod memory;
pub mod passes;
pub mod pipeline;
pub mod shape;
pub mod verify;

pub use graph::{Graph, HloOp, Node, OpId};
pub use passes::{Pass, PassError, PassManager, PassReport};
pub use pipeline::{compile, CompileError, CompilerOptions, Executable, OptLevel, PassSummary};
pub use shape::{ShapeError, TensorShape};
pub use verify::{Verifier, VerifyError};
