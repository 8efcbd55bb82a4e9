//! Memory planning: CMEM weight placement and VMEM tile sizing.
//!
//! TPUv4i's 128 MiB CMEM exists because (Lesson 1) SRAM got cheap enough
//! at 7 nm while HBM bandwidth energy did not improve. The planner
//! decides which weight tensors live in CMEM; the steady-state serving
//! loop then reads them at CMEM bandwidth/energy instead of HBM's.
//! Experiment E6 sweeps the CMEM capacity through this planner.

use std::collections::HashSet;

use tpu_arch::{ChipConfig, MemLevel};

use crate::graph::{Graph, HloOp, OpId};

/// Where each weight tensor resides, plus VMEM tiling parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// The CMEM-resident weights, in id order without repeats.
    cmem_resident: Vec<OpId>,
    /// Bytes of CMEM used by resident weights.
    pub cmem_used: u64,
    /// Bytes of weights left in HBM.
    pub hbm_weight_bytes: u64,
    /// Chosen output-column tile width for matmuls (multiple of MXU dim).
    pub col_tile: u64,
    /// Whether any weight did not fit in CMEM.
    pub overflowed_cmem: bool,
}

impl MemoryPlan {
    /// The memory level serving a weight tensor in the steady state.
    pub fn weight_home(&self, id: OpId) -> MemLevel {
        if self.cmem_resident.binary_search(&id).is_ok() {
            MemLevel::Cmem
        } else {
            MemLevel::Hbm
        }
    }

    /// Number of CMEM-resident weight tensors.
    pub fn resident_count(&self) -> usize {
        self.cmem_resident.len()
    }

    /// The CMEM-resident weight ids, in id order.
    pub fn residents(&self) -> &[OpId] {
        &self.cmem_resident
    }

    /// Assembles a plan directly from its fields, with no checking.
    ///
    /// Exists so verifier mutation tests can fabricate inconsistent
    /// plans; anything built this way must pass
    /// [`Verifier::verify_memory`](crate::verify::Verifier::verify_memory).
    pub fn from_parts(
        cmem_resident: HashSet<OpId>,
        cmem_used: u64,
        hbm_weight_bytes: u64,
        col_tile: u64,
        overflowed_cmem: bool,
    ) -> MemoryPlan {
        let mut cmem_resident: Vec<OpId> = cmem_resident.into_iter().collect();
        cmem_resident.sort_unstable();
        MemoryPlan {
            cmem_resident,
            cmem_used,
            hbm_weight_bytes,
            col_tile,
            overflowed_cmem,
        }
    }

    /// Fraction of weight bytes served from CMEM.
    pub fn cmem_fraction(&self) -> f64 {
        let total = self.cmem_used + self.hbm_weight_bytes;
        if total == 0 {
            0.0
        } else {
            self.cmem_used as f64 / total as f64
        }
    }
}

/// Plans memory for a graph on a chip.
///
/// Weight placement is a greedy knapsack: every weight byte read once per
/// inference saves the same HBM traffic, so the planner simply packs
/// weights (largest first, to cover the bulk of traffic with the fewest
/// allocator entries) until CMEM (or the budget override) is exhausted.
///
/// `cmem_budget_override` lets the E6 ablation sweep capacities without
/// fabricating chip configs. It resizes the chip's CMEM; a chip without
/// one gets a budget of 0 whatever the override says.
pub fn plan(graph: &Graph, chip: &ChipConfig, cmem_budget_override: Option<u64>) -> MemoryPlan {
    let budget = cmem_budget(chip, cmem_budget_override);

    // Collect weights, largest first.
    let mut weights: Vec<(OpId, u64)> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, HloOp::Constant))
        .map(|n| (n.id, n.shape.bytes(graph.dtype())))
        .collect();
    weights.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut cmem_resident = Vec::new();
    let mut cmem_used = 0u64;
    let mut hbm_weight_bytes = 0u64;
    let mut overflowed_cmem = false;
    for (id, bytes) in weights {
        if cmem_used + bytes <= budget {
            cmem_used += bytes;
            cmem_resident.push(id);
        } else {
            hbm_weight_bytes += bytes;
            overflowed_cmem = true;
        }
    }

    cmem_resident.sort_unstable();
    let col_tile = choose_col_tile(chip);

    MemoryPlan {
        cmem_resident,
        cmem_used,
        hbm_weight_bytes,
        col_tile,
        overflowed_cmem,
    }
}

/// The CMEM bytes weights may occupy on `chip`: its CMEM capacity, or
/// the override in its place. An override resizes an existing CMEM only,
/// so a chip without CMEM gets 0 whatever the override says. `compile`
/// plans and verifies with this one budget.
pub(crate) fn cmem_budget(chip: &ChipConfig, cmem_budget_override: Option<u64>) -> u64 {
    chip.cmem
        .map_or(0, |c| cmem_budget_override.unwrap_or(c.capacity_bytes))
}

/// Chooses the output-column tile width: the widest multiple of the MXU
/// dimension whose double-buffered working set (weights tile + activation
/// tile + output tile, twice) fits in half of VMEM.
fn choose_col_tile(chip: &ChipConfig) -> u64 {
    let d = chip.mxu_dim as u64;
    let vmem = chip.vmem.capacity_bytes;
    // Working set per column tile of width c (bf16 worst case, 2 B),
    // with a deep-ish contraction of 8d rows of weights:
    //   weights: 8d * c * 2; activations: rows(~512) * 8d * 2; out: 512*c*2
    // Solve roughly for c, clamp to [d, 8d].
    let mut c = 8 * d;
    while c > d {
        let ws = 8 * d * c * 2 * 2 + 512 * 8 * d * 2 + 512 * c * 2 * 2;
        if ws <= vmem / 2 {
            break;
        }
        c -= d;
    }
    c.max(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;
    use tpu_numerics::DType;

    fn graph_with_weights(sizes: &[u64]) -> Graph {
        // Build a chain of dots so every constant is used.
        let mut g = Graph::new("t", DType::Int8);
        let mut x = g.parameter(&[1, sizes[0]]).unwrap();
        let mut prev = sizes[0];
        for &s in sizes {
            let w = g.constant(&[prev, s]).unwrap();
            x = g.dot(x, w).unwrap();
            prev = s;
        }
        g.mark_output(x);
        g
    }

    #[test]
    fn everything_fits_in_large_cmem() {
        let g = graph_with_weights(&[1024, 1024, 512]);
        let p = plan(&g, &catalog::tpu_v4i(), None);
        assert_eq!(p.hbm_weight_bytes, 0);
        assert!(!p.overflowed_cmem);
        assert!((p.cmem_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(p.resident_count(), 3);
        assert_eq!(p.cmem_used, g.weight_bytes());
    }

    #[test]
    fn no_cmem_means_everything_in_hbm() {
        let g = graph_with_weights(&[1024, 1024]);
        let p = plan(&g, &catalog::tpu_v3(), None);
        assert_eq!(p.cmem_used, 0);
        assert_eq!(p.hbm_weight_bytes, g.weight_bytes());
        assert_eq!(p.cmem_fraction(), 0.0);
        for n in g.nodes() {
            if matches!(n.op, HloOp::Constant) {
                assert_eq!(p.weight_home(n.id), MemLevel::Hbm);
            }
        }
    }

    #[test]
    fn budget_override_partially_places() {
        let g = graph_with_weights(&[1000, 1000, 1000]);
        // Weights: 1000*1000 x2 + 1000*1000 = 3 MB at int8.
        let p = plan(&g, &catalog::tpu_v4i(), Some(2_100_000));
        assert_eq!(p.resident_count(), 2);
        assert!(p.overflowed_cmem);
        assert!(p.cmem_used <= 2_100_000);
        assert!(p.hbm_weight_bytes > 0);
        let frac = p.cmem_fraction();
        assert!(frac > 0.5 && frac < 0.8, "{frac}");
    }

    #[test]
    fn zero_budget_places_nothing() {
        let g = graph_with_weights(&[256]);
        let p = plan(&g, &catalog::tpu_v4i(), Some(0));
        assert_eq!(p.resident_count(), 0);
        assert!(p.overflowed_cmem);
    }

    #[test]
    fn largest_weights_placed_first() {
        let mut g = Graph::new("t", DType::Int8);
        let x = g.parameter(&[1, 100]).unwrap();
        let big = g.constant(&[100, 5000]).unwrap(); // 500 KB
        let small = g.constant(&[100, 100]).unwrap(); // 10 KB
        let h = g.dot(x, big).unwrap();
        let h2 = g.reshape(h, &[1, 5000]).unwrap();
        let _ = (h2, small);
        // Budget fits only the big one.
        let p = plan(&g, &catalog::tpu_v4i(), Some(500_000));
        assert_eq!(p.weight_home(big), MemLevel::Cmem);
        assert_eq!(p.weight_home(small), MemLevel::Hbm);
    }

    #[test]
    fn col_tile_is_mxu_multiple_and_fits() {
        for chip in catalog::all_chips() {
            let g = graph_with_weights(&[128]);
            let p = plan(&g, &chip, None);
            assert_eq!(p.col_tile % chip.mxu_dim as u64, 0);
            assert!(p.col_tile >= chip.mxu_dim as u64);
            assert!(p.col_tile <= 8 * chip.mxu_dim as u64);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let g = graph_with_weights(&[512, 512, 512]);
        let chip = catalog::tpu_v4i();
        assert_eq!(
            plan(&g, &chip, Some(400_000)),
            plan(&g, &chip, Some(400_000))
        );
    }
}
