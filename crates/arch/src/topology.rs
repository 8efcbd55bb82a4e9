//! ICI topologies: how chips in a pod are wired.
//!
//! TPUv4i ships two ICI links per chip, enough for the 4-chip board
//! (a 2x2 ring) the paper describes; the training chips wire larger
//! rings and 2-D tori. This module models hop counts and bisection so
//! the scale-out analysis (E15) can reason about pods bigger than a
//! board.

use std::fmt;

/// A pod interconnect topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IciTopology {
    /// One chip, no ICI.
    Single,
    /// A ring of `n >= 2` chips (the 4-chip TPUv4i board is `Ring(4)`).
    Ring(u32),
    /// An `x by y` 2-D torus (TPUv2/v3 pod style), `x, y >= 2`.
    Torus2d {
        /// Chips along the first dimension.
        x: u32,
        /// Chips along the second dimension.
        y: u32,
    },
}

impl IciTopology {
    /// The natural topology for an `n`-chip inference pod: single chip,
    /// a ring up to boards of 8, a near-square torus beyond. A prime `n`
    /// has no torus with both sides `>= 2`, so it stays a ring.
    pub fn recommended(n: u32) -> IciTopology {
        match n {
            0 | 1 => IciTopology::Single,
            2..=8 => IciTopology::Ring(n),
            _ => {
                let mut x = (n as f64).sqrt().floor() as u32;
                while !n.is_multiple_of(x) {
                    x -= 1;
                }
                if x == 1 {
                    IciTopology::Ring(n)
                } else {
                    IciTopology::Torus2d { x, y: n / x }
                }
            }
        }
    }

    /// Number of chips.
    pub fn chips(&self) -> u32 {
        match *self {
            IciTopology::Single => 1,
            IciTopology::Ring(n) => n,
            IciTopology::Torus2d { x, y } => x * y,
        }
    }

    /// ICI links each chip needs in this topology.
    pub fn links_per_chip(&self) -> u32 {
        match *self {
            IciTopology::Single => 0,
            IciTopology::Ring(2) => 1,
            IciTopology::Ring(_) => 2,
            IciTopology::Torus2d { .. } => 4,
        }
    }

    /// Minimal hop count between chips `a` and `b` (indices in row-major
    /// order for the torus).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let n = self.chips();
        assert!(a < n && b < n, "chip index out of range");
        match *self {
            IciTopology::Single => 0,
            IciTopology::Ring(n) => {
                let d = a.abs_diff(b);
                d.min(n - d)
            }
            IciTopology::Torus2d { x, y } => {
                let (ax, ay) = (a % x, a / x);
                let (bx, by) = (b % x, b / x);
                let dx = ax.abs_diff(bx);
                let dy = ay.abs_diff(by);
                dx.min(x - dx) + dy.min(y - dy)
            }
        }
    }

    /// The largest minimal hop count between any pair (network diameter).
    pub fn diameter(&self) -> u32 {
        let n = self.chips();
        let mut d = 0;
        for a in 0..n {
            for b in 0..n {
                d = d.max(self.hops(a, b));
            }
        }
        d
    }

    /// Mean hops over all ordered pairs of distinct chips (0 for Single).
    pub fn mean_hops(&self) -> f64 {
        let n = self.chips();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += self.hops(a, b) as u64;
                }
            }
        }
        total as f64 / (n as u64 * (n as u64 - 1)) as f64
    }

    /// Links crossing the worst-case bisection (the all-reduce
    /// bottleneck for data-parallel serving).
    pub fn bisection_links(&self) -> u32 {
        match *self {
            IciTopology::Single => 0,
            IciTopology::Ring(2) => 1,
            IciTopology::Ring(_) => 2,
            // Cut the longer dimension: 2 wrap links per row crossing it.
            IciTopology::Torus2d { x, y } => 2 * x.min(y),
        }
    }
}

impl fmt::Display for IciTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IciTopology::Single => write!(f, "single"),
            IciTopology::Ring(n) => write!(f, "ring-{n}"),
            IciTopology::Torus2d { x, y } => write!(f, "torus-{x}x{y}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_shapes() {
        assert_eq!(IciTopology::recommended(1), IciTopology::Single);
        assert_eq!(IciTopology::recommended(4), IciTopology::Ring(4));
        assert_eq!(IciTopology::recommended(8), IciTopology::Ring(8));
        assert_eq!(
            IciTopology::recommended(16),
            IciTopology::Torus2d { x: 4, y: 4 }
        );
        assert_eq!(
            IciTopology::recommended(12),
            IciTopology::Torus2d { x: 3, y: 4 }
        );
        assert_eq!(IciTopology::recommended(11), IciTopology::Ring(11));
        for n in 1..64 {
            let topo = IciTopology::recommended(n);
            assert_eq!(topo.chips(), n.max(1));
            match topo {
                IciTopology::Single => assert_eq!(n, 1),
                IciTopology::Ring(r) => assert!(r >= 2, "{topo}"),
                IciTopology::Torus2d { x, y } => assert!(x >= 2 && y >= 2, "{topo}"),
            }
        }
    }

    #[test]
    fn ring_hops_wrap() {
        let r = IciTopology::Ring(6);
        assert_eq!(r.hops(0, 1), 1);
        assert_eq!(r.hops(0, 3), 3);
        assert_eq!(r.hops(0, 5), 1); // around the back
        assert_eq!(r.hops(2, 2), 0);
        assert_eq!(r.diameter(), 3);
        assert!((r.mean_hops() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn torus_hops_wrap_both_dims() {
        let t = IciTopology::Torus2d { x: 4, y: 4 };
        // (0,0) to (3,3): 1 hop each way via wraparound.
        assert_eq!(t.hops(0, 15), 2);
        // (0,0) to (2,2): 2+2 without wrap help.
        assert_eq!(t.hops(0, 10), 4);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn v4i_board_matches_its_link_budget() {
        use crate::catalog;
        // The paper's 4-chip TPUv4i board is a ring; v4i's 2 ICI links
        // are exactly what a ring needs.
        let board = IciTopology::recommended(4);
        assert_eq!(board.links_per_chip(), 2);
        assert_eq!(catalog::tpu_v4i().ici_links, 2);
        // A torus would need 4 links — the training chips' budget.
        assert_eq!(IciTopology::Torus2d { x: 4, y: 4 }.links_per_chip(), 4);
        assert_eq!(catalog::tpu_v4().ici_links, 4);
    }

    #[test]
    fn bisection_grows_with_torus_width() {
        assert_eq!(IciTopology::Ring(8).bisection_links(), 2);
        assert_eq!(IciTopology::Torus2d { x: 4, y: 4 }.bisection_links(), 8);
        assert_eq!(IciTopology::Single.bisection_links(), 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", IciTopology::Ring(4)), "ring-4");
        assert_eq!(
            format!("{}", IciTopology::Torus2d { x: 2, y: 3 }),
            "torus-2x3"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hop_bounds_checked() {
        IciTopology::Ring(4).hops(0, 4);
    }
}
