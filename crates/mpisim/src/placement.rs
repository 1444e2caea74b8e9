//! Rank-to-node placement.
//!
//! §9 of the paper lists "the runtime node allocation affects the
//! implementation of a collective communication pattern" among its
//! accuracy factors: the scheduler rarely hands out physically
//! contiguous nodes, so rank *r* does not sit on node *r*, and the
//! collective's embedding into the topology changes. [`Placement`]
//! models that mapping; the executor routes every message through it.

use desim::SplitMix64;
use topo::NodeId;

/// How ranks map onto physical nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Rank `r` on node `r` — a perfectly contiguous allocation (the
    /// default, and the best case).
    #[default]
    Contiguous,
    /// A deterministic pseudo-random permutation drawn from the seed —
    /// the fragmented allocation a busy scheduler produces.
    Scattered {
        /// Permutation seed.
        seed: u64,
    },
    /// Ranks placed with a fixed stride (`node = (r · stride) mod p`,
    /// valid when `gcd(stride, p) == 1`); models round-robin allocation
    /// across cabinets.
    Strided {
        /// The stride.
        stride: usize,
    },
}

/// Checks an explicit rank→node table onto a (possibly larger)
/// `machine_nodes`-node partition — the mechanism behind subgroup
/// communicators — and returns it.
///
/// # Errors
///
/// Rejects duplicate nodes and nodes outside `0..machine_nodes`.
pub(crate) fn explicit_table(
    nodes: Vec<NodeId>,
    machine_nodes: usize,
) -> Result<Vec<NodeId>, String> {
    let mut seen = vec![false; machine_nodes];
    for &NodeId(n) in &nodes {
        if n >= machine_nodes {
            return Err(format!("node {n} outside 0..{machine_nodes}"));
        }
        if seen[n] {
            return Err(format!("node {n} assigned twice"));
        }
        seen[n] = true;
    }
    Ok(nodes)
}

impl Placement {
    /// Materializes the rank→node table for a `p`-node partition.
    ///
    /// # Errors
    ///
    /// Returns a message when the placement cannot produce a bijection
    /// (strided placement with `gcd(stride, p) != 1`).
    pub fn table(&self, p: usize) -> Result<Vec<NodeId>, String> {
        match *self {
            Placement::Contiguous => Ok((0..p).map(NodeId).collect()),
            Placement::Scattered { seed } => {
                let mut table: Vec<NodeId> = (0..p).map(NodeId).collect();
                let mut rng = SplitMix64::new(seed);
                // Fisher–Yates.
                for i in (1..p).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    table.swap(i, j);
                }
                Ok(table)
            }
            Placement::Strided { stride } => {
                if p == 0 {
                    return Ok(Vec::new());
                }
                if gcd(stride % p.max(1), p) != 1 && p > 1 {
                    return Err(format!(
                        "stride {stride} is not coprime with {p}: not a bijection"
                    ));
                }
                Ok((0..p).map(|r| NodeId((r * stride) % p)).collect())
            }
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_bijection(table: &[NodeId]) -> bool {
        let mut seen = vec![false; table.len()];
        for n in table {
            if n.0 >= table.len() || seen[n.0] {
                return false;
            }
            seen[n.0] = true;
        }
        true
    }

    #[test]
    fn contiguous_is_identity() {
        let t = Placement::Contiguous.table(8).unwrap();
        assert_eq!(t, (0..8).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn scattered_is_bijective_and_seeded() {
        for p in [1usize, 2, 7, 64] {
            let t = Placement::Scattered { seed: 42 }.table(p).unwrap();
            assert!(is_bijection(&t), "p={p}");
        }
        let a = Placement::Scattered { seed: 1 }.table(64).unwrap();
        let b = Placement::Scattered { seed: 1 }.table(64).unwrap();
        let c = Placement::Scattered { seed: 2 }.table(64).unwrap();
        assert_eq!(a, b, "deterministic");
        assert_ne!(a, c, "seed-dependent");
        assert_ne!(a, Placement::Contiguous.table(64).unwrap());
    }

    #[test]
    fn explicit_table_validation() {
        let nodes = vec![NodeId(3), NodeId(1), NodeId(5)];
        assert_eq!(explicit_table(nodes.clone(), 8), Ok(nodes));
        assert!(
            explicit_table(vec![NodeId(1), NodeId(1)], 8).is_err(),
            "dup"
        );
        assert!(explicit_table(vec![NodeId(9)], 8).is_err(), "range");
        assert_eq!(explicit_table(vec![], 4), Ok(vec![]));
    }

    #[test]
    fn strided_requires_coprimality() {
        let t = Placement::Strided { stride: 3 }.table(8).unwrap();
        assert!(is_bijection(&t));
        assert_eq!(t[1], NodeId(3));
        assert!(Placement::Strided { stride: 2 }.table(8).is_err());
        assert!(Placement::Strided { stride: 5 }.table(1).is_ok());
    }
}
