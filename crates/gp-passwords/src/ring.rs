//! Consistent-hash ring placement for a replicated cluster of stores.
//!
//! Accounts are placed on a ring of node IDs: each node projects a fixed
//! number of *virtual points* onto the 64-bit hash circle, and an account
//! (hashed with the same [`fnv1a64`] the shard router and the WAL use) is
//! owned by the first node point at or clockwise-after its hash.  Virtual
//! points smooth the load distribution and — more importantly for
//! failover — make each key's *successor list* vary per key, so when a
//! node dies its keys scatter across the survivors instead of dog-piling
//! onto one neighbour.
//!
//! The correctness obligations follow Zave's analysis of Chord-style
//! identifier spaces: at all times every key must be owned by **exactly
//! one** live node (coverage + uniqueness), and membership changes must
//! move **only** the key ranges adjacent to the joining/leaving node's
//! points.  Both are checked by unit tests here and by the proptest suite
//! in `tests/proptest_ring.rs`.  The property the failover design leans
//! on is a corollary: for any key, removing its owner promotes exactly
//! the key's *second* successor — which is where the replication layer
//! placed the backup copy.

use crate::wal::fnv1a64;
use std::collections::{BTreeMap, BTreeSet};

/// Finalizer (splitmix64's) applied over [`fnv1a64`] for ring positions.
///
/// FNV-1a diffuses its *low* bits well but leaves the high bits — which
/// decide ordering around the circle — highly correlated for short,
/// similar inputs; raw FNV points let a single one-letter node capture
/// half the circle.  The multiply-xorshift finalizer spreads the entropy
/// across all 64 bits, restoring the near-uniform arc lengths the
/// vnode-count math assumes.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default number of virtual points each node projects onto the ring.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring mapping string keys to string node IDs.
///
/// Deterministic: the placement is a pure function of the member set (and
/// the vnode count), so every participant that knows the membership
/// computes identical owners with no coordination — clients route, nodes
/// pick backups, and the fault harness predicts promotions, all from
/// independent `HashRing` values.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// Hash point → owning node, ordered around the circle.
    points: BTreeMap<u64, String>,
    nodes: BTreeSet<String>,
}

impl HashRing {
    /// An empty ring where each joining node projects `vnodes` points
    /// (clamped to ≥ 1).
    pub fn new(vnodes: usize) -> Self {
        Self {
            vnodes: vnodes.max(1),
            points: BTreeMap::new(),
            nodes: BTreeSet::new(),
        }
    }

    /// A ring with [`DEFAULT_VNODES`] points per node, populated from
    /// `nodes`.
    pub fn with_nodes<I, S>(nodes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ring = Self::new(DEFAULT_VNODES);
        for node in nodes {
            ring.join(node.as_ref());
        }
        ring
    }

    /// The hash point of `node`'s `index`-th virtual point.
    fn point(node: &str, index: usize) -> u64 {
        let mut bytes = Vec::with_capacity(node.len() + 9);
        bytes.extend_from_slice(node.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(index as u64).to_be_bytes());
        mix64(fnv1a64(&bytes))
    }

    /// Where `key` lands on the circle.
    fn key_point(key: &str) -> u64 {
        mix64(fnv1a64(key.as_bytes()))
    }

    /// Add `node` to the ring; returns whether it was new.  Joining an
    /// existing member is a no-op.
    pub fn join(&mut self, node: &str) -> bool {
        if !self.nodes.insert(node.to_string()) {
            return false;
        }
        for index in 0..self.vnodes {
            // A 64-bit point collision between two nodes is ~impossible;
            // if it happens, first-comer keeps the point (deterministic,
            // and `leave` removes only points it owns).
            self.points
                .entry(Self::point(node, index))
                .or_insert_with(|| node.to_string());
        }
        true
    }

    /// Remove `node` from the ring; returns whether it was a member.
    /// Only `node`'s own points disappear — every other node's points
    /// (and therefore every key range not adjacent to `node`) are
    /// untouched.
    pub fn leave(&mut self, node: &str) -> bool {
        if !self.nodes.remove(node) {
            return false;
        }
        self.points.retain(|_, owner| owner != node);
        true
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: &str) -> bool {
        self.nodes.contains(node)
    }

    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Member node IDs, sorted.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(String::as_str)
    }

    /// The node owning `key`: the first node point at or clockwise-after
    /// the key's hash.  `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.clockwise(key).next()
    }

    /// The owners of every node point, clockwise from `key`'s hash and
    /// wrapping once.
    fn clockwise(&self, key: &str) -> impl Iterator<Item = &str> {
        let hash = Self::key_point(key);
        self.points
            .range(hash..)
            .chain(self.points.range(..hash))
            .map(|(_, node)| node.as_str())
    }

    /// The first `n` *distinct* nodes clockwise from `key`'s hash.
    /// Element 0 is the owner, element 1 the natural backup, and so on;
    /// fewer than `n` are returned if the ring has fewer members.
    pub fn successors(&self, key: &str, n: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::with_capacity(n.min(self.nodes.len()));
        if n == 0 {
            return out;
        }
        for node in self.clockwise(key) {
            if !out.contains(&node) {
                out.push(node);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// The node holding `key`'s replica: its second distinct successor.
    /// `None` when the ring has fewer than two members (nothing to
    /// replicate to).
    pub fn backup(&self, key: &str) -> Option<&str> {
        self.replica_pair(key)?.1
    }

    /// `key`'s replica pair: `(owner, backup)`.  The backup is `None` on
    /// a single-node ring, the whole pair is `None` on an empty one.
    /// This is the unit the anti-entropy digest exchange ranges over: a
    /// *range* is the set of keys sharing one `(owner, backup)` pair.
    /// Walks the ring in place, with no allocation: a range digest asks
    /// this of every key it scans.
    pub fn replica_pair(&self, key: &str) -> Option<(&str, Option<&str>)> {
        let mut walk = self.clockwise(key);
        let owner = walk.next()?;
        Some((owner, walk.find(|&node| node != owner)))
    }

    /// Whether `node` holds a copy of `key` under this membership — i.e.
    /// it is the key's owner or its backup.  This is the predicate a
    /// (re)joining node's catch-up transfer filters by: every peer
    /// streams exactly the records the joiner now backs.
    pub fn holds(&self, key: &str, node: &str) -> bool {
        self.replica_pair(key)
            .is_some_and(|(owner, backup)| owner == node || backup == Some(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<String> {
        (0..256).map(|i| format!("user{i}")).collect()
    }

    #[test]
    fn every_key_has_exactly_one_owner() {
        let ring = HashRing::with_nodes(["node-0", "node-1", "node-2"]);
        for key in keys() {
            let owner = ring.owner(&key).expect("non-empty ring owns every key");
            assert!(ring.contains(owner));
            // Determinism: an independently constructed ring agrees.
            let again = HashRing::with_nodes(["node-2", "node-0", "node-1"]);
            assert_eq!(again.owner(&key), Some(owner), "{key}");
        }
    }

    #[test]
    fn empty_ring_owns_nothing_and_single_node_owns_everything() {
        let mut ring = HashRing::new(8);
        assert!(ring.owner("alice").is_none());
        assert!(ring.successors("alice", 3).is_empty());
        ring.join("only");
        for key in keys() {
            assert_eq!(ring.owner(&key), Some("only"));
            assert_eq!(ring.successors(&key, 3), vec!["only"]);
            assert!(ring.backup(&key).is_none(), "no second member");
        }
    }

    #[test]
    fn successors_are_distinct_and_start_with_the_owner() {
        let ring = HashRing::with_nodes(["a", "b", "c", "d"]);
        for key in keys() {
            let succ = ring.successors(&key, 4);
            assert_eq!(succ.len(), 4);
            assert_eq!(succ[0], ring.owner(&key).unwrap());
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "distinct nodes for {key}");
        }
    }

    #[test]
    fn leave_promotes_each_keys_old_backup() {
        let mut ring = HashRing::with_nodes(["a", "b", "c", "d"]);
        let expectations: Vec<(String, String, String)> = keys()
            .into_iter()
            .map(|key| {
                let succ = ring.successors(&key, 2);
                (key, succ[0].to_string(), succ[1].to_string())
            })
            .collect();
        ring.leave("b");
        for (key, old_owner, old_backup) in expectations {
            if old_owner == "b" {
                assert_eq!(
                    ring.owner(&key),
                    Some(old_backup.as_str()),
                    "{key}: the replica holder must promote"
                );
            } else {
                assert_eq!(
                    ring.owner(&key),
                    Some(old_owner.as_str()),
                    "{key}: untouched"
                );
            }
        }
    }

    #[test]
    fn join_steals_keys_only_for_itself() {
        let mut ring = HashRing::with_nodes(["a", "b", "c"]);
        let before: Vec<(String, String)> = keys()
            .into_iter()
            .map(|key| {
                let owner = ring.owner(&key).unwrap().to_string();
                (key, owner)
            })
            .collect();
        assert!(ring.join("d"));
        assert!(!ring.join("d"), "re-join is a no-op");
        for (key, old_owner) in before {
            let new_owner = ring.owner(&key).unwrap();
            assert!(
                new_owner == old_owner || new_owner == "d",
                "{key}: moved to {new_owner}, not the joiner"
            );
        }
    }

    #[test]
    fn replica_pair_and_holds_agree_with_successors() {
        let ring = HashRing::with_nodes(["a", "b", "c", "d"]);
        for key in keys() {
            let succ = ring.successors(&key, 2);
            let (owner, backup) = ring.replica_pair(&key).unwrap();
            assert_eq!(owner, succ[0]);
            assert_eq!(backup, Some(succ[1]));
            for node in ["a", "b", "c", "d"] {
                assert_eq!(
                    ring.holds(&key, node),
                    succ.contains(&node),
                    "{key} on {node}"
                );
            }
        }
        assert!(HashRing::new(8).replica_pair("alice").is_none());
        let mut solo = HashRing::new(8);
        solo.join("only");
        assert_eq!(solo.replica_pair("alice"), Some(("only", None)));
        assert!(solo.holds("alice", "only"));
        assert!(!solo.holds("alice", "other"));
    }

    #[test]
    fn vnodes_spread_load_roughly_evenly() {
        let ring = HashRing::with_nodes(["a", "b", "c", "d"]);
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..4096 {
            let key = format!("account-{i}");
            *counts
                .entry(ring.owner(&key).unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        for (node, count) in &counts {
            // 4 nodes × 64 vnodes: each should land within a loose band
            // around the 1024 mean.
            assert!(
                (400..=1800).contains(count),
                "{node} owns {count} of 4096 — distribution collapsed"
            );
        }
    }
}
