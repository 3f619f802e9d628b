//! Cluster topology: racks and datanodes.
//!
//! The paper's analysis cluster is 60 commodity nodes with a 110 TB
//! Hadoop filesystem (slides 7/11). Rack awareness matters for both block
//! placement (fault domains) and read locality (experiments E4/E12).

/// Identifies a datanode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DfsNodeId(pub u32);

/// Identifies a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u16);

/// Static cluster shape: which node lives in which rack.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    racks: u16,
    nodes_per_rack: u16,
}

impl ClusterTopology {
    /// Creates a uniform topology of `racks × nodes_per_rack` nodes.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(racks: u16, nodes_per_rack: u16) -> Self {
        assert!(racks > 0 && nodes_per_rack > 0, "cluster cannot be empty");
        ClusterTopology {
            racks,
            nodes_per_rack,
        }
    }

    /// The paper's 60-node cluster: 4 racks × 15 nodes.
    pub fn lsdf() -> Self {
        ClusterTopology::new(4, 15)
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        usize::from(self.racks) * usize::from(self.nodes_per_rack)
    }

    /// Number of racks.
    pub fn rack_count(&self) -> u16 {
        self.racks
    }

    /// The rack a node belongs to.
    pub fn rack_of(&self, node: DfsNodeId) -> RackId {
        assert!(
            (node.0 as usize) < self.node_count(),
            "node {node:?} outside topology"
        );
        RackId((node.0 / u32::from(self.nodes_per_rack)) as u16)
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = DfsNodeId> {
        (0..self.node_count() as u32).map(DfsNodeId)
    }

    /// All node ids in one rack.
    pub fn nodes_in_rack(&self, rack: RackId) -> impl Iterator<Item = DfsNodeId> {
        let start = u32::from(rack.0) * u32::from(self.nodes_per_rack);
        (start..start + u32::from(self.nodes_per_rack)).map(DfsNodeId)
    }

    /// True when two nodes share a rack.
    pub fn same_rack(&self, a: DfsNodeId, b: DfsNodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// How far a read from `reader` travels to a replica on `node`; a
    /// reader outside the cluster (`None`) is remote from every node.
    pub(crate) fn locality(&self, reader: Option<DfsNodeId>, node: DfsNodeId) -> Locality {
        match reader {
            Some(r) if r == node => Locality::NodeLocal,
            Some(r) if self.same_rack(r, node) => Locality::RackLocal,
            _ => Locality::Remote,
        }
    }
}

/// How "far" a read travels — the locality metric reported by the client.
/// Variants are declared nearest first, so the derived order ranks
/// replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Locality {
    /// Replica on the reading node itself.
    NodeLocal,
    /// Replica in the reading node's rack.
    RackLocal,
    /// Replica in another rack (or reader outside the cluster).
    Remote,
}

/// Most replicas one block read tries. The namenode places
/// `replication` replicas (3 by default) and repairs back to that, so
/// in practice this is every live one; past it the farthest drop out.
const MAX_TRIED: usize = 8;

/// Replicas in the order a read tries them: by `(Locality, node id)`,
/// nearest first, held on the stack. Collected from `(Locality, node)`
/// pairs in any order.
pub(crate) struct TryOrder {
    len: usize,
    slots: [(Locality, DfsNodeId); MAX_TRIED],
}

impl TryOrder {
    pub(crate) fn as_slice(&self) -> &[(Locality, DfsNodeId)] {
        &self.slots[..self.len]
    }

    /// Insertion sort step: `entry` goes to its place, and the farthest
    /// drops out once all slots are full.
    fn insert(&mut self, entry: (Locality, DfsNodeId)) {
        if self.len == MAX_TRIED && entry >= self.slots[MAX_TRIED - 1] {
            return;
        }
        self.len = (self.len + 1).min(MAX_TRIED);
        let mut at = self.len - 1;
        while at > 0 && self.slots[at - 1] > entry {
            self.slots[at] = self.slots[at - 1];
            at -= 1;
        }
        self.slots[at] = entry;
    }
}

impl FromIterator<(Locality, DfsNodeId)> for TryOrder {
    fn from_iter<I: IntoIterator<Item = (Locality, DfsNodeId)>>(replicas: I) -> Self {
        let mut order = TryOrder { len: 0, slots: [(Locality::Remote, DfsNodeId(0)); MAX_TRIED] };
        replicas.into_iter().for_each(|entry| order.insert(entry));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsdf_cluster_has_60_nodes() {
        let t = ClusterTopology::lsdf();
        assert_eq!(t.node_count(), 60);
        assert_eq!(t.rack_count(), 4);
    }

    #[test]
    fn rack_assignment_is_contiguous() {
        let t = ClusterTopology::new(3, 4);
        assert_eq!(t.rack_of(DfsNodeId(0)), RackId(0));
        assert_eq!(t.rack_of(DfsNodeId(3)), RackId(0));
        assert_eq!(t.rack_of(DfsNodeId(4)), RackId(1));
        assert_eq!(t.rack_of(DfsNodeId(11)), RackId(2));
        assert!(t.same_rack(DfsNodeId(4), DfsNodeId(7)));
        assert!(!t.same_rack(DfsNodeId(3), DfsNodeId(4)));
    }

    #[test]
    fn nodes_in_rack_enumerates_exactly() {
        let t = ClusterTopology::new(2, 3);
        let r1: Vec<u32> = t.nodes_in_rack(RackId(1)).map(|n| n.0).collect();
        assert_eq!(r1, vec![3, 4, 5]);
        assert_eq!(t.nodes().count(), 6);
    }

    #[test]
    fn locality_ranks_nearest_first() {
        let t = ClusterTopology::new(2, 2);
        let reader = Some(DfsNodeId(0));
        assert_eq!(t.locality(reader, DfsNodeId(0)), Locality::NodeLocal);
        assert_eq!(t.locality(reader, DfsNodeId(1)), Locality::RackLocal);
        assert_eq!(t.locality(reader, DfsNodeId(2)), Locality::Remote);
        assert_eq!(t.locality(None, DfsNodeId(0)), Locality::Remote);
        assert!(Locality::NodeLocal < Locality::RackLocal && Locality::RackLocal < Locality::Remote);
    }

    #[test]
    fn try_order_is_the_sorted_order_capped_at_the_nearest() {
        let t = ClusterTopology::new(4, 4);
        for reader in [None, Some(DfsNodeId(5))] {
            // Every node, in a scrambled order.
            let mut ranked: Vec<(Locality, DfsNodeId)> =
                (0..16).map(|i| DfsNodeId(i * 7 % 16)).map(|n| (t.locality(reader, n), n)).collect();
            let order: TryOrder = ranked.iter().copied().collect();
            ranked.sort_unstable();
            assert_eq!(order.as_slice(), &ranked[..MAX_TRIED], "reader {reader:?}");
        }
        let order: TryOrder = [
            (Locality::Remote, DfsNodeId(3)),
            (Locality::NodeLocal, DfsNodeId(9)),
            (Locality::Remote, DfsNodeId(1)),
        ]
        .into_iter()
        .collect();
        let expect = [
            (Locality::NodeLocal, DfsNodeId(9)),
            (Locality::Remote, DfsNodeId(1)),
            (Locality::Remote, DfsNodeId(3)),
        ];
        assert_eq!(order.as_slice(), &expect);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_node_panics() {
        ClusterTopology::new(1, 1).rack_of(DfsNodeId(5));
    }
}
