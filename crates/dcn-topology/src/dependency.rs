//! The VM dependency graph `G_d = (V, E_d)` (Sec. II-C).
//!
//! Two VMs are *dependent* when they communicate; dependent VMs also
//! conflict — "two dependent VMs usually cannot reach an accommodation if
//! they are hosted at the same physical server simultaneously" \[18\], so
//! `G_d` doubles as the conflict graph enforced by constraint (7)
//! (`χ_ij = 0`) of the VMMIGRATION formulation.

use crate::ids::VmId;
use crate::placement::Placement;

/// Undirected dependency/conflict graph over VMs.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    adjacency: Vec<Vec<VmId>>,
}

impl DependencyGraph {
    /// Graph over `vm_count` VMs with no dependencies yet.
    pub fn new(vm_count: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); vm_count],
        }
    }

    /// Grow the vertex set to cover `vm`.
    fn ensure(&mut self, vm: VmId) {
        if vm.index() >= self.adjacency.len() {
            self.adjacency.resize(vm.index() + 1, Vec::new());
        }
    }

    /// Declare `a` and `b` dependent (idempotent).
    pub fn add_dependency(&mut self, a: VmId, b: VmId) {
        assert_ne!(a, b, "a VM cannot depend on itself");
        self.ensure(a);
        self.ensure(b);
        if !self.adjacency[a.index()].contains(&b) {
            self.adjacency[a.index()].push(b);
            self.adjacency[b.index()].push(a);
        }
    }

    /// Neighbours `N_d(m)` of a VM (excluding the VM itself; the paper's
    /// `N_d(v_i)` includes `v_i` but every use subtracts it back out).
    pub fn neighbors(&self, vm: VmId) -> &[VmId] {
        self.adjacency
            .get(vm.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether two VMs are dependent.
    pub fn dependent(&self, a: VmId, b: VmId) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True when no vertex has been declared.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Conflict check for constraint (7): would moving `vm` onto `host`
    /// co-locate it with a dependent VM? Walks `N_d(vm)`, not the VMs on
    /// `host`: a hot host carries many VMs, a VM few dependents.
    pub fn conflicts_on_host(
        &self,
        vm: VmId,
        host: crate::ids::HostId,
        placement: &Placement,
    ) -> bool {
        // a dependent the placement does not hold yet is on no host
        self.neighbors(vm)
            .iter()
            .any(|&other| other.index() < placement.vm_count() && placement.host_of(other) == host)
    }

    /// The characteristic function χ of Eqn. 2: 1 when migrating `vm` from
    /// its rack to `to_rack` changes the induced dependency neighbourhood
    /// (i.e. the VM has at least one dependent VM placed outside the
    /// destination rack, so re-wiring cost `C_d · D(e)` is incurred).
    pub fn chi(&self, vm: VmId, to_rack: crate::ids::RackId, placement: &Placement) -> f64 {
        let moved = self
            .neighbors(vm)
            .iter()
            .any(|&other| placement.rack_of(other) != to_rack);
        if moved {
            1.0
        } else {
            0.0
        }
    }
}

/// Generate a random dependency graph where each VM depends on
/// `avg_degree` others on average (Erdős–Rényi over the VM set). Used by
/// the simulator's workload bootstrap.
pub fn random_dependencies<R: rand::Rng>(
    rng: &mut R,
    vm_count: usize,
    avg_degree: f64,
) -> DependencyGraph {
    let mut g = DependencyGraph::new(vm_count);
    if vm_count < 2 {
        return g;
    }
    let p = (avg_degree / (vm_count as f64 - 1.0)).clamp(0.0, 1.0);
    for a in 0..vm_count {
        for b in (a + 1)..vm_count {
            if rng.gen_bool(p) {
                g.add_dependency(VmId::from_index(a), VmId::from_index(b));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, RackId};
    use crate::placement::VmSpec;
    use crate::rack::Inventory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_query() {
        let mut g = DependencyGraph::new(3);
        g.add_dependency(VmId(0), VmId(1));
        assert!(g.dependent(VmId(0), VmId(1)));
        assert!(g.dependent(VmId(1), VmId(0)));
        assert!(!g.dependent(VmId(0), VmId(2)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_is_idempotent() {
        let mut g = DependencyGraph::new(2);
        g.add_dependency(VmId(0), VmId(1));
        g.add_dependency(VmId(1), VmId(0));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(VmId(0)).len(), 1);
    }

    #[test]
    fn grows_on_demand() {
        let mut g = DependencyGraph::new(0);
        g.add_dependency(VmId(5), VmId(9));
        assert_eq!(g.len(), 10);
        assert!(g.dependent(VmId(5), VmId(9)));
        assert!(g.neighbors(VmId(3)).is_empty());
    }

    fn setup() -> (Placement, DependencyGraph) {
        let mut inv = Inventory::new();
        inv.add_rack(2, 10.0, 100.0); // rack 0: hosts 0,1
        inv.add_rack(2, 10.0, 100.0); // rack 1: hosts 2,3
        let mut p = Placement::new(&inv);
        for h in [0usize, 0, 2] {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: 2.0,
                value: 1.0,
                delay_sensitive: false,
            };
            p.add_vm(s, HostId::from_index(h)).unwrap();
        }
        let mut g = DependencyGraph::new(3);
        g.add_dependency(VmId(0), VmId(1)); // same host 0
        g.add_dependency(VmId(0), VmId(2)); // across racks
        (p, g)
    }

    #[test]
    fn conflict_detection() {
        let (p, g) = setup();
        // VM2 depends on VM0 which lives on host 0 -> conflict there
        assert!(g.conflicts_on_host(VmId(2), HostId(0), &p));
        // host 1 is empty -> no conflict
        assert!(!g.conflicts_on_host(VmId(2), HostId(1), &p));
        // a VM never conflicts with itself
        assert!(!g.conflicts_on_host(VmId(2), HostId(2), &p));
    }

    #[test]
    fn chi_detects_outside_dependents() {
        let (p, g) = setup();
        // VM1 depends only on VM0 (rack 0). Moving VM1 to rack 1 leaves a
        // dependent outside the destination -> χ = 1.
        assert_eq!(g.chi(VmId(1), RackId(1), &p), 1.0);
        // Moving VM1 within rack 0 keeps its dependent inside -> χ = 0.
        assert_eq!(g.chi(VmId(1), RackId(0), &p), 0.0);
        // A VM with no dependencies never pays dependency cost.
        let lone = DependencyGraph::new(3);
        assert_eq!(lone.chi(VmId(1), RackId(1), &p), 0.0);
    }

    #[test]
    fn random_graph_degree_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_dependencies(&mut rng, 200, 3.0);
        let avg = 2.0 * g.edge_count() as f64 / 200.0;
        assert!((avg - 3.0).abs() < 1.0, "avg degree {avg}");
        // symmetric
        for a in 0..200 {
            for &b in g.neighbors(VmId::from_index(a)) {
                assert!(g.dependent(b, VmId::from_index(a)));
            }
        }
    }
}
