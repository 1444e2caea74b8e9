//! The [`Machine`] handle: a validated machine model plus its vendor
//! algorithm table.

use crate::comm::Communicator;
use crate::error::SimMpiError;
use crate::placement::Placement;
use collectives::{generic_algorithm, vendor_algorithm, Algorithm};
use netmodel::{MachineId, MachineSpec, OpClass, WireConfig};

/// How collective algorithms are selected on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmPolicy {
    /// The vendor library's choices (default; T3D barriers go to the
    /// hardware AND tree).
    #[default]
    Vendor,
    /// Force the generic MPICH table on every machine (ablation).
    Generic,
}

/// A multicomputer available for simulation: spec + algorithm policy +
/// wire-model configuration.
///
/// # Examples
///
/// ```
/// use mpisim::Machine;
///
/// let t3d = Machine::t3d();
/// let comm = t3d.communicator(64)?;
/// let out = comm.barrier()?;
/// // The T3D's hardwired barrier completes in ~3 us (paper §1).
/// assert!(out.time().as_micros_f64() < 4.0);
/// # Ok::<(), mpisim::SimMpiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    id: Option<MachineId>,
    policy: AlgorithmPolicy,
    wire: WireConfig,
    placement: Placement,
}

impl Machine {
    /// The calibrated IBM SP2.
    pub fn sp2() -> Self {
        Machine::from_id(MachineId::Sp2)
    }

    /// The calibrated Cray T3D.
    pub fn t3d() -> Self {
        Machine::from_id(MachineId::T3d)
    }

    /// The calibrated Intel Paragon.
    pub fn paragon() -> Self {
        Machine::from_id(MachineId::Paragon)
    }

    /// Builds the calibrated machine for `id`.
    pub fn from_id(id: MachineId) -> Self {
        Machine {
            spec: id.spec(),
            id: Some(id),
            policy: AlgorithmPolicy::default(),
            wire: WireConfig::default(),
            placement: Placement::default(),
        }
    }

    /// All three machines of the study.
    pub fn all() -> [Machine; 3] {
        [Machine::sp2(), Machine::t3d(), Machine::paragon()]
    }

    /// Builds a machine from a custom spec (validated).
    ///
    /// # Errors
    ///
    /// Returns [`SimMpiError::InvalidSpec`] when the spec is not
    /// physically sensible.
    pub fn custom(spec: MachineSpec) -> Result<Self, SimMpiError> {
        spec.validate().map_err(SimMpiError::InvalidSpec)?;
        Ok(Machine {
            spec,
            id: None,
            policy: AlgorithmPolicy::default(),
            wire: WireConfig::default(),
            placement: Placement::default(),
        })
    }

    /// Replaces the algorithm selection policy (builder style).
    pub fn with_policy(mut self, policy: AlgorithmPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the wire-model configuration (builder style; used by the
    /// ablation benches).
    pub fn with_wire_config(mut self, wire: WireConfig) -> Self {
        self.wire = wire;
        self
    }

    /// Replaces the rank-to-node placement (builder style); models the
    /// paper's "runtime node allocation" accuracy factor.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The active rank-to-node placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The machine's specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The study identity, if this is one of the three calibrated
    /// machines.
    pub fn id(&self) -> Option<MachineId> {
        self.id
    }

    /// The active wire configuration.
    pub fn wire_config(&self) -> WireConfig {
        self.wire
    }

    /// Human-readable machine name.
    pub fn name(&self) -> &str {
        self.spec.name
    }

    /// The algorithm this machine uses for `class` under the active
    /// policy.
    pub fn algorithm_for(&self, class: OpClass) -> Algorithm {
        match (self.policy, self.id) {
            (AlgorithmPolicy::Vendor, Some(id)) => vendor_algorithm(id, class),
            _ => {
                let alg = generic_algorithm(class);
                // Custom machines with barrier hardware still use it.
                if class == OpClass::Barrier
                    && self.spec.hw_barrier.is_some()
                    && self.policy == AlgorithmPolicy::Vendor
                {
                    Algorithm::Hardware
                } else {
                    alg
                }
            }
        }
    }

    /// Opens a `p`-rank communicator (one process per node, as in the
    /// paper's runs), placing rank `r` on node `placement().table(p)[r]`
    /// of a `p`-node partition. The table is built here, once, and every
    /// execution on the communicator reuses it.
    ///
    /// # Errors
    ///
    /// Returns [`SimMpiError::InvalidSize`] when `p` is zero or exceeds
    /// the machine's measured maximum, and [`SimMpiError::InvalidSpec`]
    /// when the placement cannot map `p` ranks one to one (a stride not
    /// coprime with `p`).
    pub fn communicator(&self, p: usize) -> Result<Communicator, SimMpiError> {
        if p == 0 || p > self.spec.max_nodes {
            return Err(SimMpiError::InvalidSize {
                requested: p,
                max: self.spec.max_nodes,
            });
        }
        let nodes = self.placement.table(p).map_err(SimMpiError::InvalidSpec)?;
        Ok(Communicator::new(self.clone(), nodes, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Algorithm;

    #[test]
    fn constructors_and_names() {
        assert_eq!(Machine::sp2().name(), "IBM SP2");
        assert_eq!(Machine::t3d().id(), Some(MachineId::T3d));
        assert_eq!(Machine::all().len(), 3);
    }

    #[test]
    fn size_limits_enforced() {
        assert!(Machine::t3d().communicator(64).is_ok());
        assert!(matches!(
            Machine::t3d().communicator(128),
            Err(SimMpiError::InvalidSize { max: 64, .. })
        ));
        assert!(Machine::sp2().communicator(128).is_ok());
        assert!(Machine::sp2().communicator(0).is_err());
    }

    #[test]
    fn vendor_vs_generic_barrier() {
        let vendor = Machine::t3d();
        assert_eq!(vendor.algorithm_for(OpClass::Barrier), Algorithm::Hardware);
        let generic = Machine::t3d().with_policy(AlgorithmPolicy::Generic);
        assert_eq!(
            generic.algorithm_for(OpClass::Barrier),
            Algorithm::Dissemination
        );
    }

    #[test]
    fn custom_spec_validation() {
        let mut spec = netmodel::sp2();
        spec.link_ns_per_byte = -1.0;
        assert!(matches!(
            Machine::custom(spec),
            Err(SimMpiError::InvalidSpec(_))
        ));
        let ok = Machine::custom(netmodel::sp2()).unwrap();
        assert_eq!(ok.id(), None);
        // Custom machine without hw barrier: generic dissemination.
        assert_eq!(ok.algorithm_for(OpClass::Barrier), Algorithm::Dissemination);
    }

    #[test]
    fn placement_builder() {
        let m = Machine::t3d().with_placement(Placement::Scattered { seed: 9 });
        assert_eq!(m.placement(), Placement::Scattered { seed: 9 });
        assert_eq!(Machine::sp2().placement(), Placement::Contiguous);
    }

    #[test]
    fn communicator_refuses_a_size_its_placement_cannot_map() {
        let strided = Machine::sp2().with_placement(Placement::Strided { stride: 2 });
        assert_eq!(
            strided.communicator(8).err(),
            Some(SimMpiError::InvalidSpec(
                "stride 2 is not coprime with 8: not a bijection".into()
            ))
        );
        let comm = strided.communicator(7).expect("stride 2 maps 7 ranks");
        assert!(comm.bcast(collectives::Rank(0), 64).is_ok());
        assert_eq!(comm.group(&[0, 3, 6]).expect("group").size(), 3);
    }

    #[test]
    fn custom_spec_with_hw_barrier_uses_it() {
        let m = Machine::custom(netmodel::t3d()).unwrap();
        assert_eq!(m.algorithm_for(OpClass::Barrier), Algorithm::Hardware);
    }
}
