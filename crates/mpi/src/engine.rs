//! The message-level engine under step truncation.
//!
//! [`TruncatingDes`] runs the DES engine on a truncated job and scales the
//! result back, which is how HarborSim makes message-level simulation
//! affordable on long production runs.

use crate::des_engine::DesEngine;
use crate::result::SimResult;
use crate::workload::JobProfile;
use harborsim_des::trace::Recorder;

/// The DES engine under step truncation: simulate at most
/// `max_steps_per_kind` repetitions of each step kind and scale the result
/// back to the full job. Exact for perfectly periodic bulk-synchronous
/// phases, and the only way to run message-level simulation on
/// thousands-of-timesteps production cases.
#[derive(Debug, Clone)]
pub struct TruncatingDes {
    /// The underlying message-level engine.
    pub inner: DesEngine,
    /// Repetitions of each step kind to actually simulate.
    pub max_steps_per_kind: u32,
}

impl TruncatingDes {
    /// Execute `job`, emitting spans through `rec`. The trace covers the
    /// *truncated* run; only the returned result is scaled back to the
    /// full job.
    pub fn run_traced(&self, job: &JobProfile, seed: u64, rec: &mut Recorder) -> SimResult {
        let (short, mult) = job.truncated(self.max_steps_per_kind);
        self.inner.run_traced(&short, seed, rec).scaled(mult)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::EngineConfig;
    use crate::mapping::RankMap;
    use crate::workload::StepProfile;
    use harborsim_hw::NodeSpec;
    use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};

    #[test]
    fn truncating_des_scales_back_to_full_job() {
        let d = DesEngine::new(
            NodeSpec::dual_socket(harborsim_hw::CpuModel::xeon_e5_2697v3(), 128),
            NetworkModel::compose(
                harborsim_hw::InterconnectKind::GigabitEthernet,
                TransportSelection::Native,
                DataPath::Host,
                Topology::small_cluster(),
            ),
            RankMap::block(2, 4, 1),
            EngineConfig::default(),
        );
        let job = JobProfile::uniform(StepProfile::compute_only(5e7, 2.0), 40);
        let trunc = TruncatingDes {
            inner: d.clone(),
            max_steps_per_kind: 5,
        };
        let full = trunc.run_traced(&job, 3, &mut Recorder::aggregating());
        let (short, mult) = job.truncated(5);
        let manual = d.run(&short, 3).scaled(mult);
        assert_eq!(full.elapsed, manual.elapsed);
        assert!(mult > 1.0);
    }
}
