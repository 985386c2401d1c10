//! Bit-level goldens for the message-level DES.
//!
//! The event loop is tuned for speed (keyed 4-ary heap plus delay-class
//! FIFO lanes, precomputed rank tables), and none of that may move a single
//! popped `(time, tie)` key. These pins catch any change that does: the
//! validation matrix's DES times by bit pattern, a multi-leaf fat-tree job
//! at one, two and four shards, and the open-system campaign's full
//! per-seed reports by a hash of their `Debug` rendering (`f64`'s `Debug`
//! is round-trip exact, so equal strings mean equal bits). The values
//! were recorded before the lane and the lookup tables went in.

use harborsim_core::experiments::{ext_open_system, validation};
use harborsim_core::lab::QueryEngine;
use harborsim_core::runner::default_seeds;
use harborsim_des::trace::Recorder;
use harborsim_hw::{CpuModel, InterconnectKind, NodeSpec};
use harborsim_mpi::analytic::EngineConfig;
use harborsim_mpi::workload::{CommPhase, JobProfile, StepProfile};
use harborsim_mpi::{DesEngine, RankMap};
use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};

/// `des_s.to_bits()` of every validation row, in matrix order.
const VALIDATION_DES_BITS: [(&str, u64); 8] = [
    ("Lenox bare 2x14", 0x3fa6_3580_c8f0_d2c4),
    ("Lenox bare 4x28", 0x3fb2_4c3e_764c_2663),
    ("Lenox docker 4x14", 0x3fc9_bcf0_e5f5_8191),
    ("Lenox shifter 4x28", 0x3fb2_4c5d_8448_2c48),
    ("CTE native 4x40", 0x3f60_d053_2552_3035),
    ("CTE fallback 4x40", 0x3f9b_33b4_4016_a40f),
    ("MN4 native 2x48", 0x3f5d_714a_451d_9669),
    ("ThunderX 2x96", 0x3f9e_75ce_96d9_ff43),
];

/// FNV-1a of `format!("{report:?}")` for each default-seed open report.
const OPEN_REPORT_HASHES: [u64; 5] = [
    0x46a9_31a6_6b5b_c3ce,
    0xab5d_37f9_8b8d_9c38,
    0xf612_0ef1_c8c4_a0b7,
    0xf93e_135e_52d1_f6e6,
    0xc725_a481_bd74_d483,
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn validation_des_times_are_bit_pinned() {
    let rows = validation::run(&QueryEngine::new());
    let got: Vec<(&str, u64)> = rows
        .iter()
        .map(|r| (r.label.as_str(), r.des_s.to_bits()))
        .collect();
    assert_eq!(got, VALIDATION_DES_BITS, "validation DES times moved");
}

/// `(elapsed ns, inter-node messages, inter-node bytes, trace
/// fingerprint)` of the fat-tree job, host networking then the Docker
/// bridge.
const FAT_TREE_RESULTS: [(u64, u64, u64, u64); 2] = [
    (186_853_135, 1020, 22_027_584, 0x786a_7890_be94_5ebb),
    (193_456_949, 1020, 22_027_584, 0x3cd2_2423_afac_3844),
];

/// Eight 4-rank nodes under four leaf switches: the validation matrix
/// fits every point under one leaf, so this is the fixture that pins the
/// cross-leaf paths (store-and-forward segments, rendezvous probes and
/// grants, shard mailboxes).
fn fat_tree_engine(path: DataPath) -> DesEngine {
    DesEngine::new(
        NodeSpec::dual_socket(CpuModel::xeon_e5_2697v3(), 128),
        NetworkModel::compose(
            InterconnectKind::GigabitEthernet,
            TransportSelection::Native,
            path,
            Topology::FatTree {
                nodes_per_leaf: 2,
                hop_latency_s: 0.4e-6,
                taper: 0.8,
            },
        ),
        RankMap::block(8, 4, 1),
        EngineConfig::default(),
    )
}

fn fat_tree_job() -> JobProfile {
    JobProfile::uniform(
        StepProfile {
            flops_per_rank: 1e8,
            imbalance: 1.05,
            regions: 5.0,
            comm: vec![
                // above the eager threshold: rendezvous
                CommPhase::Halo1D {
                    bytes: 256 * 1024,
                    repeats: 2,
                },
                CommPhase::Allreduce {
                    bytes: 8,
                    repeats: 2,
                },
                CommPhase::Barrier,
            ],
        },
        3,
    )
}

#[test]
fn sharded_fat_tree_results_are_bit_pinned() {
    let job = fat_tree_job();
    for (path, expect) in [DataPath::Host, DataPath::docker_default_bridge()]
        .into_iter()
        .zip(FAT_TREE_RESULTS)
    {
        for shards in [1, 2, 4] {
            let engine = fat_tree_engine(path).with_shards(shards);
            assert_eq!(engine.effective_shards(), shards);
            let mut rec = Recorder::capturing();
            let r = engine.run_traced(&job, 5, &mut rec);
            let got = (
                r.elapsed.as_nanos(),
                r.inter_node_msgs,
                r.inter_node_bytes,
                rec.take_buffer().fingerprint(),
            );
            assert_eq!(got, expect, "{path:?} on {shards} shard(s)");
        }
    }
}

#[test]
fn open_system_reports_are_pinned() {
    let data = ext_open_system::run(&QueryEngine::new(), default_seeds());
    let got: Vec<u64> = data.runs.iter().map(|r| fnv1a(&format!("{r:?}"))).collect();
    assert_eq!(got, OPEN_REPORT_HASHES, "open-system reports moved");
}
