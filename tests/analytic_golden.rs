//! Bit-level goldens for the analytic engine.
//!
//! A compiled plan costs its job once and replays that costing for every
//! seed, and the one-shot path goes through the same costing and replay.
//! `tests/determinism_golden.rs` compares those two paths with each other,
//! so it cannot see a drift both share; these pins can. They hold the bit
//! pattern of every y value of Fig. 3 and of the weak-scaling and
//! spine-oversubscription extensions under the default seeds, an FNV-1a
//! hash of a degraded-uplink run's per-link `(busy_s, bytes)` table, and
//! the fingerprint of one captured analytic trace with bridge spans. The
//! values were recorded before the costing was split from the replay.

use harborsim_core::experiments::{ext_degraded, ext_oversub, ext_weak, fig3};
use harborsim_core::lab::QueryEngine;
use harborsim_core::report::FigureData;
use harborsim_core::runner::default_seeds;
use harborsim_core::scenario::{Execution, Scenario};
use harborsim_core::workloads;
use harborsim_des::trace::Recorder;

/// Fig. 3's y values, series by series, point by point.
const FIG3_Y_BITS: [u64; 28] = [
    0x3ff0_0000_0000_0000,
    0x3fff_08f6_9acc_9d2b,
    0x400e_32cd_b51c_8dd8,
    0x401c_74a7_7550_7115,
    0x402a_ccbd_c35f_1597,
    0x4037_e9b0_20de_f41f,
    0x4044_31ee_ca25_7457,
    0x3fef_e8e6_515b_c568,
    0x3ffe_f330_9afa_b9ee,
    0x400e_1e1e_5da4_bf24,
    0x401c_6240_8e95_3333,
    0x402a_bc61_fe96_d421,
    0x4037_dca3_2111_2fbe,
    0x4044_289b_2e9d_4cbc,
    0x3fe9_b3e3_5ef8_19ca,
    0x3ff6_b0af_9349_e8c0,
    0x4004_403d_abde_a6f5,
    0x4010_53db_500b_e2d4,
    0x4019_d8e0_7c8f_2f8e,
    0x4021_fac9_2ccb_5e9d,
    0x4026_d4c7_bcdc_8c3f,
    0x3ff0_0000_0000_0000,
    0x4000_0000_0000_0000,
    0x4010_0000_0000_0000,
    0x4020_0000_0000_0000,
    0x4030_0000_0000_0000,
    0x4040_0000_0000_0000,
    0x4050_0000_0000_0000,
];

/// The weak-scaling extension's y values.
const EXT_WEAK_Y_BITS: [u64; 15] = [
    0x3ff0_0000_0000_0000,
    0x3fef_8fe2_7cbe_1f7d,
    0x3fef_101a_4e1f_5a00,
    0x3fee_b6f9_9600_daba,
    0x3fee_5c94_4f97_b2ff,
    0x3ff0_0000_0000_0000,
    0x3fef_9013_97ee_7619,
    0x3fef_108e_ead6_0042,
    0x3fee_b7a1_299f_ec21,
    0x3fee_5d6f_8bfa_6918,
    0x3ff0_0000_0000_0000,
    0x3fee_a9d7_849c_d77c,
    0x3fed_125c_aa70_ed45,
    0x3feb_faf0_258e_15f5,
    0x3fea_ea50_d462_ecf2,
];

/// The spine-oversubscription sweep's y values.
const EXT_OVERSUB_Y_BITS: [u64; 4] = [
    0x3ff0_0000_0000_0000,
    0x3ff0_0073_3d84_3152,
    0x3ff0_0222_530a_0632,
    0x3ff0_53b2_272c_6fa8,
];

/// FNV-1a over `(busy_s bits, bytes)` of every link of the factor-0.1
/// degraded-uplink run, then its elapsed nanoseconds.
const DEGRADED_LINKS: (u64, u64) = (0x2aeb_ff39_b78e_19f8, 22_324_801_123);

/// `(elapsed ns, trace fingerprint, span count)` of the captured Docker run.
const DOCKER_TRACE: (u64, u64, usize) = (758_140_390, 0x2d7c_1e4b_27fe_2903, 14);

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn y_bits(fig: &FigureData) -> Vec<u64> {
    fig.series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(_, y)| y.to_bits()))
        .collect()
}

#[test]
fn fig3_y_values_are_bit_pinned() {
    let got = y_bits(&fig3::run(&QueryEngine::new(), default_seeds()));
    assert_eq!(got, FIG3_Y_BITS, "fig3 moved: {got:#x?}");
}

#[test]
fn ext_weak_y_values_are_bit_pinned() {
    let got = y_bits(&ext_weak::run(&QueryEngine::new(), default_seeds()));
    assert_eq!(got, EXT_WEAK_Y_BITS, "ext-weak moved: {got:#x?}");
}

#[test]
fn ext_oversub_y_values_are_bit_pinned() {
    let study = ext_oversub::run(&QueryEngine::new(), default_seeds());
    let got = y_bits(&study.fig);
    assert_eq!(got, EXT_OVERSUB_Y_BITS, "ext-oversub moved: {got:#x?}");
}

#[test]
fn degraded_uplink_link_table_is_pinned() {
    let campaign = ext_degraded::campaign();
    let worst = &campaign.runs.last().expect("a degraded run").scenario;
    let plan = worst.compile().expect("compiles");
    let r = plan
        .execute(default_seeds()[0], &mut Recorder::aggregating())
        .result;
    assert!(!r.links.is_empty(), "a 16-node run crosses the fabric");
    let hash = r.links.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
        fnv1a(fnv1a(h, l.busy_s.to_bits()), l.bytes)
    });
    let got = (hash, r.elapsed.as_nanos());
    assert_eq!(got, DEGRADED_LINKS, "degraded link table moved: {got:#x?}");
}

#[test]
fn captured_analytic_trace_is_pinned() {
    let plan = Scenario::new(
        harborsim_hw::presets::lenox(),
        workloads::artery_fsi_small(),
    )
    .execution(Execution::docker())
    .nodes(4)
    .ranks_per_node(28)
    .compile()
    .expect("compiles");
    // the first execute costs the job, the second replays that costing
    for _ in 0..2 {
        let mut rec = Recorder::capturing();
        let outcome = plan.execute(default_seeds()[0], &mut rec);
        let buf = rec.take_buffer();
        let got = (outcome.elapsed.as_nanos(), buf.fingerprint(), buf.len());
        assert_eq!(
            got, DOCKER_TRACE,
            "captured analytic trace moved: {got:#x?}"
        );
    }
}
