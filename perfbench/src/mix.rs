//! The serve workload's requests, built from the seed before the clock
//! starts, and their expected answers.

use crate::driver::{Req, Verb};
use crate::stats::{Rng, Zipf};
use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};
use harborsim_core::lab::{wire, LabRequest, QueryEngine};
use harborsim_core::scenario::{Execution, Scenario};
use harborsim_core::workloads::artery_cfd_small;
use harborsim_hw::presets;
use std::sync::Arc;

/// Seeds per scenario: executes repeat (plan, seed) pairs, as a real
/// client population does, so admission batching has work.
const SEEDS: u64 = 3;

fn encode(req: &LabRequest, verb: Verb) -> Req {
    let body = wire::encode_request(req).expect("benchmark requests are wire-encodable");
    Req::post(body, verb)
}

/// serve-small's distinct requests and how it draws from them: Zipf(1.1)
/// over the 12-scenario load-generator menu, seeds mod 3. Entry
/// `scenario × SEEDS + seed`.
pub struct Mix {
    pub menu: Arc<Vec<Req>>,
    zipf: Zipf,
}

impl Mix {
    pub fn small() -> Mix {
        let mut menu = Vec::new();
        for i in 0..MENU_LEN {
            for seed in 0..SEEDS {
                menu.push(encode(
                    &LabRequest::execute(menu_scenario(i), seed),
                    Verb::Execute,
                ));
            }
        }
        Mix {
            menu: Arc::new(menu),
            zipf: Zipf::new(MENU_LEN, 1.1),
        }
    }

    /// Draw the next request.
    pub fn pick(&self, rng: &mut Rng) -> u32 {
        (self.zipf.sample(rng) * SEEDS as usize + rng.below(SEEDS as usize)) as u32
    }
}

/// The heavy probe: one large execute — MareNostrum4 at 128 nodes — under
/// each seed. One size keeps its median a single mode.
pub fn heavy_executes() -> Vec<Req> {
    (0..SEEDS)
        .map(|seed| {
            let s = Scenario::new(presets::marenostrum4(), artery_cfd_small())
                .execution(Execution::singularity_system_specific())
                .nodes(128);
            encode(&LabRequest::execute(s, seed), Verb::Execute)
        })
        .collect()
}

/// A batch (four menu scenarios × three seeds) and a campaign, so the
/// in-process replay measures every verb's codec.
pub fn reference_requests() -> Vec<Req> {
    let batch = LabRequest::batch([1, 4, 6, 8].map(menu_scenario), &[1, 2, 3]);
    vec![
        encode(&batch, Verb::Batch),
        encode(
            &LabRequest::Campaign {
                script: campaign_script(4),
            },
            Verb::Campaign,
        ),
    ]
}

/// A small campaign sweep compiled on the server.
pub fn campaign_script(nodes: u32) -> String {
    format!(
        "seeds quick\ncampaign \"sweep-{nodes}\" {{\n  cluster marenostrum4\n  workload cfd-small\n  nodes {nodes}\n  sweep env [bare-metal, singularity self-contained]\n}}\n"
    )
}

/// The byte-exact answer the daemon must give to `body`, computed
/// in-process through the same codec and engine.
pub fn expected_body(engine: &QueryEngine, body: &str) -> Vec<u8> {
    let req = wire::decode_request(body).expect("benchmark requests decode");
    wire::encode_response(&engine.handle(req)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_is_answered_without_error() {
        let engine = QueryEngine::new();
        let menu = Mix::small().menu;
        for req in menu.iter().chain(&heavy_executes()) {
            let body = expected_body(&engine, &req.body);
            assert!(
                crate::driver::envelope_is(&body, req.verb),
                "{}",
                String::from_utf8_lossy(&body)
            );
        }
        harborsim_core::script::compile_str(&campaign_script(4)).expect("campaign compiles");
        assert_eq!(reference_requests().len(), 2);
    }

    #[test]
    fn same_seed_same_stream() {
        let mix = Mix::small();
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..64).map(|_| mix.pick(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
