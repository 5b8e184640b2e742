//! E-FAULT — what the CONGEST model's reliability assumption is worth.
//!
//! The paper (like all CONGEST work) assumes perfectly reliable links. The
//! simulator's fault injection quantifies that assumption: run the
//! Theorem 1.1 node program under i.i.d. message loss and measure how
//! often the output is still a dominating set and how far its weight
//! drifts. Two regimes are expected — and observed:
//!
//! * *safe degradation*: lost `Joined`/`Dominated` events only make nodes
//!   **under**-estimate domination, so extra elections fire and weight
//!   creeps up while validity survives;
//! * *failure*: a lost `Elect` (the one message whose delivery is
//!   load-bearing for coverage) leaves its sender undominated.
//!
//! The loss sweep is **defined in the scenario registry**
//! (`faults-forest-loss`: loss × seeds matrix axes); this module only
//! aggregates the matrix cells into the E-FAULT table.

use crate::report::{f2, f3, Table};
use crate::Scale;
use arbodom_scenarios::runner::{run_scenario, RunConfig};

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let cfg = RunConfig { scale, threads: 4 };
    let spec = arbodom_scenarios::find("faults-forest-loss").expect("scenario registered");
    let report = run_scenario(&spec, &cfg).expect("scenario runs");
    let trials = spec.seeds as usize;
    let n = spec.sizes(cfg.scale)[0];
    let mut table = Table::new(
        "E-FAULT",
        format!(
            "Theorem 1.1 under message loss ({}, n={n}, {trials} trials; scenario matrix)",
            report.family
        ),
        &[
            "drop prob",
            "still dominating",
            "avg undominated",
            "avg weight vs lossless",
            "avg dropped msgs",
        ],
    );
    // The lossless column is the p = 0 slice of the same matrix.
    let lossless_avg_weight: f64 = {
        let lossless: Vec<_> = report.cells.iter().filter(|c| c.drop_p == 0.0).collect();
        assert!(
            !lossless.is_empty(),
            "registry must include the p = 0 slice"
        );
        lossless.iter().map(|c| c.ds_weight as f64).sum::<f64>() / lossless.len() as f64
    };
    for &p in spec.loss {
        let cells: Vec<_> = report.cells.iter().filter(|c| c.drop_p == p).collect();
        assert_eq!(cells.len(), trials, "one cell per seed at each loss level");
        let dominating = cells.iter().filter(|c| c.valid).count();
        let undominated_total: usize = cells.iter().map(|c| c.undominated).sum();
        let weight_total: f64 = cells.iter().map(|c| c.ds_weight as f64).sum();
        let dropped_total: usize = cells.iter().map(|c| c.dropped_messages).sum();
        table.row(vec![
            f3(p),
            format!("{dominating}/{trials}"),
            f2(undominated_total as f64 / trials as f64),
            f3(weight_total / trials as f64 / lossless_avg_weight),
            f2(dropped_total as f64 / trials as f64),
        ]);
    }
    table.note(
        "two-sided degradation: missed events inflate weight only mildly \
         (over-election is self-correcting), but coverage holes appear as soon \
         as Elect messages start dropping. The CONGEST reliable-link assumption \
         is load-bearing exactly at the election step; a production protocol \
         would ack it. Each (p, seed) cell draws its own instance, so 'vs \
         lossless' compares matrix slices, not a single pinned graph.",
    );
    vec![table]
}
