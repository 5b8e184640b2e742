//! Clusterhead election in an ad-hoc wireless mesh — run as a *real*
//! message-passing computation.
//!
//! Dominating sets are the classic tool for clustering and routing
//! backbones in ad-hoc networks: every station is either a clusterhead or
//! hears one directly. This example models a city-block mesh (a torus
//! grid, planar ⇒ arboricity ≤ 3... here ≤ 2), weights stations by
//! *battery cost*, and runs the Theorem 1.1 node program through the
//! CONGEST simulator — counting every round and metering every message
//! byte the stations exchange.
//!
//! ```text
//! cargo run --release --example wireless_backbone
//! ```

use arbodom::congest::RunOptions;
use arbodom::core::distributed::run_weighted;
use arbodom::core::{verify, weighted};
use arbodom::graph::{weights::WeightModel, Graph};
use rand::SeedableRng;

/// A 60×60 torus mesh of stations plus 36 high-power gateways, each wired
/// to the 10×10 block beneath it. The torus is two pseudoforests (row
/// cycles + column cycles) and the gateway stars add one forest, so the
/// arboricity is at most 3 while gateways have degree 100 — the hub-heavy
/// regime the paper targets (footnote 2 covers pseudoforest
/// decompositions).
fn build_city_mesh() -> Graph {
    let (rows, cols) = (60usize, 60usize);
    let n_grid = rows * cols;
    let gateways = 36usize;
    let mut b = Graph::builder(n_grid + gateways);
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge_u32(id(r, c), id(r, (c + 1) % cols)).unwrap();
            b.add_edge_u32(id(r, c), id((r + 1) % rows, c)).unwrap();
        }
    }
    for gr in 0..6 {
        for gc in 0..6 {
            let g_id = (n_grid + gr * 6 + gc) as u32;
            for r in gr * 10..(gr + 1) * 10 {
                for c in gc * 10..(gc + 1) * 10 {
                    b.add_edge_u32(g_id, id(r, c)).unwrap();
                }
            }
        }
    }
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);

    let mesh = build_city_mesh();
    // Battery cost 1..=8 per station; gateways are mains-powered (cheap).
    let mut mesh = WeightModel::Uniform { lo: 1, hi: 8 }.assign(&mesh, &mut rng);
    {
        let mut w = mesh.weights_vec();
        for gw in &mut w[3600..3636] {
            *gw = 2;
        }
        mesh = mesh.with_weights(w)?;
    }
    let alpha = 3; // 2 pseudoforests (torus) + 1 forest (gateway stars)
    println!(
        "mesh: {} stations, {} links, Δ = {} (gateways), α ≤ {alpha}",
        mesh.n(),
        mesh.m(),
        mesh.max_degree()
    );

    let cfg = weighted::Config::new(alpha, 0.25)?;
    let (sol, telemetry) = run_weighted(&mesh, &cfg, 99, &RunOptions::default(), 1)?;
    assert!(verify::is_dominating_set(&mesh, &sol.in_ds));

    println!(
        "\nbackbone: {} clusterheads, total battery cost {}",
        sol.size, sol.weight
    );
    println!(
        "certified ratio vs optimal: {:.3} (theorem bound {:.2})",
        sol.certified_ratio().unwrap(),
        cfg.guarantee()
    );
    println!("\n--- CONGEST telemetry (actual messages, not estimates) ---");
    println!("rounds:            {}", telemetry.rounds);
    println!("messages:          {}", telemetry.total_messages);
    println!(
        "traffic:           {} bits total, avg {:.1} bits/message, max {} bits",
        telemetry.total_bits,
        telemetry.avg_message_bits(),
        telemetry.max_message_bits
    );
    println!(
        "bandwidth budget:  {} bits/message — violations: {}",
        telemetry.bandwidth_budget_bits, telemetry.budget_violations
    );
    assert!(telemetry.is_congest_compliant());

    // The steady-state rounds carry single-byte events; only the two setup
    // rounds move O(log n)-bit weights. That is what makes the paper's
    // algorithm practical on radios with tiny frames.
    Ok(())
}
