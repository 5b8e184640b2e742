//! End-to-end smoke test of the facade quickstart path: every public-API
//! step a new user hits in the README must work, fast enough for every CI
//! run. Guards the `arbodom::prelude` surface, the generator → solver →
//! verifier → certificate pipeline, and the Theorem 1.1 guarantee. Also
//! checks that a fresh clone holds every crate the root manifest names.

use arbodom::prelude::*;
use rand::SeedableRng;
use std::process::Command;

/// The first double-quoted string in `s`.
fn first_quoted(s: &str) -> Option<&str> {
    let start = s.find('"')? + 1;
    let len = s[start..].find('"')?;
    Some(&s[start..start + len])
}

#[test]
fn workspace_members_and_path_dependencies_are_tracked() {
    // A member or path dependency that git does not track (for example
    // one matched by a `.gitignore` line) builds in the tree that has it
    // and breaks every fresh clone.
    let root = env!("CARGO_MANIFEST_DIR");
    let git = |args: &[&str]| Command::new("git").args(args).current_dir(root).output();
    if !matches!(git(&["rev-parse", "--is-inside-work-tree"]), Ok(out) if out.status.success()) {
        eprintln!("note: {root} is not a git work tree; skipping the tracked-manifest check");
        return;
    }
    let manifest = std::fs::read_to_string(format!("{root}/Cargo.toml")).expect("read Cargo.toml");
    let mut dirs = Vec::new();
    let mut in_members = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with("members = [") {
            in_members = true;
        } else if in_members && line.starts_with(']') {
            in_members = false;
        } else if in_members {
            dirs.extend(first_quoted(line));
        } else if let Some((_, rest)) = line.split_once("path = ") {
            dirs.extend(first_quoted(rest));
        }
    }
    assert!(
        dirs.len() >= 10,
        "parsed too few manifest entries: {dirs:?}"
    );
    for dir in dirs {
        let file = format!("{dir}/Cargo.toml");
        let out = git(&["ls-files", "--error-unmatch", &file]).expect("run git ls-files");
        assert!(
            out.status.success(),
            "{file} is listed in the root Cargo.toml but not tracked by git"
        );
    }
}

#[test]
fn quickstart_thm11_end_to_end() {
    // A graph of arboricity ≤ 3: the union of three random forests.
    let alpha = 3usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let g = arbodom::graph::generators::forest_union(1_000, alpha, &mut rng);
    assert_eq!(g.n(), 1_000);
    assert!(g.m() > 0, "forest union should have edges");

    // Theorem 1.1: deterministic (2α+1)(1+ε)-approximation.
    let eps = 0.2;
    let cfg = arbodom::core::weighted::Config::new(alpha, eps).expect("valid config");
    let sol = arbodom::core::weighted::solve(&g, &cfg).expect("solver succeeds");

    // The output dominates.
    assert!(verify::is_dominating_set(&g, &sol.in_ds));

    // The dual certificate is feasible and certifies the theorem bound
    // (2α+1)(1+ε) against this instance's OPT.
    let cert: &PackingCertificate = sol.certificate.as_ref().expect("certificate attached");
    assert!(cert.is_feasible(&g, 1e-9), "packing must be dual-feasible");
    let ratio = sol.certified_ratio().expect("certified ratio available");
    let guarantee = (2 * alpha + 1) as f64 * (1.0 + eps);
    assert!(
        ratio <= guarantee,
        "certified ratio {ratio} exceeds (2α+1)(1+ε) = {guarantee}"
    );
    assert_eq!(cfg.guarantee(), guarantee);

    // DsResult bookkeeping is consistent.
    let members = sol.members();
    assert_eq!(members.len(), sol.size);
    let recomputed: u64 = members.iter().map(|&v| g.weight(v)).sum();
    assert_eq!(recomputed, sol.weight);
}

#[test]
fn prelude_congest_surface_runs() {
    // The prelude's CONGEST types drive a distributed run end to end.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let g = arbodom::graph::generators::forest_union(300, 2, &mut rng);
    let cfg = arbodom::core::weighted::Config::new(2, 0.25).expect("valid config");
    let (result, telemetry) =
        arbodom::core::distributed::run_weighted(&g, &cfg, 0, &RunOptions::default(), 1)
            .expect("CONGEST run succeeds");
    assert!(verify::is_dominating_set(&g, &result.in_ds));

    // CONGEST and centralized solvers agree exactly (bit-faithful claim).
    let centralized = arbodom::core::weighted::solve(&g, &cfg).expect("solver succeeds");
    assert_eq!(result.in_ds, centralized.in_ds);

    // Telemetry metered actual traffic.
    assert!(telemetry.rounds > 0);
    assert!(telemetry.total_bits > 0);
}
