//! The CI bench ratchet: **structure gates** over the committed bench
//! artifacts.
//!
//! CI runs the quick-mode producers and compares each produced artifact
//! against its committed full-scale baseline. Wall-clock numbers on a
//! shared runner are noise, so no gate ever compares throughput values;
//! every gate checks the artifact's *shape*:
//!
//! * [`check`] gates `BENCH_sim.json`: schema version, every workload row
//!   of the 50k trajectory and the million-node `huge` tier present with
//!   nonzero rounds/messages/throughput, the streamed `ten_million` tier
//!   present (full-scale n = 10⁷ in the committed baseline, byte-accurate
//!   footprint fields, zero weight bytes, a nonzero Theorem 1.1 solve),
//!   the instrumented `phase_breakdown` block populated (every simulator
//!   phase histogram counted), and the `coverage` figures of the
//!   instrumented 50k and 10⁶ runs present, finite and in `(0, 1]`;
//! * [`check_scenarios`] gates `BENCH_scenarios.json`: schema version,
//!   every baseline scenario — static matrix *and* the dynamic `churn`
//!   family — still produced with a nonzero cell count, zero quality
//!   flags, and (churn only) both maintenance policies present with every
//!   batch leaving a valid dominating set. It also checks the committed
//!   baseline against the code: every churn cell's `base_digest` and
//!   `final_chain` must be what the registry's stream gives today, so a
//!   change to a generator, the churn sampler or the digest fails until
//!   the artifact is regenerated.
//!
//! A schema mismatch always fails: schema drift means a writer/consumer
//! change that must land together with a regenerated baseline. Each
//! checker returns the violations plus a markdown summary table the CI
//! job appends to `$GITHUB_STEP_SUMMARY`; `bench_ratchet --kind
//! sim|scenarios` dispatches between them.

use arbodom_graph::digest::{chain_digest, edge_digest};
use arbodom_scenarios::churn::{churn_registry, churn_stream};
use arbodom_scenarios::json::JsonValue;
use arbodom_scenarios::Scale;

/// The outcome of one ratchet evaluation.
#[derive(Clone, Debug)]
pub struct RatchetReport {
    /// Everything that failed the structure gate; empty = pass.
    pub violations: Vec<String>,
    /// Markdown summary (baseline vs current, per workload row).
    pub summary_md: String,
}

impl RatchetReport {
    /// Whether the gate passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The per-row fields every workload measurement must carry, with the
/// zero-check applied to each.
const ROW_FIELDS: &[&str] = &["rounds", "messages", "wall_seconds", "msgs_per_sec"];

/// The simulator phase metrics the `phase_breakdown` block must carry,
/// each with a nonzero observation count — the same names
/// `arbodomd --sim-obs` exposes, so a renamed or dropped hook fails the
/// gate before it silently vanishes from dashboards.
const SIM_PHASE_METRICS: &[&str] = &[
    "sim_setup_nanos",
    "sim_round_nanos",
    "sim_deliver_nanos",
    "sim_compute_nanos",
    "sim_pool_dispatch_nanos",
    "sim_worker_busy_nanos",
    "sim_pool_barrier_nanos",
    "sim_teardown_nanos",
    "sim_message_bits",
];

/// The `coverage` figures, `(setup + Σ round + teardown) / wall` of the
/// instrumented 50k and 10⁶ runs. The spans are disjoint intervals inside
/// the call, so each figure must lie in `(0, 1]` in both artifacts.
const SIM_COVERAGE: &[&str] = &["50k", "huge"];

/// Rows that must exist in *both* artifacts of every tier: the
/// pool-reuse measurements are the headline of the persistent-worker-pool
/// fix, and the generic presence loop only mirrors the baseline — if a
/// writer regression dropped these from a regenerated baseline too, no
/// gate would notice without this explicit list.
const POOL_ROWS: &[&str] = &["flood_measure_pool4", "thm11_measure_pool4"];

/// The full-scale size of the streamed `ten_million` tier: the committed
/// baseline must actually carry the 10⁷-node row, so a quick-mode
/// regeneration of the baseline cannot silently retire the tier.
const TEN_MILLION_N: f64 = 10_000_000.0;

/// The `ten_million` fields that must be present and **nonzero** in both
/// artifacts, as `(label, path)` — structure only, never a wall-clock
/// comparison.
const TEN_MILLION_NONZERO: &[(&str, &[&str])] = &[
    ("workload.m", &["workload", "m"]),
    ("workload.build_seconds", &["workload", "build_seconds"]),
    (
        "workload.footprint.offsets_bytes",
        &["workload", "footprint", "offsets_bytes"],
    ),
    (
        "workload.footprint.neighbors_bytes",
        &["workload", "footprint", "neighbors_bytes"],
    ),
    (
        "workload.footprint.total_bytes",
        &["workload", "footprint", "total_bytes"],
    ),
    ("thm11.iterations", &["thm11", "iterations"]),
    ("thm11.ds_size", &["thm11", "ds_size"]),
    ("thm11.ds_weight", &["thm11", "ds_weight"]),
    ("thm11.solve_seconds", &["thm11", "solve_seconds"]),
];

/// Evaluates the structure gate of `current` (the quick-mode artifact CI
/// just produced) against `baseline` (the committed full-scale artifact).
pub fn check(current: &JsonValue, baseline: &JsonValue) -> RatchetReport {
    let mut violations = Vec::new();
    let mut rows_md = String::new();
    check_schema(current, baseline, &mut violations);

    // (section label, path through the document)
    let sections: [(&str, &[&str]); 2] = [("50k", &["current"]), ("huge", &["huge", "current"])];
    for (label, path) in sections {
        fn walk<'a>(mut v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
            for key in path {
                v = v.get(key)?;
            }
            Some(v)
        }
        let (Some(base_rows), cur_rows) = (walk(baseline, path), walk(current, path)) else {
            violations.push(format!(
                "baseline has no `{}` section — committed artifact is malformed",
                path.join(".")
            ));
            continue;
        };
        let Some(cur_rows) = cur_rows else {
            violations.push(format!(
                "current artifact lost the `{}` section",
                path.join(".")
            ));
            continue;
        };
        for name in POOL_ROWS {
            for (which, rows) in [("baseline", base_rows), ("current", cur_rows)] {
                if rows.get(name).is_none() {
                    violations.push(format!(
                        "{label}: pool-reuse row `{name}` missing from the {which} artifact"
                    ));
                }
            }
        }
        for name in base_rows.keys() {
            let Some(row) = cur_rows.get(name) else {
                violations.push(format!("{label}: workload `{name}` disappeared"));
                continue;
            };
            let mut row_ok = true;
            for field in ROW_FIELDS {
                match row.get(field).and_then(JsonValue::as_f64) {
                    Some(v) if v > 0.0 => {}
                    Some(v) => {
                        row_ok = false;
                        violations.push(format!("{label}: `{name}.{field}` is {v} (must be > 0)"));
                    }
                    None => {
                        row_ok = false;
                        violations.push(format!("{label}: `{name}.{field}` missing"));
                    }
                }
            }
            let mmsg = |rows: &JsonValue| {
                rows.get(name)
                    .and_then(|r| r.get("msgs_per_sec"))
                    .and_then(JsonValue::as_f64)
                    .map(|v| format!("{:.2}", v / 1e6))
                    .unwrap_or_else(|| "—".into())
            };
            rows_md.push_str(&format!(
                "| {label} | {name} | {} | {} | {} |\n",
                mmsg(base_rows),
                mmsg(cur_rows),
                if row_ok { "✅" } else { "❌" },
            ));
        }
    }

    // The streamed 10⁷ tier: presence and structure only, never
    // wall-clock. The quick artifact keeps the same shape at a smaller
    // instance; the committed baseline must carry the actual full-scale
    // row and stay on the compact unit-weight representation.
    fn tm_field(tm: &JsonValue, path: &[&str]) -> Option<f64> {
        let mut v = tm;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    }
    for (which, doc) in [("baseline", baseline), ("current", current)] {
        let Some(tm) = doc.get("ten_million") else {
            violations.push(format!(
                "{which} artifact has no `ten_million` section — the streamed 10⁷ tier \
                 was dropped"
            ));
            continue;
        };
        match tm_field(tm, &["workload", "n"]) {
            Some(v) if v > 0.0 => {
                if which == "baseline" && v != TEN_MILLION_N {
                    violations.push(format!(
                        "ten_million: committed baseline n is {v}, not {TEN_MILLION_N} — the \
                         full-scale 10⁷ row was lost (quick-mode regeneration of the baseline?)"
                    ));
                }
            }
            _ => violations.push(format!(
                "ten_million: `workload.n` missing or zero in the {which} artifact"
            )),
        }
        for &(label, path) in TEN_MILLION_NONZERO {
            match tm_field(tm, path) {
                Some(v) if v > 0.0 => {}
                Some(v) => violations.push(format!(
                    "ten_million: `{label}` is {v} in the {which} artifact (must be > 0)"
                )),
                None => violations.push(format!(
                    "ten_million: `{label}` missing from the {which} artifact"
                )),
            }
        }
        match tm_field(tm, &["workload", "footprint", "weights_bytes"]) {
            Some(0.0) => {}
            Some(v) => violations.push(format!(
                "ten_million: `workload.footprint.weights_bytes` is {v} in the {which} \
                 artifact — the tier must stay on the compact unit-weight representation"
            )),
            None => violations.push(format!(
                "ten_million: `workload.footprint.weights_bytes` missing from the {which} \
                 artifact"
            )),
        }
    }

    // The instrumented phase breakdown: every phase metric present with
    // a nonzero observation count (the instrumented run always executes,
    // at any scale), plus the two run-level counters.
    match current.get("phase_breakdown") {
        Some(phases) => {
            for name in SIM_PHASE_METRICS {
                match phases.get(name).and_then(|p| p.get("count")).and_then(JsonValue::as_f64) {
                    Some(v) if v > 0.0 => {}
                    Some(v) => violations.push(format!(
                        "phase_breakdown: `{name}.count` is {v} (the instrumented run observed nothing)"
                    )),
                    None => violations.push(format!(
                        "phase_breakdown: phase metric `{name}` missing or uncounted"
                    )),
                }
            }
            for counter in ["sim_rounds_total", "sim_messages_total"] {
                match phases.get(counter).and_then(JsonValue::as_f64) {
                    Some(v) if v > 0.0 => {}
                    _ => violations.push(format!(
                        "phase_breakdown: counter `{counter}` missing or zero"
                    )),
                }
            }
        }
        None => violations.push(
            "current artifact has no `phase_breakdown` block — the instrumented run was dropped"
                .into(),
        ),
    }

    for (which, doc) in [("baseline", baseline), ("current", current)] {
        for label in SIM_COVERAGE {
            let v = doc.get("coverage").and_then(|c| c.get(label));
            let v = v.and_then(JsonValue::as_f64);
            if !v.is_some_and(|v| v > 0.0 && v <= 1.0) {
                let shown = v.map_or("missing".to_string(), |v| v.to_string());
                violations.push(format!(
                    "coverage `{label}` = {shown} in the {which} artifact; must be in (0, 1]"
                ));
            }
        }
    }

    let verdict = if violations.is_empty() {
        "**pass** — every committed workload row is present and nonzero".to_string()
    } else {
        format!("**fail** — {} violation(s)", violations.len())
    };
    let summary_md = format!(
        "### bench ratchet (`BENCH_sim.json` structure gate)\n\n\
         {verdict}\n\n\
         | tier | workload | committed full Mmsg/s | this run Mmsg/s | gate |\n\
         | --- | --- | --- | --- | --- |\n\
         {rows_md}\n\
         The \"this run\" column is quick-mode on a CI runner: informational \
         only, never gated. The gate checks structure — schema, row presence, \
         nonzero measurements.\n"
    );
    RatchetReport {
        violations,
        summary_md,
    }
}

/// Pushes a violation unless `current` and `baseline` agree on the
/// `schema` field (shared by both gates).
fn check_schema(current: &JsonValue, baseline: &JsonValue, violations: &mut Vec<String>) {
    let cur = current.get("schema").and_then(JsonValue::as_str);
    let base = baseline.get("schema").and_then(JsonValue::as_str);
    match (cur, base) {
        (Some(c), Some(b)) if c == b => {}
        (c, b) => violations.push(format!(
            "schema drift: baseline {b:?}, current {c:?} — regenerate the committed \
             baseline together with the writer change"
        )),
    }
}

/// The scenario blocks of one `BENCH_scenarios.json` document, as
/// `name → report` in document order. `block` is `"scenarios"` or
/// `"churn"`.
fn scenario_index<'a>(doc: &'a JsonValue, block: &str) -> Vec<(&'a str, &'a JsonValue)> {
    doc.get(block)
        .and_then(JsonValue::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|s| s.get("name").and_then(JsonValue::as_str).map(|n| (n, s)))
                .collect()
        })
        .unwrap_or_default()
}

/// Evaluates the structure gate of a quick-mode `BENCH_scenarios.json`
/// against the committed full-scale artifact. Cell *counts* differ by
/// scale (quick sweeps are smaller), so the gate checks presence and
/// nonzeroness per scenario, never equality of counts.
pub fn check_scenarios(current: &JsonValue, baseline: &JsonValue) -> RatchetReport {
    let mut violations = Vec::new();
    let mut rows_md = String::new();
    check_schema(current, baseline, &mut violations);

    // Quality gate: the scenario engine's own harness already failed the
    // producing process on flags, but the artifact is the record — a
    // nonzero counter here means a flagged artifact was handed to the
    // ratchet, which must never pass.
    match current.get("flagged_cells").and_then(JsonValue::as_f64) {
        Some(0.0) => {}
        Some(v) => violations.push(format!("flagged_cells is {v} (must be 0)")),
        None => violations.push("current artifact has no `flagged_cells` counter".into()),
    }

    for block in ["scenarios", "churn"] {
        let base_index = scenario_index(baseline, block);
        if base_index.is_empty() {
            violations.push(format!(
                "baseline has no `{block}` scenarios — committed artifact is malformed"
            ));
            continue;
        }
        let cur_index = scenario_index(current, block);
        for (name, base_scenario) in base_index {
            let cells = |s: &JsonValue| {
                s.get("cells")
                    .and_then(JsonValue::as_arr)
                    .map_or(0, |cells| cells.len())
            };
            let chains_ok = block != "churn"
                || check_committed_chains(name, base_scenario, baseline, &mut violations);
            let Some((_, cur_scenario)) = cur_index.iter().find(|(n, _)| *n == name) else {
                violations.push(format!("{block}: scenario `{name}` disappeared"));
                rows_md.push_str(&format!(
                    "| {block} | {name} | {} | — | ❌ |\n",
                    cells(base_scenario)
                ));
                continue;
            };
            let cur_cells = cells(cur_scenario);
            let mut ok = chains_ok && cur_cells > 0;
            if cur_cells == 0 {
                violations.push(format!("{block}: scenario `{name}` produced no cells"));
            }
            if block == "churn" {
                ok &= check_churn_scenario(name, cur_scenario, &mut violations);
            }
            rows_md.push_str(&format!(
                "| {block} | {name} | {} | {cur_cells} | {} |\n",
                cells(base_scenario),
                if ok { "✅" } else { "❌" },
            ));
        }
    }

    let verdict = if violations.is_empty() {
        "**pass** — every committed scenario is present, unflagged, and nonempty".to_string()
    } else {
        format!("**fail** — {} violation(s)", violations.len())
    };
    let summary_md = format!(
        "### bench ratchet (`BENCH_scenarios.json` structure gate)\n\n\
         {verdict}\n\n\
         | block | scenario | committed full cells | this run cells | gate |\n\
         | --- | --- | --- | --- | --- |\n\
         {rows_md}\n\
         Cell counts differ by scale (the \"this run\" column is quick-mode); \
         the gate checks presence, zero quality flags, and — for churn — both \
         maintenance policies with every batch valid, and the committed cells' \
         base digests and chains against the streams the code generates.\n"
    );
    RatchetReport {
        violations,
        summary_md,
    }
}

/// The chain leg of [`check_scenarios`]: every cell of one committed churn
/// scenario must name the stream the code generates today. The cell's
/// rate and batch count map back to their sweep indices at the
/// artifact's scale; that stream's base graph must digest to the cell's
/// `base_digest`, and the base digest folded with its batches must give
/// its `final_chain`. Sampling a stream solves nothing, so this costs a
/// few small base graphs and their batches. Returns whether the scenario
/// passed.
fn check_committed_chains(
    name: &str,
    scenario: &JsonValue,
    baseline: &JsonValue,
    violations: &mut Vec<String>,
) -> bool {
    let before = violations.len();
    let scale = match baseline.get("scale").and_then(JsonValue::as_str) {
        Some("full") => Scale::Full,
        Some("quick") => Scale::Quick,
        other => {
            violations.push(format!(
                "baseline scale {other:?} is neither full nor quick"
            ));
            return false;
        }
    };
    let Some(spec) = churn_registry().into_iter().find(|s| s.name == name) else {
        violations.push(format!(
            "churn: committed scenario `{name}` is not in the registry"
        ));
        return false;
    };
    let cells = scenario
        .get("cells")
        .and_then(JsonValue::as_arr)
        .unwrap_or_default();
    for (idx, cell) in cells.iter().enumerate() {
        let field = |key: &str| cell.get(key).and_then(JsonValue::as_f64);
        let rate_idx = field("rate").and_then(|r| spec.rates.iter().position(|&x| x == r));
        let batches_idx =
            field("batches").and_then(|b| spec.batches(scale).iter().position(|&x| x as f64 == b));
        let seed_idx = field("seed_idx").and_then(|s| (0..spec.seeds).find(|&x| x as f64 == s));
        let (Some(rate_idx), Some(batches_idx), Some(seed_idx)) = (rate_idx, batches_idx, seed_idx)
        else {
            violations.push(format!(
                "churn: `{name}` cell {idx} names no {} stream of the registry (rate {:?}, \
                 batches {:?}, seed_idx {:?})",
                scale.label(),
                field("rate"),
                field("batches"),
                field("seed_idx")
            ));
            continue;
        };
        let (base, deltas) = match churn_stream(&spec, scale, rate_idx, batches_idx, seed_idx) {
            Ok(stream) => stream,
            Err(e) => {
                violations.push(format!("churn: `{name}` cell {idx}: stream failed: {e}"));
                continue;
            }
        };
        let base_digest = edge_digest(&base);
        let chain = deltas.iter().fold(base_digest, chain_digest);
        for (key, expected) in [("base_digest", base_digest), ("final_chain", chain)] {
            let expected = format!("{expected:#018x}");
            let committed = cell.get(key).and_then(JsonValue::as_str);
            if committed != Some(expected.as_str()) {
                violations.push(format!(
                    "churn: `{name}` cell {idx} records {key} {committed:?}, but the code's \
                     stream gives {expected} — regenerate BENCH_scenarios.json"
                ));
            }
        }
    }
    violations.len() == before
}

/// The churn-specific leg of [`check_scenarios`]: one churn scenario must
/// carry both maintenance policies, and every batch of every cell must
/// have left a valid dominating set. Returns whether the scenario passed.
fn check_churn_scenario(name: &str, scenario: &JsonValue, violations: &mut Vec<String>) -> bool {
    let before = violations.len();
    let cells = scenario
        .get("cells")
        .and_then(JsonValue::as_arr)
        .unwrap_or_default();
    for policy in ["repair", "resolve"] {
        if !cells
            .iter()
            .any(|c| c.get("policy").and_then(JsonValue::as_str) == Some(policy))
        {
            violations.push(format!(
                "churn: scenario `{name}` has no `{policy}`-policy cell"
            ));
        }
    }
    for (idx, cell) in cells.iter().enumerate() {
        if cell.get("all_valid").and_then(JsonValue::as_bool) != Some(true) {
            violations.push(format!(
                "churn: `{name}` cell {idx} is not all_valid — a batch broke domination"
            ));
        }
        let batches = cell
            .get("batch_reports")
            .and_then(JsonValue::as_arr)
            .map_or(0, |cells| cells.len());
        if batches == 0 {
            violations.push(format!(
                "churn: `{name}` cell {idx} recorded no per-batch trajectory"
            ));
        }
    }
    violations.len() == before
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal artifact with the real shape.
    fn artifact(schema: &str, seq_rate: f64, with_huge: bool) -> String {
        artifact_rows(schema, seq_rate, with_huge, true)
    }

    /// Like [`artifact`], optionally dropping the pool-reuse rows.
    fn artifact_rows(schema: &str, seq_rate: f64, with_huge: bool, with_pool: bool) -> String {
        let pool = if with_pool {
            r#","flood_measure_pool4":{"rounds":21,"messages":5999560,"wall_seconds":0.05,"msgs_per_sec":119991200},"thm11_measure_pool4":{"rounds":33,"messages":847210,"wall_seconds":0.03,"msgs_per_sec":28240333}"#
        } else {
            ""
        };
        let huge = if with_huge {
            format!(
                r#","huge":{{"workload":{{"n":1000000}},"current":{{"flood_measure_seq":{{"rounds":21,"messages":119999760,"wall_seconds":5.0,"msgs_per_sec":23980000}}{pool}}}}}"#
            )
        } else {
            String::new()
        };
        let phases: Vec<String> = SIM_PHASE_METRICS
            .iter()
            .map(|name| {
                format!(
                    r#""{name}":{{"count":33,"total":12345678,"p50_le":4096,"p95_le":16384,"p99_le":32768}}"#
                )
            })
            .collect();
        let ten_million = r#","ten_million":{"workload":{"graph":"forest_union","alpha":3,"n":10000000,"m":9453892,"weights":"unit","scale":"full","build_seconds":14.2,"footprint":{"offsets_bytes":40000004,"neighbors_bytes":75631136,"weights_bytes":0,"total_bytes":115631140}},"thm11":{"iterations":33,"ds_size":2950000,"ds_weight":2950000,"solve_seconds":21.5,"nodes_per_sec":465116}}"#;
        format!(
            r#"{{"schema":"{schema}","current":{{"flood_measure_seq":{{"rounds":21,"messages":5999560,"wall_seconds":0.14,"msgs_per_sec":{seq_rate}}}{pool}}},"phase_breakdown":{{{},"sim_rounds_total":33,"sim_messages_total":847210}},"coverage":{{"50k":0.97,"huge":0.93}}{huge}{ten_million}}}"#,
            phases.join(",")
        )
    }

    fn parse(s: &str) -> JsonValue {
        JsonValue::parse(s).expect("test artifact parses")
    }

    #[test]
    fn identical_structure_passes_whatever_the_numbers_are() {
        let base = parse(&artifact("arbodom-sim-bench/v2", 42e6, true));
        // A 100× slower quick run still passes: the ratchet is a
        // structure gate, not a wall-clock gate.
        let cur = parse(&artifact("arbodom-sim-bench/v2", 0.4e6, true));
        let report = check(&cur, &base);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.summary_md.contains("flood_measure_seq"));
        assert!(report.summary_md.contains("**pass**"));
    }

    #[test]
    fn schema_drift_fails() {
        let base = parse(&artifact("arbodom-sim-bench/v2", 42e6, true));
        let cur = parse(&artifact("arbodom-sim-bench/v3", 42e6, true));
        let report = check(&cur, &base);
        assert!(!report.ok());
        assert!(report.violations[0].contains("schema drift"));
    }

    #[test]
    fn missing_workload_and_missing_huge_section_fail() {
        let base = parse(&artifact("arbodom-sim-bench/v2", 42e6, true));
        let cur = parse(&artifact("arbodom-sim-bench/v2", 42e6, false));
        let report = check(&cur, &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("lost the `huge.current` section")));
    }

    #[test]
    fn missing_pool_reuse_rows_fail_even_when_both_artifacts_agree() {
        // A writer regression that drops the pool rows AND lands a
        // regenerated baseline without them must still trip the gate:
        // the explicit pool-row list does not mirror the baseline.
        let base = parse(&artifact_rows("arbodom-sim-bench/v2", 42e6, true, false));
        let cur = parse(&artifact_rows("arbodom-sim-bench/v2", 42e6, true, false));
        let report = check(&cur, &base);
        assert!(!report.ok());
        for (tier, which) in [("50k", "baseline"), ("huge", "current")] {
            assert!(
                report.violations.iter().any(|v| v.starts_with(tier)
                    && v.contains("flood_measure_pool4")
                    && v.contains(which)),
                "{:?}",
                report.violations
            );
        }
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("thm11_measure_pool4")));
    }

    #[test]
    fn missing_or_empty_phase_breakdown_fails() {
        let base = parse(&artifact("arbodom-sim-bench/v2", 42e6, true));
        // Dropped block entirely.
        let mut no_block = artifact("arbodom-sim-bench/v2", 42e6, true);
        no_block = no_block.replace("\"phase_breakdown\"", "\"phase_breakdown_gone\"");
        let report = check(&parse(&no_block), &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("no `phase_breakdown` block")));
        // A phase that observed nothing.
        let zeroed = artifact("arbodom-sim-bench/v2", 42e6, true).replace(
            r#""sim_compute_nanos":{"count":33"#,
            r#""sim_compute_nanos":{"count":0"#,
        );
        let report = check(&parse(&zeroed), &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("`sim_compute_nanos.count` is 0")));
    }

    #[test]
    fn coverage_must_be_present_and_a_share_of_the_wall_time() {
        let base_s = artifact("arbodom-sim-bench/v2", 42e6, true);
        let base = parse(&base_s);
        for (cur, expected) in [
            (
                base_s.replace(r#""huge":0.93"#, r#""huge":1.2"#),
                "`huge` = 1.2",
            ),
            (base_s.replace(r#""50k":0.97"#, r#""50k":0"#), "`50k` = 0"),
            (base_s.replace(r#""50k":0.97,"#, ""), "`50k` = missing"),
        ] {
            let report = check(&parse(&cur), &base);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.contains("coverage") && v.contains(expected)),
                "{expected}: {:?}",
                report.violations
            );
        }
        let exact = base_s.replace(r#""huge":0.93"#, r#""huge":1"#);
        assert!(check(&parse(&exact), &base).ok(), "1 is a valid share");
    }

    #[test]
    fn ten_million_tier_gates_presence_scale_and_unit_weights() {
        let base_s = artifact("arbodom-sim-bench/v2", 42e6, true);
        let base = parse(&base_s);

        // Dropped section fails in either artifact.
        let gone = base_s.replace("\"ten_million\"", "\"ten_million_gone\"");
        let report = check(&parse(&gone), &base);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("no `ten_million` section") && v.contains("current")),
            "{:?}",
            report.violations
        );

        // A quick-mode regeneration of the committed baseline (n < 10⁷)
        // must fail, while the same downsized artifact passes as
        // `current` (that is exactly what CI produces).
        let small = parse(&base_s.replace(r#""n":10000000"#, r#""n":100000"#));
        let report = check(&base, &small);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("full-scale 10⁷ row was lost")),
            "{:?}",
            report.violations
        );
        assert!(check(&small, &base).ok(), "downsized current must pass");

        // Explicit weights sneaking into the tier must fail.
        let weighted = base_s.replace(r#""weights_bytes":0"#, r#""weights_bytes":80000000"#);
        let report = check(&parse(&weighted), &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("compact unit-weight representation")));

        // A zero solve measurement means the tier silently did nothing.
        let stalled = base_s.replace(r#""solve_seconds":21.5"#, r#""solve_seconds":0"#);
        let report = check(&parse(&stalled), &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("`thm11.solve_seconds` is 0")));
    }

    #[test]
    fn zero_throughput_fails() {
        let base = parse(&artifact("arbodom-sim-bench/v2", 42e6, true));
        let cur = parse(&artifact("arbodom-sim-bench/v2", 0.0, true));
        let report = check(&cur, &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("msgs_per_sec` is 0")));
        assert!(report.summary_md.contains("❌"));
    }

    #[test]
    fn the_committed_artifact_passes_against_itself() {
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json"),
        )
        .expect("committed BENCH_sim.json exists");
        let v = JsonValue::parse(&committed).expect("committed artifact parses");
        let report = check(&v, &v);
        assert!(report.ok(), "{:?}", report.violations);
    }

    /// The base digest and final chain of `churn-forest-a2`'s full-scale
    /// stream at rate 0.01, 8 batches, seed 0, as the artifact writes them.
    fn forest_a2_identity() -> (String, String) {
        let spec = churn_registry()
            .into_iter()
            .find(|s| s.name == "churn-forest-a2")
            .expect("registered");
        assert_eq!((spec.rates[0], spec.full_batches[0]), (0.01, 8));
        let (base, deltas) = churn_stream(&spec, Scale::Full, 0, 0, 0).unwrap();
        let base_digest = edge_digest(&base);
        let chain = deltas.iter().fold(base_digest, chain_digest);
        (format!("{base_digest:#018x}"), format!("{chain:#018x}"))
    }

    /// A minimal scenarios artifact with the real shape: one static
    /// scenario and one churn scenario with both policies, whose cells
    /// record the stream the code generates.
    fn scenarios_artifact(schema: &str, flagged: usize, all_valid: bool, policies: &str) -> String {
        let (base, chain) = forest_a2_identity();
        let cell = |policy: &str| {
            format!(
                r#"{{"n":1500,"rate":0.01,"batches":8,"policy":"{policy}","seed_idx":0,"base_digest":"{base}","final_chain":"{chain}","all_valid":{all_valid},"flagged":false,"batch_reports":[{{"batch":0,"rounds":7,"valid":{all_valid}}}]}}"#
            )
        };
        let churn_cells: Vec<String> = match policies {
            "both" => vec![cell("repair"), cell("resolve")],
            one => vec![cell(one)],
        };
        format!(
            r#"{{"schema":"{schema}","scale":"full","flagged_cells":{flagged},"scenarios":[{{"name":"thm11-forest-a1","cells":[{{"n":30000,"valid":true}}]}}],"churn":[{{"name":"churn-forest-a2","cells":[{}]}}]}}"#,
            churn_cells.join(",")
        )
    }

    #[test]
    fn scenarios_gate_passes_on_identical_structure() {
        let base = parse(&scenarios_artifact("arbodom-scenarios/v2", 0, true, "both"));
        let report = check_scenarios(&base, &base);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.summary_md.contains("churn-forest-a2"));
        assert!(report.summary_md.contains("**pass**"));
    }

    #[test]
    fn scenarios_gate_fails_on_flags_missing_policy_and_lost_scenario() {
        let base = parse(&scenarios_artifact("arbodom-scenarios/v2", 0, true, "both"));

        let flagged = parse(&scenarios_artifact("arbodom-scenarios/v2", 3, true, "both"));
        assert!(check_scenarios(&flagged, &base)
            .violations
            .iter()
            .any(|v| v.contains("flagged_cells is 3")));

        let one_policy = parse(&scenarios_artifact(
            "arbodom-scenarios/v2",
            0,
            true,
            "repair",
        ));
        assert!(check_scenarios(&one_policy, &base)
            .violations
            .iter()
            .any(|v| v.contains("no `resolve`-policy cell")));

        let invalid = parse(&scenarios_artifact(
            "arbodom-scenarios/v2",
            0,
            false,
            "both",
        ));
        assert!(check_scenarios(&invalid, &base)
            .violations
            .iter()
            .any(|v| v.contains("not all_valid")));

        let lost = parse(
            r#"{"schema":"arbodom-scenarios/v2","flagged_cells":0,"scenarios":[{"name":"thm11-forest-a1","cells":[{"n":1}]}],"churn":[]}"#,
        );
        let report = check_scenarios(&lost, &base);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("`churn-forest-a2` disappeared")));
        assert!(report.summary_md.contains("❌"));
    }

    /// A committed churn cell whose chain or base digest is not what the
    /// code's stream gives fails the gate, and so does a cell whose rate
    /// names no stream of the registry.
    #[test]
    fn scenarios_gate_checks_the_committed_chains_against_the_code() {
        let good = scenarios_artifact("arbodom-scenarios/v2", 0, true, "both");
        let current = parse(&good);
        let (base, chain) = forest_a2_identity();
        for (key, value) in [("final_chain", chain), ("base_digest", base)] {
            // Change the last hex digit of the first (repair) cell's value.
            let mut tampered = value.clone();
            let last = tampered.pop().expect("a hex digest");
            tampered.push(if last == '0' { '1' } else { '0' });
            let baseline = parse(&good.replacen(&value, &tampered, 1));
            let report = check_scenarios(&current, &baseline);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.contains(&format!("`churn-forest-a2` cell 0 records {key}"))),
                "{:?}",
                report.violations
            );
            assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
            assert!(report.summary_md.contains("❌"));
        }
        let off_sweep = parse(&good.replacen(r#""rate":0.01"#, r#""rate":0.02"#, 1));
        assert!(check_scenarios(&current, &off_sweep)
            .violations
            .iter()
            .any(|v| v.contains("cell 0 names no full stream")));
    }

    #[test]
    fn the_committed_scenarios_artifact_passes_against_itself() {
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scenarios.json"),
        )
        .expect("committed BENCH_scenarios.json exists");
        let v = JsonValue::parse(&committed).expect("committed artifact parses");
        let report = check_scenarios(&v, &v);
        assert!(report.ok(), "{:?}", report.violations);
    }
}
