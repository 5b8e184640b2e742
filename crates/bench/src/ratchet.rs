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
//!   phase histogram counted), the `coverage` figures of the instrumented
//!   50k and 10⁶ runs present, finite and in `(0, 1]`, and the frozen
//!   pre-PR reference block carried forward;
//! * [`check_scenarios`] gates `BENCH_scenarios.json`: schema version,
//!   every baseline scenario — static matrix *and* the dynamic `churn`
//!   family — still produced with a nonzero cell count, zero quality
//!   flags, and (churn only) both maintenance policies present with every
//!   batch leaving a valid dominating set;
//! * [`check_service`] gates `BENCH_service.json` (schema v4): schema
//!   version, nonzero jobs and sustained queries/sec, zero job errors
//!   and quality flags, the full byte-budgeted cache counter block, a
//!   nonempty `batch_latency_ms` ladder with ordered p50 ≤ p95 ≤ p99
//!   per row, a nonempty `sustained` client-count ladder with positive
//!   throughput per row, and the `admission` probe block — advertised
//!   limits, a pipelined burst that both accepted and shed, a retrying
//!   flood that fully succeeded, zero errors, and an ordered queue-wait
//!   quantile triple with a nonzero observation count.
//!
//! A schema mismatch always fails: schema drift means a writer/consumer
//! change that must land together with a regenerated baseline. Each
//! checker returns the violations plus a markdown summary table the CI
//! job appends to `$GITHUB_STEP_SUMMARY`; `bench_ratchet --kind
//! sim|scenarios|service` dispatches between them.

use arbodom_scenarios::json::JsonValue;

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

    let cur_schema = current.get("schema").and_then(JsonValue::as_str);
    let base_schema = baseline.get("schema").and_then(JsonValue::as_str);
    match (cur_schema, base_schema) {
        (Some(c), Some(b)) if c == b => {}
        (c, b) => violations.push(format!(
            "schema drift: baseline {b:?}, current {c:?} — regenerate the committed \
             baseline together with the writer change"
        )),
    }

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

    // The frozen pre-PR reference must survive in shape.
    let pre_pr = |v: &JsonValue| -> Vec<String> {
        v.get("baseline_pre_pr")
            .and_then(|b| b.get("msgs_per_sec"))
            .map(|rows| rows.keys().map(str::to_string).collect())
            .unwrap_or_default()
    };
    for name in pre_pr(baseline) {
        if !pre_pr(current).contains(&name) {
            violations.push(format!(
                "frozen pre-PR reference row `{name}` disappeared from baseline_pre_pr"
            ));
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
/// `schema` field (shared by all three gates).
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
            let Some((_, cur_scenario)) = cur_index.iter().find(|(n, _)| *n == name) else {
                violations.push(format!("{block}: scenario `{name}` disappeared"));
                rows_md.push_str(&format!(
                    "| {block} | {name} | {} | — | ❌ |\n",
                    cells(base_scenario)
                ));
                continue;
            };
            let cur_cells = cells(cur_scenario);
            let mut ok = cur_cells > 0;
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
         maintenance policies with every batch valid.\n"
    );
    RatchetReport {
        violations,
        summary_md,
    }
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

/// The service artifact counters that must be **nonzero** (a zero means
/// the load run silently measured nothing).
const SERVICE_NONZERO: &[&str] = &["clients", "batches", "jobs", "wall_secs", "queries_per_sec"];

/// The service artifact counters that must be **zero** (a nonzero means
/// the daemon served wrong answers under load).
const SERVICE_ZERO: &[&str] = &["job_errors", "flagged"];

/// The byte-budgeted cache counters every service artifact must carry.
const SERVICE_CACHE_FIELDS: &[&str] = &[
    "entries",
    "capacity",
    "bytes",
    "hits",
    "misses",
    "evictions",
];

/// The admission-probe leg of [`check_service`]: structural checks over
/// the `admission` block (never wall-clock — queue-wait quantiles are
/// gated on *ordering*, not magnitude).
fn check_admission(current: &JsonValue, violations: &mut Vec<String>) {
    let Some(adm) = current.get("admission") else {
        violations.push(
            "current artifact has no `admission` block — the overload probe was dropped".into(),
        );
        return;
    };
    let walk = |path: &[&str]| -> Option<f64> {
        let mut v = adm;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    // (label, path, zero means) — `true` = must be zero, `false` = must
    // be strictly positive.
    let fields: [(&[&str], bool); 9] = [
        (&["limits", "max_pending_jobs"], false),
        (&["limits", "per_conn_inflight"], false),
        (&["pipelined", "requests"], false),
        (&["pipelined", "accepted"], false),
        (&["pipelined", "shed"], false),
        (&["flood", "submits"], false),
        (&["errors"], true),
        (&["job_errors_total"], true),
        (&["queue_wait_ms", "count"], false),
    ];
    for (path, want_zero) in fields {
        let label = path.join(".");
        match walk(path) {
            Some(v) if want_zero && v == 0.0 => {}
            Some(v) if !want_zero && v > 0.0 => {}
            Some(v) => violations.push(format!(
                "admission: `{label}` is {v} (must be {})",
                if want_zero { "0" } else { "> 0" }
            )),
            None => violations.push(format!("admission: `{label}` missing")),
        }
    }
    match (walk(&["flood", "submits"]), walk(&["flood", "succeeded"])) {
        (Some(submits), Some(succeeded)) if submits == succeeded => {}
        (submits, succeeded) => violations.push(format!(
            "admission: retrying flood must fully land \
             (submits {submits:?}, succeeded {succeeded:?})"
        )),
    }
    match (
        walk(&["queue_wait_ms", "p50"]),
        walk(&["queue_wait_ms", "p95"]),
        walk(&["queue_wait_ms", "p99"]),
    ) {
        (Some(p50), Some(p95), Some(p99)) => {
            if !(p50 > 0.0 && p50 <= p95 && p95 <= p99) {
                violations.push(format!(
                    "admission: queue-wait quantiles must be positive and ordered \
                     (p50={p50}, p95={p95}, p99={p99})"
                ));
            }
        }
        _ => violations.push("admission: `queue_wait_ms` quantile triple incomplete".into()),
    }
}

/// Evaluates the structure gate of a quick-mode `BENCH_service.json`
/// against the committed full-scale artifact: schema, nonzero load and
/// sustained throughput, zero errors/flags, the full cache block, the
/// sustained client ladder, and the admission probe.
pub fn check_service(current: &JsonValue, baseline: &JsonValue) -> RatchetReport {
    let mut violations = Vec::new();
    let mut rows_md = String::new();
    check_schema(current, baseline, &mut violations);

    let mut field = |name: &str, want_zero: bool| {
        let (cur, base) = (
            current.get(name).and_then(JsonValue::as_f64),
            baseline.get(name).and_then(JsonValue::as_f64),
        );
        let ok = match cur {
            Some(v) if want_zero => v == 0.0,
            Some(v) => v > 0.0,
            None => false,
        };
        if !ok {
            violations.push(match cur {
                Some(v) => format!(
                    "`{name}` is {v} (must be {})",
                    if want_zero { "0" } else { "> 0" }
                ),
                None => format!("`{name}` missing"),
            });
        }
        let show = |v: Option<f64>| v.map_or("—".into(), |v| format!("{v:.2}"));
        rows_md.push_str(&format!(
            "| {name} | {} | {} | {} |\n",
            show(base),
            show(cur),
            if ok { "✅" } else { "❌" },
        ));
    };
    for name in SERVICE_NONZERO {
        field(name, false);
    }
    for name in SERVICE_ZERO {
        field(name, true);
    }

    match current.get("cache") {
        Some(cache) => {
            for name in SERVICE_CACHE_FIELDS {
                if cache.get(name).and_then(JsonValue::as_f64).is_none() {
                    violations.push(format!("cache counter `{name}` missing"));
                }
            }
        }
        None => violations.push("current artifact has no `cache` block".into()),
    }

    // The sustained client-count ladder: nonempty, every row a real
    // measurement. Magnitudes are CI noise and never gated.
    match current.get("sustained").and_then(JsonValue::as_arr) {
        Some(rows) if !rows.is_empty() => {
            for (idx, row) in rows.iter().enumerate() {
                for name in ["clients", "jobs", "wall_secs", "queries_per_sec"] {
                    match row.get(name).and_then(JsonValue::as_f64) {
                        Some(v) if v > 0.0 => {}
                        Some(v) => violations
                            .push(format!("sustained[{idx}]: `{name}` is {v} (must be > 0)")),
                        None => violations.push(format!("sustained[{idx}]: `{name}` missing")),
                    }
                }
            }
        }
        Some(_) => violations.push("`sustained` ladder is empty".into()),
        None => violations.push("current artifact has no `sustained` ladder".into()),
    }

    // The admission probe: the reactor's overload behaviour is part of
    // the artifact's contract. The burst must have both accepted and
    // shed (a zero shed means the probe never reached the cap — a broken
    // measurement, since it runs against a dedicated tightly-capped
    // daemon), the retrying flood must have fully landed, and nothing
    // may have errored.
    check_admission(current, &mut violations);

    // The per-batch latency ladder: nonempty, and every row internally
    // consistent — positive median, ordered percentiles. Magnitudes are
    // CI noise and never gated.
    match current.get("batch_latency_ms").and_then(JsonValue::as_arr) {
        Some(rows) if !rows.is_empty() => {
            for (idx, row) in rows.iter().enumerate() {
                let get = |k: &str| row.get(k).and_then(JsonValue::as_f64);
                let (size, p50, p95, p99) = (
                    get("jobs_per_batch"),
                    get("p50_ms"),
                    get("p95_ms"),
                    get("p99_ms"),
                );
                match (size, p50, p95, p99) {
                    (Some(size), Some(p50), Some(p95), Some(p99)) => {
                        if size <= 0.0 || p50 <= 0.0 {
                            violations.push(format!(
                                "batch_latency_ms[{idx}]: batch size and median must be positive"
                            ));
                        }
                        if !(p50 <= p95 && p95 <= p99) {
                            violations.push(format!(
                                "batch_latency_ms[{idx}]: percentiles out of order \
                                 (p50={p50}, p95={p95}, p99={p99})"
                            ));
                        }
                    }
                    _ => violations.push(format!(
                        "batch_latency_ms[{idx}]: missing jobs_per_batch/p50_ms/p95_ms/p99_ms"
                    )),
                }
            }
        }
        Some(_) => violations.push("`batch_latency_ms` is empty".into()),
        None => violations.push("current artifact has no `batch_latency_ms` ladder".into()),
    }

    let verdict = if violations.is_empty() {
        "**pass** — load sustained, zero errors, full cache block".to_string()
    } else {
        format!("**fail** — {} violation(s)", violations.len())
    };
    let summary_md = format!(
        "### bench ratchet (`BENCH_service.json` structure gate)\n\n\
         {verdict}\n\n\
         | counter | committed full | this run | gate |\n\
         | --- | --- | --- | --- |\n\
         {rows_md}\n\
         The \"this run\" column is quick-mode on a CI runner: informational \
         only, never gated on magnitude. The gate checks nonzero load, zero \
         errors/flags, and the cache counter block.\n"
    );
    RatchetReport {
        violations,
        summary_md,
    }
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
            r#"{{"schema":"{schema}","baseline_pre_pr":{{"commit":"92bbb82","msgs_per_sec":{{"flood_measure_seq":6780170}}}},"current":{{"flood_measure_seq":{{"rounds":21,"messages":5999560,"wall_seconds":0.14,"msgs_per_sec":{seq_rate}}}{pool}}},"phase_breakdown":{{{},"sim_rounds_total":33,"sim_messages_total":847210}},"coverage":{{"50k":0.97,"huge":0.93}}{huge}{ten_million}}}"#,
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

    /// A minimal scenarios artifact with the real shape: one static
    /// scenario and one churn scenario with both policies.
    fn scenarios_artifact(schema: &str, flagged: usize, all_valid: bool, policies: &str) -> String {
        let cell = |policy: &str| {
            format!(
                r#"{{"n":180,"policy":"{policy}","all_valid":{all_valid},"flagged":false,"batch_reports":[{{"batch":0,"rounds":7,"valid":{all_valid}}}]}}"#
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

    /// A minimal service artifact with the real (v4) shape.
    fn service_artifact(schema: &str, qps: f64, errors: usize, with_bytes: bool) -> String {
        let bytes = if with_bytes {
            r#""bytes":1048576,"#
        } else {
            ""
        };
        format!(
            r#"{{"schema":"{schema}","scale":"full","clients":8,"batches":96,"jobs":1536,"wall_secs":4.4,"queries_per_sec":{qps},"job_errors":{errors},"flagged":0,"sustained":[{{"clients":1,"batches":12,"jobs":192,"wall_secs":1.8,"queries_per_sec":106.7}},{{"clients":8,"batches":96,"jobs":1536,"wall_secs":4.4,"queries_per_sec":349.1}}],"batch_latency_ms":[{{"jobs_per_batch":1,"batches":12,"p50_ms":2.5,"p95_ms":4.0,"p99_ms":4.5}},{{"jobs_per_batch":16,"batches":96,"p50_ms":30.0,"p95_ms":55.0,"p99_ms":80.0}}],"admission":{{"limits":{{"max_pending_jobs":8,"max_pending_bytes":67108864,"per_conn_inflight":2,"idle_timeout_ms":900000}},"pipelined":{{"requests":8,"accepted":2,"shed":6,"min_retry_after_ms":10}},"flood":{{"submits":12,"succeeded":12}},"errors":0,"admitted_total":16,"shed_total":9,"job_errors_total":0,"queue_wait_ms":{{"count":16,"p50":0.5,"p95":2.1,"p99":4.2}}}},"cache":{{"entries":5,"capacity":67108864,{bytes}"hits":50,"misses":14,"evictions":0}}}}"#
        )
    }

    #[test]
    fn service_gate_passes_and_allows_slow_runs() {
        let base = parse(&service_artifact("arbodom-service/v4", 346.5, 0, true));
        // 1000× slower still passes: never a wall-clock gate.
        let cur = parse(&service_artifact("arbodom-service/v4", 0.3, 0, true));
        let report = check_service(&cur, &base);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.summary_md.contains("queries_per_sec"));
    }

    #[test]
    fn service_gate_fails_on_zero_qps_errors_and_missing_cache_bytes() {
        let base = parse(&service_artifact("arbodom-service/v4", 346.5, 0, true));

        let stalled = parse(&service_artifact("arbodom-service/v4", 0.0, 0, true));
        assert!(check_service(&stalled, &base)
            .violations
            .iter()
            .any(|v| v.contains("`queries_per_sec` is 0")));

        let erred = parse(&service_artifact("arbodom-service/v4", 346.5, 2, true));
        assert!(check_service(&erred, &base)
            .violations
            .iter()
            .any(|v| v.contains("`job_errors` is 2")));

        let old = parse(&service_artifact("arbodom-service/v3", 346.5, 0, false));
        let report = check_service(&old, &base);
        assert!(report.violations.iter().any(|v| v.contains("schema drift")));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("cache counter `bytes` missing")));
    }

    #[test]
    fn service_gate_fails_on_missing_or_disordered_latency_ladder() {
        let base = parse(&service_artifact("arbodom-service/v4", 346.5, 0, true));

        let gone = service_artifact("arbodom-service/v4", 346.5, 0, true)
            .replace("\"batch_latency_ms\"", "\"batch_latency_ms_gone\"");
        assert!(check_service(&parse(&gone), &base)
            .violations
            .iter()
            .any(|v| v.contains("no `batch_latency_ms` ladder")));

        let empty = service_artifact("arbodom-service/v4", 346.5, 0, true).replace(
            r#""batch_latency_ms":[{"jobs_per_batch":1,"batches":12,"p50_ms":2.5,"p95_ms":4.0,"p99_ms":4.5},{"jobs_per_batch":16,"batches":96,"p50_ms":30.0,"p95_ms":55.0,"p99_ms":80.0}]"#,
            r#""batch_latency_ms":[]"#,
        );
        assert!(check_service(&parse(&empty), &base)
            .violations
            .iter()
            .any(|v| v.contains("`batch_latency_ms` is empty")));

        let disordered = service_artifact("arbodom-service/v4", 346.5, 0, true)
            .replace(r#""p95_ms":55.0"#, r#""p95_ms":95.0"#);
        assert!(check_service(&parse(&disordered), &base)
            .violations
            .iter()
            .any(|v| v.contains("percentiles out of order")));
    }

    #[test]
    fn service_gate_requires_the_sustained_ladder() {
        let base = parse(&service_artifact("arbodom-service/v4", 346.5, 0, true));

        let gone = service_artifact("arbodom-service/v4", 346.5, 0, true)
            .replace("\"sustained\"", "\"sustained_gone\"");
        assert!(check_service(&parse(&gone), &base)
            .violations
            .iter()
            .any(|v| v.contains("no `sustained` ladder")));

        let stalled = service_artifact("arbodom-service/v4", 346.5, 0, true)
            .replace(r#""queries_per_sec":106.7"#, r#""queries_per_sec":0"#);
        assert!(check_service(&parse(&stalled), &base)
            .violations
            .iter()
            .any(|v| v.contains("sustained[0]: `queries_per_sec` is 0")));
    }

    /// The admission probe is part of the v4 contract: the gate must
    /// fail when the block is dropped, when the burst never shed, when
    /// the retrying flood lost submits, when anything errored, and when
    /// the queue-wait quantiles come back disordered.
    #[test]
    fn service_gate_requires_a_healthy_admission_probe() {
        let base = parse(&service_artifact("arbodom-service/v4", 346.5, 0, true));
        let good = service_artifact("arbodom-service/v4", 346.5, 0, true);
        assert!(check_service(&parse(&good), &base).ok());

        let gone = good.replace("\"admission\"", "\"admission_gone\"");
        assert!(check_service(&parse(&gone), &base)
            .violations
            .iter()
            .any(|v| v.contains("no `admission` block")));

        let never_shed = good.replace(r#""shed":6"#, r#""shed":0"#);
        assert!(check_service(&parse(&never_shed), &base)
            .violations
            .iter()
            .any(|v| v.contains("`pipelined.shed` is 0")));

        let lost = good.replace(r#""succeeded":12"#, r#""succeeded":11"#);
        assert!(check_service(&parse(&lost), &base)
            .violations
            .iter()
            .any(|v| v.contains("retrying flood must fully land")));

        let erred = good.replace(
            r#""flood":{"submits":12,"succeeded":12},"errors":0"#,
            r#""flood":{"submits":12,"succeeded":12},"errors":2"#,
        );
        assert!(check_service(&parse(&erred), &base)
            .violations
            .iter()
            .any(|v| v.contains("`errors` is 2")));

        let disordered = good.replace(r#""p95":2.1"#, r#""p95":9.9"#);
        assert!(check_service(&parse(&disordered), &base)
            .violations
            .iter()
            .any(|v| v.contains("queue-wait quantiles must be positive and ordered")));

        let unobserved = good.replace(r#""count":16"#, r#""count":0"#);
        assert!(check_service(&parse(&unobserved), &base)
            .violations
            .iter()
            .any(|v| v.contains("`queue_wait_ms.count` is 0")));
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

    #[test]
    fn the_committed_service_artifact_passes_against_itself() {
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json"),
        )
        .expect("committed BENCH_service.json exists");
        let v = JsonValue::parse(&committed).expect("committed artifact parses");
        let report = check_service(&v, &v);
        assert!(report.ok(), "{:?}", report.violations);
    }
}
