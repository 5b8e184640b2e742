//! CI gate: validates a freshly produced bench artifact against the
//! committed full-scale baseline. See `arbodom_bench::ratchet` for what
//! is (and deliberately is not) gated.
//!
//! ```text
//! bench_ratchet [--kind sim|scenarios] --current CUR.json --baseline BASE.json
//! ```
//!
//! `--kind` picks the structure gate (default `sim` for
//! `BENCH_sim.json`; `scenarios` for `BENCH_scenarios.json`). Prints
//! the markdown summary to stdout (CI appends it to
//! `$GITHUB_STEP_SUMMARY`), violations to stderr, and exits nonzero on
//! any violation.

use arbodom_bench::ratchet;
use arbodom_scenarios::json::JsonValue;

fn usage() -> ! {
    eprintln!("usage: bench_ratchet [--kind sim|scenarios] --current PATH --baseline PATH");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = "sim";
    let mut current = None;
    let mut baseline = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--kind" => match it.next() {
                Some(k @ ("sim" | "scenarios")) => kind = k,
                Some(other) => {
                    eprintln!("unknown artifact kind: {other}");
                    usage();
                }
                None => usage(),
            },
            "--current" => current = it.next(),
            "--baseline" => baseline = it.next(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    let (Some(current), Some(baseline)) = (current, baseline) else {
        usage();
    };
    let read = |label: &str, path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {label} artifact {path}: {e}");
            std::process::exit(2);
        });
        JsonValue::parse(&text).unwrap_or_else(|e| {
            eprintln!("{label} artifact {path} is not valid JSON: {e}");
            std::process::exit(1);
        })
    };
    let check = match kind {
        "scenarios" => ratchet::check_scenarios,
        _ => ratchet::check,
    };
    let report = check(&read("current", current), &read("baseline", baseline));
    println!("{}", report.summary_md);
    if !report.ok() {
        for v in &report.violations {
            eprintln!("ratchet violation: {v}");
        }
        std::process::exit(1);
    }
}
