//! The `arbodom-client` CLI: drive a running `arbodomd`.
//!
//! ```text
//! arbodom-client ping     [--addr A]
//! arbodom-client stats    [--addr A]
//! arbodom-client limits   [--addr A]
//! arbodom-client metrics  [--addr A] [--prom | --check [--expect-shed]]
//! arbodom-client shutdown [--addr A]
//! arbodom-client run      [--addr A] [--members] [--alg SPEC] [--seed S]
//!                         [--retries N]
//!                         (--edge-list FILE
//!                          | --generator FAMILY --n N [--gen-seed S]
//!                          | --cell NAME SIZE WEIGHT LOSS SEED)
//! ```
//!
//! `limits` performs the protocol-v3 `Hello` handshake and prints the
//! server's advertised protocol range and admission limits.
//!
//! `metrics` scrapes the daemon's registry: the default output is a
//! human-readable table (histograms summarized as count/p50/p95/p99),
//! `--prom` dumps the raw Prometheus text exposition, and `--check`
//! validates the scrape (parse + histogram structure + nonzero request
//! counters) and exits nonzero on failure — the CI smoke hook.
//! `--check --expect-shed` additionally requires that admission control
//! shed at least one request **and** that no job errored — the overload
//! smoke assertion.
//!
//! `run` retries server sheds with exponential backoff (honoring the
//! server's `retry_after_ms` hint); `--retries 0` surfaces the first
//! shed as an error. It prints the reply and exits 1 when the job failed
//! or its reply is flagged (see `exit_code`), so a script can check an
//! answer by the exit status alone.
//!
//! `FAMILY` ∈ `random-tree | forest-union:<α> | gnp:<avg-degree> |
//! planar:<p> | ktree:<k>`; `SPEC` ∈ `weighted:<ε> | unknown-delta:<ε> |
//! randomized:<t> | general:<k>`.

use arbodom_scenarios::{Algorithm, Family};
use arbodom_service::cliargs::{parsed, required};
use arbodom_service::{Client, GraphSource, JobResult, JobSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        usage(2)
    };
    match command {
        "ping" => control(&args[1..], |c| {
            c.ping()?;
            println!("pong");
            Ok(())
        }),
        "stats" => control(&args[1..], |c| {
            let s = c.stats()?;
            println!(
                "cache: {} entries, {}/{} bytes, {} hits, {} misses, {} evictions",
                s.entries, s.bytes, s.capacity, s.hits, s.misses, s.evictions
            );
            println!(
                "sessions: {} live, {} bytes, {} evicted",
                s.sessions, s.session_bytes, s.session_evictions
            );
            Ok(())
        }),
        "shutdown" => control(&args[1..], |c| {
            c.shutdown_server()?;
            println!("daemon shutting down");
            Ok(())
        }),
        "limits" => control(&args[1..], |c| {
            let l = c.hello()?;
            println!("protocol: v{}..=v{}", l.protocol_min, l.protocol_max);
            println!("workers: {}", l.workers);
            println!(
                "admission: max_pending_jobs={} max_pending_bytes={} per_conn_inflight={}",
                l.max_pending_jobs, l.max_pending_bytes, l.per_conn_inflight
            );
            match l.idle_timeout_ms {
                0 => println!("idle_timeout: disabled"),
                ms => println!("idle_timeout: {ms} ms"),
            }
            println!(
                "frames: max_frame_len={} max_batch_jobs={}",
                l.max_frame_len, l.max_batch_jobs
            );
            Ok(())
        }),
        "metrics" => metrics(&args[1..]),
        "run" => run(&args[1..]),
        "help" | "--help" => usage(0),
        other => {
            eprintln!("unknown command: {other}\n");
            usage(2);
        }
    }
}

fn control(
    args: &[String],
    op: impl FnOnce(&mut Client) -> Result<(), arbodom_service::ServiceError>,
) {
    let mut addr = default_addr();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--addr" => addr = required(it.next(), "--addr").to_string(),
            other => {
                eprintln!("unknown option: {other}\n");
                usage(2);
            }
        }
    }
    let mut client = connect(&addr);
    if let Err(e) = op(&mut client) {
        eprintln!("arbodom-client: {e}");
        std::process::exit(1);
    }
}

fn metrics(args: &[String]) {
    let mut addr = default_addr();
    let mut prom = false;
    let mut check = false;
    let mut expect_shed = false;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--addr" => addr = required(it.next(), "--addr").to_string(),
            "--prom" => prom = true,
            "--check" => check = true,
            "--expect-shed" => expect_shed = true,
            other => {
                eprintln!("unknown option: {other}\n");
                usage(2);
            }
        }
    }
    let mut client = connect(&addr);
    let text = client.metrics().unwrap_or_else(|e| {
        eprintln!("arbodom-client: {e}");
        std::process::exit(1);
    });
    if prom {
        print!("{text}");
        return;
    }
    let exp = arbodom_obs::prom::parse(&text).unwrap_or_else(|e| {
        eprintln!("arbodom-client: unparseable metrics exposition: {e}");
        std::process::exit(1);
    });
    if check {
        if let Err(e) = exp.validate_histograms() {
            eprintln!("arbodom-client: inconsistent histogram series: {e}");
            std::process::exit(1);
        }
        let served: f64 = exp
            .with_prefix(arbodom_service::obs::REQUESTS_TOTAL_PREFIX)
            .map(|s| s.value)
            .sum();
        if served <= 0.0 {
            eprintln!("arbodom-client: scrape has zeroed request counters (no traffic observed)");
            std::process::exit(1);
        }
        let shed = exp
            .value(arbodom_service::obs::REQUESTS_SHED_TOTAL)
            .unwrap_or(0.0);
        if expect_shed {
            if shed <= 0.0 {
                eprintln!("arbodom-client: expected admission control to shed, but nothing was");
                std::process::exit(1);
            }
            let job_errors = exp
                .value(arbodom_service::obs::JOB_ERRORS_TOTAL)
                .unwrap_or(0.0);
            if job_errors > 0.0 {
                eprintln!("arbodom-client: {job_errors} job error(s) during the overload run");
                std::process::exit(1);
            }
        }
        println!(
            "metrics ok: {} samples, {} requests observed, {} shed",
            exp.samples.len(),
            served,
            shed
        );
        return;
    }
    print_metrics_table(&exp);
}

/// Renders a parsed exposition as a human table: scalar metrics as
/// `name value`, each histogram as one `count/sum/p50/p95/p99` line
/// (quantiles read off the cumulative `le` buckets, so they inherit the
/// registry's ≤2× bucket-upper-bound guarantee).
fn print_metrics_table(exp: &arbodom_obs::prom::Exposition) {
    for (name, kind) in &exp.types {
        match kind.as_str() {
            "counter" | "gauge" => {
                let value = exp.value(name).unwrap_or(0.0);
                println!("{name:<40} {value}");
            }
            "histogram" => {
                let count = exp.value(&format!("{name}_count")).unwrap_or(0.0);
                if count == 0.0 {
                    println!("{name:<40} (no observations)");
                    continue;
                }
                let sum = exp.value(&format!("{name}_sum")).unwrap_or(0.0);
                let bucket_name = format!("{name}_bucket");
                let buckets: Vec<(f64, f64)> = exp
                    .samples
                    .iter()
                    .filter(|s| s.name == bucket_name)
                    .filter_map(|s| {
                        let le = match s.label("le")? {
                            "+Inf" => f64::INFINITY,
                            v => v.parse().ok()?,
                        };
                        Some((le, s.value))
                    })
                    .collect();
                let q = |q: f64| -> String {
                    let rank = (q * count).ceil().max(1.0);
                    let le = buckets
                        .iter()
                        .find(|(_, cum)| *cum >= rank)
                        .map_or(f64::INFINITY, |(le, _)| *le);
                    if le.is_infinite() {
                        "+Inf".to_string()
                    } else {
                        format!("{le}")
                    }
                };
                println!(
                    "{name:<40} count={count} sum={sum} p50<={} p95<={} p99<={}",
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
            _ => {}
        }
    }
}

fn run(args: &[String]) {
    let mut addr = default_addr();
    let mut members = false;
    let mut algorithm = None;
    let mut seed = 0u64;
    let mut gen_seed = 42u64;
    let mut retries: Option<u32> = None;
    let mut edge_list: Option<String> = None;
    let mut generator: Option<String> = None;
    let mut n: Option<u32> = None;
    let mut cell: Option<(String, u32, u32, u32, u64)> = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--addr" => addr = required(it.next(), "--addr").to_string(),
            "--members" => members = true,
            "--retries" => retries = Some(parsed(it.next(), "--retries")),
            "--alg" => algorithm = Some(parse_algorithm(required(it.next(), "--alg"))),
            "--seed" => seed = parsed(it.next(), "--seed"),
            "--gen-seed" => gen_seed = parsed(it.next(), "--gen-seed"),
            "--edge-list" => edge_list = Some(required(it.next(), "--edge-list").to_string()),
            "--generator" => generator = Some(required(it.next(), "--generator").to_string()),
            "--n" => n = Some(parsed(it.next(), "--n")),
            "--cell" => {
                let name = required(it.next(), "--cell").to_string();
                cell = Some((
                    name,
                    parsed(it.next(), "--cell SIZE"),
                    parsed(it.next(), "--cell WEIGHT"),
                    parsed(it.next(), "--cell LOSS"),
                    parsed(it.next(), "--cell SEED"),
                ));
            }
            other => {
                eprintln!("unknown option: {other}\n");
                usage(2);
            }
        }
    }
    let source = match (edge_list, generator, cell) {
        (Some(path), None, None) => inline_from_file(&path),
        (None, Some(family), None) => GraphSource::Generator {
            family: parse_family(&family),
            n: n.unwrap_or_else(|| {
                eprintln!("--generator needs --n\n");
                usage(2)
            }),
            weights: arbodom_graph::weights::WeightModel::Unit,
            seed: gen_seed,
        },
        (None, None, Some((name, size_idx, weight_idx, loss_idx, seed_idx))) => {
            GraphSource::ScenarioCell {
                name,
                size_idx,
                weight_idx,
                loss_idx,
                seed_idx,
            }
        }
        _ => {
            eprintln!("run needs exactly one of --edge-list, --generator, --cell\n");
            usage(2);
        }
    };
    let job = JobSpec {
        source,
        algorithm,
        seed,
        return_members: members,
    };
    let mut builder = Client::builder();
    if let Some(retries) = retries {
        builder = builder.retries(retries);
    }
    let mut client = builder.connect(&addr).unwrap_or_else(|e| {
        eprintln!("arbodom-client: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let replies = client
        .submit(std::slice::from_ref(&job))
        .unwrap_or_else(|e| {
            eprintln!("arbodom-client: {e}");
            std::process::exit(1);
        });
    match &replies[0] {
        Err(msg) => {
            eprintln!("job failed: {msg}");
            std::process::exit(1);
        }
        Ok(r) => {
            println!(
                "n={} m={} Δ={} α={} digest={:#018x}",
                r.n, r.m, r.max_degree, r.alpha, r.graph_digest
            );
            println!(
                "ds: size={} weight={} valid={} undominated={}",
                r.ds_size, r.ds_weight, r.valid, r.undominated
            );
            println!(
                "quality: ratio={:.4} vs {} reference {:.2} (guarantee {:.2}, within={}, flagged={})",
                r.ratio,
                r.reference.label(),
                r.opt_estimate,
                r.guarantee,
                r.within_guarantee,
                r.flagged
            );
            println!(
                "rounds: {}/{} budget; messages={} bits={} max_msg_bits={} budget_violations={} dropped={}",
                r.rounds,
                r.round_budget,
                r.messages,
                r.total_bits,
                r.max_message_bits,
                r.budget_violations,
                r.dropped_messages
            );
            if let Some(ms) = &r.members {
                println!(
                    "members: {}",
                    ms.iter().map(u32::to_string).collect::<Vec<_>>().join(" ")
                );
            }
            std::process::exit(exit_code(r));
        }
    }
}

/// `run`'s exit status for a job that came back: 1 when the reply is
/// flagged, else 0. On a loss-free run `flagged` already covers an
/// invalid set; on a lossy scenario cell a degraded answer is data and
/// never raises `flagged`, so it exits 0.
fn exit_code(r: &JobResult) -> i32 {
    i32::from(r.flagged)
}

fn inline_from_file(path: &str) -> GraphSource {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    // The strict reader: malformed files are rejected client-side with
    // the same typed errors the daemon would produce.
    let g = arbodom_graph::io::read_edge_list(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    GraphSource::Inline {
        n: g.n() as u32,
        edges: g.edges().map(|(u, v)| (u.get(), v.get())).collect(),
        weights: g.explicit_weights().map(<[u64]>::to_vec),
    }
}

fn parse_family(text: &str) -> Family {
    let (kind, param) = text.split_once(':').unwrap_or((text, ""));
    let num = |what: &str| -> f64 {
        param.parse().unwrap_or_else(|_| {
            eprintln!("family `{kind}` needs a numeric {what}, e.g. `{kind}:2`\n");
            usage(2)
        })
    };
    match kind {
        "random-tree" => Family::RandomTree,
        "forest-union" => Family::ForestUnion {
            alpha: num("α") as usize,
            keep: 1.0,
        },
        "gnp" => Family::Gnp {
            avg_degree: num("average degree"),
        },
        "planar" => Family::RandomPlanar { diag_p: num("p") },
        "ktree" => Family::KTree {
            k: num("k") as usize,
        },
        other => {
            eprintln!("unknown family: {other}\n");
            usage(2);
        }
    }
}

fn parse_algorithm(text: &str) -> Algorithm {
    let (kind, param) = text.split_once(':').unwrap_or((text, ""));
    let num = |what: &str| -> f64 {
        param.parse().unwrap_or_else(|_| {
            eprintln!("algorithm `{kind}` needs a numeric {what}, e.g. `{kind}:0.2`\n");
            usage(2)
        })
    };
    match kind {
        "weighted" => Algorithm::Weighted { eps: num("ε") },
        "unknown-delta" => Algorithm::UnknownDelta { eps: num("ε") },
        "randomized" => Algorithm::Randomized {
            t: num("t") as usize,
        },
        "general" => Algorithm::General {
            k: num("k") as usize,
        },
        other => {
            eprintln!("unknown algorithm: {other}\n");
            usage(2);
        }
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("arbodom-client: cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

fn default_addr() -> String {
    std::env::var("ARBODOMD_ADDR").unwrap_or_else(|_| "127.0.0.1:4310".to_string())
}

fn usage(code: i32) -> ! {
    eprintln!(
        "arbodom-client — query a running arbodomd\n\n\
         USAGE:\n  \
         arbodom-client ping|stats|limits|shutdown [--addr A]\n  \
         arbodom-client metrics [--addr A] [--prom | --check [--expect-shed]]\n  \
         arbodom-client run [--addr A] [--members] [--alg SPEC] [--seed S] [--retries N]\n      \
         (--edge-list FILE | --generator FAMILY --n N [--gen-seed S]\n       \
         | --cell NAME SIZE_IDX WEIGHT_IDX LOSS_IDX SEED_IDX)\n\n\
         FAMILY: random-tree | forest-union:<α> | gnp:<deg> | planar:<p> | ktree:<k>\n\
         SPEC:   weighted:<ε> | unknown-delta:<ε> | randomized:<t> | general:<k>\n\
         The default address is 127.0.0.1:4310 (override with --addr or ARBODOMD_ADDR)."
    );
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_scenarios::quality::RefKind;

    fn reply(valid: bool, flagged: bool, dropped_messages: u64) -> JobResult {
        JobResult {
            n: 4,
            m: 3,
            max_degree: 3,
            alpha: 1,
            graph_digest: 0,
            ds_size: 1,
            ds_weight: 1,
            valid,
            undominated: u64::from(!valid),
            reference: RefKind::Exact,
            opt_estimate: 1.0,
            ratio: 1.0,
            guarantee: 3.0,
            within_guarantee: true,
            flagged,
            rounds: 2,
            round_budget: 2,
            messages: 6,
            total_bits: 48,
            max_message_bits: 8,
            budget_violations: 0,
            dropped_messages,
            members: None,
        }
    }

    #[test]
    fn run_exits_1_only_on_a_flagged_reply() {
        assert_eq!(exit_code(&reply(false, true, 0)), 1, "flagged");
        assert_eq!(exit_code(&reply(true, false, 0)), 0, "clean");
        assert_eq!(
            exit_code(&reply(false, false, 2)),
            0,
            "lossy, invalid, unflagged"
        );
    }
}
