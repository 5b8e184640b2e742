//! E-CHURN: incremental repair vs full re-solve over identical churn
//! streams.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::churn::run);
}
