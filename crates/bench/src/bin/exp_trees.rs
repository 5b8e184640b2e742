//! Regenerates experiment tables for `trees`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::trees::run);
}
