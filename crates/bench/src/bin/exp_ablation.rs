//! Regenerates experiment tables for `ablation`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::ablation::run);
}
