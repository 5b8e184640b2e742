//! Regenerates experiment tables for `scaling`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::scaling::run);
}
