//! Regenerates experiment tables for `compare`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::compare::run);
}
