//! Regenerates experiment tables for `faults`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::faults::run);
}
