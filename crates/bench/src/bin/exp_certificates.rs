//! Regenerates experiment tables for `certificates`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::certificates::run);
}
