//! Regenerates experiment tables for `remarks`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::remarks::run);
}
