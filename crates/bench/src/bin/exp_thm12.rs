//! Regenerates experiment tables for `thm12`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::thm12::run);
}
