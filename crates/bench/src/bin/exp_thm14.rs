//! Regenerates experiment tables for `thm14`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::thm14::run);
}
