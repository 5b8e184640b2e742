//! Regenerates experiment tables for `thm31`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::thm31::run);
}
