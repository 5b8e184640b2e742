//! Regenerates experiment tables for `thm11`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::thm11::run);
}
