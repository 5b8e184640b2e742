//! Regenerates experiment tables for `thm13`.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::thm13::run);
}
