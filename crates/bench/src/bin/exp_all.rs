//! Runs every experiment and prints all tables.
fn main() {
    arbodom_bench::experiment_main(arbodom_bench::experiments::all);
}
