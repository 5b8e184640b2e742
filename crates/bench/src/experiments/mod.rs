//! One module per reproduced claim; the `exp_<module>` binary prints
//! its tables.

pub mod ablation;
pub mod certificates;
pub mod churn;
pub mod compare;
pub mod faults;
pub mod remarks;
pub mod scaling;
pub mod thm11;
pub mod thm12;
pub mod thm13;
pub mod thm14;
pub mod thm31;
pub mod trees;

use crate::report::Table;
use crate::Scale;

/// Runs every experiment and returns the tables in the order `exp_all`
/// prints them.
pub fn all(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    tables.extend(thm31::run(scale));
    tables.extend(thm11::run(scale));
    tables.extend(thm12::run(scale));
    tables.extend(thm13::run(scale));
    tables.extend(thm14::run(scale));
    tables.extend(trees::run(scale));
    tables.extend(remarks::run(scale));
    tables.extend(compare::run(scale));
    tables.extend(scaling::run(scale));
    tables.extend(certificates::run(scale));
    tables.extend(ablation::run(scale));
    tables.extend(faults::run(scale));
    tables.extend(churn::run(scale));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run_quick_and_pass_their_checks() {
        let tables = all(Scale::Quick);
        assert!(tables.len() >= 10);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} produced no rows", t.id);
            // Every experiment embeds its own pass/fail cells; none may fail.
            for row in &t.rows {
                for cell in row {
                    assert!(!cell.contains("FAIL"), "{}: failing row {row:?}", t.id);
                }
            }
        }
    }
}
