//! Figure 3 of the paper: double execution in MapReduce under a partial
//! partition between the AppMaster and the ResourceManager
//! (MAPREDUCE-4819). Notably, **no client access is needed after the
//! partition** — the paper's Finding 5.
//!
//! Run with: `cargo run --example mapreduce_double_execution`

use neat_repro::neat::ViolationKind;
use neat_repro::sched::{double_execution, MrFlaws};

fn main() {
    println!("Figure 3 — MapReduce double execution under a partial partition\n");
    let out = double_execution(
        MrFlaws {
            relaunch_without_checking: true,
        },
        81,
        true,
    );
    print!("manifestation sequence:\n{}", out.timeline.render());
    assert!(out.has(ViolationKind::DoubleExecution));
    assert!(out.has(ViolationKind::DataCorruption));

    let fixed = double_execution(
        MrFlaws {
            relaunch_without_checking: false,
        },
        81,
        false,
    );
    println!(
        "\nfixed ResourceManager (checks the output store before relaunching): \
         {} violations",
        fixed.violations.len()
    );
    assert!(fixed.violations.is_empty());
}
