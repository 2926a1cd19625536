//! Runs every figure/table experiment in sequence with shared flags.
//!
//! Equivalent to invoking `fig2 … fig12` and `table1` one by one; handy for
//! regenerating the whole `results/` directory after a change.

use std::process::Command;

fn main() {
    let experiments = [
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "table1",
        "fig10",
        "fig11",
        "fig12",
        "ablation_baselines",
        "ablation_staleness",
        "ablation_migration",
        "ablation_incremental",
        "ablation_saturation",
        "ablation_seeds",
    ];
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for name in experiments {
        println!("=== {name} ===");
        let status = Command::new(exe_dir.join(name)).args(&forwarded).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!("{name} failed to launch: {e} (build with `cargo build --release -p s3-bench` first)");
                failures.push(name);
            }
        }
        println!();
    }
    if failures.is_empty() {
        println!("all experiments completed");
    } else {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
