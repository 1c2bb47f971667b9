//! Experiment runner: regenerates the paper's tables and figures.
//!
//! Usage: `expts [--fast] <id>...` where `<id>` is one of
//! table1 table2 table3 fig2 fig6 fig7 fig8 fig9 fig10a fig10b fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 fig18, or `all`. An unknown id fails the
//! run (exit status 2) before any experiment starts.

use teal_bench::experiments as ex;
use teal_bench::Harness;

const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig6", "fig7", "fig13", "fig18", "fig8", "fig9", "fig10a",
    "fig10b", "fig11", "fig12", "fig14", "fig15", "fig16", "fig2", "fig17",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let mut ids: Vec<String> = args.into_iter().filter(|a| a != "--fast").collect();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| !ALL.contains(id))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "[expts] unknown experiment id(s): {}; known: {}",
            unknown.join(" "),
            ALL.join(" ")
        );
        std::process::exit(2);
    }
    let mut h = Harness::new(fast);
    for id in &ids {
        let t0 = std::time::Instant::now();
        eprintln!("[expts] running {id} ...");
        match id.as_str() {
            "table1" => ex::tables::table1(),
            "table2" => {
                ex::tables::table2();
                ex::tables::table2_measured();
            }
            "table3" => ex::tables::table3(),
            "fig2" => ex::tables::fig2(fast),
            "fig6" => ex::comparison::fig6(&mut h),
            "fig7" => ex::comparison::fig7(&mut h),
            "fig8" => ex::failures::fig8(&mut h),
            "fig9" => ex::failures::fig9(&mut h),
            "fig10a" => ex::robustness::fig10a(&mut h),
            "fig10b" => ex::robustness::fig10b(&mut h),
            "fig11" => ex::objectives::fig11(&mut h),
            "fig12" => ex::objectives::fig12(&mut h),
            "fig13" => ex::comparison::fig13(&mut h),
            "fig14" => ex::ablation::fig14(&mut h),
            "fig15" => ex::ablation::fig15(&mut h),
            "fig16" => ex::ablation::fig16(&mut h),
            "fig17" => ex::tables::fig17(fast),
            "fig18" => ex::comparison::fig18(&mut h),
            other => unreachable!("{other} is checked against ALL"),
        }
        eprintln!("[expts] {id} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
