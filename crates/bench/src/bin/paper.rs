//! Run the paper's complete evaluation — every figure and table plus the
//! ablations — print each table next to the paper's reference values, and
//! drop all CSV artifacts into `results/` (`BWAP_RESULTS_DIR` overrides).
//! `campaign --spec fig1a|table1|fig4` writes those experiments' JSON
//! reports.
//!
//! Usage: `cargo run --release -p bwap-bench --bin paper [-- --quick]`
//! Quick mode shrinks workloads ~8x and the Fig. 1b search budget.

use bwap_bench::{experiments, save_csv};
use bwap_topology::machines;
use bwap_workloads::table1_reference;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let t0 = std::time::Instant::now();

    println!("#### Fig. 1a ####");
    let (probed, err) = experiments::fig1a();
    println!("{probed}");
    println!(
        "max relative error vs paper: {err:.2e}; amplitude {:.2} (paper: 5.8x)\n",
        probed.amplitude()
    );
    save_csv("fig1a_matrix.csv", &probed.to_csv()).expect("write");

    println!("#### Fig. 1b ####");
    let t = experiments::fig1b(quick, if quick { 40 } else { 180 });
    println!("{t}");
    println!("(1.0 = matches the search; the paper reports first-touch far below,");
    println!(" uniform-workers/uniform-all at roughly 0.7-0.95 depending on benchmark)\n");
    save_csv("fig1b_normalized.csv", &t.to_csv()).expect("write");

    println!("#### Table I ####");
    let t = experiments::table1(quick);
    println!("{t}");
    println!("== paper reference ==");
    println!(
        "{:<6} {:>11} {:>12} {:>10} {:>9}",
        "", "reads MB/s", "writes MB/s", "private %", "shared %"
    );
    for row in table1_reference() {
        println!(
            "{:<6} {:>11.0} {:>12.0} {:>10.1} {:>9.1}",
            row.name, row.reads_mbps, row.writes_mbps, row.private_pct, row.shared_pct
        );
    }
    println!();
    save_csv("table1_measured.csv", &t.to_csv()).expect("write");

    println!("#### Fig. 2 (machine A, co-scheduled) ####");
    let ma = machines::machine_a();
    for workers in [1usize, 2, 4] {
        let (times, dwps) = experiments::cosched_panel(&ma, workers, quick);
        let speedups = times.normalized_to("uniform-workers");
        println!("{speedups}");
        print!("bwap DWP: ");
        for (name, d) in &dwps {
            print!("{name}={:.0}%  ", d * 100.0);
        }
        println!("\n");
        save_csv(&format!("fig2_{workers}w_speedup.csv"), &speedups.to_csv()).expect("write");
    }

    println!("#### Fig. 3a/3b (machine B, co-scheduled) ####");
    let mb = machines::machine_b();
    for (panel, workers) in [('a', 1usize), ('b', 2)] {
        let (times, _) = experiments::cosched_panel(&mb, workers, quick);
        let speedups = times.normalized_to("uniform-workers");
        println!("{speedups}");
        save_csv(&format!("fig3{panel}_speedup.csv"), &speedups.to_csv()).expect("write");
    }

    println!("#### Fig. 3c/3d (stand-alone, optimal workers) ####");
    for (panel, machine) in [('c', ma.clone()), ('d', mb.clone())] {
        let times = experiments::standalone_optimal(&machine, quick);
        let speedups = times.normalized_to("uniform-workers");
        println!("{speedups}");
        save_csv(&format!("fig3{panel}_speedup.csv"), &speedups.to_csv()).expect("write");
    }

    println!("#### Table II ####");
    let t = experiments::table2(quick);
    println!("{t}");
    println!("(Paper Table II for comparison, %: SC 48/0/23.8 on A, 100/100 on B;");
    println!(" OC 14.1/0/0 A, 0/0 B; ON 14.1/16/0 A, 0/0 B; SP.B 0/0/0 A,");
    println!(" 15.2/22.2 B; FT.C 0/16.3/0 A, 30.3/0 B)\n");
    save_csv("table2_dwp.csv", &t.to_csv()).expect("write");

    println!("#### Fig. 4 ####");
    for (i, (table, online_dwp, online_time)) in experiments::fig4(quick).into_iter().enumerate() {
        println!("{table}");
        println!(
            "online tuner: DWP {:.0}%, normalized exec time {:.3}\n",
            online_dwp * 100.0,
            online_time
        );
        save_csv(&format!("fig4_{}w.csv", 1 << i), &table.to_csv()).expect("write");
    }

    println!("#### Ablations ####");
    let t = experiments::ablation_interleave_mode(quick);
    println!("{t}");
    println!("(paper: enabling the kernel-level variant changed results by at most 3%)\n");
    save_csv("ablation_interleave.csv", &t.to_csv()).expect("write");
    let t = experiments::ablation_tuner_overhead(quick);
    println!("{t}");
    println!("(paper: maximum measured tuner overhead 4%)\n");
    save_csv("ablation_overhead.csv", &t.to_csv()).expect("write");
    let t = experiments::ablation_model(quick);
    println!("{t}");
    save_csv("ablation_model.csv", &t.to_csv()).expect("write");
    let t = experiments::ablation_step_size(quick);
    println!("{t}");
    save_csv("ablation_step.csv", &t.to_csv()).expect("write");
    let t = experiments::ablation_migration_budget(quick);
    println!("{t}");
    save_csv("ablation_migration.csv", &t.to_csv()).expect("write");

    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
