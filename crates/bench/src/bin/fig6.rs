//! Regenerates Fig. 6: cpuid latency on L0/L1/L2/SW SVt/HW SVt.
//!
//! The five bars plus the Table 1 and exit-attribution cells run as one
//! sweep grid (`--jobs` workers), merged in grid order: the printed
//! table and the `--json` report are byte-identical at any worker count.
//!
//! `--arch riscv` runs the same five-bar comparison on the RISC-V
//! H-extension backend (the cpuid analogue is a virtual-instruction
//! trap, costed from the CVA6 hypervisor-extension work) plus a
//! memcached pass through every engine; the paper's figure has no riscv
//! column, so the table prints without the paper reference.

use svt_arch::ArchId;
use svt_bench::{
    fig6_report, guard, hostprof_begin, hostprof_finish, print_header, riscv_grid, riscv_report,
    rule, BenchCli,
};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench fig6 [--json r.json] [--hostprof] [--jobs n] [--arch x86|riscv] \
         [--checkpoint-dir d] [--resume]",
    );
    guard::install(&cli, "fig6");
    hostprof_begin(&cli);
    if cli.arch() == ArchId::Riscv {
        return riscv_main(&cli);
    }
    print_header("Fig. 6 - execution time of a cpuid instruction");
    let ckpt = cli.checkpoint();
    let grid = svt_workloads::fig6_grid(ArchId::X86, 200, cli.jobs(), ckpt.as_ref());
    println!(
        "{:<10}{:>12}{:>14}{:>16}",
        "System", "Time [us]", "Speedup", "Paper speedup"
    );
    rule();
    for b in &grid.bars {
        let paper = match b.label {
            "SW SVt" => "1.23x".to_string(),
            "HW SVt" => "1.94x".to_string(),
            _ => "-".to_string(),
        };
        let speedup = if b.speedup > 1.0 {
            format!("{:.2}x", b.speedup)
        } else {
            "-".to_string()
        };
        println!(
            "{:<10}{:>12.3}{:>14}{:>16}",
            b.label, b.time_us, speedup, paper
        );
    }

    // The cpuid micro-benchmark is load-free; the seed is recorded so
    // every bench report carries the same reproducibility field.
    let mut report = fig6_report(&grid, cli.seed_or(svt_workloads::DEFAULT_LANE_SEED));
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}

/// The `--arch riscv` path: the same five-bar trap-latency comparison on
/// the H-extension backend, plus memcached through every engine.
fn riscv_main(cli: &BenchCli) {
    print_header("Fig. 6 (riscv) - trap-and-emulate latency on the H-extension backend");
    let seed = cli.seed_or(svt_workloads::DEFAULT_LANE_SEED);
    let ckpt = cli.checkpoint();
    let grid = riscv_grid(200, 60, seed, cli.jobs(), ckpt.as_ref());
    println!("{:<10}{:>12}{:>10}", "System", "Time [us]", "Speedup");
    rule();
    for b in &grid.bars {
        let speedup = if b.speedup > 1.0 {
            format!("{:.2}x", b.speedup)
        } else {
            "-".to_string()
        };
        println!("{:<10}{:>12.3}{:>10}", b.label, b.time_us, speedup);
    }
    rule();
    println!(
        "{:<10}{:>18}{:>12}{:>12}",
        "memcached", "Throughput [r/s]", "avg [us]", "p99 [us]"
    );
    rule();
    for (mode, p) in &grid.memcached {
        println!(
            "{:<10}{:>18.1}{:>12.2}{:>12.2}",
            mode.label(),
            p.throughput,
            p.avg_ns / 1_000.0,
            p.p99_ns / 1_000.0
        );
    }
    let mut report = riscv_report(&grid, seed);
    hostprof_finish(cli, &mut report);
    cli.emit_report(&report);
}
