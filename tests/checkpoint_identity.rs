//! Campaign checkpoints are keyed by what each cell computes: a journal
//! written for one grid never satisfies a cell of another (it is
//! recomputed), and a resume of the same grid replays every journaled
//! cell instead of recomputing it.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use svt::arch::ArchId;
use svt::sim::checkpoint::Checkpoint;
use svt::workloads::{fig6_grid, Fig6Grid};
use svt_bench::{faults_campaign, faults_report, FAULTS_DEFAULT_SEED, FAULTS_MODES};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svt-ckpt-identity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The faults campaign's merged report, as the `faults` binary writes it.
fn faults(rates: &[f64], requests: u64, jobs: usize, ckpt: Option<&Checkpoint>) -> String {
    let cells = faults_campaign(
        &FAULTS_MODES,
        rates,
        requests,
        FAULTS_DEFAULT_SEED,
        jobs,
        ckpt,
    );
    faults_report(&cells, FAULTS_DEFAULT_SEED)
        .to_json()
        .pretty()
}

/// Inode of every journaled cell file, in name order: an atomic rewrite
/// (temp + rename) gives a cell a new inode, a replay leaves it alone.
fn cell_inodes(dir: &Path) -> Vec<(String, u64)> {
    let mut cells: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cell"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, e.metadata().unwrap().ino())
        })
        .collect();
    cells.sort();
    cells
}

fn grid_text(g: &Fig6Grid) -> String {
    format!(
        "{:?} {:?} {:?} {}",
        g.bars,
        g.table1,
        g.exits,
        g.metrics.pretty()
    )
}

#[test]
fn faults_journal_of_another_grid_is_recomputed_not_replayed() {
    let dir = temp_dir("faults");
    let journal = Checkpoint::open(&dir, false).unwrap();
    let resume = Checkpoint::open(&dir, true).unwrap();
    let small = faults(&[0.0, 0.05], 20, 2, Some(&journal));

    // A same-spec resume replays every journaled cell: none is rewritten.
    let before = cell_inodes(&dir);
    assert_eq!(before.len(), FAULTS_MODES.len() * 2);
    assert_eq!(faults(&[0.0, 0.05], 20, 1, Some(&resume)), small);
    assert_eq!(cell_inodes(&dir), before);

    // Another rate list and request count over the same journal: every
    // overlapping slot holds another spec's cell, so the resumed report
    // is the fresh one.
    let rates = [0.0, 0.01, 0.2];
    let resumed = faults(&rates, 30, 2, Some(&resume));
    assert_eq!(resumed, faults(&rates, 30, 1, None));
    let after = cell_inodes(&dir);
    assert_eq!(after.len(), FAULTS_MODES.len() * rates.len());
    for (old, new) in before.iter().zip(&after) {
        assert_eq!(old.0, new.0);
        assert_ne!(old.1, new.1, "{} replayed under another spec", old.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cpuid_grid_resumed_at_another_iteration_count_is_recomputed() {
    let dir = temp_dir("fig6");
    let journal = Checkpoint::open(&dir, false).unwrap();
    let resume = Checkpoint::open(&dir, true).unwrap();
    let ten = grid_text(&fig6_grid(ArchId::X86, 10, 2, Some(&journal)));
    let before = cell_inodes(&dir);
    assert_eq!(before.len(), 5);
    assert_eq!(
        grid_text(&fig6_grid(ArchId::X86, 10, 1, Some(&resume))),
        ten
    );
    assert_eq!(cell_inodes(&dir), before, "same-spec resume rewrote a cell");

    let fresh = grid_text(&fig6_grid(ArchId::X86, 20, 1, None));
    assert_ne!(fresh, ten);
    assert_eq!(
        grid_text(&fig6_grid(ArchId::X86, 20, 2, Some(&resume))),
        fresh
    );
    // The riscv grid over the x86 journal recomputes too.
    let riscv = grid_text(&fig6_grid(ArchId::Riscv, 20, 1, None));
    assert_eq!(
        grid_text(&fig6_grid(ArchId::Riscv, 20, 2, Some(&resume))),
        riscv
    );
    let _ = std::fs::remove_dir_all(&dir);
}
