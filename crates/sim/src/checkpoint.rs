//! Crash-resumable campaign checkpoints.
//!
//! A [`Checkpoint`] journals completed sweep grid cells to a directory,
//! one sealed file per cell, written atomically (temp + rename). A
//! killed campaign resumes by replaying the journal: cells present and
//! intact decode instantly, missing or corrupted cells recompute. Since
//! every cell is deterministic, the merged report is byte-identical to
//! an uninterrupted run regardless of where the kill landed or how many
//! workers ran.
//!
//! Each cell file carries the standard snapshot envelope; the envelope's
//! fingerprint slot holds the cell's *spec tag*: an FNV fold of the
//! `Debug` text of the spec the cell was computed from. A cell's spec
//! holds every input that changes its value (level, engine, ISA, rate,
//! request or iteration count, seed, fault plan), so a journaled cell
//! replays only into a campaign that asks for exactly that cell. A
//! journal written for another grid is recomputed, never replayed under
//! the wrong label. Worker counts are not part of any spec: a resume is
//! byte-identical at any `--jobs`.

use std::fmt::Debug;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::snapshot::{
    atomic_write, open, seal, Fingerprint, SnapError, SnapReader, SnapWriter, SNAP_VERSION,
};

/// The tag a cell computed from `spec` is sealed with: an FNV fold of
/// the spec's `Debug` text, which names every field, so no input of the
/// cell can be left out of its identity.
fn spec_tag(spec: &impl Debug) -> u64 {
    Fingerprint::new()
        .fold_bytes(format!("{spec:?}").as_bytes())
        .value()
}

/// A checkpoint directory, opened to journal a campaign's cells and,
/// when resuming, to replay them.
///
/// # Examples
///
/// ```
/// use svt_sim::checkpoint::Checkpoint;
///
/// # fn main() -> std::io::Result<()> {
/// let dir = std::env::temp_dir().join(format!("svt-ckpt-doc-{}", std::process::id()));
/// let save = |v: &u64, w: &mut svt_sim::SnapWriter| w.u64(*v);
/// let load = |r: &mut svt_sim::SnapReader<'_>| r.u64();
/// let fresh = Checkpoint::open(&dir, false)?;
/// assert_eq!(fresh.cell("fig6", 3, &("L2", 200), || 42, save, load), 42);
/// // A resume replays the journaled cell instead of running it again.
/// let resumed = Checkpoint::open(&dir, true)?;
/// assert_eq!(resumed.cell("fig6", 3, &("L2", 200), || unreachable!(), save, load), 42);
/// // A different spec at the same slot is recomputed.
/// assert_eq!(resumed.cell("fig6", 3, &("L2", 50), || 7, save, load), 7);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Checkpoint {
    dir: PathBuf,
    resume: bool,
}

impl Checkpoint {
    /// Opens (creating if needed) a checkpoint directory. With `resume`,
    /// journaled cells replay; without it, every cell recomputes and
    /// overwrites its journal entry.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, resume: bool) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Checkpoint {
            dir: dir.to_path_buf(),
            resume,
        })
    }

    fn cell_path(&self, scope: &str, idx: usize) -> PathBuf {
        self.dir.join(format!("{scope}-{idx:06}.cell"))
    }

    /// Loads a journaled cell sealed with `tag`. `Ok(None)` means never
    /// journaled (or unreadable: the same thing for a resume); a file
    /// that fails envelope validation (truncated, bit-flipped, wrong
    /// version, or sealed for another spec) is a typed [`SnapError`].
    fn load_cell(&self, scope: &str, idx: usize, tag: u64) -> Result<Option<Vec<u8>>, SnapError> {
        let blob = match fs::read(self.cell_path(scope, idx)) {
            Ok(b) => b,
            Err(_) => return Ok(None),
        };
        let (stored, payload) = open(&blob, SNAP_VERSION)?;
        if stored != tag {
            return Err(SnapError::FingerprintMismatch {
                stored,
                computed: tag,
            });
        }
        Ok(Some(payload.to_vec()))
    }

    /// Journals a completed cell atomically: a failed store leaves
    /// either no cell file or the previous intact one.
    fn store_cell(&self, scope: &str, idx: usize, tag: u64, payload: &[u8]) -> io::Result<()> {
        let sealed = seal(SNAP_VERSION, tag, payload.to_vec());
        atomic_write(&self.cell_path(scope, idx), &sealed)
    }

    /// One journaled cell: slot `idx` of `scope`, computed by `run` from
    /// `spec`. When resuming, a journal entry sealed for this `spec`
    /// decodes through `load` instead of running; an entry that is
    /// missing, truncated, bit-flipped, sealed for another spec, or
    /// undecodable is recomputed and the journal repaired, so a bad
    /// checkpoint never panics. A fresh value is journaled through
    /// `save`; journaling failures (full disk, permissions) are reported
    /// on stderr and the campaign continues, since a broken journal must
    /// not fail an otherwise healthy run.
    pub fn cell<T>(
        &self,
        scope: &str,
        idx: usize,
        spec: &impl Debug,
        run: impl FnOnce() -> T,
        save: impl Fn(&T, &mut SnapWriter),
        load: impl Fn(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> T {
        let tag = spec_tag(spec);
        if self.resume {
            match self.load_cell(scope, idx, tag) {
                Ok(Some(payload)) => {
                    let mut r = SnapReader::new(&payload);
                    match load(&mut r).and_then(|t| r.finish().map(|()| t)) {
                        Ok(t) => return t,
                        Err(e) => {
                            eprintln!(
                                "checkpoint: cell {scope}-{idx} undecodable ({e:?}); recomputing"
                            )
                        }
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("checkpoint: cell {scope}-{idx} rejected ({e:?}); recomputing")
                }
            }
        }
        let t = run();
        let mut w = SnapWriter::new();
        save(&t, &mut w);
        if let Err(e) = self.store_cell(scope, idx, tag, &w.into_vec()) {
            eprintln!("checkpoint: journaling cell {scope}-{idx} failed ({e}); continuing");
        }
        t
    }
}

/// Runs one cell per spec through [`crate::sweep`], merged in spec
/// order. With a checkpoint, cell `i` is journaled through
/// [`Checkpoint::cell`] as slot `i` of `scope`, tagged by `specs[i]`;
/// without one, it is a plain sweep. Either way the merged result is
/// the same, at any `jobs`.
pub fn sweep<S, T, F, Sv, L>(
    ckpt: Option<&Checkpoint>,
    scope: &str,
    specs: &[S],
    jobs: usize,
    run: F,
    save: Sv,
    load: L,
) -> Vec<T>
where
    S: Debug + Sync,
    T: Send,
    F: Fn(&S) -> T + Sync,
    Sv: Fn(&T, &mut SnapWriter) + Sync,
    L: Fn(&mut SnapReader<'_>) -> Result<T, SnapError> + Sync,
{
    crate::sweep(specs.len(), jobs, |i| {
        let spec = &specs[i];
        match ckpt {
            Some(c) => c.cell(scope, i, spec, || run(spec), &save, &load),
            None => run(spec),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("svt-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let ckpt = Checkpoint::open(&dir, true).unwrap();
        assert_eq!(ckpt.load_cell("s", 0, 0xabcd), Ok(None));
        ckpt.store_cell("s", 0, 0xabcd, b"cell zero").unwrap();
        assert_eq!(
            ckpt.load_cell("s", 0, 0xabcd),
            Ok(Some(b"cell zero".to_vec()))
        );
        // Different scope or index is independent.
        assert_eq!(ckpt.load_cell("s", 1, 0xabcd), Ok(None));
        assert_eq!(ckpt.load_cell("t", 0, 0xabcd), Ok(None));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_cell_is_typed_not_panic() {
        let dir = temp_dir("corrupt");
        let ckpt = Checkpoint::open(&dir, true).unwrap();
        ckpt.store_cell("s", 7, 1, &[0xaa; 100]).unwrap();
        let path = dir.join("s-000007.cell");

        // Bit flip in the payload.
        let mut blob = fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0x80;
        fs::write(&path, &blob).unwrap();
        assert!(matches!(
            ckpt.load_cell("s", 7, 1),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Truncation.
        ckpt.store_cell("s", 7, 1, &[0xaa; 100]).unwrap();
        let blob = fs::read(&path).unwrap();
        fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        assert!(matches!(
            ckpt.load_cell("s", 7, 1),
            Err(SnapError::BadLength { .. })
        ));

        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(ckpt.load_cell("s", 7, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_resumes_from_journal_and_repairs_bad_cells() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = temp_dir("sweep");
        let fresh = Checkpoint::open(&dir, false).unwrap();
        let resume = Checkpoint::open(&dir, true).unwrap();
        let computed = AtomicUsize::new(0);
        let run = |i: &u64| {
            computed.fetch_add(1, Ordering::Relaxed);
            i * 3
        };
        let save = |v: &u64, w: &mut SnapWriter| w.u64(*v);
        let load = |r: &mut SnapReader<'_>| r.u64();
        let specs = [0u64, 1, 2, 3, 4];
        let first = sweep(Some(&fresh), "s", &specs, 2, run, save, load);
        assert_eq!(first, vec![0, 3, 6, 9, 12]);
        assert_eq!(computed.load(Ordering::Relaxed), 5);

        // Resume replays the journal without recomputing anything, at a
        // different worker count.
        let again = sweep(Some(&resume), "s", &specs, 1, run, save, load);
        assert_eq!(again, first);
        assert_eq!(computed.load(Ordering::Relaxed), 5);

        // A deleted cell and a bit-flipped cell recompute; the rest
        // still replay. The merge stays identical.
        fs::remove_file(dir.join("s-000002.cell")).unwrap();
        let path = dir.join("s-000004.cell");
        let mut blob = fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 1;
        fs::write(&path, &blob).unwrap();
        let third = sweep(Some(&resume), "s", &specs, 3, run, save, load);
        assert_eq!(third, first);
        assert_eq!(computed.load(Ordering::Relaxed), 7);

        // Another grid over the same journal: slots whose spec changed
        // recompute, the slot whose spec is unchanged replays.
        let other = [0u64, 10, 20];
        let fourth = sweep(Some(&resume), "s", &other, 2, run, save, load);
        assert_eq!(fourth, vec![0, 30, 60]);
        assert_eq!(computed.load(Ordering::Relaxed), 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_sealed_for_another_spec_is_rejected() {
        let dir = temp_dir("tag");
        let ckpt = Checkpoint::open(&dir, true).unwrap();
        ckpt.store_cell("s", 0, spec_tag(&(1u64, "a")), b"x")
            .unwrap();
        assert!(matches!(
            ckpt.load_cell("s", 0, spec_tag(&(2u64, "a"))),
            Err(SnapError::FingerprintMismatch { .. })
        ));
        assert_eq!(
            ckpt.load_cell("s", 0, spec_tag(&(1u64, "a"))),
            Ok(Some(b"x".to_vec()))
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
