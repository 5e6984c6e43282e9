//! Versioned, checksummed, deterministic state serialization.
//!
//! Every stateful component in the simulator exposes a pair of inherent
//! methods — `snap_save(&self, &mut SnapWriter)` and
//! `snap_load(&mut self, &mut SnapReader) -> Result<(), SnapError>` —
//! built on the primitives here. The format is deliberately dumb:
//! little-endian fixed-width integers, length-prefixed byte strings, no
//! self-description. Determinism comes from the writers (maps are
//! serialized in sorted key order), integrity from the envelope
//! ([`seal`]/[`open`]): an 8-byte magic, a format version, the payload
//! length, an FNV-1a checksum of the payload, and a semantic
//! state-fingerprint the producer computed over live state. `open`
//! validates magic/version/length/checksum and hands back the
//! fingerprint so the caller can cross-check it against the state it
//! just reconstructed.
//!
//! Checkpoint files are written with [`atomic_write`] (temp file +
//! rename) so a crash can never leave a torn file behind.
//!
//! # Examples
//!
//! ```
//! use svt_sim::snapshot::{open, seal, SnapReader, SnapWriter, SNAP_VERSION};
//!
//! let mut w = SnapWriter::new();
//! w.u64(42);
//! w.str("hello");
//! let sealed = seal(SNAP_VERSION, 0xfee1_600d, w.into_vec());
//!
//! let (fingerprint, payload) = open(&sealed, SNAP_VERSION).unwrap();
//! assert_eq!(fingerprint, 0xfee1_600d);
//! let mut r = SnapReader::new(payload);
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.str().unwrap(), "hello");
//! ```

use std::error::Error;
use std::fmt;
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::hash::{FnvHashSet, FnvHasher};

/// Current snapshot format version. Bumped on any wire-format change;
/// [`open`] rejects snapshots from other versions with
/// [`SnapError::BadVersion`] rather than misinterpreting bytes.
pub const SNAP_VERSION: u32 = 1;

/// Magic prefix of every sealed snapshot ("SVTSNAP\0").
pub const SNAP_MAGIC: [u8; 8] = *b"SVTSNAP\0";

/// Typed error for snapshot decoding and integrity validation.
///
/// Every failure mode a corrupted, truncated, or mismatched snapshot can
/// produce maps to a variant here; restore paths never panic on bad
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran off the end of the payload (truncation).
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the failed read needed.
        want: usize,
        /// Bytes remaining in the payload.
        have: usize,
    },
    /// The sealed blob does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The sealed blob was produced by a different format version.
    BadVersion {
        /// Version found in the envelope.
        got: u32,
        /// Version this build expects.
        want: u32,
    },
    /// The payload length in the envelope disagrees with the blob size.
    BadLength {
        /// Length the envelope claims.
        claimed: u64,
        /// Bytes actually present after the header.
        actual: u64,
    },
    /// The FNV-1a checksum over the payload does not match (bit rot or
    /// torn write).
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The semantic state-fingerprint recorded at save time does not
    /// match the state reconstructed at load time.
    FingerprintMismatch {
        /// Fingerprint stored in the envelope.
        stored: u64,
        /// Fingerprint recomputed from the restored state.
        computed: u64,
    },
    /// An enum tag or flag byte held a value outside its domain.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        got: u64,
    },
    /// The snapshot describes a machine whose fixed shape (ISA, vCPU
    /// count, device count, reflector kind, ...) differs from the
    /// machine it is being restored into.
    ShapeMismatch {
        /// Which shape property disagreed.
        what: &'static str,
        /// Value recorded in the snapshot.
        snapshot: u64,
        /// Value of the live machine.
        live: u64,
    },
    /// A name (e.g. a clock counter) outside the closed set this build
    /// knows.
    UnknownName {
        /// What the name was decoded as.
        what: &'static str,
        /// The offending name.
        name: String,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the decoder consumed everything it expected.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { at, want, have } => write!(
                f,
                "snapshot truncated: need {want} bytes at offset {at}, {have} left"
            ),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::BadVersion { got, want } => {
                write!(f, "snapshot version {got} unsupported (expected {want})")
            }
            SnapError::BadLength { claimed, actual } => write!(
                f,
                "snapshot length mismatch: envelope claims {claimed} bytes, found {actual}"
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::FingerprintMismatch { stored, computed } => write!(
                f,
                "state fingerprint mismatch after restore: snapshot {stored:#018x}, \
                 restored machine {computed:#018x}"
            ),
            SnapError::BadValue { what, got } => {
                write!(f, "invalid {what} value {got} in snapshot")
            }
            SnapError::ShapeMismatch {
                what,
                snapshot,
                live,
            } => write!(
                f,
                "snapshot shape mismatch on {what}: snapshot has {snapshot}, live machine {live}"
            ),
            SnapError::UnknownName { what, name } => {
                write!(f, "unknown {what} name {name:?} in snapshot")
            }
            SnapError::BadUtf8 => write!(f, "snapshot string is not valid UTF-8"),
            SnapError::TrailingBytes { count } => {
                write!(f, "{count} unconsumed bytes after snapshot payload")
            }
        }
    }
}

impl Error for SnapError {}

/// Append-only little-endian byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                at: self.pos,
                want: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is [`SnapError::BadValue`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::BadValue {
                what: "bool",
                got: b as u64,
            }),
        }
    }

    /// Reads a `usize` stored as `u64`; errors if it overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadValue {
            what: "usize",
            got: v,
        })
    }

    /// Reads a length-prefixed byte string. The length is validated
    /// against the remaining payload before any allocation, so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::BadUtf8)
    }

    /// Reads an `Option<u64>` written by [`SnapWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            b => Err(SnapError::BadValue {
                what: "option tag",
                got: b as u64,
            }),
        }
    }
}

/// FNV-1a over a byte slice — the checksum used by the envelope and by
/// state fingerprints that fold raw buffers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a fold over `u64` words, in the style of
/// `HostProf::shape_fold`: one multiply per word. Used to build the
/// semantic state fingerprints carried in snapshot envelopes.
#[derive(Debug, Clone, Default)]
pub struct Fingerprint(FnvHasher);

impl Fingerprint {
    /// Starts a fresh fold.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Folds one word.
    #[inline]
    pub fn fold(&mut self, v: u64) -> &mut Self {
        self.0.write_u64(v);
        self
    }

    /// Folds a byte slice.
    #[inline]
    pub fn fold_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.write(bytes);
        self
    }

    /// Finishes the fold.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

// Envelope layout, all little-endian:
//   [0..8)    SNAP_MAGIC
//   [8..12)   format version (u32)
//   [12..20)  payload length (u64)
//   [20..28)  state fingerprint (u64)
//   [28..36)  FNV-1a checksum of payload (u64)
//   [36..)    payload
const HEADER_LEN: usize = 36;

/// Wraps a payload in the integrity envelope.
pub fn seal(version: u32, fingerprint: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates a sealed blob and returns `(fingerprint, payload)`.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::BadVersion`],
/// [`SnapError::BadLength`] (truncated or padded blob), or
/// [`SnapError::ChecksumMismatch`] (payload corruption).
pub fn open(blob: &[u8], version: u32) -> Result<(u64, &[u8]), SnapError> {
    if blob.len() < HEADER_LEN {
        if !blob.starts_with(&SNAP_MAGIC[..blob.len().min(8)]) {
            return Err(SnapError::BadMagic);
        }
        return Err(SnapError::UnexpectedEof {
            at: blob.len(),
            want: HEADER_LEN,
            have: blob.len(),
        });
    }
    if blob[..8] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let got_version = u32::from_le_bytes(blob[8..12].try_into().unwrap());
    if got_version != version {
        return Err(SnapError::BadVersion {
            got: got_version,
            want: version,
        });
    }
    let claimed = u64::from_le_bytes(blob[12..20].try_into().unwrap());
    let fingerprint = u64::from_le_bytes(blob[20..28].try_into().unwrap());
    let stored_sum = u64::from_le_bytes(blob[28..36].try_into().unwrap());
    let payload = &blob[HEADER_LEN..];
    if claimed != payload.len() as u64 {
        return Err(SnapError::BadLength {
            claimed,
            actual: payload.len() as u64,
        });
    }
    let computed = fnv1a(payload);
    if computed != stored_sum {
        return Err(SnapError::ChecksumMismatch {
            stored: stored_sum,
            computed,
        });
    }
    Ok((fingerprint, payload))
}

/// Writes `bytes` to `path` atomically: the content lands in a sibling
/// temp file first and is renamed into place, so readers (and crashes)
/// see either the old file or the complete new one, never a torn write.
///
/// # Errors
///
/// Propagates I/O errors from create/write/sync/rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let write = (|| {
        let mut f = fs::File::create(&tmp_path)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp_path, path)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    write
}

static INTERNED: Mutex<Option<FnvHashSet<&'static str>>> = Mutex::new(None);

/// Returns a `&'static str` equal to `s`, leaking at most one copy per
/// distinct string per process. Snapshot restore uses this to rebuild
/// `&'static str`-keyed maps (clock tags, metric names): the universe of
/// such strings is the fixed set of in-tree names, so the leak is
/// bounded and one-time.
pub fn intern_static(s: &str) -> &'static str {
    let mut guard = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    let set = guard.get_or_insert_with(FnvHashSet::default);
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(3.5);
        w.bool(true);
        w.bool(false);
        w.usize(123_456);
        w.bytes(&[9, 8, 7]);
        w.str("svt");
        w.opt_u64(Some(7));
        w.opt_u64(None);
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.bytes().unwrap(), &[9, 8, 7]);
        assert_eq!(r.str().unwrap(), "svt");
        assert_eq!(r.opt_u64().unwrap(), Some(7));
        assert_eq!(r.opt_u64().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut w = SnapWriter::new();
        w.u32(1);
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.u64(), Err(SnapError::UnexpectedEof { .. })));
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.bytes(), Err(SnapError::UnexpectedEof { .. })));
    }

    #[test]
    fn envelope_round_trip() {
        let sealed = seal(SNAP_VERSION, 0x1234, vec![1, 2, 3, 4]);
        let (fp, payload) = open(&sealed, SNAP_VERSION).unwrap();
        assert_eq!(fp, 0x1234);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn envelope_rejects_corruption() {
        let sealed = seal(SNAP_VERSION, 0, vec![0u8; 64]);

        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            open(&flipped, SNAP_VERSION),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        let truncated = &sealed[..sealed.len() - 5];
        assert!(matches!(
            open(truncated, SNAP_VERSION),
            Err(SnapError::BadLength { .. })
        ));

        let tiny = &sealed[..10];
        assert!(matches!(
            open(tiny, SNAP_VERSION),
            Err(SnapError::UnexpectedEof { .. })
        ));

        let mut wrong_magic = sealed.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            open(&wrong_magic, SNAP_VERSION),
            Err(SnapError::BadMagic)
        ));

        let mut wrong_version = sealed.clone();
        wrong_version[8] = 0xff;
        assert!(matches!(
            open(&wrong_version, SNAP_VERSION),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("svt-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        atomic_write(&path, b"first version").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first version");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn intern_is_stable() {
        let a = intern_static("svt-test-intern-a");
        let b = intern_static(&String::from("svt-test-intern-a"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn fingerprint_folds_like_hostprof() {
        let mut fp = Fingerprint::new();
        fp.fold(1).fold(2);
        let mut h = FnvHasher::default();
        h.write_u64(1);
        h.write_u64(2);
        assert_eq!(fp.value(), h.finish());
    }
}
