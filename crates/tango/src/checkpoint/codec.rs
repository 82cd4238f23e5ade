//! Durable on-disk encoding of [`Checkpoint`]s.
//!
//! A limit-stopped analysis survives process death by writing its
//! checkpoint to a file that a *different* process — possibly on a
//! machine restarted in between — can load and resume. The format is a
//! hand-rolled binary layout (no external serialization crates, matching
//! the repo's no-dependency rule):
//!
//! ```text
//! +----------------+---------+-----------+
//! | magic (8B)     | version | #sections |   header
//! | b"TANGOCKP"    |  u32 LE |  u32 LE   |
//! +----------------+---------+-----------+
//! | tag u32 | len u64 | payload | CRC32  |   one per section
//! +------------------------------------+-+
//! | ...                                  |
//! +--------------------------------------+
//! | CRC32 of everything above            |   whole-file digest
//! +--------------------------------------+
//! ```
//!
//! Sections: `META` (progress numbers + [`SearchStats`], readable without
//! touching the machine state), `TRACE` (the resolved trace), then the
//! frozen search itself — a `DFS` section for a static checkpoint, an
//! `MDFS` section (every worker's deque and parked PG-nodes) for an
//! on-line one. Both carry each saved state inline with its frame or
//! node; the resuming run re-saves them into a fresh snapshot store.
//!
//! **Failure is typed, never a panic.** Every way a file can be wrong —
//! empty, truncated, wrong magic, future version, flipped byte — maps to
//! a [`CheckpointError`] variant. Integrity checks run in a fixed order:
//! magic, version, structural walk (truncation), per-section CRC32 (so a
//! corrupt byte names its section), then the whole-file digest (covering
//! the headers between sections).
//!
//! **Writes are atomic.** [`Checkpoint::write_to`] writes a temp file in
//! the target directory, fsyncs it, renames it over the destination and
//! fsyncs the directory: a crash mid-write leaves the previous good
//! checkpoint intact, never a half-written one.

use super::{Checkpoint, CheckpointBody, MdfsCheckpoint, MdfsNodeCkpt, MdfsWorkerCkpt};
use crate::env::Cursors;
use crate::search::dfs::{DfsCheckpoint, Frame};
use crate::search::store::FxBuildHasher;
use crate::search::SearchPath;
use crate::stats::SearchStats;
use crate::trace::{Dir, ResolvedEvent, ResolvedTrace};
use estelle_ast::Span;
use estelle_runtime::codec::{decode_state, decode_value, encode_state, encode_value};
use estelle_runtime::{
    ByteReader, ByteWriter, CodecError, Fireable, MachineState, RuntimeError, RuntimeErrorKind,
};
use crate::fault::{CheckpointFaultInjector, CheckpointWriteFault, RetryOutcome, RetryPolicy};
use std::collections::HashSet;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"TANGOCKP";

/// Current format version. Bump on any change to the byte layout;
/// readers refuse any other version with
/// [`CheckpointError::UnsupportedVersion`] instead of misreading it.
/// Version 2 added the spill counters to the stats block and the
/// explicit charges-state flag to each DFS frame. Version 3 added the
/// per-site fault counters (source/checkpoint retries and giveups,
/// spill giveups) to the stats block. Version 4 added the work-stealing
/// counters to the stats block, the mode byte (+ per-worker load table)
/// to `META`, and the `MDFS` section for on-line checkpoints. Version 5
/// dropped the `STATES` table: DFS frames carry their state inline, and
/// no longer an intern key, a charged-byte count or a charges-state flag.
/// Version 6 encodes every path step (DFS path, DFS best path, MDFS node
/// paths) as a `u32` compiled-transition index instead of a name — names
/// are not unique (`<unnamed>`) — and drops the best-pending tag.
pub const FORMAT_VERSION: u32 = 6;

const SEC_META: u32 = 1;
const SEC_TRACE: u32 = 2;
const SEC_DFS: u32 = 4;
const SEC_MDFS: u32 = 5;

const MODE_DFS: u8 = 0;
const MODE_MDFS: u8 = 1;

fn section_name(tag: u32) -> &'static str {
    match tag {
        SEC_META => "meta",
        SEC_TRACE => "trace",
        SEC_DFS => "dfs",
        SEC_MDFS => "mdfs",
        _ => "unknown",
    }
}

/// Why a checkpoint file could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file was written by a newer format than this build reads.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ends before the structure is complete.
    Truncated { context: String },
    /// A section's payload (or the file as a whole) fails its CRC32.
    ChecksumMismatch { section: &'static str },
    /// Structurally invalid content behind valid checksums (unknown tag,
    /// out-of-range index, inconsistent lengths …).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {}", e),
            CheckpointError::BadMagic => f.write_str("not a tango checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {} not supported (this build reads up to {})",
                found, supported
            ),
            CheckpointError::Truncated { context } => {
                write!(f, "checkpoint file truncated while reading {}", context)
            }
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "checkpoint checksum mismatch in {} section", section)
            }
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {}", m),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { context } => CheckpointError::Truncated {
                context: context.to_string(),
            },
            CodecError::Malformed(m) => CheckpointError::Malformed(m),
        }
    }
}

/// Progress summary decoded from a checkpoint's `META` section alone —
/// no machine state is loaded, so inspecting a multi-megabyte checkpoint
/// is O(header).
#[derive(Clone, Debug)]
pub struct CheckpointInfo {
    /// Format version of the file.
    pub version: u32,
    /// `"dfs"` for a static-mode checkpoint, `"mdfs"` for an on-line one.
    pub mode: &'static str,
    /// Depth of the search path at the stop point.
    pub depth: usize,
    /// Saved backtracking frames awaiting exploration.
    pub pending_frames: usize,
    /// Checkable events in the trace under analysis.
    pub events_total: usize,
    /// Worker count of the saving run (`mdfs` checkpoints only).
    pub workers_at_save: Option<u32>,
    /// Per-worker `(deque, parked)` node counts of the saving run
    /// (`mdfs` checkpoints only; empty for `dfs`).
    pub worker_loads: Vec<(usize, usize)>,
    /// Counters accumulated up to the stop.
    pub stats: SearchStats,
}

impl Checkpoint {
    /// Serialize this checkpoint and atomically replace `path` with it.
    /// On return the file is durable (fsynced); on error the previous
    /// contents of `path`, if any, are untouched. Transient failures
    /// retry on the [`RetryPolicy::checkpoint`] schedule.
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        self.write_to_with(path, &RetryPolicy::checkpoint(), None)
            .result
    }

    /// [`Checkpoint::write_to`] with an explicit retry policy and an
    /// optional fault injector deciding the fate of each write attempt
    /// (the chaos layer's checkpoint site). Injected short writes tear
    /// the temp file only — the destination keeps its previous contents,
    /// which is exactly the atomic-rename contract under test. Returns
    /// the retry count alongside the result so autosave can feed
    /// `SearchStats::checkpoint_retries`.
    pub fn write_to_with(
        &self,
        path: &Path,
        policy: &RetryPolicy,
        mut injector: Option<&mut CheckpointFaultInjector>,
    ) -> RetryOutcome<(), CheckpointError> {
        let bytes = match encode_checkpoint(self) {
            Ok(b) => b,
            Err(e) => {
                return RetryOutcome {
                    result: Err(e),
                    retries: 0,
                }
            }
        };
        policy.run(&mut |_| {
            let fault = injector
                .as_mut()
                .map_or(CheckpointWriteFault::Pass, |i| i.next_fault());
            match fault {
                CheckpointWriteFault::Pass => write_atomic_once(path, &bytes),
                CheckpointWriteFault::IoError => Err(CheckpointError::Io(
                    std::io::Error::other("checkpoint write I/O error (injected)"),
                )),
                CheckpointWriteFault::ShortWrite => {
                    // The torn write of a crashing process: half the bytes
                    // land in the temp file, the rename never happens.
                    let _ = fs::write(tmp_path(path), &bytes[..bytes.len() / 2]);
                    Err(CheckpointError::Io(std::io::Error::other(
                        "checkpoint short write (injected)",
                    )))
                }
                CheckpointWriteFault::DiskFull => Err(CheckpointError::Io(
                    std::io::Error::other("no space left on device (injected)"),
                )),
            }
        })
    }

    /// Load a checkpoint written by [`Checkpoint::write_to`], verifying
    /// magic, version, per-section checksums and the whole-file digest.
    pub fn read_from(path: &Path) -> Result<Checkpoint, CheckpointError> {
        decode_checkpoint(&fs::read(path)?)
    }

    /// Verify the file's integrity and decode only its progress summary.
    pub fn read_info(path: &Path) -> Result<CheckpointInfo, CheckpointError> {
        let bytes = fs::read(path)?;
        let (version, sections) = parse_file(&bytes)?;
        let mut r = ByteReader::new(find_section(&sections, SEC_META)?);
        let info = decode_meta(&mut r, version)?;
        expect_done(&r, SEC_META)?;
        Ok(info)
    }
}

// ---------------------------------------------------------------- CRC32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the classic
/// bitwise formulation; checkpoint I/O is nowhere near hot enough to
/// justify a table. Shared with the spill-segment format, which
/// checksums each record payload with the same function.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ------------------------------------------------------------- encoding

fn encode_checkpoint(cp: &Checkpoint) -> Result<Vec<u8>, CheckpointError> {
    let sections = match &cp.body {
        CheckpointBody::Dfs(dfs) => vec![
            (SEC_META, encode_meta(cp)),
            (SEC_TRACE, encode_trace(&cp.trace)),
            (SEC_DFS, encode_dfs(dfs)),
        ],
        CheckpointBody::Mdfs(m) => vec![
            (SEC_META, encode_meta(cp)),
            (SEC_TRACE, encode_trace(&cp.trace)),
            (SEC_MDFS, encode_mdfs(m)),
        ],
    };

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    let digest = crc32(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    Ok(out)
}

fn encode_meta(cp: &Checkpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(cp.depth());
    w.put_usize(cp.pending_frames());
    w.put_usize(cp.events_total());
    encode_stats(&mut w, &cp.stats);
    match &cp.body {
        CheckpointBody::Dfs(_) => w.put_u8(MODE_DFS),
        CheckpointBody::Mdfs(m) => {
            w.put_u8(MODE_MDFS);
            w.put_u32(m.workers_at_save);
            w.put_u32(m.workers.len() as u32);
            for wk in &m.workers {
                w.put_usize(wk.deque.len());
                w.put_usize(wk.parked.len());
            }
        }
    }
    w.into_bytes()
}

/// Shared with the post-mortem dump format (`telemetry::dump`), whose
/// `STATS` section is exactly this block — one stats codec, two files.
pub(crate) fn encode_stats(w: &mut ByteWriter, s: &SearchStats) {
    w.put_u64(s.transitions_executed);
    w.put_u64(s.generates);
    w.put_u64(s.restores);
    w.put_u64(s.saves);
    // Nanosecond resolution in a u64 covers ~584 years of wall time.
    w.put_u64(s.wall_time.as_nanos() as u64);
    w.put_usize(s.max_depth);
    w.put_u64(s.fanout_sum);
    w.put_u64(s.fanout_samples);
    w.put_u64(s.pg_nodes);
    w.put_u64(s.error_branches);
    w.put_u64(s.hash_prunes);
    w.put_u64(s.barren_prunes);
    w.put_u64(s.intern_hits);
    w.put_usize(s.snapshot_bytes);
    w.put_usize(s.peak_snapshot_bytes);
    w.put_u64(s.spill_writes);
    w.put_u64(s.spill_reads);
    w.put_u64(s.spill_retries);
    w.put_u64(s.spill_evictions);
    w.put_usize(s.spilled_bytes);
    w.put_usize(s.peak_spilled_bytes);
    w.put_u64(s.source_retries);
    w.put_u64(s.source_giveups);
    w.put_u64(s.checkpoint_retries);
    w.put_u64(s.checkpoint_giveups);
    w.put_u64(s.spill_giveups);
    w.put_u64(s.steals);
    w.put_u64(s.steal_failures);
}

fn encode_trace(trace: &ResolvedTrace) -> Vec<u8> {
    let mut w = ByteWriter::new();
    // Stream count (== IP count); the streams themselves are re-derived
    // from the event list on decode.
    w.put_u32(trace.inputs.len() as u32);
    w.put_u32(trace.events.len() as u32);
    for e in &trace.events {
        w.put_u8(match e.dir {
            Dir::In => 0,
            Dir::Out => 1,
        });
        w.put_u32(e.ip as u32);
        w.put_u32(e.interaction as u32);
        w.put_u32(e.params.len() as u32);
        for p in &e.params {
            encode_value(&mut w, p);
        }
    }
    w.into_bytes()
}

fn encode_cursors(w: &mut ByteWriter, c: &Cursors) {
    w.put_u32(c.input.len() as u32);
    for &v in &c.input {
        w.put_usize(v);
    }
    w.put_u32(c.output.len() as u32);
    for &v in &c.output {
        w.put_usize(v);
    }
}

fn encode_fireable(w: &mut ByteWriter, f: &Fireable) {
    w.put_usize(f.trans);
    w.put_bool(f.fabricated);
    w.put_u32(f.params.len() as u32);
    for p in &f.params {
        encode_value(w, p);
    }
}

pub(crate) fn kind_to_u8(k: RuntimeErrorKind) -> u8 {
    match k {
        RuntimeErrorKind::UndefinedValue => 0,
        RuntimeErrorKind::UndefinedControl => 1,
        RuntimeErrorKind::DanglingPointer => 2,
        RuntimeErrorKind::IndexOutOfBounds => 3,
        RuntimeErrorKind::DivisionByZero => 4,
        RuntimeErrorKind::Overflow => 5,
        RuntimeErrorKind::CallDepthExceeded => 6,
        RuntimeErrorKind::LoopLimitExceeded => 7,
        RuntimeErrorKind::OutputRejected => 8,
        RuntimeErrorKind::Internal => 9,
        RuntimeErrorKind::Panic => 10,
    }
}

fn kind_from_u8(b: u8) -> Result<RuntimeErrorKind, CodecError> {
    Ok(match b {
        0 => RuntimeErrorKind::UndefinedValue,
        1 => RuntimeErrorKind::UndefinedControl,
        2 => RuntimeErrorKind::DanglingPointer,
        3 => RuntimeErrorKind::IndexOutOfBounds,
        4 => RuntimeErrorKind::DivisionByZero,
        5 => RuntimeErrorKind::Overflow,
        6 => RuntimeErrorKind::CallDepthExceeded,
        7 => RuntimeErrorKind::LoopLimitExceeded,
        8 => RuntimeErrorKind::OutputRejected,
        9 => RuntimeErrorKind::Internal,
        10 => RuntimeErrorKind::Panic,
        other => {
            return Err(CodecError::Malformed(format!(
                "unknown runtime-error kind {}",
                other
            )))
        }
    })
}

fn encode_spec_error(w: &mut ByteWriter, e: &RuntimeError) {
    w.put_u8(kind_to_u8(e.kind));
    w.put_str(&e.message);
    match e.span {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_u32(s.start);
            w.put_u32(s.end);
        }
    }
}

fn encode_path(w: &mut ByteWriter, path: &SearchPath) {
    w.put_u32(path.len() as u32);
    for t in path.indices() {
        w.put_u32(t);
    }
}

fn encode_dfs(dfs: &DfsCheckpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_state(&mut w, &dfs.state);
    encode_cursors(&mut w, &dfs.cursors);
    encode_path(&mut w, &dfs.path);
    w.put_u32(dfs.stack.len() as u32);
    for f in &dfs.stack {
        encode_state(&mut w, &f.state);
        encode_cursors(&mut w, &f.cursors);
        w.put_u32(f.fireable.len() as u32);
        for fr in &f.fireable {
            encode_fireable(&mut w, fr);
        }
        w.put_usize(f.next);
        // A frame's path is a prefix of the search path: its length
        // says which.
        w.put_usize(f.path.len());
        w.put_usize(f.barren);
    }
    // Sorted for a deterministic encoding: the same checkpoint always
    // produces the same bytes.
    let mut visited: Vec<u64> = dfs.visited.iter().copied().collect();
    visited.sort_unstable();
    w.put_u32(visited.len() as u32);
    for v in visited {
        w.put_u64(v);
    }
    w.put_u32(dfs.spec_errors.len() as u32);
    for e in &dfs.spec_errors {
        encode_spec_error(&mut w, e);
    }
    w.put_usize(dfs.best.0);
    encode_path(&mut w, &dfs.best.1);
    w.put_usize(dfs.total_events);
    w.put_usize(dfs.barren);
    w.put_bool(dfs.at_node);
    w.into_bytes()
}

fn encode_mdfs_node(w: &mut ByteWriter, n: &MdfsNodeCkpt) {
    encode_state(w, &n.state);
    encode_cursors(w, &n.cursors);
    w.put_u32(n.tried.len() as u32);
    for &t in &n.tried {
        w.put_usize(t);
    }
    w.put_u32(n.blocked.len() as u32);
    for &t in &n.blocked {
        w.put_usize(t);
    }
    w.put_usize(n.barren);
    encode_path(w, &n.path);
}

fn encode_mdfs_nodes(w: &mut ByteWriter, nodes: &[MdfsNodeCkpt]) {
    w.put_u32(nodes.len() as u32);
    for n in nodes {
        encode_mdfs_node(w, n);
    }
}

/// The frozen multi-worker search front, states inline per node.
fn encode_mdfs(m: &MdfsCheckpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(m.workers_at_save);
    w.put_bool(m.eof);
    w.put_u32(m.workers.len() as u32);
    for wk in &m.workers {
        encode_mdfs_nodes(&mut w, &wk.deque);
        encode_mdfs_nodes(&mut w, &wk.parked);
    }
    encode_mdfs_nodes(&mut w, &m.pg_prior);
    w.into_bytes()
}

// ------------------------------------------------------------- decoding

/// A section's tag and raw payload, CRC-verified by [`parse_file`].
type RawSection<'a> = (u32, &'a [u8]);

/// Structural walk + integrity checks. Returns the version and the raw
/// `(tag, payload)` list; every payload's CRC and the whole-file digest
/// have been verified when this returns `Ok`.
fn parse_file(bytes: &[u8]) -> Result<(u32, Vec<RawSection<'_>>), CheckpointError> {
    let truncated = |context: &str| CheckpointError::Truncated {
        context: context.to_string(),
    };
    if bytes.len() < MAGIC.len() {
        return Err(truncated("magic"));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    fn take<'a>(
        bytes: &'a [u8],
        pos: &mut usize,
        n: usize,
        context: &str,
    ) -> Result<&'a [u8], CheckpointError> {
        if bytes.len() - *pos < n {
            return Err(CheckpointError::Truncated {
                context: context.to_string(),
            });
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    }
    let get_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes"));

    let mut pos = MAGIC.len();
    let version = get_u32(take(bytes, &mut pos, 4, "format version")?);
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let nsections = get_u32(take(bytes, &mut pos, 4, "section count")?) as usize;

    let mut sections: Vec<(u32, &[u8], u32)> = Vec::new();
    for _ in 0..nsections {
        let tag = get_u32(take(bytes, &mut pos, 4, "section tag")?);
        let len = u64::from_le_bytes(
            take(bytes, &mut pos, 8, "section length")?
                .try_into()
                .expect("8 bytes"),
        );
        let len = usize::try_from(len).map_err(|_| truncated("section payload"))?;
        let payload = take(bytes, &mut pos, len, "section payload")?;
        let stored = get_u32(take(bytes, &mut pos, 4, "section checksum")?);
        sections.push((tag, payload, stored));
    }
    let digest_at = pos;
    let stored_digest = get_u32(take(bytes, &mut pos, 4, "file digest")?);
    if pos != bytes.len() {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing byte(s) after file digest",
            bytes.len() - pos
        )));
    }

    // Per-section checksums first, so a flipped payload byte names its
    // section; the whole-file digest then covers the headers in between.
    for &(tag, payload, stored) in &sections {
        if crc32(payload) != stored {
            return Err(CheckpointError::ChecksumMismatch {
                section: section_name(tag),
            });
        }
    }
    if crc32(&bytes[..digest_at]) != stored_digest {
        return Err(CheckpointError::ChecksumMismatch { section: "file" });
    }

    Ok((
        version,
        sections.into_iter().map(|(t, p, _)| (t, p)).collect(),
    ))
}

fn find_section<'a>(
    sections: &[RawSection<'a>],
    tag: u32,
) -> Result<&'a [u8], CheckpointError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or_else(|| {
            CheckpointError::Malformed(format!("missing {} section", section_name(tag)))
        })
}

fn expect_done(r: &ByteReader<'_>, tag: u32) -> Result<(), CheckpointError> {
    if r.is_done() {
        Ok(())
    } else {
        Err(CheckpointError::Malformed(format!(
            "{} trailing byte(s) in {} section",
            r.remaining(),
            section_name(tag)
        )))
    }
}

fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let (version, sections) = parse_file(bytes)?;

    let mut r = ByteReader::new(find_section(&sections, SEC_META)?);
    let info = decode_meta(&mut r, version)?;
    expect_done(&r, SEC_META)?;

    let mut r = ByteReader::new(find_section(&sections, SEC_TRACE)?);
    let trace = decode_trace(&mut r)?;
    expect_done(&r, SEC_TRACE)?;

    let body = match info.mode {
        "mdfs" => {
            let mut r = ByteReader::new(find_section(&sections, SEC_MDFS)?);
            let m = decode_mdfs(&mut r)?;
            expect_done(&r, SEC_MDFS)?;
            CheckpointBody::Mdfs(m)
        }
        _ => {
            let mut r = ByteReader::new(find_section(&sections, SEC_DFS)?);
            let dfs = decode_dfs(&mut r)?;
            expect_done(&r, SEC_DFS)?;
            CheckpointBody::Dfs(dfs)
        }
    };

    Ok(Checkpoint {
        body,
        trace,
        stats: info.stats,
    })
}

fn decode_meta(r: &mut ByteReader<'_>, version: u32) -> Result<CheckpointInfo, CheckpointError> {
    let depth = r.get_usize("depth")?;
    let pending_frames = r.get_usize("pending frames")?;
    let events_total = r.get_usize("events total")?;
    let stats = decode_stats(r)?;
    let (mode, workers_at_save, worker_loads) = match r.get_u8("mode")? {
        MODE_DFS => ("dfs", None, Vec::new()),
        MODE_MDFS => {
            let workers_at_save = r.get_u32("workers at save")?;
            let n = r.get_u32("worker load count")? as usize;
            let mut loads = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let deque = r.get_usize("worker deque length")?;
                let parked = r.get_usize("worker parked length")?;
                loads.push((deque, parked));
            }
            ("mdfs", Some(workers_at_save), loads)
        }
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown checkpoint mode {}",
                other
            )))
        }
    };
    Ok(CheckpointInfo {
        version,
        mode,
        depth,
        pending_frames,
        events_total,
        workers_at_save,
        worker_loads,
        stats,
    })
}

pub(crate) fn decode_stats(r: &mut ByteReader<'_>) -> Result<SearchStats, CodecError> {
    Ok(SearchStats {
        transitions_executed: r.get_u64("TE")?,
        generates: r.get_u64("GE")?,
        restores: r.get_u64("RE")?,
        saves: r.get_u64("SA")?,
        wall_time: Duration::from_nanos(r.get_u64("wall time")?),
        max_depth: r.get_usize("max depth")?,
        fanout_sum: r.get_u64("fanout sum")?,
        fanout_samples: r.get_u64("fanout samples")?,
        pg_nodes: r.get_u64("pg nodes")?,
        error_branches: r.get_u64("error branches")?,
        hash_prunes: r.get_u64("hash prunes")?,
        barren_prunes: r.get_u64("barren prunes")?,
        intern_hits: r.get_u64("intern hits")?,
        snapshot_bytes: r.get_usize("snapshot bytes")?,
        peak_snapshot_bytes: r.get_usize("peak snapshot bytes")?,
        spill_writes: r.get_u64("spill writes")?,
        spill_reads: r.get_u64("spill reads")?,
        spill_retries: r.get_u64("spill retries")?,
        spill_evictions: r.get_u64("spill evictions")?,
        spilled_bytes: r.get_usize("spilled bytes")?,
        peak_spilled_bytes: r.get_usize("peak spilled bytes")?,
        source_retries: r.get_u64("source retries")?,
        source_giveups: r.get_u64("source giveups")?,
        checkpoint_retries: r.get_u64("checkpoint retries")?,
        checkpoint_giveups: r.get_u64("checkpoint giveups")?,
        spill_giveups: r.get_u64("spill giveups")?,
        steals: r.get_u64("steals")?,
        steal_failures: r.get_u64("steal failures")?,
    })
}

fn decode_trace(r: &mut ByteReader<'_>) -> Result<ResolvedTrace, CheckpointError> {
    let ip_count = r.get_u32("stream count")? as usize;
    let mut out = ResolvedTrace::empty(ip_count);
    let n = r.get_len(6, "trace events")?;
    for index in 0..n {
        let dir = match r.get_u8("event direction")? {
            0 => Dir::In,
            1 => Dir::Out,
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown event direction tag {}",
                    other
                )))
            }
        };
        let ip = r.get_u32("event ip")? as usize;
        if ip >= ip_count {
            return Err(CheckpointError::Malformed(format!(
                "event {} references ip {} of {}",
                index, ip, ip_count
            )));
        }
        let interaction = r.get_u32("event interaction")? as usize;
        let np = r.get_u32("event params")? as usize;
        let mut params = Vec::with_capacity(np.min(64));
        for _ in 0..np {
            params.push(decode_value(r)?);
        }
        match dir {
            Dir::In => out.inputs[ip].push(index),
            Dir::Out => out.outputs[ip].push(index),
        }
        out.events.push(ResolvedEvent {
            dir,
            ip,
            interaction,
            params,
            index,
        });
    }
    Ok(out)
}

fn decode_cursors(r: &mut ByteReader<'_>) -> Result<Cursors, CodecError> {
    let ni = r.get_u32("input cursors")? as usize;
    let mut input = Vec::with_capacity(ni.min(1024));
    for _ in 0..ni {
        input.push(r.get_usize("input cursor")?);
    }
    let no = r.get_u32("output cursors")? as usize;
    let mut output = Vec::with_capacity(no.min(1024));
    for _ in 0..no {
        output.push(r.get_usize("output cursor")?);
    }
    Ok(Cursors { input, output })
}

fn decode_fireable(r: &mut ByteReader<'_>) -> Result<Fireable, CodecError> {
    let trans = r.get_usize("fireable transition")?;
    let fabricated = r.get_bool("fireable fabricated flag")?;
    let np = r.get_u32("fireable params")? as usize;
    let mut params = Vec::with_capacity(np.min(64));
    for _ in 0..np {
        params.push(decode_value(r)?);
    }
    Ok(Fireable {
        trans,
        params,
        fabricated,
    })
}

fn decode_spec_error(r: &mut ByteReader<'_>) -> Result<RuntimeError, CodecError> {
    let kind = kind_from_u8(r.get_u8("error kind")?)?;
    let message = r.get_str("error message")?;
    let span = match r.get_u8("error span tag")? {
        0 => None,
        1 => {
            let start = r.get_u32("span start")?;
            let end = r.get_u32("span end")?;
            if start > end {
                return Err(CodecError::Malformed(format!(
                    "inverted span {}..{}",
                    start, end
                )));
            }
            Some(Span::new(start, end))
        }
        other => {
            return Err(CodecError::Malformed(format!(
                "unknown span tag {}",
                other
            )))
        }
    };
    Ok(RuntimeError {
        kind,
        message,
        span,
    })
}

fn decode_path(r: &mut ByteReader<'_>) -> Result<SearchPath, CodecError> {
    let n = r.get_len(4, "path length")?;
    let mut path = SearchPath::new();
    for _ in 0..n {
        path.push(r.get_u32("path step")? as usize);
    }
    Ok(path)
}

fn decode_dfs(r: &mut ByteReader<'_>) -> Result<DfsCheckpoint, CheckpointError> {
    let state = decode_state(r)?;
    let cursors = decode_cursors(r)?;
    let path = decode_path(r)?;
    let nframes = r.get_u32("frame count")? as usize;
    let mut stack: Vec<Frame<MachineState>> = Vec::with_capacity(nframes.min(1024));
    let mut prefix_lens = Vec::with_capacity(nframes.min(1024));
    for i in 0..nframes {
        let state = decode_state(r)?;
        let cursors = decode_cursors(r)?;
        let nf = r.get_u32("frame fireable count")? as usize;
        let mut fireable = Vec::with_capacity(nf.min(64));
        for _ in 0..nf {
            fireable.push(decode_fireable(r)?);
        }
        let next = r.get_usize("frame next")?;
        let path_len = r.get_usize("frame path length")?;
        let barren = r.get_usize("frame barren count")?;
        if next > fireable.len() {
            return Err(CheckpointError::Malformed(format!(
                "frame {} cursor {} past its {} fireables",
                i,
                next,
                fireable.len()
            )));
        }
        if path_len > path.len() || prefix_lens.last().is_some_and(|&outer| outer > path_len) {
            return Err(CheckpointError::Malformed(format!(
                "frame {} path length {} is not a prefix between its outer frame's and the \
                 {}-step search path",
                i,
                path_len,
                path.len()
            )));
        }
        // The path is filled in below, once every length is known.
        stack.push(Frame {
            state,
            cursors,
            fireable,
            next,
            path: SearchPath::new(),
            barren,
        });
        prefix_lens.push(path_len);
    }
    // Frames hold prefixes of the search path, outermost first: walk it
    // back once from the leaf, handing each frame its shared prefix.
    let mut prefix = path.clone();
    for (f, &len) in stack.iter_mut().zip(&prefix_lens).rev() {
        prefix.truncate(len);
        f.path = prefix.clone();
    }
    let nv = r.get_len(8, "visited set")?;
    let mut visited: HashSet<u64, FxBuildHasher> =
        HashSet::with_capacity_and_hasher(nv, FxBuildHasher::default());
    for _ in 0..nv {
        visited.insert(r.get_u64("visited hash")?);
    }
    let ne = r.get_u32("spec error count")? as usize;
    let mut spec_errors = Vec::with_capacity(ne.min(1024));
    for _ in 0..ne {
        spec_errors.push(decode_spec_error(r)?);
    }
    let best_explained = r.get_usize("best explained")?;
    let best_path = decode_path(r)?;
    let total_events = r.get_usize("total events")?;
    let barren = r.get_usize("barren count")?;
    let at_node = r.get_bool("at-node flag")?;
    Ok(DfsCheckpoint {
        state,
        cursors,
        path,
        stack,
        visited,
        spec_errors,
        best: (best_explained, best_path),
        total_events,
        barren,
        at_node,
    })
}

fn decode_mdfs_node(r: &mut ByteReader<'_>) -> Result<MdfsNodeCkpt, CheckpointError> {
    let state = decode_state(r)?;
    let cursors = decode_cursors(r)?;
    let nt = r.get_u32("tried count")? as usize;
    let mut tried = Vec::with_capacity(nt.min(1024));
    for _ in 0..nt {
        tried.push(r.get_usize("tried transition")?);
    }
    let nb = r.get_u32("blocked count")? as usize;
    let mut blocked = Vec::with_capacity(nb.min(1024));
    for _ in 0..nb {
        blocked.push(r.get_usize("blocked transition")?);
    }
    let barren = r.get_usize("node barren count")?;
    let path = decode_path(r)?;
    Ok(MdfsNodeCkpt {
        state,
        cursors,
        tried,
        blocked,
        barren,
        path,
    })
}

fn decode_mdfs_nodes(r: &mut ByteReader<'_>) -> Result<Vec<MdfsNodeCkpt>, CheckpointError> {
    let n = r.get_u32("node count")? as usize;
    let mut nodes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        nodes.push(decode_mdfs_node(r)?);
    }
    Ok(nodes)
}

fn decode_mdfs(r: &mut ByteReader<'_>) -> Result<MdfsCheckpoint, CheckpointError> {
    let workers_at_save = r.get_u32("workers at save")?;
    let eof = r.get_bool("eof flag")?;
    let nw = r.get_u32("worker count")? as usize;
    let mut workers = Vec::with_capacity(nw.min(1024));
    for _ in 0..nw {
        let deque = decode_mdfs_nodes(r)?;
        let parked = decode_mdfs_nodes(r)?;
        workers.push(MdfsWorkerCkpt { deque, parked });
    }
    let pg_prior = decode_mdfs_nodes(r)?;
    Ok(MdfsCheckpoint {
        workers_at_save,
        eof,
        workers,
        pg_prior,
    })
}

// --------------------------------------------------------- atomic write

/// The temp-file sibling one atomic write stages into before the rename
/// (pid-suffixed so concurrent writers to the same path cannot collide).
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(tmp_name)
}

/// One write attempt: temp file in the same directory, fsync, rename
/// over the destination, fsync the directory. A crash at any point
/// leaves either the old file or the new one, never a mix. Retries are
/// the caller's job, via [`RetryPolicy::checkpoint`] — each attempt is
/// this full sequence, so a retry never observes a half-written file.
pub(crate) fn write_atomic_once(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    let result = (|| -> Result<(), CheckpointError> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is a
        // best-effort POSIX-ism; opening a directory read-only fails on
        // some platforms, and the rename is already atomic without it.
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_vector() {
        // The classic CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"tango"), crc32(b"tangp"));
    }

    #[test]
    fn stats_roundtrip() {
        let s = SearchStats {
            transitions_executed: 12345,
            generates: 678,
            restores: 90,
            saves: 91,
            wall_time: Duration::from_micros(987_654),
            max_depth: 42,
            fanout_sum: 100,
            fanout_samples: 40,
            pg_nodes: 7,
            error_branches: 3,
            hash_prunes: 11,
            barren_prunes: 2,
            intern_hits: 19,
            snapshot_bytes: 4096,
            peak_snapshot_bytes: 8192,
            spill_writes: 23,
            spill_reads: 17,
            spill_retries: 2,
            spill_evictions: 25,
            spilled_bytes: 2048,
            peak_spilled_bytes: 3072,
            source_retries: 5,
            source_giveups: 1,
            checkpoint_retries: 4,
            checkpoint_giveups: 2,
            spill_giveups: 3,
            steals: 31,
            steal_failures: 6,
        };
        let mut w = ByteWriter::new();
        encode_stats(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_stats(&mut r).expect("decodes");
        assert!(r.is_done());
        assert_eq!(back.transitions_executed, s.transitions_executed);
        assert_eq!(back.wall_time, s.wall_time);
        assert_eq!(back.peak_snapshot_bytes, s.peak_snapshot_bytes);
        assert_eq!(back.spill_writes, s.spill_writes);
        assert_eq!(back.spill_evictions, s.spill_evictions);
        assert_eq!(back.peak_spilled_bytes, s.peak_spilled_bytes);
        assert_eq!(back.source_retries, s.source_retries);
        assert_eq!(back.source_giveups, s.source_giveups);
        assert_eq!(back.checkpoint_retries, s.checkpoint_retries);
        assert_eq!(back.checkpoint_giveups, s.checkpoint_giveups);
        assert_eq!(back.spill_giveups, s.spill_giveups);
        assert_eq!(back.steals, s.steals);
        assert_eq!(back.steal_failures, s.steal_failures);
    }

    #[test]
    fn atomic_write_retries_transient_failures_with_backoff() {
        let mut attempts = 0u32;
        let mut slept: Vec<Duration> = Vec::new();
        let out = RetryPolicy::checkpoint().run_with_sleep(&mut |d| slept.push(d), &mut |_| {
            attempts += 1;
            if attempts < 3 {
                Err(CheckpointError::Io(std::io::Error::other("transient")))
            } else {
                Ok(())
            }
        });
        assert!(out.result.is_ok(), "two transient failures must be absorbed");
        assert_eq!(attempts, 3);
        assert_eq!(out.retries, 2, "the outcome reports the retries it cost");
        assert_eq!(
            slept,
            vec![Duration::from_millis(4), Duration::from_millis(8)],
            "backoff must double between attempts"
        );
    }

    #[test]
    fn atomic_write_surfaces_persistent_failure_after_bounded_retries() {
        let mut attempts = 0u32;
        let out: RetryOutcome<(), _> =
            RetryPolicy::checkpoint().run_with_sleep(&mut |_| {}, &mut |_| {
                attempts += 1;
                Err(CheckpointError::Io(std::io::Error::other("dead disk")))
            });
        match out.result {
            Err(CheckpointError::Io(e)) => assert!(e.to_string().contains("dead disk")),
            other => panic!("persistent failure must surface as Io, got {:?}", other),
        }
        assert_eq!(attempts, 4, "retries are bounded: 1 try + 3 retries");
    }

    #[test]
    fn error_kind_mapping_is_total_and_injective() {
        let kinds = [
            RuntimeErrorKind::UndefinedValue,
            RuntimeErrorKind::UndefinedControl,
            RuntimeErrorKind::DanglingPointer,
            RuntimeErrorKind::IndexOutOfBounds,
            RuntimeErrorKind::DivisionByZero,
            RuntimeErrorKind::Overflow,
            RuntimeErrorKind::CallDepthExceeded,
            RuntimeErrorKind::LoopLimitExceeded,
            RuntimeErrorKind::OutputRejected,
            RuntimeErrorKind::Internal,
            RuntimeErrorKind::Panic,
        ];
        for (i, &k) in kinds.iter().enumerate() {
            assert_eq!(kind_to_u8(k), i as u8);
            assert_eq!(kind_from_u8(i as u8).expect("maps back"), k);
        }
        assert!(kind_from_u8(kinds.len() as u8).is_err());
    }
}
