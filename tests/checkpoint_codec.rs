//! Corruption matrix for the durable checkpoint codec.
//!
//! A checkpoint file can be damaged in every way a filesystem and an
//! unlucky crash allow: truncated at any point, a single bit flipped in
//! any section, replaced by a different file format, written by a future
//! version of the tool, or empty. Each case must surface as the *right*
//! typed [`CheckpointError`] — never a panic, and never a silent partial
//! load that would resume a half-real search.

use protocols::tp0;
use std::path::PathBuf;
use tango::{AnalysisOptions, Checkpoint, CheckpointError, TangoError, Verdict};

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-checkpoint-codec-{}-{}",
        tag,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("checkpoint.bin")
}

/// Produce a real limit-stopped checkpoint (with frames, a resolved
/// trace and non-trivial counters) and its file.
fn stopped_checkpoint() -> Checkpoint {
    let a = tp0::analyzer();
    let bad = tp0::invalidate_last_data(&tp0::complete_valid_trace(3, 3, 1))
        .expect("complete trace has a data output to corrupt");
    let full = a.analyze(&bad, &AnalysisOptions::default()).unwrap();
    let mut limited = AnalysisOptions::default();
    limited.limits.max_transitions = (full.stats.transitions_executed / 2).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    assert!(matches!(stopped.verdict, Verdict::Inconclusive(_)));
    *stopped.checkpoint.expect("limit stop must carry a checkpoint")
}

fn checkpoint_bytes(tag: &str) -> (Checkpoint, Vec<u8>, PathBuf) {
    let cp = stopped_checkpoint();
    let path = temp_file(tag);
    cp.write_to(&path).expect("checkpoint writes");
    let bytes = std::fs::read(&path).expect("checkpoint file exists");
    (cp, bytes, path)
}

#[test]
fn roundtrip_preserves_progress_and_stats() {
    let (cp, _, path) = checkpoint_bytes("roundtrip");
    let back = Checkpoint::read_from(&path).expect("clean file reads");
    assert_eq!(back.depth(), cp.depth());
    assert_eq!(back.pending_frames(), cp.pending_frames());
    assert_eq!(back.events_total(), cp.events_total());
    assert_eq!(
        back.stats().transitions_executed,
        cp.stats().transitions_executed
    );
    assert_eq!(back.stats().saves, cp.stats().saves);
    assert_eq!(back.stats().wall_time, cp.stats().wall_time);
    assert_eq!(back.stats().snapshot_bytes, cp.stats().snapshot_bytes);

    let info = Checkpoint::read_info(&path).expect("info reads");
    assert_eq!(info.depth, cp.depth());
    assert_eq!(info.pending_frames, cp.pending_frames());
    assert_eq!(info.events_total, cp.events_total());
    assert_eq!(info.stats.restores, cp.stats().restores);
}

#[test]
fn deterministic_encoding() {
    let (cp, bytes, path) = checkpoint_bytes("deterministic");
    cp.write_to(&path).expect("rewrite");
    assert_eq!(
        bytes,
        std::fs::read(&path).unwrap(),
        "the same checkpoint must always produce the same bytes"
    );
}

#[test]
fn zero_length_file_is_a_typed_error() {
    let path = temp_file("zero");
    std::fs::write(&path, b"").unwrap();
    match Checkpoint::read_from(&path) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("zero-length file must be Truncated, got {:?}", other.err()),
    }
    assert!(Checkpoint::read_info(&path).is_err());
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let (_, mut bytes, path) = checkpoint_bytes("magic");
    bytes[..8].copy_from_slice(b"NOTTANGO");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Checkpoint::read_from(&path),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(
        Checkpoint::read_info(&path),
        Err(CheckpointError::BadMagic)
    ));
}

#[test]
fn future_version_is_refused_not_misread() {
    let (_, mut bytes, path) = checkpoint_bytes("version");
    // A far-future version; v4, the last layout with a `STATES` table;
    // and v5, the last one with transition names as path steps — neither
    // of which this build reads. The version field sits right after the
    // 8-byte magic.
    for version in [999u32, 4, 5] {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Checkpoint::read_from(&path) {
            Err(CheckpointError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_ne!(supported, version);
            }
            other => panic!("version {} must be refused, got {:?}", version, other.err()),
        }
    }
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let (_, bytes, path) = checkpoint_bytes("truncate");
    // Every strict prefix: step through short prefixes exhaustively and
    // longer ones sparsely to keep the test fast.
    let mut lengths: Vec<usize> = (0..bytes.len().min(64)).collect();
    lengths.extend((64..bytes.len()).step_by(97));
    lengths.push(bytes.len() - 1);
    for n in lengths {
        std::fs::write(&path, &bytes[..n]).unwrap();
        match Checkpoint::read_from(&path) {
            Err(
                CheckpointError::Truncated { .. }
                | CheckpointError::BadMagic
                | CheckpointError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => panic!("prefix of {} bytes: unexpected error {:?}", n, other),
            Ok(_) => panic!("prefix of {} bytes decoded successfully", n),
        }
        assert!(Checkpoint::read_info(&path).is_err());
    }
}

#[test]
fn flipped_byte_in_each_section_is_caught_by_its_checksum() {
    let (_, bytes, path) = checkpoint_bytes("flip");
    // Walk the real section table so each corruption lands squarely
    // inside one section's payload.
    let sections = walk_sections(&bytes);
    assert_eq!(sections.len(), 3, "META, TRACE, DFS");
    for (name, start, len) in &sections {
        if *len == 0 {
            continue;
        }
        let mut corrupt = bytes.clone();
        let target = start + len / 2;
        corrupt[target] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        match Checkpoint::read_from(&path) {
            Err(CheckpointError::ChecksumMismatch { section }) => {
                assert_eq!(
                    &section, name,
                    "flip at {} must be pinned to the {} section",
                    target, name
                );
            }
            other => panic!(
                "flip in {} must be a checksum mismatch, got {:?}",
                name,
                other.err()
            ),
        }
    }
}

#[test]
fn flipped_section_header_byte_is_still_a_typed_error() {
    let (_, bytes, path) = checkpoint_bytes("header-flip");
    let sections = walk_sections(&bytes);
    // The tag of the first section lives 12 bytes into the header region
    // that per-section CRCs do not cover; the whole-file digest must.
    let first_payload_start = sections[0].1;
    let tag_byte = first_payload_start - 12;
    let mut corrupt = bytes.clone();
    corrupt[tag_byte] ^= 0x08;
    std::fs::write(&path, &corrupt).unwrap();
    match Checkpoint::read_from(&path) {
        Err(
            CheckpointError::ChecksumMismatch { .. }
            | CheckpointError::Truncated { .. }
            | CheckpointError::Malformed(_),
        ) => {}
        other => panic!("header flip must be a typed error, got {:?}", other.err()),
    }
}

#[test]
fn flipped_file_digest_is_caught() {
    let (_, mut bytes, path) = checkpoint_bytes("digest-flip");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match Checkpoint::read_from(&path) {
        Err(CheckpointError::ChecksumMismatch { section }) => assert_eq!(section, "file"),
        other => panic!("digest flip must be caught, got {:?}", other.err()),
    }
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_specification() {
    let (cp, _, path) = checkpoint_bytes("cross-spec");
    drop(cp);
    let cp = Checkpoint::read_from(&path).unwrap();
    // A different machine: one IP, different transitions. Resuming the
    // TP0 checkpoint into it must be an error, not an out-of-range panic
    // deep inside the search.
    let other = tango::Tango::generate(
        r#"
        specification mini;
        channel C(user, station); by user: a; by station: b; end;
        module M process; ip P : C(station); end;
        body MB for M;
            state S;
            initialize to S begin end;
            trans from S to same when P.a begin output P.b end;
        end;
        end.
        "#,
    )
    .expect("mini spec is valid");
    let err = other
        .analyze_resume(cp, &AnalysisOptions::default())
        .expect_err("cross-spec resume must be refused");
    assert!(
        matches!(err, TangoError::Resume(_)) && err.to_string().contains("resume"),
        "error should point at the resume validation: {}",
        err
    );
}

/// A path step is a compiled-transition index, so a checkpoint whose
/// path names a transition the resuming specification does not have is
/// refused by the resume cross-check, not indexed out of range.
#[test]
fn resume_refuses_a_path_step_past_the_transition_count() {
    // `tb` (index 1) is the only transition that explains the trace, so
    // every stop below has it on its search path.
    let spec = |trans: &str| {
        format!(
            "specification pick;
            channel C(env, m); by env: req(n : integer); by m: rsp(n : integer); end;
            module M process; ip P : C(m); end;
            body MB for M;
                state S;
                initialize to S begin end;
                trans {}
            end;
            end.",
            trans
        )
    };
    let ta = "from S to S when P.req name ta: begin output P.rsp(n + 1) end;";
    let tb = "from S to S when P.req name tb: begin output P.rsp(n + 2) end;";
    let two = tango::Tango::generate(&spec(&format!("{} {}", ta, tb))).unwrap();
    let one = tango::Tango::generate(&spec(ta)).unwrap();
    let trace = tango::parse_trace(&"in P.req(1)\nout P.rsp(3)\n".repeat(4), None).unwrap();
    let mut limited = AnalysisOptions::default();
    limited.limits.max_transitions = 3;
    let stopped = two.analyze(&trace, &limited).unwrap();
    assert!(matches!(stopped.verdict, Verdict::Inconclusive(_)));
    let path = temp_file("path-index");
    stopped
        .checkpoint
        .expect("limit stop checkpoints")
        .write_to(&path)
        .unwrap();

    let cp = Checkpoint::read_from(&path).unwrap();
    match one.analyze_resume(cp, &AnalysisOptions::default()) {
        Err(e @ TangoError::Resume(_)) => assert_eq!(
            e.to_string(),
            "cannot resume checkpoint: search path step 0 references transition 1 of 1",
            "error should name the out-of-range path step"
        ),
        other => panic!(
            "out-of-range path step must be refused, got {:?}",
            other.map(|r| r.verdict)
        ),
    }
    // The specification it was written by resumes it.
    let cp = Checkpoint::read_from(&path).unwrap();
    let r = two.analyze_resume(cp, &AnalysisOptions::default()).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
}

/// Independently parse the file structure: `(section name, payload
/// offset, payload length)` for each section. Kept deliberately separate
/// from the production decoder so a decoder bug cannot hide a layout bug.
fn walk_sections(bytes: &[u8]) -> Vec<(&'static str, usize, usize)> {
    let u32_at = |p: usize| u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
    let u64_at = |p: usize| u64::from_le_bytes(bytes[p..p + 8].try_into().unwrap());
    assert_eq!(&bytes[..8], b"TANGOCKP");
    let nsections = u32_at(12) as usize;
    let mut pos = 16;
    let mut out = Vec::new();
    for _ in 0..nsections {
        let tag = u32_at(pos);
        let len = u64_at(pos + 4) as usize;
        let name = match tag {
            1 => "meta",
            2 => "trace",
            4 => "dfs",
            _ => "unknown",
        };
        out.push((name, pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos + 4, bytes.len(), "file digest must close the file");
    out
}
