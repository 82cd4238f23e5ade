//! End-to-end black box: post-mortem dumps, `dump-info`, the zero-cost
//! `--flight-recorder off` gate, the codec-v3 counters in
//! `checkpoint-info`, and the live `--listen` endpoint fetched with the
//! shipped `http-get` curl substitute.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tango"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tango-black-box-{}-{}", tag, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Same doubling spec the chaos tests use: every `ping` has two
/// indistinguishable firings, and the missing `pong` exhausts the tree.
const FORK_SPEC: &str = r#"
specification forker;
channel C(user, station);
    by user: ping;
    by station: pong;
end;
module M process;
    ip U : C(station);
end;
body MB for M;
    state s0;
    initialize to s0 begin end;
    trans
    from s0 to same when U.ping name ta: begin end;
    from s0 to same when U.ping name tb: begin end;
end;
end.
"#;

fn write_inputs(dir: &Path, pings: usize) -> (PathBuf, PathBuf) {
    let spec = dir.join("forker.est");
    std::fs::write(&spec, FORK_SPEC).unwrap();
    let mut trace = String::new();
    for _ in 0..pings {
        trace.push_str("in U.ping\n");
    }
    trace.push_str("out U.pong\n");
    let trace_path = dir.join("trace.txt");
    std::fs::write(&trace_path, trace).unwrap();
    (spec, trace_path)
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

#[test]
fn inconclusive_run_writes_a_dump_dump_info_reads_it_back() {
    let dir = tmpdir("dump");
    let (spec, trace) = write_inputs(&dir, 8);
    let dump = dir.join("pm.tangodump");

    let out = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--max-transitions", "10", "--dump-file"])
        .arg(&dump)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "inconclusive exit code");
    assert!(
        stderr_of(&out).contains("post-mortem dump written"),
        "stderr must name the dump: {}",
        stderr_of(&out)
    );
    assert!(dump.exists(), "dump file must exist");

    // Human rendering names the verdict and the counters.
    let info = bin().arg("dump-info").arg(&dump).output().unwrap();
    assert_eq!(info.status.code(), Some(0), "{}", stderr_of(&info));
    let text = stdout_of(&info);
    assert!(text.contains("tango post-mortem dump"), "{}", text);
    assert!(text.contains("flight recorder:"), "{}", text);
    assert!(text.contains("TE="), "{}", text);

    // JSONL rendering is one document per line, led by the header.
    let jsonl = bin()
        .args(["dump-info", "--jsonl"])
        .arg(&dump)
        .output()
        .unwrap();
    assert_eq!(jsonl.status.code(), Some(0));
    let body = stdout_of(&jsonl);
    let first = body.lines().next().unwrap();
    assert!(first.contains("\"schema\":\"tango-dump\""), "{}", first);
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "every line is a JSON document: {}",
            line
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_dump_is_a_typed_error_not_a_panic() {
    let dir = tmpdir("corrupt");
    let (spec, trace) = write_inputs(&dir, 8);
    let dump = dir.join("pm.tangodump");
    bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--max-transitions", "10", "--dump-file"])
        .arg(&dump)
        .output()
        .unwrap();

    let mut bytes = std::fs::read(&dump).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&dump, &bytes).unwrap();

    let info = bin().arg("dump-info").arg(&dump).output().unwrap();
    assert_eq!(info.status.code(), Some(3), "typed CLI error path");
    let err = stderr_of(&info);
    assert!(err.starts_with("error:"), "{}", err);
    assert!(!err.contains("panicked"), "never a panic: {}", err);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flight_recorder_off_is_observably_identical_minus_the_dump() {
    let dir = tmpdir("zero-cost");
    let (spec, trace) = write_inputs(&dir, 8);
    let dump_on = dir.join("on.tangodump");
    let dump_off = dir.join("off.tangodump");

    let run = |recorder: &str, dump: &Path| -> Output {
        bin()
            .arg("analyze")
            .arg(&spec)
            .arg(&trace)
            .args(["--max-transitions", "10", "--flight-recorder", recorder, "--dump-file"])
            .arg(dump)
            .output()
            .unwrap()
    };
    let on = run("on", &dump_on);
    let off = run("off", &dump_off);

    assert_eq!(on.status.code(), off.status.code());
    assert_eq!(
        stdout_of(&on),
        stdout_of(&off),
        "verdict and counters must be byte-identical with the recorder off"
    );
    assert!(dump_on.exists(), "recorder on ⇒ dump");
    assert!(!dump_off.exists(), "recorder off ⇒ no dump, ever");
    assert!(!stderr_of(&off).contains("post-mortem"), "{}", stderr_of(&off));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_info_reports_fault_counters() {
    let dir = tmpdir("ckpt-info");
    let (spec, trace) = write_inputs(&dir, 8);
    let ckpt = dir.join("state.bin");

    let out = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--max-transitions", "10", "--checkpoint-file"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));

    let info = bin().arg("checkpoint-info").arg(&ckpt).output().unwrap();
    assert_eq!(info.status.code(), Some(0), "{}", stderr_of(&info));
    let text = stdout_of(&info);
    for needle in [
        "format version: 5",
        "source faults: retries=0 giveups=0",
        "spill faults: retries=0 giveups=0",
        "checkpoint faults: retries=0 giveups=0",
        "peak_spilled_bytes",
    ] {
        assert!(text.contains(needle), "missing `{}` in: {}", needle, text);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn listen_endpoint_serves_status_and_metrics_during_a_run() {
    let dir = tmpdir("listen");
    // Enough doubling to keep the search busy for the whole test; the
    // wall-clock limit is the safety net that ends it.
    let (spec, trace) = write_inputs(&dir, 40);

    let mut child = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--max-seconds", "15", "--listen", "127.0.0.1:0", "--dump-file"])
        .arg(dir.join("pm.tangodump"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The bound address is announced on stderr before the search starts.
    let mut err = child.stderr.take().unwrap();
    let mut seen = String::new();
    let addr = loop {
        let mut buf = [0u8; 256];
        let n = err.read(&mut buf).unwrap();
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        // Only complete lines: a read can split the announcement
        // mid-port, and a truncated address would poll a dead port.
        let complete = &seen[..seen.rfind('\n').map_or(0, |i| i + 1)];
        if let Some(line) = complete
            .lines()
            .find(|l| l.starts_with("introspect: listening on http://"))
        {
            break line
                .trim_start_matches("introspect: listening on http://")
                .trim_end_matches('/')
                .to_string();
        }
        assert!(n > 0, "analyzer exited before announcing the endpoint: {}", seen);
    };

    let fetch = |path: &str| -> (Option<i32>, String) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let out = bin()
                .arg("http-get")
                .arg(format!("{}{}", addr, path))
                .output()
                .unwrap();
            let body = stdout_of(&out);
            if out.status.code() == Some(0) || Instant::now() >= deadline {
                return (out.status.code(), body);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    };

    let (code, status) = fetch("/status");
    assert_eq!(code, Some(0), "{}", status);
    assert!(status.contains("\"schema\":\"tango-status\""), "{}", status);
    assert!(status.contains("\"te\":"), "{}", status);

    let (code, metrics) = fetch("/metrics");
    assert_eq!(code, Some(0), "{}", metrics);
    assert!(metrics.starts_with('{') && metrics.trim_end().ends_with('}'), "{}", metrics);

    let (code, profile) = fetch("/profile");
    assert_eq!(code, Some(0), "{}", profile);
    assert!(profile.contains("\"schema\":\"tango-profile\""), "{}", profile);

    // Unknown paths are a JSON 404 through the same fetcher (exit 1).
    let out = bin()
        .arg("http-get")
        .arg(format!("{}/nope", addr))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
