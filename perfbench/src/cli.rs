//! Building and driving the release `tango` binary.

use std::ffi::{OsStr, OsString};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Build `tango-cli` in release mode from the checkout in the working
/// directory and return the binary's path.
pub fn build_tango() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "tango-cli",
            "--manifest-path",
            "Cargo.toml",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {}", e))?;
    if !status.success() {
        return Err(format!("building tango-cli failed ({})", status));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = PathBuf::from(target).join("release").join("tango");
    // Absolute, since `tango` runs in the workload's own directory.
    bin.canonicalize()
        .map_err(|e| format!("built binary not found at {}: {}", bin.display(), e))
}

/// One finished `tango` process.
pub struct Run {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Exit code, or `None` when a signal ended the process.
    pub exit: Option<i32>,
    pub stdout: String,
    /// Peak resident set of the process, in KiB.
    pub max_rss_kib: i64,
    /// User + system CPU time of the process.
    pub cpu_s: f64,
}

/// `struct rusage` of Linux (x86-64 and aarch64 share this layout).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // The C library std already links; declared here so the child's peak
    // RSS comes back with its exit status, without a new crate.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// First argument of the spawner mode: `perfbench --spawn <bin> <args…>`.
pub const SPAWN_FLAG: &str = "--spawn";

/// Starts the spawner's report line, the last line of its output.
const REPORT: &str = "\nperfbench-spawn: ";

/// Run `bin args…` in `cwd` to completion. Standard error is appended to
/// `stderr_log`; standard output is returned.
///
/// The process is started by a spawner: this executable again, in
/// [`SPAWN_FLAG`] mode. On `exec` Linux carries the spawning process's
/// peak RSS over into the child's, so only a small, fresh process can
/// report a child's own peak; the spawner also times the child, so its
/// own start-up is not counted.
pub fn run(bin: &Path, args: &[OsString], cwd: &Path, stderr_log: &Path) -> Result<Run, String> {
    let log = File::options()
        .create(true)
        .append(true)
        .open(stderr_log)
        .map_err(|e| format!("cannot open {}: {}", stderr_log.display(), e))?;
    let me = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {}", e))?;
    let out = Command::new(me)
        .arg(SPAWN_FLAG)
        .arg(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stderr(log)
        .output()
        .map_err(|e| format!("cannot run the spawner: {}", e))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let report = text
        .rsplit_once(REPORT)
        .filter(|_| out.status.success())
        .and_then(|(stdout, report)| {
            let f: Vec<&str> = report.split_whitespace().collect();
            let [wall_s, cpu_s, max_rss_kib, exit] = f.as_slice() else {
                return None;
            };
            Some(Run {
                wall_s: wall_s.parse().ok()?,
                cpu_s: cpu_s.parse().ok()?,
                max_rss_kib: max_rss_kib.parse().ok()?,
                exit: exit.parse().ok().filter(|&e: &i32| e >= 0),
                stdout: stdout.to_string(),
            })
        });
    report.ok_or_else(|| format!("spawner for {} failed ({})", bin.display(), out.status))
}

/// The spawner mode: run `bin args…` with the standard streams inherited,
/// wait for it with `wait4`, and append the report line `wall_s cpu_s
/// max_rss_kib exit` (exit −1 when a signal ended it).
pub fn spawner(bin: &OsStr, args: &[OsString]) -> Result<(), String> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {}", bin.to_string_lossy(), e))?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (std has not waited on
        // it), and both out-pointers refer to live, writable locals of
        // the types wait4 expects.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!(
                "wait4 on {} failed: {}",
                bin.to_string_lossy(),
                err
            ));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // `child` was reaped by wait4; dropping it neither waits nor kills.
    drop(child);
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    let mut out = std::io::stdout().lock();
    write!(
        out,
        "{}{} {} {} {}",
        REPORT,
        wall_s,
        timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime),
        usage.ru_maxrss,
        exit
    )
    .and_then(|()| writeln!(out))
    .and_then(|()| out.flush())
    .map_err(|e| format!("cannot write the spawn report: {}", e))
}

fn timeval_s(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

/// The search counters of a `verdict:` line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub te: u64,
    pub ge: u64,
    pub re: u64,
    pub sa: u64,
}

impl Counters {
    pub fn of(stats: &tango::SearchStats) -> Self {
        Counters {
            te: stats.transitions_executed,
            ge: stats.generates,
            re: stats.restores,
            sa: stats.saves,
        }
    }
}

/// Parse the report line `verdict: <text>  [CPUT=… TE=… GE=… RE=… SA=… …]`
/// into its verdict text and counters.
pub fn parse_verdict(stdout: &str) -> Option<(String, Counters)> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("verdict: "))?;
    let (verdict, rest) = line.split_once("  [")?;
    let mut c = Counters::default();
    let mut seen = 0;
    for field in rest.trim_end_matches(']').split_whitespace() {
        let Some((k, v)) = field.split_once('=') else {
            continue;
        };
        let slot = match k {
            "TE" => &mut c.te,
            "GE" => &mut c.ge,
            "RE" => &mut c.re,
            "SA" => &mut c.sa,
            _ => continue,
        };
        *slot = v.parse().ok()?;
        seen += 1;
    }
    (seen == 4).then(|| (verdict.to_string(), c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_line() {
        let out = "interim: valid so far\nverdict: invalid  [CPUT=0.065s TE=41849 GE=16139 \
                   RE=25710 SA=15493 HP=0 BP=0 IH=0]\nbest attempt explained 3/4 events\n";
        let (v, c) = parse_verdict(out).expect("parses");
        assert_eq!(v, "invalid");
        assert_eq!(
            c,
            Counters {
                te: 41849,
                ge: 16139,
                re: 25710,
                sa: 15493
            }
        );
        assert!(parse_verdict("no report here\n").is_none());
    }
}
