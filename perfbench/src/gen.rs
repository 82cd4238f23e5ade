//! Workload inputs, made from the seed alone.
//!
//! Every spec and trace file the `tango` binary reads comes from here.
//! Verdicts are known by construction: valid traces come from the
//! specification's own implementation-generation mode
//! (`TraceAnalyzer::generate_trace`, the paper's §4.1 method); invalid
//! traces take the last output data interaction whose payload was copied
//! from an input and give it a payload no input carries.

use estelle_runtime::Value;
use protocols::{lapd, tp0};
use std::path::{Path, PathBuf};
use tango::rng::SplitMix64;
use tango::{ChoicePolicy, Dir, ScriptedInput, Trace, TraceAnalyzer, Verdict};

/// How a workload hands its traces to `tango`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `tango analyze`: static DFS over a complete trace file.
    Static,
    /// `tango online`: MDFS following the file up to its `eof` line, at
    /// the CLI's default worker count, spilling under a memory budget.
    Online { max_mem: usize },
}

pub struct Spec {
    pub source: String,
    pub file: PathBuf,
}

pub struct Case {
    pub label: String,
    /// Index into [`Workload::specs`].
    pub spec: usize,
    pub text: String,
    pub file: PathBuf,
    pub events: usize,
    pub expect: Verdict,
}

pub struct Workload {
    pub name: &'static str,
    pub specs: Vec<Spec>,
    pub cases: Vec<Case>,
    pub mode: Mode,
    /// `--order` flag value.
    pub order: &'static str,
    /// `--max-transitions`: a fixed cap, so an inconclusive count repeats.
    pub cap: u64,
    /// Sets how many passes fill the measuring time: about the seconds one
    /// pass takes on the reference host (two cores), chosen so that at the
    /// benchmark's 40 s the median and the tail percentile each fall well
    /// inside the samples of one trace size, not where two sizes meet.
    pass_s: f64,
}

impl Workload {
    /// Whole passes over the trace set that fill `seconds` on the
    /// reference host. The count depends on `seconds` only, never on how
    /// fast the program runs, so every commit's percentiles are taken
    /// over the same number of samples.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_s).round() as usize).max(1)
    }
}

pub const WORKLOADS: [&str; 4] = [
    "tp0-nr-blowup",
    "lapd800-invalid-full",
    "long-valid-full",
    "online-mdfs-spill",
];

/// TP0 data-interaction counts (up + down) of the Figure 4 regime.
const TP0_NR_CLASSES: [(usize, usize); 4] = [(2, 4), (3, 3), (4, 2), (4, 3)];
/// The same regime at sizes the spill tier gets through in well under a
/// second per trace.
const SPILL_CLASSES: [(usize, usize); 2] = [(2, 4), (3, 3)];
/// LAPD data interactions of the invalid FULL runs: user data, peer
/// I-frames. With user data on both sides (the Figure 3 workload) the
/// search cost spans three orders of magnitude with the interleaving, so
/// no percentile above the median repeats from seed to seed; with the
/// data mostly from the peer it stays within one.
const LAPD_INVALID_DI: (usize, usize) = (1, 10);
/// Traces per second of measuring time in the LAPD invalid workload: the
/// time is filled with one pass over many interleavings rather than many
/// passes over a few.
const LAPD_INVALID_TRACES_PER_S: f64 = 90.0;
/// Long valid TP0 traces: data interactions each way.
const TP0_LONG: [usize; 5] = [250, 500, 750, 1000, 1250];
/// Long valid LAPD-800 traces: user data = peer I-frames.
const LAPD_LONG: [usize; 2] = [100, 200];
/// Snapshot budget for the spill workload: well under the all-RAM peak
/// snapshot bytes of every trace in it.
const SPILL_BUDGET: usize = 4 << 10;

/// The workload `name` for `seed`, sized for `seconds` of measuring.
pub fn build(name: &str, seed: u64, seconds: f64, dir: &Path) -> Result<Workload, String> {
    let mut rng = SplitMix64::new(seed ^ 0x7065_7266_6265_6e63);
    let tp0_spec = || Spec {
        source: tp0::SOURCE.to_string(),
        file: dir.join("tp0.est"),
    };
    let lapd_spec = || Spec {
        source: lapd::source_expanded(),
        file: dir.join("lapd800.est"),
    };
    let mut w = match name {
        "tp0-nr-blowup" => Workload {
            name: "tp0-nr-blowup",
            specs: vec![tp0_spec()],
            cases: Vec::new(),
            mode: Mode::Static,
            order: "nr",
            cap: 20_000_000,
            pass_s: 2.5,
        },
        "lapd800-invalid-full" => Workload {
            name: "lapd800-invalid-full",
            specs: vec![lapd_spec()],
            cases: Vec::new(),
            mode: Mode::Static,
            order: "full",
            cap: 20_000_000,
            pass_s: 0.0, // one pass, sized below
        },
        "long-valid-full" => Workload {
            name: "long-valid-full",
            specs: vec![tp0_spec(), lapd_spec()],
            cases: Vec::new(),
            mode: Mode::Static,
            order: "full",
            cap: 20_000_000,
            pass_s: 2.1,
        },
        "online-mdfs-spill" => Workload {
            name: "online-mdfs-spill",
            specs: vec![tp0_spec()],
            cases: Vec::new(),
            mode: Mode::Online {
                max_mem: SPILL_BUDGET,
            },
            order: "nr",
            cap: 20_000_000,
            pass_s: 1.4,
        },
        other => {
            return Err(format!(
                "unknown workload `{}` (expected one of {})",
                other,
                WORKLOADS.join(", ")
            ))
        }
    };
    let tp0 = tp0::analyzer();
    let closed = matches!(w.mode, Mode::Online { .. });
    let mut cases = Vec::new();
    let mut push = |label: String, spec: usize, t: &Trace, gen: &TraceAnalyzer, expect| {
        cases.push(Case {
            label,
            spec,
            text: tango::render_trace(t, Some(gen.module()), closed),
            file: dir.join(format!("case{:02}.trace", cases.len())),
            events: t.len(),
            expect,
        });
    };
    match w.name {
        "tp0-nr-blowup" | "online-mdfs-spill" => {
            let classes: &[(usize, usize)] = if w.name == "tp0-nr-blowup" {
                &TP0_NR_CLASSES
            } else {
                &SPILL_CLASSES
            };
            for &(up, down) in classes {
                let script = tp0::workload(up, down);
                for (side, bad) in both_sides(&tp0, &script, 6 + 2 * (up + down), &mut rng)? {
                    push(
                        format!("{}+{}/{}", up, down, side),
                        0,
                        &bad,
                        &tp0,
                        Verdict::Invalid,
                    );
                }
            }
        }
        "lapd800-invalid-full" => {
            let gen = lapd::analyzer();
            let (user, peer) = LAPD_INVALID_DI;
            let script = lapd::workload(user, peer);
            w.pass_s = seconds;
            for draw in 0..((seconds * LAPD_INVALID_TRACES_PER_S).round() as usize).max(1) {
                let valid = complete_lapd(&gen, &script, peer, &mut rng)?;
                let (bad, _) = invalidate(&valid, &script, &["dl_data_ind"], 255)?;
                push(format!("#{}", draw), 0, &bad, &gen, Verdict::Invalid);
            }
        }
        "long-valid-full" => {
            for &n in &TP0_LONG {
                // No disconnect request: the implementation then drains
                // both buffers, so the trace holds all 2n data exchanges.
                let mut script = tp0::workload(n, n);
                script.pop();
                let t = generate(&tp0, &script, &mut rng)?;
                push(format!("tp0-{}+{}", n, n), 0, &t, &tp0, Verdict::Valid);
            }
            let gen = lapd::analyzer();
            for &di in &LAPD_LONG {
                // No release: every peer I-frame is then delivered in
                // multiple-frame operation.
                let mut script = lapd::workload(di, di);
                script.truncate(script.len() - 2);
                let t = generate(&gen, &script, &mut rng)?;
                push(format!("lapd800-DI{}", di), 1, &t, &gen, Verdict::Valid);
            }
        }
        _ => unreachable!("workload names are matched above"),
    }
    w.cases = cases;
    Ok(w)
}

/// Write every spec and trace file of the workload.
pub fn write_files(w: &Workload) -> Result<(), String> {
    let write = |p: &Path, s: &str| {
        std::fs::write(p, s).map_err(|e| format!("cannot write {}: {}", p.display(), e))
    };
    for s in &w.specs {
        write(&s.file, &s.source)?;
    }
    for c in &w.cases {
        write(&c.file, &c.text)?;
    }
    Ok(())
}

fn generate(
    gen: &TraceAnalyzer,
    script: &[ScriptedInput],
    rng: &mut SplitMix64,
) -> Result<Trace, String> {
    gen.generate_trace(script, ChoicePolicy::Random(rng.next_u64()), 10_000_000)
        .map_err(|e| format!("implementation generation failed: {}", e))
}

/// Invalid TP0 traces of one size, one per side whose output ends up
/// mutated. Under NR the search cost depends on that side but not on the
/// rest of the interleaving, so every pass holds both and the seed only
/// picks the interleavings. Each comes from a valid trace in which every
/// data interaction crosses the module before the disconnect (`t17` may
/// legally fire early and drop buffered data, so interleavings are drawn
/// until one is complete).
fn both_sides(
    gen: &TraceAnalyzer,
    script: &[ScriptedInput],
    want: usize,
    rng: &mut SplitMix64,
) -> Result<Vec<(&'static str, Trace)>, String> {
    let sides = [("dt_req", "up"), ("tdatind", "down")];
    let mut found: [Option<Trace>; 2] = [None, None];
    for _ in 0..20_000 {
        let t = generate(gen, script, rng)?;
        if t.len() != want {
            continue;
        }
        let (bad, mutated) = invalidate(&t, script, &["dt_req", "tdatind"], 255)?;
        let side = sides
            .iter()
            .position(|(i, _)| mutated.eq_ignore_ascii_case(i))
            .expect("only TP0 data outputs are mutated");
        found[side].get_or_insert(bad);
        if found.iter().all(Option::is_some) {
            return Ok(sides
                .iter()
                .zip(found)
                .map(|((_, name), t)| (*name, t.expect("checked above")))
                .collect());
        }
    }
    Err(format!(
        "no complete interleavings of {} events ending in both sides' data drawn",
        want
    ))
}

/// A valid LAPD trace that delivers all `di` peer I-frames to the user
/// (the release may legally overtake I-frames still queued, which are
/// then discarded, so interleavings are drawn until none is).
fn complete_lapd(
    gen: &TraceAnalyzer,
    script: &[ScriptedInput],
    di: usize,
    rng: &mut SplitMix64,
) -> Result<Trace, String> {
    for _ in 0..10_000 {
        let t = generate(gen, script, rng)?;
        let delivered = t
            .events
            .iter()
            .filter(|e| e.dir == Dir::Out && e.interaction.eq_ignore_ascii_case("dl_data_ind"))
            .count();
        if delivered == di {
            return Ok(t);
        }
    }
    Err(format!(
        "no LAPD interleaving delivering all {} I-frames drawn",
        di
    ))
}

/// Change the payload of the last output among `interactions` to the
/// smallest value from 200 up to `max` that no scripted input carries.
/// Returns the invalid trace and the interaction that was changed.
fn invalidate(
    valid: &Trace,
    script: &[ScriptedInput],
    interactions: &[&str],
    max: i64,
) -> Result<(Trace, String), String> {
    let carried: Vec<i64> = script
        .iter()
        .flat_map(|s| s.params.iter())
        .filter_map(|v| match v {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect();
    let fresh = (200..=max)
        .find(|v| !carried.contains(v))
        .ok_or("every payload value is carried by some input")?;
    let mut t = valid.clone();
    let idx = t
        .events
        .iter()
        .rposition(|e| {
            e.dir == Dir::Out
                && interactions
                    .iter()
                    .any(|i| e.interaction.eq_ignore_ascii_case(i))
        })
        .ok_or("trace has no output data interaction")?;
    let last = t.events[idx].params.len() - 1;
    t.events[idx].params[last] = Value::Int(fresh);
    let mutated = t.events[idx].interaction.clone();
    Ok((t, mutated))
}
