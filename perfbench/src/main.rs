//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload archive-apply --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Builds the release `otrepair` and
//! `otrepaird` binaries, generates the workload's inputs from `--seed`,
//! sets the program up, drives it for `--seconds`, checks its outputs and
//! prints a run record line followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics of `BENCHMARK.json`; `--trace 1` also
//! replays the layer calls in process and reports the per-layer metrics.
//! See `perfbench/README.md`.

mod archive;
mod joint;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use util::{Ctx, Metric, Result};

/// Scratch space for inputs, outputs and traces, under the checkout.
const WORK_ROOT: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing `{flag} <value>`").into())
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
    };
    let seconds: u64 = value("--seconds")?.parse()?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse()?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<()> {
    util::fix_allocator();
    let args = parse_args()?;
    let spec: Value = serde_json::from_str(&std::fs::read_to_string("BENCHMARK.json")?)?;
    let why = entries(&spec, "workloads", "why")?
        .into_iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, why)| why)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let declared = entries(
        &spec,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
        "unit",
    )?;

    let (otrepair, otrepaird) = build_binaries()?;
    let work = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work)?;
    let _cleanup = RemoveOnDrop(work.clone());
    let nproc = std::thread::available_parallelism()?.get();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        otrepair,
        otrepaird,
        trace_file: PathBuf::from(WORK_ROOT)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed)),
        work,
    };
    let outcome = match args.workload.as_str() {
        "archive-apply" => archive::run(&ctx)?,
        "serve-steady" => serve::run(&ctx, false)?,
        "serve-watch" => serve::run(&ctx, true)?,
        "joint-pipeline" => joint::run(&ctx)?,
        other => return Err(format!("workload `{other}` has no implementation").into()),
    };

    // Every declared metric, in declared order. A layer the workload does
    // not exercise reads 0; an end-to-end metric may never be missing.
    let mut metrics = Vec::with_capacity(declared.len());
    for m in &outcome.metrics {
        if !declared.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
            return Err(format!("metric {} ({}) is not declared", m.name, m.unit).into());
        }
    }
    for (name, unit) in &declared {
        let value = match outcome.metrics.iter().find(|m| m.name == *name) {
            Some(m) => m.value,
            None if args.trace => 0.0,
            None => return Err(format!("workload reported no {name}").into()),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite").into());
        }
        metrics.push((
            name.to_string(),
            obj(vec![num("value", value), text("unit", unit)]),
        ));
    }

    let record = obj(vec![
        text("workload", &args.workload),
        text("why", why),
        num("seed", args.seed as f64),
        num("seconds", args.seconds as f64),
        num("trace", if args.trace { 1.0 } else { 0.0 }),
        num("nproc", nproc as f64),
        text(
            "rustc",
            &command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        text(
            "git_commit",
            &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
        ),
        ("inputs".into(), figures(&outcome.record)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&obj(vec![("record".into(), record)]))?
    );
    let result = obj(vec![
        ("correct".into(), Value::Bool(true)),
        num("attempted", outcome.attempted as f64),
        num("failed", outcome.failed as f64),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result)?);
    Ok(())
}

/// `(name, field)` pairs of the objects in `spec[key]`.
fn entries<'a>(spec: &'a Value, key: &str, field: &str) -> Result<Vec<(&'a str, &'a str)>> {
    spec.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|e| {
            match (
                e.get("name").and_then(Value::as_str),
                e.get(field).and_then(Value::as_str),
            ) {
                (Some(n), Some(f)) => Ok((n, f)),
                _ => Err(format!("an entry of `{key}` lacks name or {field}").into()),
            }
        })
        .collect()
}

/// Build the release binaries from the checkout's source and return
/// their paths (`CARGO_TARGET_DIR` if set, else `target`).
fn build_binaries() -> Result<(PathBuf, PathBuf)> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/otrepair.rs").is_file() {
        return Err("run from the repository root: no otrepair sources here".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "otrepair", "--bin", "otrepaird"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("cargo build of otrepair/otrepaird failed: {status}").into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let release = std::path::absolute(target.join("release"))?;
    Ok((release.join("otrepair"), release.join("otrepaird")))
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").to_string())
}

/// Removes the run's scratch directory however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn obj(entries: Vec<(String, Value)>) -> Value {
    Value::Obj(entries)
}

fn num(key: &str, v: f64) -> (String, Value) {
    (key.into(), Value::Num(v))
}

fn text(key: &str, v: &str) -> (String, Value) {
    (key.into(), Value::Str(v.into()))
}

fn figures(ms: &[Metric]) -> Value {
    Value::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![num("value", m.value), text("unit", m.unit)]),
                )
            })
            .collect(),
    )
}
