//! Integration tests of the `otrepair` CLI binary: the design → apply →
//! evaluate loop over real files in a temp directory.

use std::io::Write;
use std::process::Command;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::{write_labelled_csv, SimulationSpec};

mod common;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_otrepair")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("otrepair-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_csvs(dir: &std::path::Path, seed: u64) -> (String, String) {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    let split = spec.generate(400, 1_500, &mut rng).unwrap();
    let research = dir.join("research.csv");
    let archive = dir.join("archive.csv");
    write_labelled_csv(
        std::io::BufWriter::new(std::fs::File::create(&research).unwrap()),
        &split.research,
    )
    .unwrap();
    write_labelled_csv(
        std::io::BufWriter::new(std::fs::File::create(&archive).unwrap()),
        &split.archive,
    )
    .unwrap();
    (
        research.to_string_lossy().into_owned(),
        archive.to_string_lossy().into_owned(),
    )
}

#[test]
fn design_apply_evaluate_loop() {
    let dir = tmp_dir("loop");
    let (research, archive) = write_csvs(&dir, 1);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let out = dir.join("repaired.csv").to_string_lossy().into_owned();

    let status = Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "40",
        ])
        .status()
        .unwrap();
    assert!(status.success(), "design failed");
    assert!(std::fs::metadata(&plan).unwrap().len() > 1_000);

    let status = Command::new(bin())
        .args([
            "apply", "--plan", &plan, "--data", &archive, "--out", &out, "--seed", "3",
        ])
        .status()
        .unwrap();
    assert!(status.success(), "apply failed");

    let before = Command::new(bin())
        .args(["evaluate", "--data", &archive])
        .output()
        .unwrap();
    let after = Command::new(bin())
        .args(["evaluate", "--data", &out])
        .output()
        .unwrap();
    assert!(before.status.success() && after.status.success());
    let grab_e = |stdout: &[u8]| -> f64 {
        String::from_utf8_lossy(stdout)
            .lines()
            .find_map(|l| {
                l.trim()
                    .strip_prefix("aggregate E = ")
                    .and_then(|v| v.parse().ok())
            })
            .expect("aggregate E line")
    };
    let e_before = grab_e(&before.stdout);
    let e_after = grab_e(&after.stdout);
    assert!(
        e_after < e_before / 2.0,
        "CLI repair must reduce E: {e_before} -> {e_after}"
    );
}

#[test]
fn apply_monge_mode_and_partial_conflict() {
    let dir = tmp_dir("monge");
    let (research, archive) = write_csvs(&dir, 2);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let out = dir.join("repaired.csv").to_string_lossy().into_owned();

    assert!(Command::new(bin())
        .args(["design", "--research", &research, "--out", &plan])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["apply", "--plan", &plan, "--data", &archive, "--out", &out, "--monge"])
        .status()
        .unwrap()
        .success());
    // --monge + --partial must be rejected.
    let conflicted = Command::new(bin())
        .args([
            "apply",
            "--plan",
            &plan,
            "--data",
            &archive,
            "--out",
            &out,
            "--monge",
            "--partial",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(!conflicted.status.success());
    assert!(String::from_utf8_lossy(&conflicted.stderr).contains("mutually exclusive"));
}

#[test]
fn apply_output_identical_for_any_thread_count() {
    let dir = tmp_dir("threads");
    let (research, archive) = write_csvs(&dir, 3);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();

    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "30"
        ])
        .status()
        .unwrap()
        .success());

    let mut outputs = Vec::new();
    for threads in ["1", "2", "7"] {
        let out = dir
            .join(format!("repaired-t{threads}.csv"))
            .to_string_lossy()
            .into_owned();
        assert!(Command::new(bin())
            .args([
                "apply",
                "--plan",
                &plan,
                "--data",
                &archive,
                "--out",
                &out,
                "--seed",
                "11",
                "--threads",
                threads,
            ])
            .status()
            .unwrap()
            .success());
        outputs.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 7 threads");
}

/// FNV-1a 64 of a byte string: a digest that, unlike `DefaultHasher`,
/// is fixed across Rust releases, so it can live in a checked-in
/// fixture.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden outputs of `otrepair apply` in each scalar mode (randomized,
/// `--partial 0.4`, `--monge`) at a fixed seed: every output file must
/// match the row count and digest in `tests/fixtures/apply_golden.txt`,
/// byte for byte, whatever batch implementation runs underneath.
#[test]
fn apply_modes_match_golden_fixture() {
    let dir = tmp_dir("golden");
    let (research, archive) = write_csvs(&dir, 6);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "30"
        ])
        .status()
        .unwrap()
        .success());

    let fixture = include_str!("fixtures/apply_golden.txt");
    let expected: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let modes: [(&str, &[&str]); 3] = [
        ("default", &[]),
        ("partial-0.4", &["--partial", "0.4"]),
        ("monge", &["--monge"]),
    ];
    assert_eq!(expected.len(), modes.len(), "fixture lines: {expected:?}");
    for ((mode, extra), want) in modes.iter().zip(&expected) {
        let out = dir
            .join(format!("golden-{mode}.csv"))
            .to_string_lossy()
            .into_owned();
        let mut args = vec![
            "apply", "--plan", &plan, "--data", &archive, "--out", &out, "--seed", "13",
        ];
        args.extend_from_slice(extra);
        let run = Command::new(bin()).args(&args).output().unwrap();
        assert!(
            run.status.success(),
            "apply {mode} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let bytes = std::fs::read(&out).unwrap();
        let rows = bytes.iter().filter(|&&b| b == b'\n').count() - 1;
        let got = format!("{mode} {rows} {:016x}", fnv1a64(&bytes));
        assert_eq!(&got, want, "apply {mode} drifted from the golden fixture");
    }
}

/// `--layout` is retired: every scalar mode runs the columnar path.
/// Like any unknown option it is ignored, so an old script that still
/// passes `--layout row` or `--layout columnar` writes the identical
/// output file.
#[test]
fn apply_layouts_produce_identical_output() {
    let dir = tmp_dir("layout");
    let (research, archive) = write_csvs(&dir, 5);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();

    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "30"
        ])
        .status()
        .unwrap()
        .success());

    let mut outputs = Vec::new();
    for layout in [None, Some("row"), Some("columnar")] {
        let tag = layout.unwrap_or("default");
        let out = dir
            .join(format!("repaired-{tag}.csv"))
            .to_string_lossy()
            .into_owned();
        let mut args = vec![
            "apply", "--plan", &plan, "--data", &archive, "--out", &out, "--seed", "11",
        ];
        if let Some(layout) = layout {
            args.extend(["--layout", layout]);
        }
        assert!(
            Command::new(bin()).args(&args).status().unwrap().success(),
            "apply --layout {tag} failed"
        );
        outputs.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "default vs --layout row");
    assert_eq!(outputs[0], outputs[2], "default vs --layout columnar");
}

#[test]
fn joint_design_apply_loop_with_verbose_report() {
    let dir = tmp_dir("joint");
    let (research, archive) = write_csvs(&dir, 4);
    let plan = dir.join("joint-plan.json").to_string_lossy().into_owned();
    let out = dir
        .join("joint-repaired.csv")
        .to_string_lossy()
        .into_owned();

    // A coarse grid keeps the n_q² product-support solves test-friendly.
    let design = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "8",
            "--eps",
            "0.05",
            "--eps-scaling",
            "0.8:0.25",
            "--verbose",
        ])
        .output()
        .unwrap();
    assert!(design.status.success(), "joint design failed");
    let stderr = String::from_utf8_lossy(&design.stderr);
    // The --verbose design report surfaces the barycentre convergence
    // diagnostics and the ε-schedule stage stats.
    assert!(stderr.contains("joint design report"), "report: {stderr}");
    assert!(stderr.contains("barycentre"), "report: {stderr}");
    assert!(stderr.contains("per-stage eps:iters"), "report: {stderr}");
    assert!(stderr.contains("plan transport cost"), "report: {stderr}");
    assert!(std::fs::metadata(&plan).unwrap().len() > 1_000);

    assert!(Command::new(bin())
        .args([
            "apply", "--joint", "--plan", &plan, "--data", &archive, "--out", &out, "--seed", "5",
        ])
        .status()
        .unwrap()
        .success());
    let repaired = std::fs::read_to_string(&out).unwrap();
    assert_eq!(
        repaired.lines().count(),
        std::fs::read_to_string(&archive).unwrap().lines().count()
    );

    // Joint apply rejects the 1-D-only modes.
    let conflicted = Command::new(bin())
        .args([
            "apply", "--joint", "--plan", &plan, "--data", &archive, "--out", &out, "--monge",
        ])
        .output()
        .unwrap();
    assert!(!conflicted.status.success());
    // An invalid --eps-scaling spelling is a parse error, not a design.
    let bad = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--eps-scaling",
            "fast",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("eps-scaling"));

    // An invalid --kernel spelling too.
    let bad_kernel = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--kernel",
            "kronecker",
        ])
        .output()
        .unwrap();
    assert!(!bad_kernel.status.success());
    assert!(String::from_utf8_lossy(&bad_kernel.stderr).contains("kernel"));
}

#[test]
fn joint_verbose_report_names_kernel_and_single_stage() {
    let dir = tmp_dir("joint-verbose");
    let (research, _archive) = write_csvs(&dir, 6);
    let plan = dir.join("joint-plan.json").to_string_lossy().into_owned();

    // ε-scaling off: the per-stratum stage breakdown says so instead of
    // echoing a one-entry stage list; --kernel dense is reported back.
    let design = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "8",
            "--eps",
            "0.25",
            "--eps-scaling",
            "off",
            "--kernel",
            "dense",
            "--verbose",
        ])
        .output()
        .unwrap();
    assert!(design.status.success(), "joint design failed");
    let stderr = String::from_utf8_lossy(&design.stderr);
    assert!(
        stderr.contains("single stage (eps-scaling off)"),
        "report: {stderr}"
    );
    assert!(stderr.contains("kernel = dense"), "report: {stderr}");

    // The separable kernel designs the same grid shape successfully.
    let design = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "8",
            "--eps",
            "0.25",
            "--kernel",
            "separable",
            "--verbose",
        ])
        .output()
        .unwrap();
    assert!(design.status.success(), "separable joint design failed");
    let stderr = String::from_utf8_lossy(&design.stderr);
    assert!(stderr.contains("kernel = separable"), "report: {stderr}");
    assert!(std::fs::metadata(&plan).unwrap().len() > 1_000);
}

#[test]
fn helpful_errors_for_bad_inputs() {
    let unknown = Command::new(bin()).args(["frobnicate"]).output().unwrap();
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown command"));

    let missing = Command::new(bin()).args(["design"]).output().unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--research"));

    let dir = tmp_dir("badcsv");
    let bad = dir.join("bad.csv");
    writeln!(std::fs::File::create(&bad).unwrap(), "a,b,c\n1,2,3").unwrap();
    let parse = Command::new(bin())
        .args(["evaluate", "--data", &bad.to_string_lossy()])
        .output()
        .unwrap();
    assert!(!parse.status.success());
    assert!(String::from_utf8_lossy(&parse.stderr).contains("header"));
}

/// A structurally malformed plan artifact is a clean usage error: exit
/// status 1 with an `otrepair: error:` line naming the defect, never a
/// panic (exit 101) and never a garbage output file.
#[test]
fn apply_rejects_malformed_plan_artifacts() {
    let dir = tmp_dir("badplan");
    let (research, archive) = write_csvs(&dir, 7);
    let plan = dir.join("plan.json");
    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan.to_string_lossy(),
            "--nq",
            "20"
        ])
        .status()
        .unwrap()
        .success());
    let json = std::fs::read_to_string(&plan).unwrap();
    for (what, bad) in common::malformed_scalar_plans(&json) {
        let bad_plan = dir.join("bad-plan.json");
        let out = dir.join("bad-out.csv");
        std::fs::write(&bad_plan, bad).unwrap();
        let _ = std::fs::remove_file(&out);
        for mode in [&[][..], &["--monge"][..], &["--partial", "0.5"][..]] {
            let run = Command::new(bin())
                .args([
                    "apply",
                    "--plan",
                    &bad_plan.to_string_lossy(),
                    "--data",
                    &archive,
                ])
                .args(["--out", &out.to_string_lossy()])
                .args(mode)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{what} {mode:?}: {stderr}");
            assert!(
                stderr.contains("otrepair: error: plan persistence error"),
                "{what} {mode:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{what} {mode:?}: {stderr}");
            assert!(!out.exists(), "{what} {mode:?} wrote an output file");
        }
    }
}

/// Full service round trip through the binaries: boot `otrepaird` on a
/// loopback port, load a plan through `otrepair client`, repair an
/// archive over the wire, and require the CSV to be **byte-identical**
/// to an offline `otrepair apply` with the same plan and seed — the
/// serving determinism contract, end to end through real processes.
#[test]
fn served_repair_matches_offline_apply_byte_for_byte() {
    let daemon = env!("CARGO_BIN_EXE_otrepaird");
    let dir = tmp_dir("serve");
    let (research, archive) = write_csvs(&dir, 7);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let offline = dir.join("offline.csv").to_string_lossy().into_owned();
    let served = dir.join("served.csv").to_string_lossy().into_owned();
    let port_file = dir.join("port");

    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "24"
        ])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["apply", "--plan", &plan, "--data", &archive, "--out", &offline, "--seed", "13"])
        .status()
        .unwrap()
        .success());

    // Port 0 + --port-file: the daemon picks a free port and tells us.
    let mut child = Command::new(daemon)
        .args([
            "--bind",
            "127.0.0.1:0",
            "--shards",
            "7",
            "--port-file",
            &port_file.to_string_lossy(),
        ])
        .spawn()
        .unwrap();
    let addr = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                break addr;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "otrepaird never wrote its port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    };

    let run = |args: &[&str]| {
        let out = Command::new(bin())
            .args(["client", args[0], "--addr", &addr])
            .args(&args[1..])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "client {} failed: {}",
            args[0],
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    assert!(run(&["ping"]).contains("pong"));
    run(&[
        "load",
        "--plan",
        &plan,
        "--name",
        "cli-plan",
        "--version",
        "2",
    ]);
    assert!(run(&["plans"]).contains("cli-plan@2"));
    run(&[
        "repair", "--name", "cli-plan", "--data", &archive, "--out", &served, "--seed", "13",
    ]);
    assert!(run(&["info"]).contains("1 plans"));
    run(&["evict", "--name", "cli-plan", "--version", "2"]);
    assert!(run(&["plans"]).contains("no plans registered"));

    // A client error is an exit failure with the server's code named.
    let missing = Command::new(bin())
        .args([
            "client",
            "repair",
            "--addr",
            &addr,
            "--name",
            "ghost",
            "--data",
            &archive,
            "--out",
            "/dev/null",
        ])
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("UnknownPlan"));

    child.kill().unwrap();
    child.wait().unwrap();

    assert_eq!(
        std::fs::read(&offline).unwrap(),
        std::fs::read(&served).unwrap(),
        "served CSV must be byte-identical to offline apply"
    );
}

#[test]
fn help_prints_usage() {
    let out = Command::new(bin()).args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for word in [
        "design",
        "apply",
        "evaluate",
        "--plan",
        "--monge",
        "--threads",
        "--joint",
        "--eps-scaling",
        "OTR_THREADS",
        "OTR_KERNEL_CELLS",
        "serve",
        "client",
        "--max-conns",
        "--deadline-ms",
        "--retries",
        "--timeout",
        "docs/operations.md",
    ] {
        assert!(text.contains(word), "usage missing {word}");
    }
}
