//! Shared plumbing: the run context, child processes and their peak
//! memory, order statistics, the span tracer, and input generation.

use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Read};
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use otr_data::{ColumnarDataset, Dataset, SimulationSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Everything a workload needs from the command line and the build.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub otrepair: PathBuf,
    pub otrepaird: PathBuf,
    pub work: PathBuf,
    /// Where the traced run writes its spans (kept after the run).
    pub trace_file: PathBuf,
}

impl Ctx {
    /// A path inside this run's scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// The timed phase's length.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// One of the `SEGMENTS` equal parts of the timed phase.
    pub fn segment(&self) -> Duration {
        self.window() / SEGMENTS
    }
}

/// The timed phase runs in this many equal segments, with a batch of
/// set-up repetitions before each. Host CPU speed drifts over seconds, so
/// set-up timed in one burst reads one moment of it; spread over the run,
/// its median reads the whole run.
pub const SEGMENTS: u32 = 3;

/// One named figure with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Timed operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Input sizes and record-only figures for the run record.
    pub record: Vec<Metric>,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Fail the run when a correctness check does not hold.
pub fn check(ok: bool, what: impl std::fmt::Display) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {what}").into())
    }
}

// ---------------------------------------------------------------------
// Order statistics.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-operation latencies of a timed phase, in seconds. A failed
/// operation is booked at the whole window: it missed every latency
/// figure.
#[derive(Default)]
pub struct Latencies {
    pub secs: Vec<f64>,
    pub failed: u64,
}

impl Latencies {
    pub fn ok(&mut self, d: Duration) {
        self.secs.push(d.as_secs_f64());
    }

    pub fn fail(&mut self, window: Duration) {
        self.secs.push(window.as_secs_f64());
        self.failed += 1;
    }

    pub fn extend(&mut self, other: Latencies) {
        self.secs.extend(other.secs);
        self.failed += other.failed;
    }

    pub fn attempted(&self) -> u64 {
        self.secs.len() as u64
    }

    pub fn ms(&self, q: f64) -> f64 {
        quantile(&self.secs, q) * 1e3
    }

    pub fn success_rate(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.attempted() as f64
    }
}

// ---------------------------------------------------------------------
// Child processes.

/// Repeated set-up runs of `otrepair args`, which writes the file `out`.
/// Every run must write the same bytes as the first, which is kept in
/// `first`; `what` names the command in failures.
pub struct SetupRuns<'a> {
    ctx: &'a Ctx,
    args: &'a [&'a str],
    out: &'a Path,
    what: &'a str,
    pub first: PathBuf,
    /// Wall time of each run, in seconds.
    pub secs: Vec<f64>,
}

impl<'a> SetupRuns<'a> {
    pub fn new(ctx: &'a Ctx, args: &'a [&'a str], out: &'a Path, what: &'a str) -> Self {
        Self {
            ctx,
            args,
            out,
            what,
            first: out.with_extension("first"),
            secs: Vec::new(),
        }
    }

    /// Run the command `n` more times.
    pub fn run(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            let done = otrepair(self.ctx, self.args, self.out)?;
            check(done.ok, format!("{} exited with an error", self.what))?;
            self.secs.push(done.wall.as_secs_f64());
            if self.secs.len() == 1 {
                std::fs::copy(self.out, &self.first)?;
            } else {
                check(
                    same_bytes(self.out, &self.first)?,
                    format!("repeated {} wrote different bytes", self.what),
                )?;
            }
        }
        Ok(())
    }
}

/// The timed runs of the file-to-file workloads: back-to-back runs of
/// `otrepair args`, each of whose output file `out` must equal the file
/// `expected`; `what` names the command in failures.
pub struct Applies<'a> {
    ctx: &'a Ctx,
    args: &'a [&'a str],
    out: &'a Path,
    expected: &'a Path,
    what: &'a str,
    pub lat: Latencies,
    /// Peak RSS of each successful run, in MB.
    pub rss: Vec<f64>,
    /// The benchmark's own largest RSS when it started a run, in MB.
    pub own_rss: f64,
    /// Summed wall time of the successful runs.
    busy: Duration,
}

impl<'a> Applies<'a> {
    /// Run the command once untimed (page cache, lazy set-up) and check
    /// its output.
    pub fn warm(
        ctx: &'a Ctx,
        args: &'a [&'a str],
        out: &'a Path,
        expected: &'a Path,
        what: &'a str,
    ) -> Result<Self> {
        let mut applies = Self {
            ctx,
            args,
            out,
            expected,
            what,
            lat: Latencies::default(),
            rss: Vec::new(),
            own_rss: 0.0,
            busy: Duration::ZERO,
        };
        let warm = applies.run_once()?;
        check(warm.ok, format!("warm-up {what} exited with an error"))?;
        applies.check_output()?;
        Ok(applies)
    }

    /// Timed runs, back to back, until `window` closes; at least one.
    pub fn run_for(&mut self, window: Duration) -> Result<()> {
        let t0 = Instant::now();
        let before = self.lat.attempted();
        while t0.elapsed() < window || self.lat.attempted() == before {
            let done = self.run_once()?;
            if done.ok {
                self.lat.ok(done.wall);
                self.rss.push(done.peak_rss_mb);
                self.busy += done.wall;
                self.check_output()?;
            } else {
                self.lat.fail(window);
            }
        }
        Ok(())
    }

    /// Median peak RSS of the successful runs. A child's `ru_maxrss`
    /// starts at the benchmark's RSS when it was started (see
    /// [`run_measured`]), so that must stay below the child's own peak.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        check(!self.rss.is_empty(), format!("no {} succeeded", self.what))?;
        let peak = median(&self.rss);
        check(
            self.own_rss < peak,
            format!(
                "the benchmark's own RSS ({:.1} MB) reaches the peak RSS of {} ({peak:.1} MB)",
                self.own_rss, self.what
            ),
        )?;
        Ok(peak)
    }

    /// `rows` per second over the summed wall of the successful runs.
    pub fn rows_per_s(&self, rows: usize) -> Result<f64> {
        check(!self.rss.is_empty(), format!("no {} succeeded", self.what))?;
        Ok((rows * self.rss.len()) as f64 / self.busy.as_secs_f64())
    }

    fn run_once(&mut self) -> Result<Finished> {
        let done = otrepair(self.ctx, self.args, self.out)?;
        // Read after the spawn's heap trim: the RSS the child started from.
        self.own_rss = self.own_rss.max(own_rss_mb()?);
        Ok(done)
    }

    /// The output must equal `expected`. It is then removed, so no
    /// write-back of it runs under later timings.
    fn check_output(&self) -> Result<()> {
        check(
            same_bytes(self.out, self.expected)?,
            format!("{} output differs from the in-process repair", self.what),
        )?;
        Ok(std::fs::remove_file(self.out)?)
    }
}

/// Whether two files hold the same bytes, compared a chunk at a time so
/// that neither is held in memory.
pub fn same_bytes(a: &Path, b: &Path) -> Result<bool> {
    const CHUNK: usize = 1 << 20;
    let len = std::fs::metadata(a)?.len();
    if std::fs::metadata(b)?.len() != len {
        return Ok(false);
    }
    let (mut fa, mut fb) = (File::open(a)?, File::open(b)?);
    let (mut ba, mut bb) = (vec![0; CHUNK], vec![0; CHUNK]);
    let mut left = len;
    while left > 0 {
        let n = left.min(CHUNK as u64) as usize;
        fa.read_exact(&mut ba[..n])?;
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
        left -= n as u64;
    }
    Ok(true)
}

/// `struct rusage` of Linux (two `timeval`s, then fourteen `long`s).
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// glibc's `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD`.
const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_THRESHOLD: c_int = -3;

/// Pin the benchmark's own allocator to one behaviour for the whole run.
///
/// By default glibc moves its mmap threshold up as large blocks are
/// freed and trims the heap top as it goes. Which state a process lands
/// in depends on the order of its first frees, and in one of them every
/// decoded 100k-row response maps and faults in fresh pages: about 5 ms
/// of kernel time per request in the load generator against 0.6 ms in
/// the other, enough to split runs of the same code into a slow and a
/// fast mode. Fixed thresholds keep blocks up to 32 MiB on the heap and
/// leave trimming to the explicit [`malloc_trim`] before each spawn.
pub fn fix_allocator() {
    // SAFETY: `mallopt` only sets allocator tunables; called first in
    // `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

/// A finished child: exit success, wall time and peak resident set.
pub struct Finished {
    pub ok: bool,
    pub wall: Duration,
    pub peak_rss_mb: f64,
}

/// Run `cmd` to completion with stdout discarded and stderr kept in
/// `log`; report its wall time and peak RSS (`ru_maxrss` from `wait4`).
///
/// On `exec` the kernel folds the peak RSS of the address space being
/// left, the benchmark's own, into the child's `ru_maxrss`. So the freed
/// heap goes back to the system first, and writing 5 to
/// `/proc/self/clear_refs` lowers that peak to the benchmark's current
/// RSS, which the caller keeps below the child's.
fn run_measured(cmd: &mut Command, log: &Path) -> Result<Finished> {
    // SAFETY: glibc's `malloc_trim` only releases free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")?;
    let err = File::create(log)?;
    let t0 = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(err))
        .spawn()?;
    let pid = c_int::try_from(child.id())?;
    let mut status: c_int = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and `struct rusage`; `pid` is our own
        // unreaped child, so no other waiter races for it.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 on child {pid}: {e}").into());
        }
    }
    let wall = t0.elapsed();
    // `wait4` reaped the child; dropping the handle neither waits nor kills.
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    if !exited_zero {
        let mut msg = String::new();
        File::open(log)?.read_to_string(&mut msg)?;
        eprintln!(
            "perfbench: child failed (wait status {status}): {}",
            msg.trim()
        );
    }
    Ok(Finished {
        ok: exited_zero,
        wall,
        peak_rss_mb: usage.maxrss as f64 * 1024.0 / 1e6,
    })
}

/// Peak RSS (`VmHWM`) of a live process, in MB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64> {
    status_mb(&pid.to_string(), "VmHWM:")
}

/// The benchmark's own current RSS (`VmRSS`), in MB.
fn own_rss_mb() -> Result<f64> {
    status_mb("self", "VmRSS:")
}

/// A `kB` field of `/proc/<pid>/status`, in MB.
fn status_mb(pid: &str, field: &str) -> Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/{pid}/status"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// A running `otrepaird`, killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start `otrepaird` at its default thread/shard policy on an
    /// OS-assigned port and wait until it listens.
    pub fn start(ctx: &Ctx, tag: &str, plans_dir: Option<&Path>) -> Result<Self> {
        let port_file = ctx.path(&format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(&ctx.otrepaird);
        cmd.args(["--bind", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .env_remove("OTR_THREADS")
            .env_remove("OTR_BATCH_ROWS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(File::create(ctx.path(&format!("{tag}.log")))?));
        if let Some(dir) = plans_dir {
            cmd.arg("--plans").arg(dir);
        }
        let mut daemon = Self {
            child: cmd.spawn()?,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(format!("otrepaird exited before listening: {status}").into());
            }
            if Instant::now() > deadline {
                return Err("otrepaird did not write its port file within 30 s".into());
            }
            // A start-up takes a few ms; poll finely so the wait does not
            // round it up.
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    pub fn peak_rss_mb(&self) -> Result<f64> {
        vm_hwm_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Spans.

/// One traced call: name, interval (ns since the tracer started), the
/// span that caused it and the operation it belongs to.
pub struct Span {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder, written out once when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its id for [`Self::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Self time (span minus the time its children cover) of every
    /// span named `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as i128;
            }
        }
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect()
    }

    /// Median self time of `name` in seconds (0 when never traced).
    pub fn median_secs(&self, name: &str) -> f64 {
        let v = self.self_secs(name);
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<()> {
        use std::io::Write;
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Inputs.

/// `n` rows of the paper's Section V-A simulation (d = 2), drawn from
/// the benchmark seed's `stream`-th substream.
pub fn sample(seed: u64, stream: u64, n: usize) -> Result<Dataset> {
    let mut rng = StdRng::seed_from_u64(otr_par::splitmix_seed(seed, stream));
    Ok(SimulationSpec::paper_defaults().sample_dataset(n, &mut rng)?)
}

/// Write a data set as the CLI's labelled CSV.
pub fn write_csv(path: &Path, data: &ColumnarDataset) -> Result<()> {
    let out = BufWriter::new(File::create(path)?);
    otr_data::write_labelled_csv_columnar(out, data)?;
    Ok(())
}

/// Flush the files to disk now, so that no write-back of them runs under
/// a later timing.
pub fn sync(paths: &[&Path]) -> Result<()> {
    for p in paths {
        File::open(p)?.sync_all()?;
    }
    Ok(())
}

/// Run `otrepair args`, which writes the file `out`, with thread policy
/// left at auto (see [`run_measured`]). A stale `out` is removed first, so
/// the program writes a new file as a user would: ext4 flushes a file
/// overwritten in place when it is closed, which would put the host
/// disk's load into the timing.
pub fn otrepair(ctx: &Ctx, args: &[&str], out: &Path) -> Result<Finished> {
    match std::fs::remove_file(out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    let mut cmd = Command::new(&ctx.otrepair);
    cmd.args(args)
        .env_remove("OTR_THREADS")
        .env_remove("OTR_BATCH_ROWS");
    run_measured(&mut cmd, &ctx.path("otrepair.log"))
}

pub fn path_str(p: &Path) -> Result<&str> {
    p.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()).into())
}
