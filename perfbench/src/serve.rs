//! `serve-steady` and `serve-watch`: closed-loop 100k-row `Repair`
//! traffic from one load-generating process against an `otrepaird` child
//! at its default thread/shard policy. `serve-watch` arms a drift watch,
//! shifts the archive by (3, 3), and serves the hot-swapped plan.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use otr_core::{DriftConfig, DriftMonitor, RepairConfig, RepairPlan, RepairPlanner};
use otr_data::{ColumnarDataset, Drift};
use otr_serve::protocol::{Request, Response, HEADER_LEN};
use otr_serve::{Client, PlanKind, RegisteredPlan, ServerInfo};

use crate::util::{
    check, median, metric, sample, Ctx, Daemon, Latencies, Outcome, Result, Tracer, SEGMENTS,
};

const RESEARCH_ROWS: usize = 500;
const REQUEST_ROWS: usize = 100_000;
/// Distinct pre-generated archives per client; request `i` of client
/// `c` sends archive `i % POOL` with its own repair seed.
const POOL: usize = 4;
/// Closed-loop clients, one connection each; never more than `nproc`.
const CLIENTS: usize = 2;
/// Daemon start-ups per set-up batch; `setup_s` is the median of all
/// batches. A plain start and `LoadPlan` takes about 5 ms, mostly process
/// start, so it takes many for a steady median; a watched one streams to
/// a hot swap first.
const SETUP_BATCH: usize = 50;
const WATCH_SETUP_BATCH: usize = 3;
/// In-process request replays of the traced run.
const TRACE_REPS: u64 = 5;
/// Mean shift of the watched stream: far enough to trip the default
/// drift threshold within the first request.
const SHIFT: [f64; 2] = [3.0, 3.0];
/// Shifted requests set-up may send before a swap must have happened.
const MAX_TRIP_REQUESTS: u64 = 16;
const PLAN: &str = "bench";
/// Untimed closed-loop traffic before the timed phase.
const WARMUP: Duration = Duration::from_secs(2);

/// Repair seed of client `c`'s `i`-th request.
fn request_seed(seed: u64, c: usize, i: u64) -> u64 {
    otr_par::splitmix_seed(seed, ((c as u64 + 1) << 32) | i)
}

pub fn run(ctx: &Ctx, watch: bool) -> Result<Outcome> {
    // Load-shape guard: never more closed-loop clients than cores.
    let clients = CLIENTS;
    if clients > ctx.nproc {
        return Err(format!("refusing {clients} clients on {} cores", ctx.nproc).into());
    }
    let research = sample(ctx.seed, 1, RESEARCH_ROWS)?;
    let plan_json = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&research)?
        .to_json()?;
    let shift = Drift::MeanShift(SHIFT.to_vec());
    let mut pools: Vec<Vec<ColumnarDataset>> = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut pool = Vec::with_capacity(POOL);
        for j in 0..POOL {
            let rows = sample(ctx.seed, (10 + c * POOL + j) as u64, REQUEST_ROWS)?;
            let rows = if watch { shift.apply(&rows)? } else { rows };
            pool.push(ColumnarDataset::from_dataset(&rows));
        }
        pools.push(pool);
    }

    // Set-up: start the daemon, load the plan over the wire and, when
    // watching, stream shifted traffic until exactly one hot swap. The
    // first batch runs here and its last daemon serves the timed phase;
    // one more batch runs before each later segment.
    let batch = if watch {
        WATCH_SETUP_BATCH
    } else {
        SETUP_BATCH
    };
    let mut setup = Vec::new();
    let mut serving = None;
    for _ in 0..batch {
        drop(serving.take());
        let s = SetUp::run(ctx, setup.len(), watch, &plan_json, &pools[0])?;
        setup.push(s.secs);
        serving = Some(s);
    }
    let SetUp {
        daemon,
        plans_dir,
        trip_requests,
        ..
    } = serving.ok_or("no set-up ran")?;
    let policy = Client::connect(&daemon.addr)?.info()?;

    // The offline reference: the plan the daemon serves, as an artifact.
    let served_json = if watch {
        std::fs::read_to_string(plans_dir.join(format!("{PLAN}@2.json")))?
    } else {
        plan_json.clone()
    };
    let offline = RepairPlan::from_json(&served_json)?;

    // One connection per client; each client's first response must be
    // byte-identical to the offline repair.
    let mut conns = Vec::with_capacity(clients);
    let mut first = None;
    for (c, pool) in pools.iter().enumerate() {
        let mut client = Client::connect(&daemon.addr)?;
        let seed = request_seed(ctx.seed, c, 0);
        let served = client.repair(PLAN, 0, seed, &pool[0])?.columns;
        let want = offline.repair_columnar_par(&pool[0], seed)?;
        check(
            same_bits(&served, want.feature_columns()),
            format!("client {c}'s first served repair differs from the offline repair"),
        )?;
        first.get_or_insert(served);
        conns.push(client);
    }

    let mut tracer = Tracer::new();
    let mut frame_mb = 0.0;
    let mut redesign_s = 0.0;
    if ctx.trace {
        let seed = request_seed(ctx.seed, 0, 0);
        let replayed = trace_request(
            &mut tracer,
            &served_json,
            &pools[0][0],
            seed,
            &policy,
            watch,
        )?;
        check(
            same_bits(&replayed.0, first.as_deref().unwrap_or_default()),
            "in-process request replay differs from the served bytes",
        )?;
        frame_mb = replayed.1;
        if watch {
            redesign_s = trace_redesign(&plan_json, &served_json, &pools[0], trip_requests)?;
        }
    }

    // Untimed warm-up traffic lets the daemon's allocator and caches
    // settle; then the timed phase.
    let (warm, _) = closed_loop(ctx, &mut conns, &pools, &daemon.addr, WARMUP, 1);
    check(warm.failed == 0, "a warm-up request failed")?;
    let mut lat = Latencies::default();
    let mut wall = Duration::ZERO;
    for seg in 0..SEGMENTS {
        if seg > 0 {
            for _ in 0..batch {
                setup.push(SetUp::run(ctx, setup.len(), watch, &plan_json, &pools[0])?.secs);
            }
        }
        let first = u64::from(seg + 1) << 24;
        let (l, w) = closed_loop(ctx, &mut conns, &pools, &daemon.addr, ctx.segment(), first);
        lat.extend(l);
        wall += w;
    }
    let after = Client::connect(&daemon.addr)?.info()?;
    let peak_rss = daemon.peak_rss_mb()?;
    drop(daemon);
    check(
        after.panics_caught == 0,
        "the daemon caught a request panic",
    )?;
    check(
        after.rejected_overload == 0,
        "the daemon refused a connection",
    )?;
    check(
        after.deadline_kills == 0,
        "the daemon deadline-killed a connection",
    )?;
    if watch {
        check(
            after.swaps == 1 && after.watches == 1,
            format!(
                "expected exactly one hot swap, the daemon made {}",
                after.swaps
            ),
        )?;
    }

    let succeeded = lat.attempted() - lat.failed;
    let rows_per_s = (succeeded as usize * REQUEST_ROWS) as f64 / wall.as_secs_f64();
    let record = vec![
        metric("request_rows", REQUEST_ROWS as f64, "rows"),
        metric("clients", clients as f64, "count"),
        metric("generator_threads", (clients + 1) as f64, "count"),
        metric("daemon_threads", f64::from(policy.threads), "count"),
        metric("daemon_shards", f64::from(policy.shards), "count"),
        metric("requests_timed", lat.attempted() as f64, "count"),
        metric("trip_requests", trip_requests as f64, "count"),
        metric("server_requests", after.requests as f64, "count"),
        metric("server_rows_repaired", after.rows_repaired as f64, "rows"),
        metric("server_accepted", after.accepted as f64, "count"),
        metric("server_swaps", after.swaps as f64, "count"),
    ];
    let metrics = if ctx.trace {
        let ms = |name: &str| tracer.median_secs(name) * 1e3;
        let mut layers = vec![
            "serve.request_encode_ms",
            "serve.request_decode_ms",
            "data.slice_rows_ms",
            "core.repair_shard_ms",
            "serve.response_encode_ms",
            "serve.response_decode_ms",
        ];
        if watch {
            layers.extend(["data.to_dataset_ms", "core.drift_observe_ms"]);
        }
        let traced: f64 = layers.iter().map(|l| ms(l)).sum();
        let mut m: Vec<_> = layers.iter().map(|l| metric(l, ms(l), "ms")).collect();
        m.extend([
            metric("serve.other_ms", lat.ms(0.5) - traced, "ms"),
            metric("serve.frame_mb", frame_mb, "MB"),
            metric("serve.requests", after.requests as f64, "count"),
            metric(
                "serve.rejected_overload",
                after.rejected_overload as f64,
                "count",
            ),
            metric("serve.deadline_kills", after.deadline_kills as f64, "count"),
            metric("serve.panics_caught", after.panics_caught as f64, "count"),
            metric("serve.swaps", after.swaps as f64, "count"),
            metric("core.redesign_s", redesign_s, "s"),
        ]);
        tracer.write(&ctx.trace_file)?;
        m
    } else {
        vec![
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("success_rate", lat.success_rate(), "ratio"),
            metric("rows_per_s", rows_per_s, "rows/s"),
            metric("p50_ms", lat.ms(0.5), "ms"),
            metric("p90_ms", lat.ms(0.9), "ms"),
        ]
    };
    Ok(Outcome {
        attempted: lat.attempted(),
        failed: lat.failed,
        metrics,
        record,
    })
}

/// One daemon set up for serving.
struct SetUp {
    daemon: Daemon,
    plans_dir: PathBuf,
    trip_requests: u64,
    /// Daemon start to plan loaded (and, when watching, swapped), in s.
    secs: f64,
}

impl SetUp {
    /// Start daemon number `rep`, load the plan over the wire and, when
    /// watching, arm the watch and stream `pool` until one hot swap.
    fn run(
        ctx: &Ctx,
        rep: usize,
        watch: bool,
        plan_json: &str,
        pool: &[ColumnarDataset],
    ) -> Result<Self> {
        let plans_dir = ctx.path(&format!("plans{rep}"));
        if watch {
            std::fs::create_dir_all(&plans_dir)?;
        }
        let t0 = Instant::now();
        let daemon = Daemon::start(ctx, &format!("otrepaird{rep}"), watch.then_some(&plans_dir))?;
        let mut control = Client::connect(&daemon.addr)?;
        control.load_plan(PlanKind::Scalar, PLAN, 1, plan_json)?;
        let mut trip_requests = 0;
        if watch {
            control.watch(PLAN, &DriftConfig::default())?;
            trip_requests = trip(&mut control, pool, ctx.seed)?;
        }
        Ok(Self {
            daemon,
            plans_dir,
            trip_requests,
            secs: t0.elapsed().as_secs_f64(),
        })
    }
}

/// Stream `pool` through the watched plan until the daemon reports one
/// swap; returns the number of requests it took.
fn trip(control: &mut Client, pool: &[ColumnarDataset], seed: u64) -> Result<u64> {
    for i in 0..MAX_TRIP_REQUESTS {
        let archive = &pool[i as usize % POOL];
        control.repair(PLAN, 0, otr_par::splitmix_seed(seed, i), archive)?;
        match control.info()?.swaps {
            0 => {}
            1 => return Ok(i + 1),
            n => return Err(format!("shifted set-up stream caused {n} swaps").into()),
        }
    }
    Err(format!("no drift swap within {MAX_TRIP_REQUESTS} shifted requests").into())
}

/// A closed-loop phase: every client sends its next request as soon as
/// the previous one is answered, until `window` closes. Request indices
/// start at `first` (distinct seeds per phase). Returns all latencies and
/// the phase's wall time.
fn closed_loop(
    ctx: &Ctx,
    conns: &mut [Client],
    pools: &[Vec<ColumnarDataset>],
    addr: &str,
    window: Duration,
    first: u64,
) -> (Latencies, Duration) {
    let start = Barrier::new(conns.len());
    let t0 = Instant::now();
    let per_client: Vec<Latencies> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (pool, start) = (&pools[c], &start);
                s.spawn(move || {
                    let mut lat = Latencies::default();
                    start.wait();
                    let began = Instant::now();
                    let mut i = first;
                    while began.elapsed() < window {
                        let archive = &pool[i as usize % POOL];
                        let t = Instant::now();
                        match client.repair(PLAN, 0, request_seed(ctx.seed, c, i), archive) {
                            Ok(_) => lat.ok(t.elapsed()),
                            Err(e) => {
                                // Counted, never retried; a fresh
                                // connection carries the next request.
                                eprintln!("perfbench: client {c} request {i} failed: {e}");
                                lat.fail(window);
                                if let Ok(fresh) = Client::connect(addr) {
                                    *client = fresh;
                                }
                            }
                        }
                        i += 1;
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut all = Latencies::default();
    for l in per_client {
        all.extend(l);
    }
    (all, wall)
}

/// Replay one served repair's layer calls in process: encode and decode
/// the request, slice and repair each shard as the daemon would, encode
/// and decode the response and, when watching, fold the rows into a
/// drift monitor. Returns the reassembled columns and the frame size.
fn trace_request(
    t: &mut Tracer,
    plan_json: &str,
    archive: &ColumnarDataset,
    seed: u64,
    policy: &ServerInfo,
    watch: bool,
) -> Result<(Vec<Vec<f64>>, f64)> {
    let mut plan = RepairPlan::from_json(plan_json)?;
    let monitor_plan = plan.clone();
    // The daemon's registry runs each plan single-threaded per shard.
    plan.config.threads = 1;
    let registered = RegisteredPlan::Scalar(plan);
    let shards = (policy.shards as usize).clamp(1, archive.len());
    let mut out = (Vec::new(), 0.0);
    for op in 0..TRACE_REPS {
        let root = t.begin("serve.request", None, op);
        let request = Request::Repair {
            name: PLAN.into(),
            version: 0,
            seed,
            archive: archive.clone(),
        };
        let (req_type, req_payload) = t.time("serve.request_encode_ms", Some(root), op, || {
            request.encode()
        });
        let decoded = t.time("serve.request_decode_ms", Some(root), op, || {
            Request::decode(req_type, &req_payload)
        })?;
        let Request::Repair { archive: rows, .. } = decoded else {
            return Err("a Repair request decoded as another request".into());
        };
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(rows.len()); rows.dim()];
        let mut out_of_range = 0;
        for c in 0..shards {
            let (lo, hi) = (
                shard_start(rows.len(), shards, c),
                shard_start(rows.len(), shards, c + 1),
            );
            let shard = t.time("data.slice_rows_ms", Some(root), op, || {
                rows.slice_rows(lo..hi)
            })?;
            let (part, oob) = t.time("core.repair_shard_ms", Some(root), op, || {
                registered.repair_shard(&shard, seed, lo as u64)
            })?;
            out_of_range += oob;
            for (col, p) in columns.iter_mut().zip(part) {
                col.extend_from_slice(&p);
            }
        }
        let response = Response::Repaired {
            out_of_range,
            columns,
        };
        let (resp_type, resp_payload) = t.time("serve.response_encode_ms", Some(root), op, || {
            response.encode()
        });
        let back = t.time("serve.response_decode_ms", Some(root), op, || {
            Response::decode(resp_type, &resp_payload)
        })?;
        if watch {
            let batch = t.time("data.to_dataset_ms", Some(root), op, || rows.to_dataset());
            let mut monitor = DriftMonitor::for_plan(&monitor_plan, DriftConfig::default())?;
            t.time("core.drift_observe_ms", Some(root), op, || {
                monitor.observe(&batch)
            })?;
        }
        t.end(root);
        let Response::Repaired { columns, .. } = back else {
            return Err("a Repaired response decoded as another response".into());
        };
        let frame = req_payload.len() + resp_payload.len() + 2 * HEADER_LEN;
        out = (columns, frame as f64 / 1e6);
    }
    Ok(out)
}

/// Time the daemon's warm re-design on the rows that tripped the watch,
/// and check it reproduces the persisted hot-swapped artifact.
fn trace_redesign(
    parent_json: &str,
    swapped_json: &str,
    pool: &[ColumnarDataset],
    trip_requests: u64,
) -> Result<f64> {
    let parent = RepairPlan::from_json(parent_json)?;
    let mut buffered = pool[0].to_dataset();
    for i in 1..trip_requests {
        buffered = buffered.concat(&pool[i as usize % POOL].to_dataset())?;
    }
    let t0 = Instant::now();
    let redesigned = RepairPlanner::new(parent.config).redesign(&buffered, &parent)?;
    let secs = t0.elapsed().as_secs_f64();
    check(
        redesigned.to_json()? == swapped_json,
        "in-process re-design differs from the daemon's persisted swap",
    )?;
    Ok(secs)
}

/// Start row of shard `c` of `chunks` over `n` rows — the daemon's
/// contiguous split (the first `n % chunks` shards get one extra row).
fn shard_start(n: usize, chunks: usize, c: usize) -> usize {
    c * (n / chunks) + c.min(n % chunks)
}

/// Bitwise equality of two column sets.
fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
