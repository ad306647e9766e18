//! Integration tests of the repair service: a real `otrepaird` server
//! on a loopback socket, exercised through the library client and raw
//! sockets.
//!
//! The load-bearing assertions pin the **serving determinism
//! contract** (docs/determinism.md): served output is byte-identical —
//! at the `f64` bit level — to offline repair, for shard counts
//! {1, 2, 7}, any thread policy, and concurrent interleaved clients.

use std::io::{Read, Write};
use std::net::TcpStream;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::{ColumnarDataset, Dataset, SimulationSpec};
use ot_fair_repair::prelude::EpsSchedule;
use ot_fair_repair::repair::{
    JointRepairConfig, JointRepairPlan, RepairConfig, RepairPlan, RepairPlanner,
};
use ot_fair_repair::serve::protocol::{self, request_type};
use ot_fair_repair::serve::{
    Client, ClientError, ErrorCode, PlanKind, PlanRegistry, RegistryError, ServeConfig, Server,
    ServerHandle,
};

mod common;

/// A running server on an OS-assigned loopback port.
struct TestServer {
    addr: String,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(mut config: ServeConfig) -> Self {
        config.bind = "127.0.0.1:0".into();
        let server = Server::bind(&config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let thread = std::thread::spawn(move || server.run().unwrap());
        Self {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).unwrap()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn split_data(seed: u64, n_research: usize, n_archive: usize) -> (Dataset, ColumnarDataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let split = SimulationSpec::paper_defaults()
        .generate(n_research, n_archive, &mut rng)
        .unwrap();
    let archive = ColumnarDataset::from_dataset(&split.archive);
    (split.research, archive)
}

fn scalar_plan(research: &Dataset, n_q: usize) -> RepairPlan {
    RepairPlanner::new(RepairConfig::with_n_q(n_q))
        .design(research)
        .unwrap()
}

fn joint_plan(research: &Dataset) -> JointRepairPlan {
    let config = JointRepairConfig {
        n_q: 8,
        ..JointRepairConfig::default()
    };
    JointRepairPlan::design(research, config).unwrap()
}

/// Bit-level equality of feature columns (`==` would conflate 0.0 and
/// -0.0 and choke on any NaN).
fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn served_repair_is_byte_identical_to_offline_across_shard_counts() {
    let (research, archive) = split_data(11, 400, 1_200);
    let plan = scalar_plan(&research, 30);
    let json = plan.to_json().unwrap();
    let seed = 7u64;
    let offline = bits(
        plan.repair_columnar_par(&archive, seed)
            .unwrap()
            .feature_columns(),
    );

    for shards in [1usize, 2, 7] {
        let server = TestServer::start(ServeConfig {
            shards,
            ..ServeConfig::default()
        });
        let mut client = server.client();
        client
            .load_plan(PlanKind::Scalar, "census", 1, &json)
            .unwrap();
        let served = client.repair("census", 1, seed, &archive).unwrap();
        assert_eq!(
            bits(&served.columns),
            offline,
            "served bytes differ from offline at {shards} shards"
        );
        // The out-of-range count is part of the contract too: it must
        // not depend on the shard layout.
        let (_, oob) = plan.repair_columnar_shard(&archive, seed, 0).unwrap();
        assert_eq!(served.out_of_range, oob, "oob drifted at {shards} shards");
    }
}

#[test]
fn served_joint_repair_matches_offline() {
    let (research, archive) = split_data(12, 500, 600);
    let plan = joint_plan(&research);
    let json = plan.to_json().unwrap();
    let seed = 3u64;
    let offline = ColumnarDataset::from_dataset(
        &plan
            .repair_dataset_par(&archive.to_dataset(), seed)
            .unwrap(),
    );

    let server = TestServer::start(ServeConfig {
        shards: 5,
        ..ServeConfig::default()
    });
    let mut client = server.client();
    client
        .load_plan(PlanKind::Joint, "joint", 1, &json)
        .unwrap();
    let served = client.repair_archive("joint", 0, seed, &archive).unwrap();
    assert_eq!(
        bits(served.feature_columns()),
        bits(offline.feature_columns())
    );
    // Labels pass through repair untouched.
    assert_eq!(served.s(), archive.s());
    assert_eq!(served.u(), archive.u());
}

/// The `d = 3` joint path through the service, end to end: a 3-feature
/// joint plan is (a) preloaded from a `plans_dir` — exercising the
/// registry's kind-sniffing loader (scalar parse first, joint on
/// fallthrough) on the n-d plan schema — and (b) loaded over the wire,
/// and both must serve bytes byte-identical to offline
/// `repair_dataset_par` (the `apply --joint` path). The registry
/// listing must report the plan's true dimensionality, not assume
/// joint means 2.
#[test]
fn served_3feature_joint_repair_matches_offline_and_sniffs_kind() {
    let spec = SimulationSpec {
        means: [
            [vec![-1.0, -1.0, -0.5], vec![0.0, 0.0, 0.0]],
            [vec![1.0, 1.0, 0.5], vec![0.0, 0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: None,
        pr_u0: 0.5,
        pr_s0_given_u: [0.3, 0.1],
    };
    let mut rng = StdRng::seed_from_u64(21);
    let split = spec.generate(300, 250, &mut rng).unwrap();
    let archive = ColumnarDataset::from_dataset(&split.archive);
    let config = JointRepairConfig {
        n_q: 6,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        ..JointRepairConfig::default()
    };
    let plan = JointRepairPlan::design(&split.research, config).unwrap();
    let json = plan.to_json().unwrap();
    let seed = 5u64;
    let offline = ColumnarDataset::from_dataset(
        &plan
            .repair_dataset_par(&archive.to_dataset(), seed)
            .unwrap(),
    );

    // (a) plans_dir preload: the loader must sniff the n-d artifact as
    // a joint plan without being told its kind.
    let dir = std::env::temp_dir().join(format!("otrepaird-joint3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("joint3.json"), &json).unwrap();
    let server = TestServer::start(ServeConfig {
        shards: 3,
        plans_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    let plans = client.list_plans().unwrap();
    assert_eq!(plans.len(), 1);
    assert_eq!(
        (
            plans[0].name.as_str(),
            plans[0].kind,
            plans[0].dim,
            plans[0].n_q
        ),
        ("joint3", PlanKind::Joint, 3, 6),
        "kind sniffing or dim reporting broke on the d = 3 schema"
    );
    let served = client.repair_archive("joint3", 0, seed, &archive).unwrap();
    assert_eq!(
        bits(served.feature_columns()),
        bits(offline.feature_columns()),
        "preloaded d = 3 joint plan served different bytes than offline repair"
    );
    assert_eq!(served.s(), archive.s());
    assert_eq!(served.u(), archive.u());

    // (b) the same artifact loaded over the wire serves the same bytes.
    client
        .load_plan(PlanKind::Joint, "wire3", 1, &json)
        .unwrap();
    let served = client.repair_archive("wire3", 1, seed, &archive).unwrap();
    assert_eq!(
        bits(served.feature_columns()),
        bits(offline.feature_columns()),
        "wire-loaded d = 3 joint plan served different bytes than offline repair"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_each_get_their_own_deterministic_bytes() {
    let (research, archive) = split_data(13, 400, 800);
    let plan = scalar_plan(&research, 24);
    let json = plan.to_json().unwrap();

    let server = TestServer::start(ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    });
    server
        .client()
        .load_plan(PlanKind::Scalar, "p", 1, &json)
        .unwrap();

    // Four clients interleave repairs with distinct seeds; each stream
    // of responses must match that client's own offline reference —
    // cross-request interleaving must be unobservable.
    let addr = server.addr.clone();
    let results: Vec<_> = std::thread::scope(|scope| {
        (0u64..4)
            .map(|client_id| {
                let addr = addr.clone();
                let archive = &archive;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (0u64..3)
                        .map(|round| {
                            let seed = client_id * 100 + round;
                            (
                                seed,
                                bits(&client.repair("p", 0, seed, archive).unwrap().columns),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for per_client in results {
        for (seed, served) in per_client {
            let offline = bits(
                plan.repair_columnar_par(&archive, seed)
                    .unwrap()
                    .feature_columns(),
            );
            assert_eq!(served, offline, "seed {seed} drifted under concurrency");
        }
    }
    assert_eq!(server.handle.rows_repaired(), 4 * 3 * archive.len() as u64);
}

#[test]
fn plan_lifecycle_and_registry_errors_over_the_wire() {
    let (research, archive) = split_data(14, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();

    client.ping().unwrap();
    assert!(client.list_plans().unwrap().is_empty());

    // Load two versions; listing is name-then-version ordered.
    client
        .load_plan(PlanKind::Scalar, "census", 1, &json)
        .unwrap();
    client
        .load_plan(PlanKind::Scalar, "census", 3, &json)
        .unwrap();
    let plans = client.list_plans().unwrap();
    assert_eq!(
        plans
            .iter()
            .map(|p| (p.name.as_str(), p.version))
            .collect::<Vec<_>>(),
        vec![("census", 1), ("census", 3)]
    );
    assert_eq!(
        (plans[0].kind, plans[0].dim, plans[0].n_q),
        (PlanKind::Scalar, 2, 16)
    );

    // Malformed JSON → PlanInvalid.
    let err = client
        .load_plan(PlanKind::Scalar, "bad", 1, "{not json")
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::PlanInvalid), "{err}");

    // Occupied name@version → VersionCollision (immutable versions).
    let err = client
        .load_plan(PlanKind::Scalar, "census", 3, &json)
        .unwrap_err();
    assert_eq!(
        err.server_code(),
        Some(ErrorCode::VersionCollision),
        "{err}"
    );

    // Repair against an unknown plan → UnknownPlan.
    let err = client.repair("nope", 0, 1, &archive).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownPlan), "{err}");

    // Dimension mismatch → RepairFailed (the joint kind needs d = 2...
    // here we submit a 1-column archive against a d = 2 scalar plan).
    let skinny =
        ColumnarDataset::from_columns(vec![vec![0.5; 4]], vec![0, 1, 0, 1], vec![0, 0, 1, 1])
            .unwrap();
    let err = client.repair("census", 0, 1, &skinny).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::RepairFailed), "{err}");

    // Evict; the evicted version is gone, the other remains, and
    // version 0 now resolves to it.
    client.evict_plan("census", 3).unwrap();
    let err = client.evict_plan("census", 3).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownPlan), "{err}");
    assert_eq!(client.list_plans().unwrap().len(), 1);
    client.repair("census", 0, 1, &archive).unwrap();

    // The info snapshot reflects the session.
    let info = client.info().unwrap();
    assert_eq!(info.protocol_version, protocol::PROTOCOL_VERSION);
    assert_eq!(info.plans, 1);
    assert_eq!(info.rows_repaired, archive.len() as u64);
    assert!(info.requests >= 10);
}

#[test]
fn version_zero_selects_latest_and_pins_bytes_to_versions() {
    let (research, archive) = split_data(15, 350, 300);
    // Two genuinely different plans under the same name: different nQ
    // resolutions produce different repaired bytes.
    let v1 = scalar_plan(&research, 12);
    let v2 = scalar_plan(&research, 40);
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    client
        .load_plan(PlanKind::Scalar, "p", 1, &v1.to_json().unwrap())
        .unwrap();
    client
        .load_plan(PlanKind::Scalar, "p", 2, &v2.to_json().unwrap())
        .unwrap();

    let latest = client.repair("p", 0, 9, &archive).unwrap();
    let pinned1 = client.repair("p", 1, 9, &archive).unwrap();
    let pinned2 = client.repair("p", 2, 9, &archive).unwrap();
    assert_eq!(
        bits(&latest.columns),
        bits(&pinned2.columns),
        "0 must mean latest"
    );
    assert_ne!(
        bits(&pinned1.columns),
        bits(&pinned2.columns),
        "different plan versions must actually differ for this test to bite"
    );
    assert_eq!(
        bits(&pinned1.columns),
        bits(
            v1.repair_columnar_par(&archive, 9)
                .unwrap()
                .feature_columns()
        ),
        "pinned version must serve exactly its artifact"
    );
}

#[test]
fn plans_dir_preloads_named_versions() {
    let (research, archive) = split_data(16, 350, 150);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let dir = std::env::temp_dir().join(format!("otrepaird-preload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("census.json"), &json).unwrap();
    std::fs::write(dir.join("census@2.json"), &json).unwrap();

    let server = TestServer::start(ServeConfig {
        plans_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    let plans = client.list_plans().unwrap();
    assert_eq!(
        plans
            .iter()
            .map(|p| (p.name.as_str(), p.version))
            .collect::<Vec<_>>(),
        vec![("census", 1), ("census", 2)]
    );
    client.repair("census", 2, 1, &archive).unwrap();

    // A broken artifact in the directory fails startup loudly instead
    // of serving a partial registry.
    std::fs::write(dir.join("broken.json"), "{oops").unwrap();
    let err = Server::bind(&ServeConfig {
        bind: "127.0.0.1:0".into(),
        plans_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap_err();
    assert!(err.to_string().contains("broken"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn execution_knobs_never_change_served_bytes() {
    let (research, archive) = split_data(17, 400, 700);
    let plan = scalar_plan(&research, 20);
    let json = plan.to_json().unwrap();
    let offline = bits(
        plan.repair_columnar_par(&archive, 42)
            .unwrap()
            .feature_columns(),
    );

    for (threads, shards, batch_rows) in [
        (1, 1, None),
        (2, 7, Some(64)),
        (4, 3, Some(1)),
        (0, 0, None),
    ] {
        let server = TestServer::start(ServeConfig {
            threads,
            shards,
            batch_rows,
            ..ServeConfig::default()
        });
        let mut client = server.client();
        client.load_plan(PlanKind::Scalar, "p", 1, &json).unwrap();
        let served = client.repair("p", 1, 42, &archive).unwrap();
        assert_eq!(
            bits(&served.columns),
            offline,
            "threads={threads} shards={shards} batch_rows={batch_rows:?} changed bytes"
        );
    }
}

/// Raw-socket protocol conformance: framing errors and version skew
/// behave exactly as docs/protocol.md specifies.
#[test]
fn wire_level_framing_errors() {
    let server = TestServer::start(ServeConfig::default());

    // A frame with bad magic gets an Error(BadFrame) answer and then
    // the connection is closed (framing is unrecoverable).
    let mut raw = TcpStream::connect(&server.addr).unwrap();
    raw.write_all(b"HTTP/1.1 GET ").unwrap(); // 13 bytes, none of them OTRP
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadFrame));
    // Closed cleanly (EOF) or hard (RST, if unread bytes remained) —
    // either way the connection must be dead.
    let mut probe = [0u8; 1];
    let closed = matches!(raw.read(&mut probe), Ok(0) | Err(_));
    assert!(closed, "server must close the connection after BadFrame");

    // A well-framed future protocol version gets Error(UnsupportedVersion)
    // but the connection survives: a Ping right after still pongs.
    let mut raw = TcpStream::connect(&server.addr).unwrap();
    let mut frame = protocol::encode_header(request_type::PING, 4).to_vec();
    frame[4] = 9; // future version
    frame.extend_from_slice(&[1, 2, 3, 4]); // payload the server must skip
    raw.write_all(&frame).unwrap();
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(
        ErrorCode::from_u16(code),
        Some(ErrorCode::UnsupportedVersion)
    );
    raw.write_all(&protocol::encode_header(request_type::PING, 0))
        .unwrap();
    let mut header = [0u8; protocol::HEADER_LEN];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[5], protocol::response_type::PONG);

    // An unknown request type is answered (UnknownType) without killing
    // the connection; a truncated payload is BadPayload.
    let mut client = server.client();
    let mut raw = TcpStream::connect(&server.addr).unwrap();
    raw.write_all(&protocol::encode_header(0x6F, 0)).unwrap();
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::UnknownType));
    raw.write_all(&protocol::encode_header(request_type::EVICT_PLAN, 2))
        .unwrap();
    raw.write_all(&[0, 5]).unwrap(); // claims a 5-byte name, sends none
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadPayload));
    client.ping().unwrap(); // other connections were never disturbed
}

/// Read one frame off a raw socket and require it to be an Error,
/// returning `(code, message)`.
fn read_error_frame(stream: &mut TcpStream) -> (u16, String) {
    let mut header = [0u8; protocol::HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], b"OTRP");
    assert_eq!(header[5], protocol::response_type::ERROR);
    let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    let code = u16::from_be_bytes([payload[0], payload[1]]);
    (code, String::from_utf8_lossy(&payload[2..]).into_owned())
}

/// Raw-socket abuse: slow loris, adversarial length prefixes, and a
/// zero-length frame. Each must cost exactly its own connection — a
/// healthy client working the same server throughout must never notice.
#[test]
fn raw_socket_abuse_is_contained_to_its_own_connection() {
    let (research, archive) = split_data(18, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig {
        deadline_ms: 300,
        ..ServeConfig::default()
    });
    let mut healthy = server.client();
    healthy.load_plan(PlanKind::Scalar, "p", 1, &json).unwrap();
    let reference = bits(&healthy.repair("p", 1, 4, &archive).unwrap().columns);

    // 1. Slow loris: a complete header announcing a payload, then
    // silence. The frame deadline must kill the connection with
    // DeadlineExceeded instead of pinning a worker forever.
    let mut loris = TcpStream::connect(&server.addr).unwrap();
    loris
        .write_all(&protocol::encode_header(request_type::PING, 64))
        .unwrap();
    let (code, msg) = read_error_frame(&mut loris);
    assert_eq!(
        ErrorCode::from_u16(code),
        Some(ErrorCode::DeadlineExceeded),
        "{msg}"
    );
    let mut probe = [0u8; 1];
    assert!(
        matches!(loris.read(&mut probe), Ok(0) | Err(_)),
        "deadline-killed connection must be closed"
    );

    // 2. Length prefix just OVER MAX_PAYLOAD: unframeable, BadFrame,
    // closed — and the server must not have tried to allocate it.
    let mut oversized = TcpStream::connect(&server.addr).unwrap();
    let mut header = protocol::encode_header(request_type::PING, 0);
    header[8..].copy_from_slice(&((protocol::MAX_PAYLOAD as u32) + 1).to_be_bytes());
    oversized.write_all(&header).unwrap();
    let (code, _) = read_error_frame(&mut oversized);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadFrame));

    // 3. Length prefix just UNDER the cap (exactly MAX_PAYLOAD), then
    // silence: a legal header, so the server must wait — but
    // progressively, allocating only as bytes arrive, until the
    // deadline kills it. (If the server pre-allocated the announced
    // size this test would cost 1 GiB.)
    let mut huge = TcpStream::connect(&server.addr).unwrap();
    let mut header = protocol::encode_header(request_type::PING, 0);
    header[8..].copy_from_slice(&(protocol::MAX_PAYLOAD as u32).to_be_bytes());
    huge.write_all(&header).unwrap();
    let (code, _) = read_error_frame(&mut huge);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::DeadlineExceeded));

    // 4. Zero-length REPAIR frame: structurally valid framing with an
    // impossible payload → BadPayload, and the connection survives.
    let mut empty = TcpStream::connect(&server.addr).unwrap();
    empty
        .write_all(&protocol::encode_header(request_type::REPAIR, 0))
        .unwrap();
    let (code, _) = read_error_frame(&mut empty);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadPayload));
    empty
        .write_all(&protocol::encode_header(request_type::PING, 0))
        .unwrap();
    let mut pong = [0u8; protocol::HEADER_LEN];
    empty.read_exact(&mut pong).unwrap();
    assert_eq!(pong[5], protocol::response_type::PONG);

    // The healthy client never noticed any of it, and the served bytes
    // still match.
    assert_eq!(
        bits(&healthy.repair("p", 1, 4, &archive).unwrap().columns),
        reference,
        "abuse on other connections changed a healthy client's bytes"
    );
    let info = healthy.info().unwrap();
    assert!(
        info.deadline_kills >= 2,
        "loris + under-cap silence must both be counted, got {}",
        info.deadline_kills
    );
}

/// The connection governor: connections past `--max-conns` get an
/// immediate polite `Overloaded` error frame; once a slot frees, new
/// connections are served again.
#[test]
fn governor_rejects_past_max_conns_and_recovers() {
    let server = TestServer::start(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    // Two idle connections pin both slots (connections hold their slot
    // until closed, not just while a request is in flight).
    let hold_a = TcpStream::connect(&server.addr).unwrap();
    let hold_b = TcpStream::connect(&server.addr).unwrap();
    // The governor decision happens at accept; wait until both holds
    // are accounted for before probing.
    let mut rejected = None;
    for _ in 0..50 {
        let mut probe = TcpStream::connect(&server.addr).unwrap();
        probe
            .write_all(&protocol::encode_header(request_type::PING, 0))
            .unwrap();
        let mut header = [0u8; protocol::HEADER_LEN];
        probe.read_exact(&mut header).unwrap();
        if header[5] == protocol::response_type::ERROR {
            let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
            let mut payload = vec![0u8; len];
            probe.read_exact(&mut payload).unwrap();
            rejected = Some(u16::from_be_bytes([payload[0], payload[1]]));
            break;
        }
        // The holds' accept may still be racing ours; give it a beat.
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(
        rejected.map(ErrorCode::from_u16),
        Some(Some(ErrorCode::Overloaded)),
        "third concurrent connection was never rejected"
    );
    assert!(server.handle.rejected_overload() >= 1);

    // Release a slot; the next connection must be served normally.
    drop(hold_a);
    let mut ok = false;
    for _ in 0..50 {
        let mut client = server.client();
        if client.ping().is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(ok, "governor never recovered after a slot freed");
    drop(hold_b);
}

/// Structurally malformed scalar artifacts are refused at the trust
/// boundary: `LoadPlan` answers `PlanInvalid` without registering
/// anything or tripping the panic backstop, and a `--plans` preload
/// refuses the file.
#[test]
fn malformed_scalar_artifacts_are_rejected_not_registered() {
    let (research, archive) = split_data(20, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    let dir = std::env::temp_dir().join(format!("otr-serve-badplan-{}", std::process::id()));
    for (what, bad) in common::malformed_scalar_plans(&json) {
        let err = client
            .load_plan(PlanKind::Scalar, "bad", 1, &bad)
            .unwrap_err();
        assert_eq!(
            err.server_code(),
            Some(ErrorCode::PlanInvalid),
            "{what}: {err}"
        );

        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.json"), &bad).unwrap();
        let preload = PlanRegistry::new(1, None).load_dir(&dir);
        assert!(
            matches!(preload, Err(RegistryError::Invalid(_))),
            "{what}: {preload:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(client.list_plans().unwrap().is_empty());
    assert_eq!(server.handle.panics_caught(), 0);
    // The connection survives, and a well-formed artifact still serves.
    client
        .load_plan(PlanKind::Scalar, "good", 1, &json)
        .unwrap();
    client.repair("good", 1, 1, &archive).unwrap();
    assert_eq!(server.handle.panics_caught(), 0);
}

/// A request that panics must cost its own connection an `Internal`
/// error and nothing else: the daemon keeps serving and the registry
/// keeps its plans.
#[test]
fn panicking_request_is_isolated_to_its_connection() {
    let (research, archive) = split_data(19, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig {
        chaos_panic_plan: Some("poison".into()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    client.load_plan(PlanKind::Scalar, "p", 1, &json).unwrap();

    let mut victim = server.client();
    let err = victim.repair("poison", 0, 1, &archive).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Internal), "{err}");
    // That connection is dead...
    assert!(victim.ping().is_err());
    // ...but the daemon, the registry, and other connections are fine.
    assert_eq!(client.list_plans().unwrap().len(), 1);
    client.repair("p", 1, 1, &archive).unwrap();
    assert_eq!(server.handle.panics_caught(), 1);
}

/// Satellite fix: the daemon removes its `--port-file` on clean
/// shutdown, so scripts can't discover a dead port from a stale file.
#[test]
fn daemon_removes_port_file_on_clean_shutdown() {
    use ot_fair_repair::serve::daemon::{self, DaemonArgs};

    let dir = std::env::temp_dir().join(format!("otrepaird-portfile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let args = DaemonArgs {
        config: ServeConfig {
            bind: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
        port_file: Some(port_file.clone()),
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = {
        let args = args.clone();
        std::thread::spawn(move || daemon::run_with_handle(&args, move |h| tx.send(h).unwrap()))
    };
    let handle = rx.recv().unwrap();
    // While serving, the file holds a connectable address.
    let addr = std::fs::read_to_string(&port_file).unwrap();
    Client::connect(&addr).unwrap().ping().unwrap();

    handle.shutdown();
    thread.join().unwrap().unwrap();
    assert!(
        !port_file.exists(),
        "clean shutdown must remove the port file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_surfaces_transport_and_server_errors_distinctly() {
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    let err = client.evict_plan("ghost", 1).unwrap_err();
    match &err {
        ClientError::Server { .. } => assert_eq!(err.server_code(), Some(ErrorCode::UnknownPlan)),
        other => panic!("expected a server error, got {other}"),
    }
    // Invalid names are rejected server-side with PlanInvalid.
    let err = client
        .load_plan(PlanKind::Scalar, "no spaces allowed", 1, "{}")
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::PlanInvalid), "{err}");
}
