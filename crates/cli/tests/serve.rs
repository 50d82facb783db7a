//! Hostile-client suite for the `gz serve` daemon (DESIGN.md §15).
//!
//! Everything here drives an in-process daemon ([`serve_start`]) over real
//! sockets: well-behaved round trips first, then the abuse matrix — a
//! client that disconnects mid-batch, a stalled reader that forces the
//! write deadline, garbage and protocol-violating frames, invalid updates,
//! and a connection flood past `--max-clients`. After every attack the
//! daemon must still answer queries correctly, retire the hostile
//! connection's thread (`active_clients` returns to its pre-attack value),
//! and account for the event in its typed counters. The durability test
//! closes the loop in-process: shut down, refuse a blind restart, resume,
//! and answer bit-identically.
//!
//! The process-level crash companion (SIGKILL + `--resume`) lives in
//! `serve_chaos.rs`.

#![cfg(unix)]

use graph_zeppelin::{BoruvkaOutcome, ShardConfig, ShardedGraphZeppelin, TransportTimeouts};
use gz_cli::client::{ClientError, ServeClient};
use gz_cli::serve::{serve_start, ServeHandle, ServeListen, ServeOptions};
use gz_stream::wire::{QueryKind, WireMessage, WireUpdate};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn tcp_options(nodes: u64) -> ServeOptions {
    let mut options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), nodes);
    options.timeout_ms = Some(5_000);
    options
}

fn client_timeouts() -> TransportTimeouts {
    let d = Some(Duration::from_secs(5));
    TransportTimeouts { connect: d, read: d, write: d }
}

fn connect(handle: &ServeHandle) -> ServeClient {
    ServeClient::connect_tcp(handle.addr(), &client_timeouts()).expect("connect to daemon")
}

/// Deterministic pseudo-random insert stream over `n` nodes.
fn edge_stream(n: u32, count: usize, salt: u64) -> Vec<(u32, u32, bool)> {
    let mut x = salt | 1;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % n as u64) as u32;
        let v = ((x >> 13) % n as u64) as u32;
        if u != v {
            out.push((u, v, false));
        }
    }
    out
}

/// The answer a fresh in-process system with the daemon's default
/// configuration gives for `updates` — the bit-identical reference.
fn baseline(nodes: u64, updates: &[(u32, u32, bool)]) -> BoruvkaOutcome {
    let mut config = ShardConfig::in_ram(nodes, 1);
    config.seed = 0x5EED_1E55;
    config.workers_per_shard = 2;
    let mut system = ShardedGraphZeppelin::in_process(config).expect("baseline system");
    for &(u, v, d) in updates {
        system.update(u, v, d).expect("baseline update");
    }
    let outcome = system.spanning_forest().expect("baseline query");
    system.shutdown().expect("baseline shutdown");
    outcome
}

fn forest_pairs(outcome: &BoruvkaOutcome) -> Vec<(u32, u32)> {
    outcome.forest.iter().map(|e| (e.u(), e.v())).collect()
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn frame_bytes(msg: &WireMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    msg.write_to(&mut buf).expect("encode frame");
    buf
}

/// A raw socket speaking whatever bytes the test wants — the hostile
/// client.
fn raw_connect(handle: &ServeHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
}

fn raw_handshake(handle: &ServeHandle) -> TcpStream {
    let mut stream = raw_connect(handle);
    stream.write_all(&frame_bytes(&WireMessage::ClientHello)).unwrap();
    match WireMessage::read_from(&mut stream).expect("hello ack") {
        WireMessage::ClientHelloAck { .. } => stream,
        other => panic!("expected ClientHelloAck, got {}", other.name()),
    }
}

#[test]
fn serve_round_trips_updates_and_queries() {
    const NODES: u64 = 64;
    let updates = edge_stream(NODES as u32, 300, 11);
    let expected = baseline(NODES, &updates);

    for unix in [false, true] {
        let sock_dir;
        let mut options = if unix {
            sock_dir = Some(gz_testutil::TempDir::new("gz-serve-sock"));
            let path = sock_dir.as_ref().unwrap().join("serve.sock");
            let mut o = ServeOptions::new(ServeListen::Unix(path), NODES);
            o.timeout_ms = Some(5_000);
            o
        } else {
            sock_dir = None;
            tcp_options(NODES)
        };
        options.staleness = 0;
        let handle = serve_start(&options).expect("start daemon");

        let mut client = if unix {
            ServeClient::connect_unix(std::path::Path::new(handle.addr()), &client_timeouts())
                .expect("connect over unix socket")
        } else {
            connect(&handle)
        };
        assert_eq!(client.num_nodes(), NODES);
        assert_eq!(client.acked(), 0);

        // Ship in uneven batches; acks are cumulative across them.
        let mut sent = 0;
        for chunk in updates.chunks(37) {
            let acked = client.send_updates(chunk).expect("batch acked");
            sent += chunk.len() as u64;
            assert_eq!(acked, sent);
        }
        assert_eq!(handle.acked(), updates.len() as u64);

        assert_eq!(
            client.query_num_components().expect("num components"),
            expected.num_components() as u64
        );
        assert_eq!(client.query_components().expect("components"), expected.labels);
        assert_eq!(client.query_forest().expect("forest"), forest_pairs(&expected));

        client.shutdown().expect("clean goodbye");
        wait_until("connection to retire", || handle.active_clients() == 0);
        let stats = handle.stats();
        assert_eq!(stats.accepted(), 1);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.killed_malformed(), 0);
        let summary = handle.shutdown().expect("daemon shutdown");
        assert!(summary.contains("updates acked"), "{summary}");
        drop(sock_dir);
    }
}

#[test]
fn hostile_clients_die_alone_and_the_daemon_keeps_serving() {
    const NODES: u64 = 64;
    let updates = edge_stream(NODES as u32, 200, 23);
    let expected = baseline(NODES, &updates);

    let options = tcp_options(NODES);
    let handle = serve_start(&options).expect("start daemon");

    // A well-behaved client loads the real state first.
    let mut good = connect(&handle);
    good.send_updates(&updates).expect("good batch");

    // 1. Mid-batch disconnect: half an UpdateBatch frame, then gone.
    {
        let mut stream = raw_handshake(&handle);
        let frame = frame_bytes(&WireMessage::UpdateBatch {
            updates: vec![WireUpdate { u: 1, v: 2, is_delete: false }; 8],
        });
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(stream);
    }

    // 2. Garbage frame: wrong magic, sized exactly like the 8-byte frame
    // header so the daemon's typed ErrorReply is not lost to a reset.
    {
        let mut stream = raw_connect(&handle);
        stream.write_all(b"HTTP/1.1").unwrap();
        match WireMessage::read_from(&mut stream).expect("typed error reply") {
            WireMessage::ErrorReply { message } => {
                assert!(!message.is_empty(), "empty error message");
            }
            other => panic!("expected ErrorReply, got {}", other.name()),
        }
        // The daemon killed the connection right after the reply.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
    }

    // 3. Protocol violation: a second ClientHello after the handshake.
    {
        let mut stream = raw_handshake(&handle);
        stream.write_all(&frame_bytes(&WireMessage::ClientHello)).unwrap();
        match WireMessage::read_from(&mut stream).expect("typed error reply") {
            WireMessage::ErrorReply { message } => {
                assert!(message.contains("ClientHello"), "{message}");
            }
            other => panic!("expected ErrorReply, got {}", other.name()),
        }
    }

    // 4. Invalid updates: out-of-range endpoint, then a self-loop. Each
    // is refused before anything is logged or applied, with the reason.
    for (bad, needle) in [((5_000u32, 1u32), "out of range"), ((7, 7), "self-loop")] {
        let mut client = connect(&handle);
        match client.send_updates(&[(bad.0, bad.1, false)]) {
            Err(ClientError::Rejected(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    // Only the one well-behaved connection survives, and the state it
    // loaded is untouched by any of the rejected traffic.
    wait_until("hostile connections to retire", || handle.active_clients() == 1);
    assert_eq!(good.query_components().expect("components"), expected.labels);
    assert_eq!(good.query_forest().expect("forest"), forest_pairs(&expected));
    assert_eq!(handle.acked(), updates.len() as u64);

    let stats = handle.stats();
    // Garbage frame, second hello, out-of-range, self-loop.
    assert_eq!(stats.killed_malformed(), 4);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.accepted(), 6);

    good.shutdown().expect("clean goodbye");
    wait_until("all connections to retire", || handle.active_clients() == 0);
    handle.shutdown().expect("daemon shutdown");
}

#[test]
fn stalled_reader_hits_the_write_deadline() {
    const NODES: u64 = 1024;
    let mut options = tcp_options(NODES);
    options.timeout_ms = Some(300);
    let handle = serve_start(&options).expect("start daemon");

    // Connect some state so queries are non-trivial.
    let mut feeder = connect(&handle);
    feeder.send_updates(&edge_stream(NODES as u32, 100, 3)).expect("feed");

    // The stall: pipeline a pile of Components queries (4 KiB replies)
    // and never read a byte. The daemon's reply writes fill the socket
    // buffers, block, and must die on the write deadline — not forever.
    let mut stalled = raw_handshake(&handle);
    let query = frame_bytes(&WireMessage::Query { kind: QueryKind::Components });
    let mut burst = Vec::new();
    for _ in 0..2_000 {
        burst.extend_from_slice(&query);
    }
    stalled.write_all(&burst).expect("queries buffered");

    wait_until("the write deadline to fire", || handle.stats().timed_out() >= 1);

    // The daemon is still fully alive for everyone else.
    let mut probe = connect(&handle);
    let labels = probe.query_components().expect("labels");
    assert_eq!(labels.len(), NODES as usize);
    probe.shutdown().expect("probe goodbye");
    feeder.shutdown().expect("feeder goodbye");
    drop(stalled);
    wait_until("connections to retire", || handle.active_clients() == 0);
    handle.shutdown().expect("daemon shutdown");
}

#[test]
fn flood_past_max_clients_is_shed_with_busy() {
    const NODES: u64 = 16;
    let mut options = tcp_options(NODES);
    options.max_clients = 2;
    let handle = serve_start(&options).expect("start daemon");

    let first = connect(&handle);
    let second = connect(&handle);
    wait_until("both clients admitted", || handle.active_clients() == 2);

    // Every connection past the limit gets the typed refusal, with the
    // daemon's occupancy in it, and is never admitted.
    for i in 0..5 {
        match ServeClient::connect_tcp(handle.addr(), &client_timeouts()) {
            Err(ClientError::Busy { active, max_clients }) => {
                assert_eq!((active, max_clients), (2, 2), "flood attempt {i}");
            }
            other => panic!("flood attempt {i}: expected Busy, got {other:?}"),
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.shed(), 5);
    assert_eq!(stats.accepted(), 2);

    // Freeing a slot re-opens admission.
    second.shutdown().expect("second goodbye");
    wait_until("slot to free", || handle.active_clients() == 1);
    let mut third = connect(&handle);
    assert_eq!(third.query_num_components().expect("query"), NODES);
    assert_eq!(handle.stats().accepted(), 3);

    first.shutdown().expect("first goodbye");
    third.shutdown().expect("third goodbye");
    wait_until("connections to retire", || handle.active_clients() == 0);
    handle.shutdown().expect("daemon shutdown");
}

#[test]
fn durable_serve_resumes_bit_identically_in_process() {
    const NODES: u64 = 64;
    let updates = edge_stream(NODES as u32, 400, 41);
    let expected = baseline(NODES, &updates);
    let state = gz_testutil::TempDir::new("gz-serve-state");

    let mut options = tcp_options(NODES);
    options.dir = Some(state.path().to_path_buf());
    options.checkpoint_ms = 25;

    {
        let handle = serve_start(&options).expect("start daemon");
        let mut client = connect(&handle);
        for chunk in updates.chunks(64) {
            client.send_updates(chunk).expect("batch acked");
        }
        client.shutdown().expect("goodbye");
        wait_until("connection to retire", || handle.active_clients() == 0);
        handle.shutdown().expect("daemon shutdown");
    }

    // A blind restart over existing state is refused...
    let err = serve_start(&options).err().expect("must refuse existing state");
    assert!(err.to_string().contains("--resume"), "{err}");
    // ...and so is resuming with a mismatched universe.
    let mut wrong = options.clone();
    wrong.resume = true;
    wrong.nodes = NODES * 2;
    let err = serve_start(&wrong).err().expect("must refuse mismatched nodes");
    assert!(err.to_string().contains("was written for"), "{err}");

    // The real resume answers exactly like the uninterrupted baseline.
    options.resume = true;
    let handle = serve_start(&options).expect("resume daemon");
    let mut client = connect(&handle);
    assert_eq!(client.acked(), updates.len() as u64, "handshake reports the acked prefix");
    assert_eq!(client.query_num_components().expect("num"), expected.num_components() as u64);
    assert_eq!(client.query_components().expect("components"), expected.labels);
    assert_eq!(client.query_forest().expect("forest"), forest_pairs(&expected));

    // And it keeps ingesting: more updates land on the recovered state.
    let more = edge_stream(NODES as u32, 100, 97);
    client.send_updates(&more).expect("post-resume batch");
    let mut full = updates.clone();
    full.extend_from_slice(&more);
    let expected_full = baseline(NODES, &full);
    assert_eq!(client.query_components().expect("components"), expected_full.labels);

    client.shutdown().expect("goodbye");
    wait_until("connection to retire", || handle.active_clients() == 0);
    handle.shutdown().expect("daemon shutdown");
}

#[test]
fn queries_overlap_ingestion_without_blocking_it() {
    const NODES: u64 = 128;
    // Default staleness 0: every query reseals a fresh epoch, so the
    // reader exercises seal-while-ingesting continuously and the final
    // query is guaranteed to cover everything acked.
    let options = tcp_options(NODES);
    let handle = serve_start(&options).expect("start daemon");

    let addr = handle.addr().to_string();
    let writer = std::thread::spawn(move || {
        let mut client =
            ServeClient::connect_tcp(&addr, &client_timeouts()).expect("writer connect");
        for chunk in edge_stream(NODES as u32, 600, 5).chunks(16) {
            client.send_updates(chunk).expect("writer batch");
        }
        client.shutdown().expect("writer goodbye");
    });

    let mut reader = connect(&handle);
    let mut answers = 0u64;
    while !writer.is_finished() {
        let labels = reader.query_components().expect("overlapped query");
        assert_eq!(labels.len(), NODES as usize);
        answers += 1;
    }
    writer.join().expect("writer thread");
    assert!(answers > 0, "no query overlapped ingestion");

    // A final fresh-epoch query sees everything the writer acked.
    let expected = baseline(NODES, &edge_stream(NODES as u32, 600, 5));
    let mut fresh = connect(&handle);
    assert_eq!(fresh.query_components().expect("final query"), expected.labels);

    reader.shutdown().expect("reader goodbye");
    fresh.shutdown().expect("fresh goodbye");
    wait_until("connections to retire", || handle.active_clients() == 0);
    handle.shutdown().expect("daemon shutdown");
}

#[test]
fn staleness_budget_reuses_then_reseals_against_the_oracle() {
    use gz_graph::connectivity::connected_components_dsu;
    use gz_graph::{AdjacencyList, Edge};

    const NODES: u64 = 64;
    const U: u64 = 10;
    let mut options = tcp_options(NODES);
    options.staleness = U;
    let handle = serve_start(&options).expect("start daemon");
    let mut client = connect(&handle);

    let mut acked: Vec<(u32, u32, bool)> = Vec::new();
    let oracle = |acked: &[(u32, u32, bool)]| {
        let mut mirror = AdjacencyList::new(NODES as usize);
        for &(u, v, _) in acked {
            mirror.toggle(Edge::new(u, v));
        }
        connected_components_dsu(&mirror)
    };
    let send = |client: &mut ServeClient, acked: &mut Vec<_>, batch: &[(u32, u32, bool)]| {
        let total = client.send_updates(batch).expect("batch acked");
        acked.extend_from_slice(batch);
        assert_eq!(total, acked.len() as u64);
    };

    // A path over 0..32; 32..64 stay singletons.
    let path: Vec<_> = (0..31u32).map(|i| (i, i + 1, false)).collect();
    send(&mut client, &mut acked, &path);
    let sealed = client.query_components().expect("first query");
    assert_eq!(sealed, oracle(&acked), "the first query seals every acked update");

    // Up to U more acked updates, each of which moves the graph: the
    // daemon may (and, with one reader, does) answer from the same epoch.
    let mut lag = 0;
    for chunk in (31..31 + U as u32).map(|i| (i, i + 1, false)).collect::<Vec<_>>().chunks(4) {
        send(&mut client, &mut acked, chunk);
        lag += chunk.len() as u64;
        let reused = client.query_components().expect("query within the budget");
        assert_eq!(reused, sealed, "a lag of {lag} ≤ {U} reuses the sealed epoch");
    }
    assert_eq!(lag, U);

    // One more update puts the epoch past the budget: the next query
    // reseals and matches the oracle over every acked update.
    send(&mut client, &mut acked, &[(50, 51, false)]);
    let fresh = client.query_components().expect("query past the budget");
    assert_ne!(fresh, sealed, "the stream moved past the budget");
    assert_eq!(fresh, oracle(&acked), "a fresh seal covers every acked update");

    client.shutdown().expect("goodbye");
    wait_until("connection to retire", || handle.active_clients() == 0);
    handle.shutdown().expect("daemon shutdown");
}
