//! Hostile-input suite for the operator HTTP server: oversize request
//! heads, unknown methods/paths, slow-loris dribble, raw garbage, and
//! concurrent scrapes racing metric absorption — the server must answer
//! 4xx (never panic) and `/metrics` snapshots must never tear.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use kmatch_obs::{Metrics, SolverMetrics, StdClock};
use kmatch_ops::{serve, OpsConfig, OpsState, ServerConfig};

fn spawn_server(cfg: ServerConfig) -> (Arc<OpsState>, kmatch_ops::OpsServer) {
    let state = Arc::new(OpsState::new(
        Arc::new(StdClock::new()),
        OpsConfig::default(),
    ));
    let server = serve(Arc::clone(&state), "127.0.0.1:0", cfg).expect("bind ephemeral port");
    (state, server)
}

/// Send raw bytes, read the whole response (connection closes), return it.
fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(bytes).expect("write");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

#[test]
fn unknown_method_gets_405_unknown_path_gets_404() {
    let (_state, server) = spawn_server(ServerConfig::default());
    let addr = server.local_addr();
    let r = raw_request(addr, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status_of(&r), 405, "{r}");
    let r = raw_request(addr, b"DELETE / HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 405, "{r}");
    let r = get(addr, "/nonexistent");
    assert_eq!(status_of(&r), 404, "{r}");
    let r = get(addr, "/metrics/../../etc/passwd");
    assert_eq!(status_of(&r), 404, "{r}");
    server.shutdown();
}

#[test]
fn malformed_request_lines_get_400() {
    let (_state, server) = spawn_server(ServerConfig::default());
    let addr = server.local_addr();
    for garbage in [
        &b"\r\n\r\n"[..],
        b"NOTHTTP\r\n\r\n",
        b"GET /metrics\r\n\r\n",                     // missing version
        b"GET /metrics HTTP/1.1 extra junk\r\n\r\n", // too many words
        b"GET /metrics SPDY/99\r\n\r\n",             // wrong protocol
        b"\x00\x01\x02\xff\xfe binary noise\r\n\r\n",
    ] {
        let r = raw_request(addr, garbage);
        assert_eq!(
            status_of(&r),
            400,
            "for {:?} got {r}",
            String::from_utf8_lossy(garbage)
        );
    }
    server.shutdown();
}

#[test]
fn oversize_request_head_gets_431() {
    let (_state, server) = spawn_server(ServerConfig {
        max_head_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // A single request line far over the ceiling, never terminated.
    let long = format!("GET /{} HTTP/1.1\r\n", "a".repeat(64 * 1024));
    let r = raw_request(addr, long.as_bytes());
    assert_eq!(status_of(&r), 431, "{r}");
    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_with_408() {
    let (_state, server) = spawn_server(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    // Dribble a byte, then stall past the read timeout without ever
    // completing the head.
    s.write_all(b"G").expect("write");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let r = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&r), 408, "{r}");
    server.shutdown();
}

#[test]
fn half_closed_connection_is_dropped_quietly() {
    let (_state, server) = spawn_server(ServerConfig::default());
    let addr = server.local_addr();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /metr").expect("write");
        // Drop mid-head: client goes away. Server must not wedge.
    }
    // Server still answers the next request.
    let r = get(addr, "/healthz");
    assert_eq!(status_of(&r), 200, "{r}");
    server.shutdown();
}

#[test]
fn concurrent_scrapes_during_absorb_never_tear() {
    let (state, server) = spawn_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Writer: absorb shards where proposals == 10 * solves, always in one
    // atomic absorb. Any scrape must observe that exact invariant.
    let writer_state = Arc::clone(&state);
    let writer = std::thread::spawn(move || {
        for _ in 0..200 {
            let mut shard = SolverMetrics::new();
            for _ in 0..10 {
                shard.proposal();
            }
            shard.solve_done(true, 1);
            writer_state.registry().absorb(shard);
        }
    });
    let mut checked = 0u32;
    for _ in 0..30 {
        let r = get(addr, "/metrics");
        assert_eq!(status_of(&r), 200, "{r}");
        let body = r.split("\r\n\r\n").nth(1).unwrap_or("");
        let scan = |name: &str| -> Option<u64> {
            body.lines()
                .find(|l| l.starts_with(name) && !l.starts_with('#'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        };
        if let (Some(p), Some(s)) = (scan("kmatch_proposals_total"), scan("kmatch_solves_total")) {
            assert_eq!(p, s * 10, "torn snapshot: {p} proposals vs {s} solves");
            checked += 1;
        }
    }
    writer.join().expect("writer");
    assert!(checked > 0, "at least one scrape parsed both counters");
    // Final state is fully absorbed and visible.
    let r = get(addr, "/metrics");
    assert!(r.contains("kmatch_proposals_total 2000"), "{r}");
    server.shutdown();
}

#[test]
fn progress_and_profile_404_until_armed_then_serve() {
    use kmatch_ops::ForensicsPlane;
    let (state, server) = spawn_server(ServerConfig::default());
    let addr = server.local_addr();
    // Unarmed: 404 with a reason, never a panic or empty 200.
    let r = get(addr, "/progress");
    assert_eq!(status_of(&r), 404, "{r}");
    assert!(r.contains("forensics not armed"), "{r}");
    let r = get(addr, "/profile");
    assert_eq!(status_of(&r), 404, "{r}");
    // Hostile variants against the new routes.
    let r = raw_request(addr, b"POST /progress HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status_of(&r), 405, "{r}");
    let r = raw_request(addr, b"PUT /profile HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 405, "{r}");
    let r = get(addr, "/progress/../secrets");
    assert_eq!(status_of(&r), 404, "{r}");
    // Armed: both answer 200.
    let plane = ForensicsPlane::new(2);
    plane
        .probes
        .probe(0)
        .publish(kmatch_obs::phase::GS_ROUNDS, 0, 0, 3, 42);
    state.attach_forensics(plane);
    let r = get(addr, "/progress");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(r.contains("\"phase_name\":\"gs.rounds\""), "{r}");
    assert!(r.contains("kmatch.progress/v1"), "{r}");
    let r = get(addr, "/profile");
    assert_eq!(status_of(&r), 200, "{r}");
    // Oversize query strings on the new routes stay 431-bounded.
    let long = format!("GET /progress?{} HTTP/1.1\r\n", "q".repeat(64 * 1024));
    let r = raw_request(addr, long.as_bytes());
    assert_eq!(status_of(&r), 431, "{r}");
    server.shutdown();
}

#[test]
fn progress_scrapes_race_probe_publishes_without_tearing() {
    use kmatch_ops::ForensicsPlane;
    let (state, server) = spawn_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let plane = ForensicsPlane::new(1);
    let probes = std::sync::Arc::clone(&plane.probes);
    state.attach_forensics(plane);
    // Writer publishes entangled values (cut == attempt * 10); every
    // consistent scrape must observe the invariant exactly.
    let writer = std::thread::spawn(move || {
        for i in 1..=20_000u64 {
            probes
                .probe(0)
                .publish(kmatch_obs::phase::ESCALATE, i as u32, (i * 10) as u32, i, i);
            if i % 256 == 0 {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
    });
    let mut consistent = 0u32;
    for _ in 0..40 {
        let r = get(addr, "/progress");
        assert_eq!(status_of(&r), 200, "{r}");
        let body = r.split("\r\n\r\n").nth(1).unwrap_or("");
        let field = |name: &str| -> Option<u64> {
            let tag = format!("\"{name}\":");
            let rest = &body[body.find(&tag)? + tag.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        if body.contains("\"consistent\":true") {
            let (attempt, cut) = (field("attempt"), field("cut"));
            if let (Some(a), Some(c)) = (attempt, cut) {
                assert_eq!(c, a * 10, "torn probe scrape: {body}");
                consistent += 1;
            }
        }
    }
    writer.join().expect("writer");
    assert!(consistent > 0, "no consistent scrape observed");
    server.shutdown();
}

#[test]
fn logs_level_filter_applies_over_http() {
    use kmatch_ops::Level;
    let (state, server) = spawn_server(ServerConfig::default());
    let addr = server.local_addr();
    state.log(Level::Info, "ops", "routine", vec![]);
    state.log(Level::Warn, "ops", "degraded", vec![]);
    state.log(Level::Error, "ops", "broken", vec![]);
    let r = get(addr, "/logs?level=warn");
    assert_eq!(status_of(&r), 200, "{r}");
    let body = r.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        body.contains("degraded") && body.contains("broken"),
        "{body}"
    );
    assert!(!body.contains("routine"), "{body}");
    // n= composes with level=.
    let r = get(addr, "/logs?level=warn&n=1");
    let body = r.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_eq!(body.lines().count(), 1, "{body}");
    assert!(body.contains("broken"), "{body}");
    // A bogus level name degrades to the unfiltered tail, never 4xx/5xx.
    let r = get(addr, "/logs?level=bogus");
    assert_eq!(status_of(&r), 200, "{r}");
    let body = r.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(body.contains("routine"), "{body}");
    server.shutdown();
}

#[test]
fn shutdown_leaves_no_listener_behind() {
    let (_state, server) = spawn_server(ServerConfig::default());
    let addr = server.local_addr();
    assert_eq!(status_of(&get(addr, "/healthz")), 200);
    server.shutdown();
    // The port is released: connects now fail (or are refused instantly).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(_) => panic!("listener still accepting after shutdown"),
    }
}
