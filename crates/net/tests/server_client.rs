//! End-to-end: a real engine behind a real loopback socket.
//!
//! Each test builds the laptop-scale deployment, starts [`net::Server`]
//! on an OS-assigned port, and exercises the wire surface with real
//! clients: typed ops, pipelining by request id, protocol-error
//! handling, and the netbench harness' accounting invariant
//! (every offered request is answered or tallied as a loss).

use bifrost::{DataCenterId, RegionId};
use bytes::Bytes;
use directload::{DirectLoad, DirectLoadConfig};
use indexgen::{IndexKind, QueryWorkload, QueryWorkloadConfig};
use net::{
    run_netbench, Client, ClientConfig, NetbenchConfig, Request, Response, Server, ServerConfig,
};
use obs::TelemetryFrame;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn engine_with_two_versions() -> Arc<DirectLoad> {
    let mut e = DirectLoad::new(DirectLoadConfig::small());
    e.run_version(1.0).expect("publish v1");
    e.run_version(0.3).expect("publish v2");
    Arc::new(e)
}

fn start_server(engine: &Arc<DirectLoad>) -> Server {
    Server::start(Arc::clone(engine), "127.0.0.1:0", ServerConfig::default()).expect("bind")
}

fn query_terms(engine: &DirectLoad, n: usize) -> Vec<Vec<Bytes>> {
    QueryWorkload::new(engine.crawler(), QueryWorkloadConfig::default())
        .take(n)
        .into_iter()
        .map(|q| q.terms)
        .collect()
}

#[test]
fn every_op_round_trips_over_loopback() {
    let engine = engine_with_two_versions();
    let server = start_server(&engine);
    let mut client =
        Client::connect(server.local_addr().to_string(), ClientConfig::default()).expect("connect");
    let dc = DataCenterId::all()[0];
    let terms = query_terms(&engine, 1).remove(0);

    // Get, pinned to the current version explicitly and via the 0 alias:
    // both must answer, and the alias must behave like the real version.
    for version in [engine.version(), 0] {
        match client
            .request(&Request::Get {
                dc,
                terms: terms.clone(),
                version,
                top_k: 4,
            })
            .expect("get")
        {
            Response::Hits { hits, .. } => {
                assert!(!hits.is_empty(), "workload terms are indexed terms");
                assert!(hits.len() <= 4, "top_k bounds the answer");
                for h in &hits {
                    assert!(h.url.starts_with(b"url:"), "hit urls come from the corpus");
                }
            }
            other => panic!("expected hits, got {other:?}"),
        }
    }

    // ScanPrefix over the forward index observes the url keyspace in
    // order and honors the limit.
    match client
        .request(&Request::ScanPrefix {
            dc,
            kind: IndexKind::Forward,
            prefix: Bytes::from_static(b"url:"),
            version: 0,
            limit: 7,
        })
        .expect("scan")
    {
        Response::Scan { items, truncated } => {
            assert_eq!(items.len(), 7, "corpus has >7 urls, limit must cut");
            assert!(truncated);
            let keys: Vec<_> = items.iter().map(|(k, _, _)| k.clone()).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "scan is key-ordered");
        }
        other => panic!("expected scan, got {other:?}"),
    }

    // Status reports the published versions and one generation per DC.
    match client.request(&Request::Status).expect("status") {
        Response::Status {
            current_version,
            min_live_version,
            generations,
        } => {
            assert_eq!(current_version, engine.version());
            assert_eq!(min_live_version, engine.min_live_version());
            assert_eq!(generations.len(), DataCenterId::all().len());
        }
        other => panic!("expected status, got {other:?}"),
    }

    // Introspect answers with a typed telemetry frame carrying the
    // server's own counters.
    match client.request(&Request::Introspect).expect("introspect") {
        Response::Introspect { json } => {
            let frame = TelemetryFrame::from_json(&json).expect("well-formed telemetry frame");
            assert!(frame.metric("net.requests_total").unwrap_or(0.0) >= 1.0);
            assert!(frame.metric("net.connections_total").unwrap_or(0.0) >= 1.0);
            assert_eq!(frame.layers.len(), 5, "net/serve/mint/qindb/wal rows");
            assert!(frame.layers.iter().any(|l| l.layer == "wal"));
        }
        other => panic!("expected introspection, got {other:?}"),
    }

    // Traced responses: the server allocated a trace id and echoed it.
    assert!(client.last_trace_id() > 0, "v2 responses carry a trace id");

    let report = server.shutdown();
    assert!(report.offered >= 2, "both gets went through the front-end");
    assert_eq!(
        report.responses() + report.shed,
        report.offered,
        "front-end accounting must balance"
    );
}

#[test]
fn pipelined_requests_all_answer_by_id() {
    let engine = engine_with_two_versions();
    let server = start_server(&engine);
    let mut client =
        Client::connect(server.local_addr().to_string(), ClientConfig::default()).expect("connect");
    let dc = DataCenterId::all()[0];

    // Queue a burst without reading, interleaving ops; drain afterwards
    // and match every response to its id.
    let terms = query_terms(&engine, 6);
    let mut expected = std::collections::HashMap::new();
    for (i, t) in terms.into_iter().enumerate() {
        let id = if i % 3 == 2 {
            client.send(&Request::Status).expect("send status")
        } else {
            client
                .send(&Request::Get {
                    dc,
                    terms: t,
                    version: 0,
                    top_k: 3,
                })
                .expect("send get")
        };
        expected.insert(id, i % 3 == 2);
    }
    for _ in 0..expected.len() {
        let (id, resp) = client.recv().expect("pipelined response");
        let was_status = expected.remove(&id).expect("unknown or duplicate id");
        match (was_status, resp) {
            (true, Response::Status { .. }) => {}
            (false, Response::Hits { .. }) => {}
            (false, Response::Error { .. }) => {} // shed under load is legal
            (ws, other) => panic!("id {id} (status={ws}) got {other:?}"),
        }
    }
    assert!(expected.is_empty(), "every id answered exactly once");
    server.shutdown();
}

#[test]
fn malformed_frames_close_the_connection_and_are_counted() {
    let engine = engine_with_two_versions();
    let server = start_server(&engine);
    let addr = server.local_addr();

    // A raw peer that speaks garbage: the server must close the
    // connection (framing is unrecoverable) without crashing.
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        let mut bad = net::wire::encode_request(7, 0, &Request::Status);
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // breaks the checksum
        raw.write_all(&bad).expect("write corrupt frame");
        raw.flush().unwrap();
        // The server closes; our next read sees EOF.
        let mut buf = [0u8; 16];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = std::io::Read::read(&mut raw, &mut buf).expect("read close");
        assert_eq!(n, 0, "server closes after a corrupt frame");
    }

    // A fresh, well-behaved client still works, and the error shows in
    // the counters.
    let mut client = Client::connect(addr.to_string(), ClientConfig::default()).expect("connect");
    match client.request(&Request::Introspect).expect("introspect") {
        Response::Introspect { json } => {
            let frame = TelemetryFrame::from_json(&json).expect("well-formed telemetry frame");
            let count = frame
                .metric("net.protocol_errors_total")
                .expect("protocol error counter present");
            assert!(count >= 1.0, "the corrupt frame was counted");
        }
        other => panic!("expected introspection, got {other:?}"),
    }
    server.shutdown();
}

/// The decoder is the one gate on a `Get`'s data center: a region
/// outside the six serving DCs never reaches dispatch. It decodes to a
/// protocol error, and over a socket it closes the connection and counts.
#[test]
fn get_naming_an_unknown_region_is_a_protocol_error() {
    let get = Request::Get {
        dc: DataCenterId {
            region: RegionId(3),
            slot: 0,
        },
        terms: vec![Bytes::from_static(b"the")],
        version: 0,
        top_k: 3,
    };
    let frame = net::wire::encode_request(9, 0, &get);
    assert_eq!(
        net::wire::decode_request(&frame[4..]),
        Err(net::wire::ProtocolError::Malformed("no such data center"))
    );

    let engine = engine_with_two_versions();
    let server = start_server(&engine);
    let addr = server.local_addr();
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&frame).expect("write frame");
        raw.flush().unwrap();
        let mut buf = [0u8; 16];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = std::io::Read::read(&mut raw, &mut buf).expect("read close");
        assert_eq!(n, 0, "server closes instead of answering");
    }
    let mut client = Client::connect(addr.to_string(), ClientConfig::default()).expect("connect");
    match client.request(&Request::Introspect).expect("introspect") {
        Response::Introspect { json } => {
            let frame = TelemetryFrame::from_json(&json).expect("well-formed telemetry frame");
            assert_eq!(frame.metric("net.protocol_errors_total"), Some(1.0));
            assert_eq!(
                frame.metric("net.op.get_total"),
                Some(0.0),
                "never dispatched"
            );
        }
        other => panic!("expected introspection, got {other:?}"),
    }
    server.shutdown();
}

/// An answer too large for the peer's frame cap comes back as an error
/// frame, not as a frame the client must reject: the connection, and
/// every request pipelined on it, survives.
#[test]
fn oversized_answer_is_an_error_not_a_dead_connection() {
    let engine = engine_with_two_versions();
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_frame: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(
        server.local_addr().to_string(),
        ClientConfig {
            max_frame: 4096,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let scan = Request::ScanPrefix {
        dc: DataCenterId::all()[0],
        kind: IndexKind::Summary,
        prefix: Bytes::new(),
        version: 0,
        limit: 100,
    };
    match client.request(&scan).expect("scan answers") {
        Response::Error { code, message } => {
            assert_eq!(code, net::ErrorCode::BadRequest);
            assert_eq!(message, "response exceeds max frame");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(matches!(
        client.request(&Request::Status).expect("status"),
        Response::Status { .. }
    ));
    assert_eq!(client.reconnects(), 0, "the connection survived");
    server.shutdown();
}

#[test]
fn netbench_accounting_balances_on_loopback() {
    let engine = engine_with_two_versions();
    let server = start_server(&engine);
    let cfg = NetbenchConfig {
        connections: 4,
        // Faster than the server answers; admission may shed, which is fine.
        load: serve::LoadConfig {
            qps: 20_000.0,
            requests: 400,
            ..serve::LoadConfig::default()
        },
    };
    let report = run_netbench(&server.local_addr().to_string(), engine.crawler(), cfg);
    assert_eq!(report.offered, 400, "every request was written");
    assert_eq!(report.protocol_errors, 0, "wire stays clean under load");
    assert_eq!(report.transport_errors, 0, "no responses lost");
    assert_eq!(
        report.completed + report.overloaded + report.errors,
        report.offered,
        "every offered request is answered exactly once"
    );
    assert!(report.completed > 0, "the server did real work");
    assert_eq!(
        report.hist.count(),
        report.offered,
        "every answered request is in the histogram"
    );
    let server_view = server.shutdown();
    assert_eq!(
        server_view.responses() + server_view.shed,
        server_view.offered,
        "server-side accounting balances too"
    );
}
