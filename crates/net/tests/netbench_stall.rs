//! A server that stalls must show in netbench's latencies.
//!
//! The peer accepts one connection, reads nothing for [`STALL`], then
//! answers every request with `Hits`. Every request is due within the
//! first three quarters of the stall, and there are far more of them than
//! the socket buffers absorb (about 57 000 of these frames on loopback),
//! so the generator's writes block. No answer can come before the stall
//! ends, so timed from its due instant the median request waits at least
//! `STALL - 3/8 STALL`, however fast the two ends run. Timed from the
//! moment it was written, a blocked request looks fast, and the median is
//! a blocked request's. The p99 cannot tell the two apart: the requests
//! that sat in the buffers carry the stall either way.

use directload::DirectLoadConfig;
use indexgen::CrawlSimulator;
use net::wire::{self, ReadFrame, Response};
use net::{run_netbench, NetbenchConfig};
use serve::LoadConfig;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const STALL: Duration = Duration::from_secs(1);

/// Sleeps through [`STALL`] without reading, then answers every request
/// on `socket` with an empty `Hits` until the client closes.
fn stall_then_answer(socket: TcpStream) {
    std::thread::sleep(STALL);
    let mut reader = BufReader::new(socket.try_clone().expect("clone socket"));
    let mut writer = BufWriter::new(socket);
    let hits = Response::Hits {
        degraded: false,
        hits: Vec::new(),
    };
    while let Ok(ReadFrame::Frame(body)) = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME) {
        let (id, trace, _) = wire::decode_request(&body).expect("a well-formed request");
        let answered = writer.write_all(&wire::encode_response(id, trace, &hits));
        // Flush once the requests already read are answered.
        let flushed = if reader.buffer().is_empty() {
            writer.flush()
        } else {
            Ok(())
        };
        if answered.and(flushed).is_err() {
            break;
        }
    }
}

#[test]
fn a_stalled_server_shows_in_the_median_latency() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = std::thread::spawn(move || {
        let (socket, _) = listener.accept().expect("accept");
        stall_then_answer(socket);
    });
    let crawler = CrawlSimulator::new(DirectLoadConfig::small().corpus);
    let cfg = NetbenchConfig {
        connections: 1,
        load: LoadConfig {
            qps: 200_000.0,
            requests: 150_000,
            ..LoadConfig::default()
        },
    };
    let report = run_netbench(&addr, &crawler, cfg);
    peer.join().expect("peer thread");

    assert_eq!(report.offered, 150_000);
    assert_eq!(report.completed, report.offered, "every request answered");
    assert_eq!(report.protocol_errors + report.transport_errors, 0);
    let p50 = Duration::from_nanos(report.hist.p50());
    assert!(
        p50 >= STALL / 2,
        "the median must carry the stall: p50 {p50:?} for a {STALL:?} stall"
    );
    assert!(
        report.lateness.p99() > 0,
        "the blocked writes held the generator back"
    );
}
