//! Pins the exact request heads `HttpTransport` puts on the wire: the
//! request line, every header and their order. A raw listener records
//! the bytes of each request and answers it with a canned response, so
//! the pins see the transport's output and nothing else.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;
use ytaudit_api::quota::Endpoint;
use ytaudit_client::{HttpTransport, Transport};
use ytaudit_types::Timestamp;

/// The answer to every recorded request.
const CANNED: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";

/// Accepts one connection, reads `heads` bodiless requests from it and
/// answers each; returns the port and a handle yielding the raw bytes.
fn recorder(heads: usize) -> (u16, JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let handle = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut wire = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut answered = 0;
        while answered < heads {
            let n = sock.read(&mut chunk).unwrap();
            assert!(n > 0, "client closed after {answered} of {heads} requests");
            wire.extend_from_slice(&chunk[..n]);
            let complete = wire.windows(4).filter(|w| w == b"\r\n\r\n").count();
            while answered < complete {
                sock.write_all(CANNED).unwrap();
                answered += 1;
            }
        }
        wire
    });
    (port, handle)
}

fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn now() -> Option<Timestamp> {
    Some(Timestamp::from_ymd(2025, 3, 1).unwrap().add_hours(13))
}

/// A search, a videos and a comments call, as the collector sends them.
fn calls() -> Vec<(Endpoint, Vec<(String, String)>)> {
    vec![
        (
            Endpoint::Search,
            params(&[
                ("part", "snippet"),
                ("maxResults", "50"),
                ("order", "date"),
                ("safeSearch", "none"),
                ("type", "video"),
                ("q", "higgs boson"),
                ("publishedAfter", "2012-06-20T00:00:00Z"),
                ("publishedBefore", "2012-06-20T01:00:00Z"),
            ]),
        ),
        (
            Endpoint::Videos,
            params(&[
                ("part", "snippet,statistics,contentDetails"),
                ("id", "vid-00001,vid-00002"),
            ]),
        ),
        (
            Endpoint::CommentThreads,
            params(&[
                ("part", "snippet,replies"),
                ("videoId", "vid-00001"),
                ("maxResults", "100"),
                ("pageToken", "t/2+x"),
            ]),
        ),
    ]
}

/// The pinned heads of [`calls`], in order, against `port`.
fn pinned(port: u16) -> Vec<String> {
    let tail = format!(
        "x-sim-time: 2025-03-01T13:00:00Z\r\nuser-agent: ytaudit-net/0.1\r\nhost: 127.0.0.1:{port}\r\n\r\n"
    );
    vec![
        format!(
            "GET /youtube/v3/search?part=snippet&maxResults=50&order=date&safeSearch=none\
             &type=video&q=higgs+boson&publishedAfter=2012-06-20T00%3A00%3A00Z\
             &publishedBefore=2012-06-20T01%3A00%3A00Z&key=k%2B1 HTTP/1.1\r\n{tail}"
        ),
        format!(
            "GET /youtube/v3/videos?part=snippet%2Cstatistics%2CcontentDetails\
             &id=vid-00001%2Cvid-00002&key=k%2B1 HTTP/1.1\r\n{tail}"
        ),
        format!(
            "GET /youtube/v3/commentThreads?part=snippet%2Creplies&videoId=vid-00001\
             &maxResults=100&pageToken=t%2F2%2Bx&key=k%2B1 HTTP/1.1\r\n{tail}"
        ),
    ]
}

#[test]
fn single_calls_write_the_pinned_heads() {
    for (i, (endpoint, p)) in calls().into_iter().enumerate() {
        let (port, wire) = recorder(1);
        let transport = HttpTransport::new(format!("http://127.0.0.1:{port}"));
        let (status, body) = transport.execute(endpoint, &p, "k+1", now()).unwrap();
        assert_eq!((status, body.as_str()), (200, "{}"));
        drop(transport);
        let wire = String::from_utf8(wire.join().unwrap()).unwrap();
        assert_eq!(wire, pinned(port)[i], "{endpoint:?}");
    }
}

#[test]
fn a_pipelined_batch_writes_the_same_heads_back_to_back() {
    let (port, wire) = recorder(3);
    let transport = HttpTransport::new(format!("http://127.0.0.1:{port}")).with_max_in_flight(4);
    // A batch targets one endpoint, so it repeats the search call.
    let (endpoint, p) = calls().swap_remove(0);
    let batch = vec![p.clone(), p.clone(), p];
    let results = transport.execute_many(endpoint, &batch, "k+1", now());
    assert_eq!(results.len(), 3);
    for result in results {
        assert_eq!(result.unwrap(), (200, "{}".to_string()));
    }
    drop(transport);
    let wire = String::from_utf8(wire.join().unwrap()).unwrap();
    assert_eq!(wire, pinned(port)[0].repeat(3));
}

#[test]
fn a_call_without_a_pinned_time_has_no_time_header() {
    let (port, wire) = recorder(1);
    let transport = HttpTransport::new(format!("http://127.0.0.1:{port}"));
    let p = params(&[("part", "id"), ("id", "vid-00001")]);
    transport.execute(Endpoint::Videos, &p, "k", None).unwrap();
    drop(transport);
    let wire = String::from_utf8(wire.join().unwrap()).unwrap();
    assert_eq!(
        wire,
        format!(
            "GET /youtube/v3/videos?part=id&id=vid-00001&key=k HTTP/1.1\r\n\
             user-agent: ytaudit-net/0.1\r\nhost: 127.0.0.1:{port}\r\n\r\n"
        )
    );
}
