//! Pins the exact bytes of the heads this stack writes: requests from
//! `write_request`, and responses both from `write_response` and as a
//! running `Server` puts them on the wire (a raw socket reads them).
//! Header order is part of the pin.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use ytaudit_net::framing::{write_request, write_response, CHUNK_SIZE};
use ytaudit_net::url::QueryString;
use ytaudit_net::{Request, Response, Server, ServerConfig, StatusCode};

const JSON_BODY: &[u8] = br#"{"kind":"youtube#searchListResponse","items":[]}"#;

/// A body just over the chunking threshold.
fn big_body() -> Vec<u8> {
    (0..70_000u32).map(|i| b'a' + (i % 26) as u8).collect()
}

fn ok_json() -> Response {
    Response::json(StatusCode::OK, JSON_BODY.to_vec())
}

fn shed() -> Response {
    Response::text(StatusCode::TOO_MANY_REQUESTS, "tenant over its rate")
        .with_header("retry-after", "2")
}

fn pinned_ok(connection: &str) -> Vec<u8> {
    let mut wire = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: application/json; charset=utf-8\r\n\
         connection: {connection}\r\ncontent-length: {}\r\n\r\n",
        JSON_BODY.len()
    )
    .into_bytes();
    wire.extend_from_slice(JSON_BODY);
    wire
}

fn pinned_big() -> Vec<u8> {
    let body = big_body();
    let mut wire = b"HTTP/1.1 200 OK\r\ncontent-type: application/json; charset=utf-8\r\n\
connection: keep-alive\r\ntransfer-encoding: chunked\r\n\r\n"
        .to_vec();
    for chunk in body.chunks(CHUNK_SIZE) {
        wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        wire.extend_from_slice(chunk);
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(b"0\r\n\r\n");
    // Four full chunks and a short one, in lowercase hex.
    assert!(wire.windows(8).any(|w| w == b"\r\n1170\r\n"));
    wire
}

fn pinned_shed() -> Vec<u8> {
    b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: text/plain; charset=utf-8\r\n\
retry-after: 2\r\nconnection: keep-alive\r\ncontent-length: 20\r\n\r\ntenant over its rate"
        .to_vec()
}

fn pinned_close() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\n\
connection: close\r\ncontent-length: 3\r\n\r\nbye"
        .to_vec()
}

fn encoded(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    write_response(&mut wire, resp, keep_alive).unwrap();
    wire
}

#[test]
fn write_response_heads_are_pinned() {
    assert_eq!(encoded(&ok_json(), true), pinned_ok("keep-alive"));
    assert_eq!(encoded(&ok_json(), false), pinned_ok("close"));
    assert_eq!(
        encoded(&Response::json(StatusCode::OK, big_body()), true),
        pinned_big()
    );
    assert_eq!(encoded(&shed(), true), pinned_shed());
    assert_eq!(
        encoded(&Response::text(StatusCode::OK, "bye"), false),
        pinned_close()
    );
    // Framing headers a handler sets are replaced, never duplicated.
    let stale = ok_json()
        .with_header("content-length", "999")
        .with_header("connection", "upgrade");
    assert_eq!(encoded(&stale, true), pinned_ok("keep-alive"));
}

#[test]
fn write_request_heads_are_pinned() {
    let get = Request::get("/youtube/v3/search")
        .with_query(
            QueryString::new()
                .with("q", "us capitol")
                .with("publishedAfter", "2021-01-06T00:00:00Z"),
        )
        .with_header("x-sim-time", "2021-01-06T12:00:00Z")
        .with_header("user-agent", "ytaudit-net/0.1");
    let mut wire = Vec::new();
    write_request(&mut wire, &get, "127.0.0.1:8080").unwrap();
    assert_eq!(
        String::from_utf8(wire).unwrap(),
        "GET /youtube/v3/search?q=us+capitol&publishedAfter=2021-01-06T00%3A00%3A00Z HTTP/1.1\r\n\
         x-sim-time: 2021-01-06T12:00:00Z\r\nuser-agent: ytaudit-net/0.1\r\n\
         host: 127.0.0.1:8080\r\n\r\n"
    );
    let post = Request::post("/dist/lease", b"{}".to_vec()).with_header("host", "coordinator");
    let mut wire = Vec::new();
    write_request(&mut wire, &post, "127.0.0.1:8080").unwrap();
    assert_eq!(
        String::from_utf8(wire).unwrap(),
        "POST /dist/lease HTTP/1.1\r\nhost: coordinator\r\ncontent-length: 2\r\n\r\n{}"
    );
}

/// The server's bytes for each pinned answer, read off a raw socket.
#[test]
fn served_response_heads_are_pinned() {
    let handler = Arc::new(|req: &Request| match req.path.as_str() {
        "/big" => Response::json(StatusCode::OK, big_body()),
        "/shed" => shed(),
        "/bye" => Response::text(StatusCode::OK, "bye"),
        _ => ok_json(),
    });
    let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    for (path, want) in [
        ("/ok", pinned_ok("keep-alive")),
        ("/big", pinned_big()),
        ("/shed", pinned_shed()),
    ] {
        write!(sock, "GET {path} HTTP/1.1\r\nhost: h\r\n\r\n").unwrap();
        let mut got = vec![0u8; want.len()];
        sock.read_exact(&mut got).unwrap();
        assert_eq!(got, want, "{path}");
    }
    // A request asking to close gets a `connection: close` answer, and
    // nothing after it.
    sock.write_all(b"GET /bye HTTP/1.1\r\nhost: h\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut got = Vec::new();
    sock.read_to_end(&mut got).unwrap();
    assert_eq!(got, pinned_close());
    server.shutdown();
}
