//! Property tests for the HTTP codec layers, plus a seeded sequence
//! test for the pipelined client. All are plain `#[test]`s over random
//! cases from a generator seeded via `YTAUDIT_PROP_SEED` (a number, or
//! any string such as a commit SHA, hashed), like the workspace's
//! shard-equivalence suite; a failure names the seed and case.

use std::io::Cursor;
use ytaudit_net::framing::{
    write_chunked, write_request, write_response, FrameLimits, MessageReader,
};
use ytaudit_net::url::{decode_component, encode_component, QueryString};
use ytaudit_net::{Request, Response, StatusCode};

/// Random cases per codec property.
const CASES: usize = 256;

fn prop_seed() -> u64 {
    match std::env::var("YTAUDIT_PROP_SEED") {
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            raw.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }),
        Err(_) => 0x5EED_CAFE,
    }
}

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let len = self.below(lo, hi);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Any text without a newline (the regex `.`), of length `lo..hi`:
    /// ASCII (controls and separators included), two- and three-byte
    /// characters and astral ones.
    fn text(&mut self, lo: usize, hi: usize) -> String {
        let len = self.below(lo, hi);
        let mut text = String::new();
        while text.chars().count() < len {
            let code = match self.next() % 4 {
                0 | 1 => self.next() % 0x80,
                2 => 0x80 + self.next() % 0x780,
                _ => 0x800 + self.next() % (0x11_0000 - 0x800),
            };
            match char::from_u32(code as u32) {
                Some(c) if c != '\n' => text.push(c),
                _ => {}
            }
        }
        text
    }

    /// `lo..=hi` characters drawn from `alphabet` (a regex class).
    fn word(&mut self, alphabet: &str, lo: usize, hi: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = self.below(lo, hi + 1);
        (0..len)
            .map(|_| chars[self.below(0, chars.len())])
            .collect()
    }
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const DIGITS: &str = "0123456789";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Names the seed and case of a failing property while a panic unwinds.
struct Case {
    seed: u64,
    case: usize,
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property failed: YTAUDIT_PROP_SEED={} case {}",
                self.seed, self.case
            );
        }
    }
}

/// Runs `property` on [`CASES`] random cases; `salt` gives each property
/// its own stream.
fn check(salt: u64, mut property: impl FnMut(&mut Rng)) {
    let seed = prop_seed();
    let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
    for case in 0..CASES {
        let _case = Case { seed, case };
        property(&mut rng);
    }
}

/// Percent-encoding round-trips arbitrary Unicode text.
#[test]
fn percent_codec_round_trip() {
    check(1, |rng| {
        let raw = rng.text(0, 32);
        let encoded = encode_component(&raw);
        assert_eq!(decode_component(&encoded).unwrap(), raw);
    });
}

/// Encoded components never contain separators that would corrupt a
/// query string.
#[test]
fn encoded_component_is_inert() {
    check(2, |rng| {
        let encoded = encode_component(&rng.text(0, 32));
        assert!(!encoded.contains('&'));
        assert!(!encoded.contains('='));
        assert!(!encoded.contains('#'));
        assert!(!encoded.contains(' '));
        assert!(encoded.is_ascii());
    });
}

/// Query strings round-trip arbitrary key/value pairs.
#[test]
fn query_string_round_trip() {
    check(3, |rng| {
        let n = rng.below(0, 8);
        let pairs: Vec<(String, String)> =
            (0..n).map(|_| (rng.text(0, 12), rng.text(0, 12))).collect();
        let qs: QueryString = pairs.iter().cloned().collect();
        let parsed = QueryString::parse(&qs.encode()).unwrap();
        // Keys that encode to the empty string ("" keys with "" values)
        // still round-trip because `k=` is emitted explicitly.
        assert_eq!(parsed.pairs(), qs.pairs());
    });
}

/// The canonical form is insensitive to pair order.
#[test]
fn canonical_is_order_insensitive() {
    let value_chars = format!("{LOWER}{DIGITS}");
    check(4, |rng| {
        let n = rng.below(0, 6);
        let pairs: Vec<(String, String)> = (0..n)
            .map(|_| (rng.word(LOWER, 1, 4), rng.word(&value_chars, 0, 6)))
            .collect();
        let qs: QueryString = pairs.iter().cloned().collect();
        let mut reversed = pairs.clone();
        reversed.reverse();
        let qs_rev: QueryString = reversed.into_iter().collect();
        // Reversing changes relative order of *distinct* keys only; values
        // under the same key reverse too, so compare multisets per key.
        let canon_a_full = qs.canonical();
        let canon_b_full = qs_rev.canonical();
        let mut canon_a: Vec<&str> = canon_a_full.split('&').filter(|s| !s.is_empty()).collect();
        let mut canon_b: Vec<&str> = canon_b_full.split('&').filter(|s| !s.is_empty()).collect();
        canon_a.sort_unstable();
        canon_b.sort_unstable();
        assert_eq!(canon_a, canon_b);
    });
}

/// Any response body survives write→read framing, across the
/// content-length/chunked threshold.
#[test]
fn response_framing_round_trip() {
    check(5, |rng| {
        let body = rng.bytes(0, 200_000);
        let keep_alive = rng.next() % 2 == 0;
        let resp = Response::json(StatusCode::OK, body.clone());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, keep_alive).unwrap();
        let parsed = MessageReader::new(Cursor::new(wire))
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.body, body);
        assert_eq!(parsed.status, StatusCode::OK);
    });
}

/// Any request (path, query, body) survives write→read framing.
#[test]
fn request_framing_round_trip() {
    let path_chars = format!("{LOWER}{UPPER}{DIGITS}_/-");
    let key_chars = format!("{LOWER}{UPPER}");
    check(6, |rng| {
        let path_seg = rng.word(&path_chars, 0, 40);
        let n = rng.below(0, 6);
        let pairs: Vec<(String, String)> = (0..n)
            .map(|_| (rng.word(&key_chars, 1, 8), rng.text(0, 21)))
            .collect();
        let body = rng.bytes(0, 4_096);
        let query: QueryString = pairs.iter().cloned().collect();
        let req = Request::post(format!("/{path_seg}"), body.clone()).with_query(query.clone());
        let mut wire = Vec::new();
        write_request(&mut wire, &req, "localhost:1").unwrap();
        let parsed = MessageReader::new(Cursor::new(wire))
            .read_request(&FrameLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(parsed.path, format!("/{path_seg}"));
        assert_eq!(parsed.query.pairs(), query.pairs());
        assert_eq!(parsed.body, body);
    });
}

/// The chunked encoder always produces a stream the decoder accepts,
/// regardless of body size relative to chunk boundaries.
#[test]
fn chunked_codec_round_trip() {
    check(7, |rng| {
        let body = rng.bytes(0, 100_000);
        let mut wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        write_chunked(&mut wire, &body).unwrap();
        let parsed = MessageReader::new(Cursor::new(wire))
            .read_response(&FrameLimits::default(), false)
            .unwrap();
        assert_eq!(parsed.body, body);
    });
}

/// Truncating a framed response anywhere before the end never panics
/// and never yields a *successful* full-body parse with missing bytes.
#[test]
fn truncated_responses_fail_safely() {
    check(8, |rng| {
        let body = rng.bytes(1, 2_000);
        let cut_fraction = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let resp = Response::json(StatusCode::OK, body.clone());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).unwrap();
        let cut = ((wire.len() - 1) as f64 * cut_fraction) as usize;
        let truncated = &wire[..cut];
        if let Ok(parsed) = MessageReader::new(Cursor::new(truncated.to_vec()))
            .read_response(&FrameLimits::default(), false)
        {
            // Any error is acceptable; panics are not — and a *successful*
            // parse must never silently drop bytes.
            assert_eq!(
                parsed.body.len(),
                body.len(),
                "a successful parse must have the full body"
            );
        }
    });
}

/// Seeded mutational fuzzing of the message readers,
/// `MessageReader::read_request` and `read_response`. Valid corpora
/// (pipelined batches of requests or responses, in every framing) are
/// damaged by bit flips, truncation, inflated `Content-Length` values and
/// chunk sizes, and splices of two corpora. Every message read from any
/// input must re-encode to bytes that read back to the same message and
/// encode to themselves again; every failure must be a typed `NetError`;
/// and no single allocation may pass the frame limits, which a
/// thread-local counting allocator checks. Run with `fuzz` as the test
/// filter; the seed comes from `YTAUDIT_PROP_SEED` like every property
/// here.
mod fuzz {
    use super::{check, Rng, LOWER};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::io::Cursor;
    use ytaudit_net::framing::{
        encode_request, encode_response, write_chunked, write_request, write_response, FrameLimits,
        MessageReader,
    };
    use ytaudit_net::url::QueryString;
    use ytaudit_net::{NetError, Request, Response, StatusCode};

    /// Passes every request to the system allocator, remembering the
    /// largest one made by the current thread.
    struct Tracking;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }

    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: Tracking = Tracking;

    /// Tight limits, so inflated lengths hit them quickly.
    const LIMITS: FrameLimits = FrameLimits {
        max_header_bytes: 2048,
        max_headers: 24,
        max_body_bytes: 64 * 1024,
    };

    /// The largest single allocation a read may make: a body at the limit.
    /// The reader's 16 KiB buffer, header lines under 2 KiB and error
    /// messages quoting them all stay below it.
    const ALLOCATION_CAP: usize = LIMITS.max_body_bytes;

    /// Messages read from one input before giving up on it.
    const MAX_MESSAGES: usize = 64;

    fn random_request(rng: &mut Rng) -> Request {
        let path = format!("/{}", rng.word(LOWER, 0, 12));
        let n = rng.below(0, 5);
        let query: QueryString = (0..n)
            .map(|_| (rng.word(LOWER, 1, 6), rng.text(0, 12)))
            .collect();
        let mut req = if rng.below(0, 3) == 0 {
            Request::post(path, rng.bytes(0, 600))
        } else {
            Request::get(path)
        }
        .with_query(query);
        for _ in 0..rng.below(0, 4) {
            req = req.with_header(&rng.word(LOWER, 1, 10), rng.text(0, 20).trim().to_string());
        }
        req
    }

    /// A pipelined batch of 1–4 requests.
    fn request_corpus(rng: &mut Rng) -> Vec<u8> {
        let mut wire = Vec::new();
        for _ in 0..rng.below(1, 5) {
            write_request(&mut wire, &random_request(rng), "fuzz:1").unwrap();
        }
        wire
    }

    /// One response in any of the framings a reader meets.
    fn random_response(rng: &mut Rng, wire: &mut Vec<u8>) {
        let status = [200u16, 204, 304, 404, 429, 500][rng.below(0, 6)];
        let body = rng.bytes(0, 3_000);
        match rng.below(0, 4) {
            // Chunked, in small chunks.
            0 => {
                wire.extend_from_slice(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n");
                for piece in body.chunks(rng.below(1, 700)) {
                    let mut one = Vec::new();
                    write_chunked(&mut one, piece).unwrap();
                    wire.extend_from_slice(&one[..one.len() - 5]); // drop "0\r\n\r\n"
                }
                wire.extend_from_slice(b"0\r\nx-trailer: t\r\n\r\n");
            }
            // Read to EOF: only valid as the last message.
            1 => {
                wire.extend_from_slice(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n");
                wire.extend_from_slice(&body);
            }
            _ => {
                let resp = Response::json(StatusCode(status), body)
                    .with_header("retry-after", rng.below(0, 60).to_string());
                write_response(wire, &resp, rng.below(0, 4) != 0).unwrap();
            }
        }
    }

    /// A pipelined batch of 1–4 responses.
    fn response_corpus(rng: &mut Rng) -> Vec<u8> {
        let mut wire = Vec::new();
        for _ in 0..rng.below(1, 5) {
            random_response(rng, &mut wire);
        }
        wire
    }

    /// Replaces the digits after the first `content-length:` with a
    /// larger (often absurd) number, or inserts the field if absent.
    fn inflate_content_length(rng: &mut Rng, wire: &mut Vec<u8>) {
        let bigger = [
            "65537",
            "99999999",
            "4294967296",
            "18446744073709551615",
            "99999999999999999999999",
        ][rng.below(0, 5)];
        let needle = b"content-length: ";
        match wire.windows(needle.len()).position(|w| w == needle) {
            Some(at) => {
                let start = at + needle.len();
                let end = start
                    + wire[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                wire.splice(start..end, bigger.bytes());
            }
            None => {
                let line_end = wire
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(wire.len(), |p| p + 1);
                let field = format!("content-length: {bigger}\r\n");
                wire.splice(line_end..line_end, field.bytes());
            }
        }
    }

    /// Replaces a random chunk-size line (a run of hex digits closing a
    /// line that opens right after a CRLF) with a larger hex size.
    fn inflate_chunk_size(rng: &mut Rng, wire: &mut Vec<u8>) {
        let bigger = [
            "1000",
            "10001",
            "7fffffff",
            "ffffffffffffffff",
            "10000000000000000",
        ][rng.below(0, 5)];
        let hex_run = |at: usize| {
            wire[at..]
                .iter()
                .take_while(|b| b.is_ascii_hexdigit())
                .count()
        };
        let sizes: Vec<(usize, usize)> = (2..wire.len())
            .filter(|&at| wire[at - 2..at] == *b"\r\n")
            .map(|at| (at, at + hex_run(at)))
            .filter(|&(start, end)| end > start && wire[end..].starts_with(b"\r\n"))
            .collect();
        if sizes.is_empty() {
            return;
        }
        let (start, end) = sizes[rng.below(0, sizes.len())];
        wire.splice(start..end, bigger.bytes());
    }

    /// Damages `wire` with one to three random mutations; `other` is a
    /// second valid corpus for splicing.
    fn mutate(rng: &mut Rng, wire: &mut Vec<u8>, other: &[u8]) {
        for _ in 0..rng.below(1, 4) {
            match rng.below(0, 5) {
                0 => {
                    for _ in 0..rng.below(1, 9) {
                        if !wire.is_empty() {
                            let at = rng.below(0, wire.len());
                            wire[at] ^= 1 << rng.below(0, 8);
                        }
                    }
                }
                1 => {
                    let cut = rng.below(0, wire.len() + 1);
                    wire.truncate(cut);
                }
                2 => inflate_content_length(rng, wire),
                3 => inflate_chunk_size(rng, wire),
                _ => {
                    let cut = rng.below(0, wire.len() + 1);
                    let from = rng.below(0, other.len() + 1);
                    wire.truncate(cut);
                    wire.extend_from_slice(&other[from..]);
                }
            }
        }
    }

    /// Runs `read` over `input` and returns what it produced plus the
    /// largest single allocation made while reading.
    fn measured<T>(
        input: &[u8],
        read: impl FnOnce(&mut MessageReader<Cursor<Vec<u8>>>) -> T,
    ) -> (T, usize) {
        let mut reader = MessageReader::new(Cursor::new(input.to_vec()));
        LARGEST.with(|l| l.set(0));
        let out = read(&mut reader);
        (out, LARGEST.with(Cell::get))
    }

    /// Every request in `input`, then how the stream ended.
    fn read_requests(input: &[u8]) -> (Vec<Request>, Option<NetError>) {
        let ((requests, end), largest) = measured(input, |reader| {
            let mut requests = Vec::new();
            while requests.len() < MAX_MESSAGES {
                match reader.read_request(&LIMITS) {
                    Ok(Some(req)) => requests.push(req),
                    Ok(None) => return (requests, None),
                    Err(err) => return (requests, Some(err)),
                }
            }
            (requests, None)
        });
        assert!(
            largest <= ALLOCATION_CAP,
            "a {largest}-byte allocation reading {} bytes of requests",
            input.len()
        );
        (requests, end)
    }

    /// Every response in `input`, up to the first error.
    fn read_responses(input: &[u8]) -> (Vec<Response>, NetError) {
        let ((responses, end), largest) = measured(input, |reader| {
            let mut responses = Vec::new();
            loop {
                match reader.read_response(&LIMITS, false) {
                    Ok(resp) if responses.len() < MAX_MESSAGES => responses.push(resp),
                    Ok(_) => return (responses, NetError::Protocol("message cap".into())),
                    Err(err) => return (responses, err),
                }
            }
        });
        assert!(
            largest <= ALLOCATION_CAP,
            "a {largest}-byte allocation reading {} bytes of responses",
            input.len()
        );
        (responses, end)
    }

    /// A request read from any input re-encodes to bytes that read back
    /// to the same request and encode to themselves.
    fn assert_request_re_encodes(req: &Request) {
        let mut once = Vec::new();
        encode_request(&mut once, req, "fuzz:1");
        let again = MessageReader::new(Cursor::new(once.clone()))
            .read_request(&FrameLimits::default())
            .unwrap_or_else(|e| panic!("re-encoded request does not read back: {e}"))
            .unwrap();
        assert_eq!(
            (again.method, &again.path, again.query.pairs(), &again.body),
            (req.method, &req.path, req.query.pairs(), &req.body)
        );
        let mut twice = Vec::new();
        encode_request(&mut twice, &again, "fuzz:1");
        assert_eq!(twice, once, "request encoding is not a fixed point");
    }

    /// Likewise for a response.
    fn assert_response_re_encodes(resp: &Response) {
        let keep_alive = !resp.headers.wants_close();
        let mut once = Vec::new();
        encode_response(&mut once, resp, keep_alive);
        let again = MessageReader::new(Cursor::new(once.clone()))
            .read_response(&FrameLimits::default(), false)
            .unwrap_or_else(|e| panic!("re-encoded response does not read back: {e}"));
        let bodiless = matches!(resp.status.0, 100..=199 | 204 | 304);
        assert_eq!(again.status, resp.status);
        if !bodiless {
            assert_eq!(again.body, resp.body);
        }
        let mut twice = Vec::new();
        encode_response(&mut twice, &again, !again.headers.wants_close());
        assert_eq!(twice, once, "response encoding is not a fixed point");
    }

    #[test]
    fn fuzz_mutated_requests_read_typed_and_re_encode() {
        check(101, |rng| {
            let mut wire = request_corpus(rng);
            let other = request_corpus(rng);
            mutate(rng, &mut wire, &other);
            let (requests, _) = read_requests(&wire);
            requests.iter().for_each(assert_request_re_encodes);
        });
    }

    #[test]
    fn fuzz_mutated_responses_read_typed_and_re_encode() {
        check(102, |rng| {
            let mut wire = response_corpus(rng);
            let other = response_corpus(rng);
            mutate(rng, &mut wire, &other);
            let (responses, _) = read_responses(&wire);
            responses.iter().for_each(assert_response_re_encodes);
        });
    }

    /// A pipelined batch cut at every byte yields exactly the messages
    /// wholly before the cut, then a typed error (or, for requests, a
    /// clean end at a message boundary).
    #[test]
    fn fuzz_pipelined_batches_truncated_at_every_byte() {
        let mut cases = 0;
        check(103, |rng| {
            // A few batches are plenty: each is cut at every byte.
            cases += 1;
            if cases > 4 {
                return;
            }
            let requests: Vec<Request> = (0..3).map(|_| random_request(rng)).collect();
            let mut wire = Vec::new();
            let mut ends = Vec::new();
            for req in &requests {
                write_request(&mut wire, req, "fuzz:1").unwrap();
                ends.push(wire.len());
            }
            for cut in 0..=wire.len() {
                let (got, end) = read_requests(&wire[..cut]);
                let whole = ends.iter().filter(|&&e| e <= cut).count();
                assert_eq!(got.len(), whole, "cut {cut} of {}", wire.len());
                for (g, r) in got.iter().zip(&requests) {
                    assert_eq!((g.method, &g.path, &g.body), (r.method, &r.path, &r.body));
                    assert_eq!(g.query.pairs(), r.query.pairs());
                }
                let at_boundary = cut == 0 || ends.contains(&cut);
                assert_eq!(end.is_none(), at_boundary, "cut {cut}: {end:?}");
            }

            let mut wire = Vec::new();
            let mut ends = Vec::new();
            for _ in 0..3 {
                // Framed by length or chunks, never by EOF.
                let resp = Response::json(StatusCode::OK, rng.bytes(0, 400));
                write_response(&mut wire, &resp, true).unwrap();
                wire.extend_from_slice(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n");
                write_chunked(&mut wire, &rng.bytes(1, 300)).unwrap();
                ends.push(wire.len());
            }
            for cut in 0..=wire.len() {
                let (got, end) = read_responses(&wire[..cut]);
                let whole = 2 * ends.iter().filter(|&&e| e <= cut).count();
                assert!(got.len() >= whole && got.len() <= whole + 1, "cut {cut}");
                assert!(
                    matches!(end, NetError::UnexpectedEof(_)),
                    "cut {cut}: {end:?}"
                );
            }
        });
    }
}

/// Seeded sequence test for the pipelined client: random request
/// sequences with `Connection: close` and stall points sprinkled in,
/// driven at every depth 1..=8, must yield byte-for-byte the responses
/// the scripted handler computes from each request, and the responses a
/// one-request-at-a-time `send` loop gets. Written as a plain `#[test]` so the
/// seed rotation matches the workspace's shard-equivalence pattern
/// (`YTAUDIT_PROP_SEED`, numeric or hashed commit SHA).
mod pipelining {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use ytaudit_net::{
        HttpClient, Request, Response, Server, ServerConfig, ServerHandle, StatusCode, Url,
    };

    /// The fixed property-test seed; CI rotates it via `YTAUDIT_PROP_SEED`.
    const DEFAULT_PROP_SEED: u64 = 0x5EED_CAFE_D15C_0DE5;

    /// A splitmix64 step — the test's only entropy source, fully
    /// determined by the seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn prop_seed() -> u64 {
        match std::env::var("YTAUDIT_PROP_SEED") {
            Ok(raw) => raw.parse().unwrap_or_else(|_| {
                raw.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                })
            }),
            Err(_) => DEFAULT_PROP_SEED,
        }
    }

    /// The scripted server's response body: a pure function of the
    /// request, so it doubles as a client-independent oracle.
    fn scripted_body(req: &Request) -> String {
        format!(
            "{} {}?{} [{}]",
            req.method.as_str(),
            req.path,
            req.query.encode(),
            String::from_utf8_lossy(&req.body)
        )
    }

    /// A deterministic server: the response body is [`scripted_body`],
    /// `/close/…` paths answer with `Connection: close`, and `/stall/…`
    /// paths delay briefly before answering (a stall point inside the
    /// pipeline, not a protocol event).
    fn scripted_server() -> (ServerHandle, Arc<AtomicU64>) {
        let hits = Arc::new(AtomicU64::new(0));
        let hits_clone = Arc::clone(&hits);
        let handler = Arc::new(move |req: &Request| {
            hits_clone.fetch_add(1, Ordering::SeqCst);
            let body = scripted_body(req);
            if req.path.starts_with("/stall/") {
                std::thread::sleep(Duration::from_millis(3));
            }
            let response = Response::text(StatusCode::OK, body);
            if req.path.starts_with("/close/") {
                response.with_header("connection", "close")
            } else {
                response
            }
        });
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        (server, hits)
    }

    /// One random request: mostly pipelinable GETs across plain, close,
    /// and stall paths, with an occasional POST (which the client must
    /// route around the pipeline, never through it).
    fn random_request(state: &mut u64, i: usize) -> Request {
        let x = next(state);
        let flavor = x % 10;
        let token = next(state) % 1_000_000;
        if flavor == 9 {
            return Request::post(format!("/echo/{i}"), format!("p{token}").into_bytes());
        }
        let path = match flavor {
            7 => format!("/close/{i}"),
            8 => format!("/stall/{i}"),
            _ => format!("/ok/{i}"),
        };
        Request::get(path).with_query([("t".to_string(), token.to_string())].into_iter().collect())
    }

    #[test]
    fn random_sequences_match_sequential_client_byte_for_byte() {
        let seed = prop_seed();
        let (server, _hits) = scripted_server();
        let url = Url::parse(&server.base_url()).unwrap();
        let mut state = seed;
        for round in 0..12u64 {
            let depth = (round as usize % 8) + 1;
            let len = 1 + (next(&mut state) % 20) as usize;
            let requests: Vec<Request> = (0..len).map(|i| random_request(&mut state, i)).collect();

            let sequential = HttpClient::new();
            let expected: Vec<Response> = requests
                .iter()
                .map(|r| sequential.send(&url, r).unwrap())
                .collect();

            let pipelined = HttpClient::new();
            let got = pipelined.send_pipelined(&url, &requests, depth);
            assert_eq!(got.len(), requests.len(), "seed {seed:#x} round {round}");
            for (i, ((result, reference), request)) in
                got.into_iter().zip(&expected).zip(&requests).enumerate()
            {
                let response = result.unwrap_or_else(|e| {
                    panic!("seed {seed:#x} round {round} depth {depth} slot {i}: {e}")
                });
                // The independent oracle: `send` is the same driver at
                // depth 1, so it cannot be the only reference.
                assert_eq!(
                    response.status,
                    StatusCode::OK,
                    "seed {seed:#x} round {round} depth {depth} slot {i}"
                );
                assert_eq!(
                    response.body,
                    scripted_body(request).into_bytes(),
                    "seed {seed:#x} round {round} depth {depth} slot {i}"
                );
                assert_eq!(
                    response.status, reference.status,
                    "seed {seed:#x} round {round} depth {depth} slot {i}"
                );
                assert_eq!(
                    response.body, reference.body,
                    "seed {seed:#x} round {round} depth {depth} slot {i}"
                );
            }
            assert!(
                pipelined.pool_stats().pipeline_depth_hwm() <= depth as u64,
                "seed {seed:#x} round {round}: depth hwm {} exceeds requested {depth}",
                pipelined.pool_stats().pipeline_depth_hwm()
            );
        }
        server.shutdown();
    }
}
