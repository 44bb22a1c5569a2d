//! The workspace's one binary codec: little-endian fixed-width integers,
//! `f64` by bit pattern, and `u32`-length-prefixed byte strings and
//! lists, with a bounds-checked reader whose errors say what failed where.
//!
//! The store's record log, the analyzer checkpoint and the dist protocol
//! all encode through [`Writer`] and decode through [`Reader`]. Their
//! input is untrusted (a file on disk, a body off the network), so no read
//! panics, and every decoded count passes [`Reader::count`], which rejects
//! a count the remaining bytes cannot hold, before it sizes an allocation.

use crate::Topic;

/// Decoding failure: what went wrong at which position of the payload.
pub type WireError = String;

/// Result alias for decoding.
pub type Result<T, E = WireError> = std::result::Result<T, E>;

/// Appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Bounds-checked little-endian reader over a payload slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// One `put_*` writer and one reader per fixed-width integer type.
macro_rules! fixed_width {
    ($($t:ident => $put:ident),* $(,)?) => {
        impl Writer {
            $(
                #[doc = concat!("Writes a little-endian `", stringify!($t), "`.")]
                #[inline]
                pub fn $put(&mut self, v: $t) {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self) -> Result<$t> {
                    Ok($t::from_le_bytes(self.array(stringify!($t))?))
                }
            )*
        }
    };
}

fixed_width!(u8 => put_u8, u16 => put_u16, u32 => put_u32, u64 => put_u64, i64 => put_i64);

impl Writer {
    /// An empty writer.
    #[inline]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, so every value —
    /// NaN payloads, signed zeros, infinities — round-trips exactly.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a boolean as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `Option<bool>` as one byte (0 = None, 1 = false, 2 = true).
    #[inline]
    pub fn put_opt_bool(&mut self, v: Option<bool>) {
        self.put_u8(v.map_or(0, |b| 1 + u8::from(b)));
    }

    /// Writes a topic as its one-byte [`Topic::code`].
    #[inline]
    pub fn put_topic(&mut self, topic: Topic) {
        self.put_u8(topic.code());
    }

    /// Writes a topic list: a `u8` count, then one code per topic.
    #[inline]
    pub fn put_topics(&mut self, topics: &[Topic]) {
        self.put_u8(topics.len() as u8);
        for &topic in topics {
            self.put_topic(topic);
        }
    }

    /// Writes a collection length as the `u32` [`Reader::count`] reads.
    #[inline]
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Writes a `u32` length prefix followed by the raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_count(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes bytes with no length prefix: a file magic, or a tail whose
    /// length the enclosing frame implies.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a count, then each item with `put` ([`Reader::list`]).
    #[inline]
    pub fn put_list<I>(&mut self, items: I, mut put: impl FnMut(&mut Writer, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_count(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Writes a presence flag, then the value with `put` when there is
    /// one ([`Reader::option`]).
    #[inline]
    pub fn put_option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed — catches records with
    /// trailing garbage that a valid checksum would otherwise hide.
    #[inline]
    pub fn expect_end(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after record body")),
        }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(format!(
                "truncated {what} at byte {}: need {n}, have {}",
                self.pos,
                self.remaining()
            )),
        }
    }

    /// Reads exactly `N` bytes into a fixed array. Length is enforced by
    /// `take`, so the conversion never involves a fallible slice cast.
    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean byte, rejecting values other than 0/1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid boolean byte {other:#04x}")),
        }
    }

    /// Reads an `Option<bool>` written by [`Writer::put_opt_bool`].
    #[inline]
    pub fn opt_bool(&mut self) -> Result<Option<bool>> {
        match self.u8()? {
            0 => Ok(None),
            b @ 1..=2 => Ok(Some(b == 2)),
            other => Err(format!("invalid Option<bool> byte {other:#04x}")),
        }
    }

    /// Reads a `u32` count, rejecting one larger than the bytes left —
    /// every item takes at least one byte, so a corrupt count fails here
    /// instead of reserving gigabytes. Size every allocation from this,
    /// never from a raw length.
    #[inline]
    pub fn count(&mut self) -> Result<usize> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(format!(
                "count {n} at byte {at} exceeds the {} bytes left",
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// Reads a list written by [`Writer::put_list`], each item with `read`.
    /// The up-front reservation never exceeds the bytes left, whatever the
    /// item type's in-memory size.
    #[inline]
    pub fn list<T>(
        &mut self,
        mut read: impl FnMut(&mut Reader<'a>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads a value written by [`Writer::put_option`].
    #[inline]
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T>,
    ) -> Result<Option<T>> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Reads a `u32`-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len, "byte string")
    }

    /// Reads a topic written by [`Writer::put_topic`].
    #[inline]
    pub fn topic(&mut self) -> Result<Topic> {
        topic_from_code(self.u8()?)
    }

    /// Reads a topic list written by [`Writer::put_topics`].
    #[inline]
    pub fn topics(&mut self) -> Result<Vec<Topic>> {
        (0..self.u8()?).map(|_| self.topic()).collect()
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|e| format!("invalid UTF-8: {e}"))
    }

    /// Reads exactly `n` unprefixed bytes ([`Writer::put_raw`]).
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "raw bytes")
    }

    /// Consumes and returns everything left (a tail whose length the
    /// enclosing frame implies).
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        slice
    }
}

/// Decodes a [`Topic::code`] byte, failing on a code no topic has.
#[inline]
pub fn topic_from_code(code: u8) -> Result<Topic> {
    Topic::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| format!("unknown topic code {code}"))
}

/// Encodes one value into a fresh buffer.
#[inline]
pub fn encode(put: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    put(&mut w);
    w.into_bytes()
}

/// Decodes one value that must span all of `buf`.
#[inline]
pub fn decode<'a, T>(buf: &'a [u8], read: impl FnOnce(&mut Reader<'a>) -> Result<T>) -> Result<T> {
    let mut r = Reader::new(buf);
    let value = read(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let bytes = encode(|w| {
            w.put_u8(7);
            w.put_u16(0xBEEF);
            w.put_u32(0xDEAD_BEEF);
            w.put_u64(u64::MAX - 1);
            w.put_i64(-86_400);
            w.put_bool(true);
            w.put_bytes(b"");
            [-0.0, f64::INFINITY, std::f64::consts::PI]
                .into_iter()
                .for_each(|v| w.put_f64(v));
            [None, Some(false), Some(true)]
                .into_iter()
                .for_each(|v| w.put_opt_bool(v));
            w.put_list([3u64, 4], |w, v| w.put_u64(v));
            w.put_topics(&[Topic::WorldCup, Topic::Blm]);
            w.put_option(Some("höhe\n"), |w, s| w.put_str(s));
            w.put_option(None::<u8>, |w, v| w.put_u8(v));
            w.put_raw(b"MAGIC");
        });
        let tail = decode(&bytes, |r| {
            assert_eq!((r.u8()?, r.u16()?, r.u32()?), (7, 0xBEEF, 0xDEAD_BEEF));
            assert_eq!(
                (r.u64()?, r.i64()?, r.bool()?),
                (u64::MAX - 1, -86_400, true)
            );
            assert_eq!(r.bytes()?, b"");
            assert_eq!(r.f64()?.to_bits(), (-0.0f64).to_bits());
            assert_eq!([r.f64()?, r.f64()?], [f64::INFINITY, std::f64::consts::PI]);
            let opts = [r.opt_bool()?, r.opt_bool()?, r.opt_bool()?];
            assert_eq!(opts, [None, Some(false), Some(true)]);
            assert_eq!(r.list(Reader::u64)?, [3, 4]);
            assert_eq!(r.topics()?, [Topic::WorldCup, Topic::Blm]);
            assert_eq!(r.option(Reader::str)?, Some("höhe\n"));
            assert_eq!(r.option(Reader::u8)?, None);
            r.raw(5).map(<[u8]>::to_vec)
        });
        assert_eq!(tail.unwrap(), b"MAGIC");
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let bytes = encode(|w| w.put_u64(1));
        assert!(Reader::new(&bytes[..4]).u64().is_err());
        assert!(Reader::new(&bytes[..7]).f64().is_err());
        assert!(decode(&bytes, Reader::u32).is_err(), "trailing bytes");
        // A length prefix larger than the remaining payload.
        let bytes = encode(|w| w.put_u32(1_000));
        assert!(Reader::new(&bytes).bytes().is_err());
        assert!(Reader::new(&bytes).raw(5).is_err());
        assert!(Reader::new(&[9]).bool().is_err());
        assert!(Reader::new(&[2]).option(Reader::u8).is_err());
        assert!(Reader::new(&[3]).opt_bool().is_err());
        assert!(Reader::new(&[1, 0, 0, 0, 0xFF]).str().is_err());
        assert!(Reader::new(&[6]).topic().is_err());
        assert!(Reader::new(&[2, 0]).topics().is_err());
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_bytes() {
        let two = encode(|w| w.put_list([1u8, 2], |w, v| w.put_u8(v)));
        assert_eq!(Reader::new(&two).count().unwrap(), 2);
        assert!(Reader::new(&two[..5]).count().is_err());
        let huge = encode(|w| w.put_u32(u32::MAX));
        assert!(Reader::new(&huge).list(Reader::u8).is_err());
    }

    /// Seeded mutational fuzzing of every primitive read: random bytes read
    /// through a random sequence of primitives must yield values or errors,
    /// never panic, and every count handed out must fit the bytes left.
    #[test]
    fn primitive_reads_never_panic_on_random_input() {
        crate::kit::check(2_000, 0, |rng| {
            let len = rng.below(48);
            let buf: Vec<u8> = (0..len)
                .map(|_| [0xFF, 0, rng.next() as u8][rng.below(3) as usize])
                .collect();
            let mut r = Reader::new(&buf);
            for _ in 0..16 {
                let ok = match rng.below(12) {
                    0 => r.u8().is_ok(),
                    1 => r.u16().is_ok(),
                    2 => r.u32().is_ok(),
                    3 => r.i64().is_ok(),
                    4 => r.f64().is_ok(),
                    5 => r.bool().is_ok(),
                    6 => r.opt_bool().is_ok(),
                    7 => r.bytes().is_ok(),
                    8 => r.str().is_ok(),
                    9 => r.raw(rng.below(8) as usize).is_ok(),
                    10 => r.list(Reader::u16).is_ok(),
                    _ => r.count().map(|n| assert!(n <= r.remaining())).is_ok(),
                };
                if !ok {
                    break;
                }
            }
            r.rest();
            r.expect_end().unwrap();
        });
    }
}
