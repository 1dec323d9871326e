//! The binary codec. Every byte format of the workspace is written through
//! a [`Writer`] and read back through a [`Reader`]: the checkpoint and the
//! mutation batch (`sdgp_core::checkpoint`), the write-ahead log record and
//! the client wire protocol (`amcca_serve`), and the metrics snapshot
//! ([`crate::registry::MetricsSnapshot`]).
//!
//! Integers are little-endian. The compound fields are laid out here and
//! nowhere else:
//!
//! * a **counted list** — a `u32` count, then that many items; a
//!   **counted `u32` list** is one of `u32`s;
//! * an **optional-`u64` list** — a counted list whose items are a presence
//!   byte (0 = `None`) followed, when present, by the `u64`;
//! * a **string** — a `u32` byte length, then that many bytes of UTF-8; a
//!   **short string** (a metric name) has a `u16` length instead.
//!
//! A [`Reader`] refuses hostile bytes instead of panicking: every read
//! returns its field or an [`Error`], a count read from the bytes never
//! allocates past the bytes left, and [`Reader::finish`] refuses leftovers.

use std::fmt;
use std::mem::size_of;

/// Why a [`Reader`] refused its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// A field runs past the end of the bytes.
    Truncated,
    /// Bytes follow the last field of the structure.
    TrailingBytes,
    /// A string is not UTF-8.
    NotUtf8,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Error::Truncated => "field cut short",
            Error::TrailingBytes => "bytes after the last encoded field",
            Error::NotUtf8 => "string is not UTF-8",
        })
    }
}

impl std::error::Error for Error {}

/// An append-only encoder. Every method appends one field and returns the
/// writer, so a record reads as one chain: `w.u8(op).u32(qid)`.
#[derive(Debug, Clone, Default)]
pub struct Writer(Vec<u8>);

/// A bounds-checked cursor over the bytes a [`Writer`] wrote.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// The integer fields, written and read alike.
macro_rules! integers {
    ($($t:ident),*) => {
        impl Writer {$(
            #[doc = concat!("A little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self, v: $t) -> &mut Self {
                self.bytes(&v.to_le_bytes())
            }
        )*}

        impl Reader<'_> {$(
            #[doc = concat!("A little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self) -> Result<$t, Error> {
                let raw = self.bytes(size_of::<$t>())?;
                Ok($t::from_le_bytes(raw.try_into().expect("the width just read")))
            }
        )*}
    };
}

integers!(u8, u16, u32, u64);

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer(Vec::with_capacity(n))
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Raw bytes with no length: a fixed-width or a to-end-of-buffer field.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.extend_from_slice(b);
        self
    }

    /// A counted list: a `u32` count, then each item as `item` writes it.
    pub fn list<T>(
        &mut self,
        items: &[T],
        item: impl for<'w> Fn(&'w mut Self, &T) -> &'w mut Self,
    ) -> &mut Self {
        self.u32(items.len() as u32);
        items.iter().fold(self, item)
    }

    /// A counted `u32` list (module docs).
    pub fn u32s(&mut self, vs: &[u32]) -> &mut Self {
        self.list(vs, |w, &v| w.u32(v))
    }

    /// An optional-`u64` list (module docs).
    pub fn opt_u64s(&mut self, vs: &[Option<u64>]) -> &mut Self {
        self.list(vs, |w, v| match *v {
            Some(v) => w.u8(1).u64(v),
            None => w.u8(0),
        })
    }

    /// A string (module docs).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32).bytes(s.as_bytes())
    }

    /// A short string (module docs).
    pub fn short_str(&mut self, s: &str) -> &mut Self {
        self.u16(s.len() as u16).bytes(s.as_bytes())
    }
}

impl<'a> Reader<'a> {
    /// Start reading at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let end = end.ok_or(Error::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Everything not yet read (a to-end-of-buffer field).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// The structure is fully read: anything left over is an error.
    pub fn finish(&self) -> Result<(), Error> {
        (self.pos == self.buf.len()).then_some(()).ok_or(Error::TrailingBytes)
    }

    /// A counted list: a `u32` count, then that many items as `item` reads
    /// them. Every item takes at least a byte, so the count bounds the
    /// allocation by the bytes left, not by what it claims.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A counted `u32` list (module docs).
    pub fn u32s(&mut self) -> Result<Vec<u32>, Error> {
        self.list(Self::u32)
    }

    /// An optional-`u64` list (module docs).
    pub fn opt_u64s(&mut self) -> Result<Vec<Option<u64>>, Error> {
        self.list(|r| Ok(if r.u8()? == 0 { None } else { Some(r.u64()?) }))
    }

    /// A string (module docs).
    pub fn str(&mut self) -> Result<&'a str, Error> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| Error::NotUtf8)
    }

    /// A short string (module docs).
    pub fn short_str(&mut self) -> Result<&'a str, Error> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| Error::NotUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count or a length read from the bytes never reaches past them, nor
    /// overflows on the way; a string that is not UTF-8 is refused.
    #[test]
    fn hostile_counts_and_strings_are_refused() {
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&huge).u32s(), Err(Error::Truncated));
        assert_eq!(Reader::new(&huge).opt_u64s(), Err(Error::Truncated));
        assert_eq!(Reader::new(&huge).str(), Err(Error::Truncated));
        let mut r = Reader::new(&huge);
        assert_eq!((r.u8(), r.bytes(usize::MAX)), (Ok(0xff), Err(Error::Truncated)));
        assert_eq!(Reader::new(&[2, 0, 0xc3, 0x28]).short_str(), Err(Error::NotUtf8));
    }
}
