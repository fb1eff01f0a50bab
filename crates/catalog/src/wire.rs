//! The workspace's one binary codec.
//!
//! Protocol messages cross threads and TCP sockets, calibration snapshots
//! and spill files go to disk, and all of them use this encoding. It is
//! explicit and versionless (no serde, no reflection, crates.io is out of
//! reach) and deliberately boring:
//!
//! * fixed-width little-endian integers;
//! * `f64` as its IEEE-754 bit pattern (`to_bits`), so round-trips are
//!   **bit-exact** — the conformance oracle compares cost bits, not
//!   approximate floats;
//! * enums as a one-byte tag followed by the variant's fields;
//! * structs as their fields in order, with no framing;
//! * collections and strings as a `u32` length prefix followed by the
//!   elements.
//!
//! Decoding is total: any input — truncated frames, garbage bytes, trailing
//! junk — yields a [`WireError`], never a panic. A length prefix is checked
//! against the remaining bytes before anything is allocated (every element
//! takes at least one byte), so a corrupt prefix cannot cause an absurd
//! reservation.
//!
//! This module holds the [`Wire`] trait, the byte cursor ([`Reader`]), the
//! primitive and generic impls, and [`impl_wire!`](crate::impl_wire), which
//! writes a type's `put` and `get` from one declaration of its layout. Each
//! crate implements `Wire` for its own types through that macro; the
//! identifiers and [`Value`] below are this crate's. Frame *boundaries* (the
//! outer length prefix on a socket) belong to the transport.

use crate::{NodeId, RelId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Why a decode failed. All failure paths return this; none panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// A complete value was decoded but bytes remained (this many).
    Trailing(usize),
    /// An enum tag byte was out of range for the named type.
    BadTag(&'static str, u8),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A length or index did not fit the platform's `usize`.
    BadLen,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadTag(what, tag) => write!(f, "bad tag {tag} for {what}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::BadLen => write!(f, "length out of range"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over an immutable byte buffer. Every read checks bounds.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take exactly `n` bytes or fail.
    #[inline]
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take exactly `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// Read a collection length: a `u32` no larger than the bytes left,
    /// since every element takes at least one. A corrupt prefix can neither
    /// over-allocate nor loop long.
    #[inline]
    fn len_prefix(&mut self) -> Result<usize, WireError> {
        let n = usize::try_from(u32::get(self)?).map_err(|_| WireError::BadLen)?;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.len_prefix()?;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| WireError::BadUtf8)
    }

    /// Assert the value consumed the whole buffer.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Append a collection length (panics only if a collection exceeds `u32`,
/// which no message, snapshot or spilled row can reach).
#[inline]
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    u32::try_from(n)
        .expect("collection fits u32 length")
        .put(out);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// A self-describing binary encoding: `decode(encode(x)) == x`, bit-exact.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Parse one value from the reader, leaving the cursor after it.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.put(&mut out);
        out
    }

    /// Decode a complete value; trailing bytes are an error.
    fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Implements [`Wire`] for a type from one declaration of its layout; the
/// same list writes `put` and `get`, so the two cannot drift apart.
///
/// * `impl_wire!(Ty { a, b })` — a struct: its fields in wire order. Every
///   field must be named (the `put` side destructures the struct).
/// * `impl_wire!(Ty(x))` — a tuple struct, its fields bound to names.
/// * `impl_wire!(enum Ty { 0 => A, 1 => B { x, y }, 2 => C(v) })` — an
///   enum: a tag byte, then the variant's fields. Every variant must be
///   listed, and an unknown tag decodes to [`WireError::BadTag`].
/// * `impl_wire!(Ty as Proxy: |t| to_proxy, |p| from_proxy)` — a type
///   encoded as another one, such as a bit set as its `u64` word.
#[macro_export]
macro_rules! impl_wire {
    (enum $ty:ident {
        $($tag:literal => $var:ident $({ $($f:ident),* })? $(( $($p:ident),* ))?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($f),* })? $(( $($p),* ))? => {
                        out.push($tag);
                        $($($crate::wire::Wire::put($f, out);)*)?
                        $($($crate::wire::Wire::put($p, out);)*)?
                    })+
                }
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::get(r)? {
                    $($tag => $ty::$var
                        $({ $($f: $crate::wire::Wire::get(r)?),* })?
                        $(( $({ let $p = $crate::wire::Wire::get(r)?; $p }),* ))?,)+
                    t => return Err($crate::wire::WireError::BadTag(stringify!($ty), t)),
                })
            }
        }
    };
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($f),+ } = self;
                $($crate::wire::Wire::put($f, out);)+
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($ty { $($f: $crate::wire::Wire::get(r)?),+ })
            }
        }
    };
    ($ty:ident ( $($p:ident),+ )) => {
        impl $crate::wire::Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                let $ty($($p),+) = self;
                $($crate::wire::Wire::put($p, out);)+
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($ty($({ let $p = $crate::wire::Wire::get(r)?; $p }),+))
            }
        }
    };
    ($ty:ident as $via:ty: |$t:ident| $to:expr, |$v:ident| $from:expr) => {
        impl $crate::wire::Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                let $t = self;
                <$via as $crate::wire::Wire>::put(&$to, out);
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let $v = <$via as $crate::wire::Wire>::get(r)?;
                Ok($from)
            }
        }
    };
}

macro_rules! le_bytes {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

le_bytes!(u8, u32, u64, i64);

impl_wire!(f64 as u64: |x| x.to_bits(), |bits| f64::from_bits(bits));

impl Wire for usize {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::BadLen)
    }
}

impl Wire for Arc<str> {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Arc::from(r.str()?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::get(r)?;
            map.insert(k, V::get(r)?);
        }
        Ok(map)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            t => Err(WireError::BadTag("Option", t)),
        }
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::get(r)?))
    }
}

macro_rules! tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);

impl_wire!(NodeId(id));
impl_wire!(RelId(id));
impl_wire!(enum Value { 0 => Int(i), 1 => Float(x), 2 => Str(s), 3 => Null });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_length_prefix_errors_without_allocating() {
        // A Vec<u64> claiming 4 billion elements in a 12-byte buffer.
        let mut buf = Vec::new();
        u32::MAX.put(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        assert_eq!(Vec::<u64>::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn infinity_and_nan_bits_survive() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0] {
            let back = f64::decode(&x.encode()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
            let Value::Float(y) = Value::decode(&Value::Float(x).encode()).unwrap() else {
                panic!("a float decodes as a float");
            };
            assert_eq!(y.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bad_tags_and_bad_strings_name_what_failed() {
        assert_eq!(Value::decode(&[9]), Err(WireError::BadTag("Value", 9)));
        assert_eq!(
            Option::<NodeId>::decode(&[2]),
            Err(WireError::BadTag("Option", 2))
        );
        assert_eq!(
            Value::decode(&[2, 1, 0, 0, 0, 0xff]),
            Err(WireError::BadUtf8)
        );
        assert_eq!(RelId::decode(&[1, 0, 0, 0, 7]), Err(WireError::Trailing(1)));
    }
}
