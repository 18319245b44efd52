//! Sealed files and the byte codec behind every binary format of the
//! workspace: checkpoints, the serve daemon's certificate cache, job
//! spool and flight logs, and the CNSF wire frames.
//!
//! # Sealed layout
//!
//! ```text
//! magic [u8; 4] | version u32 | body | fnv64(body)
//! ```
//!
//! All integers are little-endian; floats are stored as `f64::to_bits`,
//! so a value read back is bit-identical to the value written. Readers
//! check the length, then the magic, then the version, then the trailer,
//! and only then hand out the body: nothing is interpreted before its
//! integrity is established.
//!
//! # Publication
//!
//! [`write_atomic`] writes a temp file next to the target, `fsync`s it,
//! renames it over the target and makes a best-effort `fsync` of the
//! directory. A crash at any point leaves the previous complete file or
//! none — never a torn file under the real name.

use certnn_lp::Degradation;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Bytes of the sealed header (magic + version) plus the trailer.
const FRAMING: usize = 4 + 4 + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher — the workspace's standard cheap,
/// dependency-free content hash (same family as the LP basis signatures).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern (distinguishes `-0.0` from `0.0`
    /// and every NaN payload — exactly what a content address wants).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Final hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a whole byte string: the checksum of sealed files, checkpoint
/// sections and wire frame bodies.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Why bytes could not be unsealed or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before the advertised data (torn write).
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The input does not start with the expected magic.
    BadMagic,
    /// The sealed version is not the one the reader understands.
    UnsupportedVersion(u32),
    /// The body does not match its FNV-1a trailer.
    Checksum,
    /// A structural invariant does not hold (valid checksum, bad data).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { wanted, available } => {
                write!(
                    f,
                    "truncated: needed {wanted} bytes, only {available} available"
                )
            }
            CodecError::BadMagic => f.write_str("bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Checksum => f.write_str("checksum mismatch"),
            CodecError::Malformed(why) => write!(f, "malformed: {why}"),
        }
    }
}

impl Error for CodecError {}

/// Seals `body` as `magic | version | body | fnv64(body)`.
pub fn seal(magic: [u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + FRAMING);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv64(body).to_le_bytes());
    out
}

/// Verifies a sealed file and returns its body.
///
/// # Errors
///
/// [`CodecError::Truncated`] below the minimum size, then
/// [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`] or
/// [`CodecError::Checksum`], checked in that order.
pub fn unseal(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < FRAMING {
        return Err(CodecError::Truncated {
            wanted: FRAMING,
            available: bytes.len(),
        });
    }
    let (head, rest) = bytes.split_at(8);
    let (body, trailer) = rest.split_at(rest.len() - 8);
    if head[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    let found = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if found != version {
        return Err(CodecError::UnsupportedVersion(found));
    }
    let mut stored = [0u8; 8];
    stored.copy_from_slice(trailer);
    if fnv64(body) != u64::from_le_bytes(stored) {
        return Err(CodecError::Checksum);
    }
    Ok(body)
}

/// Publishes `bytes` at `path` atomically: temp file in the same
/// directory → `fsync` → rename over `path` → best-effort directory
/// `fsync`.
///
/// # Errors
///
/// Any filesystem error before the rename completes.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; failure here only risks losing the
        // newest file on a power cut, never corrupting one.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Byte code of a [`Degradation`] level in every binary format.
#[inline]
pub fn degradation_code(d: Degradation) -> u8 {
    match d {
        Degradation::Exact => 0,
        Degradation::CheckpointFallback => 1,
        Degradation::ColdFallback => 2,
        Degradation::IntervalOnly => 3,
        Degradation::TimedOut => 4,
    }
}

/// Inverse of [`degradation_code`].
///
/// # Errors
///
/// [`CodecError::Malformed`] on an unknown code.
#[inline]
pub fn degradation_from_code(v: u8) -> Result<Degradation, CodecError> {
    Ok(match v {
        0 => Degradation::Exact,
        1 => Degradation::CheckpointFallback,
        2 => Degradation::ColdFallback,
        3 => Degradation::IntervalOnly,
        4 => Degradation::TimedOut,
        _ => return Err(CodecError::Malformed("unknown degradation code")),
    })
}

/// Little-endian encoder (fixed-width integers, or LEB128 varints
/// through [`Enc::var`]).
#[derive(Debug, Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// Fresh empty encoder.
    #[inline]
    pub fn new() -> Self {
        Self(Vec::new())
    }
    /// Appends a byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64` as an unsigned LEB128 varint: seven bits per byte,
    /// low group first, the high bit set on every byte but the last, so
    /// an index below 128 takes one byte instead of eight.
    #[inline]
    pub fn var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }
    /// Appends an `f64` by bit pattern (bit-exact round trip).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends a `u64`-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Little-endian decoder with allocation-guarded length prefixes.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated {
                wanted: n,
                available: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a varint written by [`Enc::var`]. Only the shortest form is
    /// accepted, so decoding and re-encoding reproduce the input bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the input ends inside the varint,
    /// [`CodecError::Malformed`] when it overflows 64 bits or carries a
    /// trailing zero group.
    #[inline]
    pub fn var(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(CodecError::Malformed("varint not in shortest form"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads an `f64` by bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix that must be realisable from the remaining
    /// bytes (each element at least `elem_bytes` wide), so a corrupt
    /// length cannot trigger a huge allocation.
    #[inline]
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        self.realisable(n, elem_bytes)
    }

    /// [`Dec::len`] for a length prefix written by [`Enc::var`].
    #[inline]
    pub fn var_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.var()?;
        self.realisable(n, elem_bytes)
    }

    #[inline]
    fn realisable(&self, n: u64, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed("length overflow"))?;
        let remaining = self.buf.len() - self.pos;
        if elem_bytes > 0 && n > remaining / elem_bytes {
            return Err(CodecError::Truncated {
                wanted: n.saturating_mul(elem_bytes),
                available: remaining,
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::Malformed("invalid utf-8"))
    }

    /// `true` when every byte has been consumed.
    #[inline]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Rejects trailing bytes — every message must consume its body
    /// exactly, so a frame cannot smuggle undeclared payload.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] when bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.done() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes in body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enc_dec_round_trip_and_finish() {
        let mut e = Enc::new();
        e.u8(9);
        e.u64(1 << 40);
        e.f64(-0.0);
        e.str("wire");
        let mut d = Dec::new(&e.0);
        assert_eq!(d.u8().unwrap(), 9);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "wire");
        d.finish().unwrap();
        // Trailing bytes are rejected.
        let mut e2 = Enc::new();
        e2.u8(1);
        e2.u8(2);
        let mut d2 = Dec::new(&e2.0);
        assert_eq!(d2.u8().unwrap(), 1);
        assert!(d2.finish().is_err());
        // Corrupt length prefixes cannot force huge allocations.
        let mut e3 = Enc::new();
        e3.u64(u64::MAX);
        let mut d3 = Dec::new(&e3.0);
        assert!(d3.len(8).is_err());
    }

    #[test]
    fn varints_round_trip_in_shortest_form_only() {
        for (v, width) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::MAX, 10),
        ] {
            let mut e = Enc::new();
            e.var(v);
            assert_eq!(e.0.len(), width, "{v}");
            let mut d = Dec::new(&e.0);
            assert_eq!(d.var().unwrap(), v);
            d.finish().unwrap();
            // Every proper prefix ends inside the varint.
            for cut in 0..e.0.len() {
                assert!(matches!(
                    Dec::new(&e.0[..cut]).var(),
                    Err(CodecError::Truncated { .. })
                ));
            }
        }
        // A trailing zero group and a 65th bit are rejected.
        assert!(Dec::new(&[0x80, 0x00]).var().is_err());
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(Dec::new(&over).var().is_err());
        // Varint length prefixes get the same allocation guard.
        let mut e = Enc::new();
        e.var(u64::MAX);
        assert!(Dec::new(&e.0).var_len(1).is_err());
    }

    #[test]
    fn seal_round_trips_and_rejects_in_order() {
        let sealed = seal(*b"TEST", 3, b"payload");
        assert_eq!(sealed.len(), b"payload".len() + FRAMING);
        assert_eq!(unseal(*b"TEST", 3, &sealed), Ok(&b"payload"[..]));
        assert_eq!(unseal(*b"NOPE", 3, &sealed), Err(CodecError::BadMagic));
        assert_eq!(
            unseal(*b"TEST", 4, &sealed),
            Err(CodecError::UnsupportedVersion(3))
        );
        for i in 8..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x10;
            assert_eq!(
                unseal(*b"TEST", 3, &bad),
                Err(CodecError::Checksum),
                "byte {i}"
            );
        }
        for cut in 0..sealed.len() {
            assert!(unseal(*b"TEST", 3, &sealed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn degradation_codes_round_trip() {
        for d in [
            Degradation::Exact,
            Degradation::CheckpointFallback,
            Degradation::ColdFallback,
            Degradation::IntervalOnly,
            Degradation::TimedOut,
        ] {
            assert_eq!(degradation_from_code(degradation_code(d)), Ok(d));
        }
        assert!(degradation_from_code(5).is_err());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("certnn_sealed_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
