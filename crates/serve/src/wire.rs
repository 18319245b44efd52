//! The framing layer of the serve protocol: length-prefixed, versioned,
//! checksummed binary frames over any `Read`/`Write` transport.
//!
//! # Frame format
//!
//! ```text
//! magic "CNSF" | version u32 | kind u8 | body_len u32 | body | fnv64(body)
//! ```
//!
//! Bodies use the workspace's one byte codec, [`certnn_verify::sealed`],
//! which the certificate cache and checkpoints use too, so a verdict that
//! crosses the wire is bit-identical to one read from disk. The fixed
//! 13-byte header is parsed before anything else, so a torn, truncated,
//! oversized or garbage frame is rejected with a typed
//! [`ProtocolError`] before a single body byte is interpreted — never a
//! panic, and never an unbounded allocation (the body length is capped
//! at [`MAX_BODY`] and additionally checked against what the socket can
//! actually deliver).

use certnn_verify::sealed::{fnv64, CodecError};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes opening every frame ("CertNn Serve Frame").
pub const MAGIC: [u8; 4] = *b"CNSF";

/// Current wire-protocol version. Peers reject anything else with
/// [`ProtocolError::UnsupportedVersion`] — no silent best-effort parsing
/// of future formats.
pub const WIRE_VERSION: u32 = 1;

/// Upper bound on a frame body. Large enough for any realistic network
/// artifact, small enough that a corrupt length field cannot drive the
/// receiver into an out-of-memory abort.
pub const MAX_BODY: usize = 64 << 20;

/// Bytes of the fixed frame header (magic + version + kind + body len).
pub const HEADER_LEN: usize = 4 + 4 + 1 + 4;

/// Typed failure of the wire layer. Every malformed input maps to a
/// variant here; the connection handler turns them into an `Error` frame
/// for the peer (when the socket still writes) and a clean close — a bad
/// client can never wedge or crash the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Underlying transport failure (kind plus context).
    Io(io::ErrorKind, String),
    /// The frame does not start with [`MAGIC`] — garbage on the socket.
    BadMagic,
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u32),
    /// The advertised body length exceeds [`MAX_BODY`].
    Oversized {
        /// Length the header claimed.
        len: usize,
    },
    /// The transport ended mid-frame (torn write / truncated stream).
    Truncated {
        /// Bytes the parser still needed when the stream ended.
        wanted: usize,
    },
    /// The body does not match its trailing FNV-1a checksum.
    Checksum,
    /// The frame kind byte is not a known message.
    UnknownKind(u8),
    /// A structurally invalid message body (valid checksum, bad data).
    Malformed(&'static str),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The peer answered with an `Error` frame.
    Remote {
        /// Machine-readable error code (see `protocol::ErrorCode`).
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(kind, what) => write!(f, "wire io error ({kind:?}): {what}"),
            ProtocolError::BadMagic => f.write_str("not a serve frame (bad magic)"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            ProtocolError::Oversized { len } => {
                write!(f, "frame body of {len} bytes exceeds the {MAX_BODY} byte cap")
            }
            ProtocolError::Truncated { wanted } => {
                write!(f, "stream ended mid-frame ({wanted} bytes short)")
            }
            ProtocolError::Checksum => f.write_str("frame body checksum mismatch"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Malformed(why) => write!(f, "malformed frame body: {why}"),
            ProtocolError::Closed => f.write_str("peer closed the connection"),
            ProtocolError::Remote { code, message } => {
                write!(f, "peer error {code}: {message}")
            }
        }
    }
}

impl Error for ProtocolError {}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { wanted, available } => ProtocolError::Truncated {
                wanted: wanted.saturating_sub(available),
            },
            CodecError::BadMagic => ProtocolError::BadMagic,
            CodecError::UnsupportedVersion(v) => ProtocolError::UnsupportedVersion(v),
            CodecError::Checksum => ProtocolError::Checksum,
            CodecError::Malformed(why) => ProtocolError::Malformed(why),
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated { wanted: 0 }
        } else {
            ProtocolError::Io(e.kind(), e.to_string())
        }
    }
}

/// One decoded frame: its kind byte and checksum-verified body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant (see `protocol`).
    pub kind: u8,
    /// Raw message body (already checksum-verified).
    pub body: Vec<u8>,
}

/// Writes one frame. The body is checksummed so the receiver detects
/// corruption independent of the transport.
///
/// # Errors
///
/// [`ProtocolError::Io`] on transport failure, or
/// [`ProtocolError::Oversized`] if `body` exceeds [`MAX_BODY`].
pub fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> Result<(), ProtocolError> {
    if body.len() > MAX_BODY {
        return Err(ProtocolError::Oversized { len: body.len() });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv64(body).to_le_bytes());
    w.write_all(&out)?;
    w.flush()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, mapping a mid-read EOF to
/// [`ProtocolError::Truncated`] with the outstanding byte count.
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ProtocolError::Truncated {
                    wanted: buf.len() - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame, verifying magic, version, length cap and body
/// checksum before returning it.
///
/// # Errors
///
/// [`ProtocolError::Closed`] on EOF at a frame boundary; any other
/// variant for torn, oversized, garbage or corrupt input.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    // The first byte distinguishes a clean close from a torn frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(ProtocolError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    header[0] = first[0];
    read_exact(r, &mut header[1..])?;
    if header[..4] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&header[4..8]);
    let version = u32::from_le_bytes(v);
    if version != WIRE_VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let kind = header[8];
    let mut l = [0u8; 4];
    l.copy_from_slice(&header[9..13]);
    let len = u32::from_le_bytes(l) as usize;
    if len > MAX_BODY {
        return Err(ProtocolError::Oversized { len });
    }
    let mut body = vec![0u8; len];
    read_exact(r, &mut body)?;
    let mut sum = [0u8; 8];
    read_exact(r, &mut sum)?;
    if fnv64(&body) != u64::from_le_bytes(sum) {
        return Err(ProtocolError::Checksum);
    }
    Ok(Frame { kind, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello frames").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, 7);
        assert_eq!(frame.body, b"hello frames");
        // A second read at the boundary reports a clean close.
        let mut rest: &[u8] = &[];
        assert_eq!(read_frame(&mut rest), Err(ProtocolError::Closed));
    }

    #[test]
    fn frame_bytes_are_pinned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello frames").unwrap();
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "434e534601000000070c00000068656c6c6f206672616d6573431bce55ea802e33");
    }

    #[test]
    fn garbage_is_rejected_with_bad_magic() {
        let garbage = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        assert_eq!(
            read_frame(&mut garbage.as_slice()),
            Err(ProtocolError::BadMagic)
        );
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"truncate me").unwrap();
        for cut in 0..buf.len() {
            let r = read_frame(&mut &buf[..cut]);
            assert!(
                matches!(r, Err(ProtocolError::Closed | ProtocolError::Truncated { .. })),
                "cut at {cut}/{} must not decode: {r:?}",
                buf.len()
            );
            // Only the zero-byte prefix is a clean close.
            if cut > 0 {
                assert!(matches!(r, Err(ProtocolError::Truncated { .. })));
            }
        }
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"x").unwrap();
        buf[4] = 0xfe; // clobber the version field
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn oversized_length_is_capped_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        buf.push(1);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn body_corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 2, b"checksummed body").unwrap();
        let body_start = HEADER_LEN;
        for i in body_start..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x20;
            assert_eq!(
                read_frame(&mut corrupt.as_slice()),
                Err(ProtocolError::Checksum),
                "flip at byte {i}"
            );
        }
    }
}
