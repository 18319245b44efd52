//! Crash-safe checkpointing of branch-and-bound search state.
//!
//! A long verification query is an investment: hours of frontier
//! exploration that a crash, OOM kill or deadline would otherwise throw
//! away. This module defines a versioned, checksummed, atomically-written
//! snapshot of the live search state of [`crate::bab`] — enough to resume
//! a `TimedOut` (or SIGKILLed) run where it stopped — plus the
//! content-address that ties a snapshot to the exact (weights, property)
//! pair it belongs to.
//!
//! # File format
//!
//! A [`crate::sealed`] file whose body is a fixed sequence of sections:
//!
//! ```text
//! magic "CNCK" | version u32 | sections… | fnv64(sections)
//! section: tag u8 | payload_len u64 | payload | fnv64(payload)
//! ```
//!
//! Sections appear in fixed order: header, incumbent, warm-start pool,
//! frontier. Every section carries its own FNV-1a checksum and the body
//! carries the sealed trailer, so any single-byte corruption — torn
//! write, bit flip, truncation — is detected before anything is trusted.
//! The warm-start pool and the frontier write their counts, basis and
//! history indices, depths, sequence numbers and pool references as
//! LEB128 varints ([`Enc::var`]): every snapshot rewrites the whole
//! frontier, and most of these integers fit in one byte.
//! Older versions are rejected like any other unreadable snapshot:
//! version 1, whose trailer also covered magic and version, version 2,
//! whose nodes carried no node rule, and version 3, which wrote every
//! integer as eight bytes.
//!
//! # What is (and is not) trusted from disk
//!
//! The snapshot is *combinatorial*, never numeric-derived state:
//!
//! * Frontier nodes carry phase assignments (pinned binaries under the
//!   LP rule), their node rule, bounds and tie-break sequence numbers.
//!   Bounds are re-validated (finite) and every node is
//!   re-bounded by the resumed search before anything depends on it.
//! * Warm starts are stored as **basis signatures** (basic column per row
//!   plus per-column status codes) and the **history** of their
//!   factorization (the basis of its LU and the entering column of each
//!   eta since). Factorizations are re-derived from the model's own
//!   constraint columns on first use by replaying that history
//!   ([`certnn_lp::WarmStart::from_description`]), which reproduces the
//!   live search's factorization bit for bit — LU data from disk is
//!   never used.
//! * The incumbent witness is re-verified by a fresh forward pass before
//!   it is installed; the stored objective value is only a cross-check.
//! * α vectors are clamped to `[0, 1]`, where *any* value is sound.
//!
//! A resume against a snapshot whose query hash, checksums or structural
//! invariants do not match **never errors**: the search falls back to a
//! fresh solve tagged [`Degradation::CheckpointFallback`].

use crate::property::{InputSpec, LinearObjective};
use crate::sealed::{
    degradation_code, degradation_from_code, fnv64, seal, unseal, write_atomic, CodecError, Dec,
    Enc, Fnv1a,
};
use certnn_lp::Degradation;
use certnn_nn::network::Network;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 4] = *b"CNCK";

/// Current format version. Readers reject anything else.
pub const FORMAT_VERSION: u32 = 4;

/// Default [`CheckpointPolicy::every_nodes`].
pub const DEFAULT_EVERY_NODES: usize = 64;

/// Wall time after which the search snapshots again, whatever the node
/// cadence.
pub const DEFAULT_EVERY: Duration = Duration::from_secs(5);

const SEC_HEADER: u8 = 1;
const SEC_INCUMBENT: u8 = 2;
const SEC_WARM_POOL: u8 = 3;
const SEC_FRONTIER: u8 = 4;

/// Cached `ckpt.*` observability handles.
pub(crate) struct CkptMetrics {
    pub(crate) written: certnn_obs::Counter,
    pub(crate) bytes: certnn_obs::Counter,
    pub(crate) resume_ok: certnn_obs::Counter,
    pub(crate) corrupt_fallbacks: certnn_obs::Counter,
    pub(crate) snapshot_nanos: certnn_obs::Histogram,
}

pub(crate) fn ckpt_metrics() -> &'static CkptMetrics {
    static M: OnceLock<CkptMetrics> = OnceLock::new();
    M.get_or_init(|| CkptMetrics {
        written: certnn_obs::counter("ckpt.written"),
        bytes: certnn_obs::counter("ckpt.bytes"),
        resume_ok: certnn_obs::counter("ckpt.resume_ok"),
        corrupt_fallbacks: certnn_obs::counter("ckpt.corrupt_fallbacks"),
        snapshot_nanos: certnn_obs::histogram("ckpt.snapshot_nanos"),
    })
}

/// Content-address of a verification query: an FNV-1a hash over the
/// network's full architecture and parameters (layer shapes, activation
/// kinds, every weight and bias bit) and the property (input box,
/// scenario constraints, objective terms and constant).
///
/// Two queries with the same fingerprint are byte-for-byte the same
/// question, so a checkpoint — or, later, a cached certificate — keyed by
/// it can be swapped between runs safely.
pub fn query_fingerprint(net: &Network, spec: &InputSpec, objective: &LinearObjective) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(net.layers().len() as u64);
    for layer in net.layers() {
        h.write_u64(layer.inputs() as u64);
        h.write_u64(layer.outputs() as u64);
        h.write(format!("{:?}", layer.activation()).as_bytes());
        for &w in layer.weights().as_slice() {
            h.write_f64(w);
        }
        for &b in layer.bias().iter() {
            h.write_f64(b);
        }
    }
    h.write_u64(spec.bounds().len() as u64);
    for iv in spec.bounds() {
        h.write_f64(iv.lo());
        h.write_f64(iv.hi());
    }
    h.write_u64(spec.constraints().len() as u64);
    for c in spec.constraints() {
        h.write(format!("{:?}", c.relation).as_bytes());
        h.write_f64(c.rhs);
        h.write_u64(c.terms.len() as u64);
        for &(i, v) in &c.terms {
            h.write_u64(i as u64);
            h.write_f64(v);
        }
    }
    h.write_u64(objective.terms.len() as u64);
    for &(i, v) in &objective.terms {
        h.write_u64(i as u64);
        h.write_f64(v);
    }
    h.write_f64(objective.constant);
    h.finish()
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// When and where the branch-and-bound driver snapshots its search state.
///
/// The `dir` holds one file per in-flight query, named by the query's
/// [`query_fingerprint`] (`q<hex>.ckpt`), so multi-query runs (every
/// Table II width, every fleet member, every mixture component) checkpoint
/// independently and a resume finds each query's own state. Completed
/// queries delete their file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Directory holding the per-query checkpoint files.
    pub dir: PathBuf,
    /// Snapshot after this many newly processed nodes, or after
    /// [`DEFAULT_EVERY`] of wall time, whichever comes first. Clamped to
    /// at least 1. The search also runs at least as long between two
    /// node-cadence snapshots as the earlier one took to write, so a
    /// small value costs at most half the wall time instead of a write
    /// per node.
    pub every_nodes: usize,
    /// Run seed folded into the per-query file key: two runs whose
    /// configuration seeds differ never share snapshots even if their
    /// weights collide.
    pub seed: u64,
    /// Attempt to resume from an existing snapshot before solving.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Policy writing snapshots under `dir` at the default cadence,
    /// without resuming.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_nodes: DEFAULT_EVERY_NODES,
            seed: 0,
            resume: false,
        }
    }

    /// The checkpoint file for a query hash under this policy's directory.
    pub fn file_for(&self, query_hash: u64) -> PathBuf {
        self.dir.join(format!("q{query_hash:016x}.ckpt"))
    }
}

// ---------------------------------------------------------------------------
// Snapshot model
// ---------------------------------------------------------------------------

/// Serialized warm-start basis: the combinatorial description only (see
/// [`certnn_lp::WarmStart::describe`]); factorizations are re-derived on
/// resume, never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmDesc {
    /// Constraint rows of the LP the basis belongs to.
    pub m: u64,
    /// Structural variables of that LP.
    pub n_struct: u64,
    /// Basic column per row (`m` entries).
    pub basis: Vec<u64>,
    /// Per-column status codes (`n_struct + m` entries, encoding of
    /// [`certnn_lp::WarmStart::describe`]).
    pub status: Vec<u8>,
    /// History of the basis factorization
    /// ([`certnn_lp::WarmStart::describe_factor`]): the basis its LU was
    /// computed for, then a `(position, column)` pair per eta; empty
    /// without a factorization.
    pub factor: Vec<u64>,
}

/// One serialized frontier node.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotNode {
    /// Proven upper bound of the node's subtree.
    pub bound: f64,
    /// Depth in the phase tree.
    pub depth: u64,
    /// Heap tie-break sequence number (restored so the resumed best-first
    /// pop order matches the uninterrupted run exactly).
    pub seq: u64,
    /// Panic-retry count carried over.
    pub retries: u8,
    /// Per-ReLU phase assignment: `0` open, `1` forced inactive,
    /// `2` forced active.
    pub phases: Vec<u8>,
    /// `true` when the node runs the LP rule of [`crate::bab`] (its
    /// phases pin big-M binaries), `false` for the phase rule.
    pub lp_rule: bool,
    /// Inherited tuned α slopes, when α tuning was on.
    pub alpha: Option<Vec<f64>>,
    /// Index into [`Snapshot::warm_pool`], when the node carried a basis.
    pub warm_idx: Option<u64>,
}

/// A complete, self-validating snapshot of one query's search state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// [`query_fingerprint`] (plus run-config context) of the query this
    /// state belongs to; a resume against any other hash is rejected.
    pub query_hash: u64,
    /// Run-configuration seed recorded at capture time.
    pub seed: u64,
    /// Fully processed nodes (claimed-but-incomplete work is *not*
    /// counted: it is re-queued in [`Snapshot::frontier`] and recounted
    /// when the resumed search claims it again).
    pub nodes_done: u64,
    /// Next heap tie-break sequence number to assign.
    pub next_seq: u64,
    /// Cumulative search wall time across all runs of this query, ns.
    pub elapsed_nanos: u64,
    /// Max bound over subtrees irrecoverably dropped (panic retries
    /// exhausted, dead workers); `-inf` when none. Folded into the final
    /// upper bound by the resumed run — lost work must never silently
    /// tighten the answer.
    pub dropped_bound: f64,
    /// Worst degradation recorded on the frontier at capture time.
    pub degradation: Degradation,
    /// Best verified incumbent: witness input and its objective value.
    pub incumbent: Option<(Vec<f64>, f64)>,
    /// Deduplicated warm-start bases referenced by the frontier.
    pub warm_pool: Vec<WarmDesc>,
    /// Open frontier: heap contents plus nodes claimed by workers at
    /// capture time.
    pub frontier: Vec<SnapshotNode>,
}

impl Snapshot {
    /// Structural validation beyond checksums: every phase vector has the
    /// query's ReLU count with codes in `{0,1,2}`, bounds and α values
    /// are finite, warm indices point into the pool, pool entries are
    /// dimensionally consistent, and the witness matches the input width.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] naming the first violated invariant.
    pub fn validate(&self, total_relu: usize, num_inputs: usize) -> Result<(), CheckpointError> {
        for d in &self.warm_pool {
            if d.basis.len() as u64 != d.m {
                return Err(CheckpointError::Malformed("warm basis length != m"));
            }
            if d.status.len() as u64 != d.n_struct + d.m {
                return Err(CheckpointError::Malformed("warm status length != n_struct + m"));
            }
        }
        for n in &self.frontier {
            if n.phases.len() != total_relu {
                return Err(CheckpointError::Malformed("node phase vector has wrong length"));
            }
            if n.phases.iter().any(|&p| p > 2) {
                return Err(CheckpointError::Malformed("unknown phase code"));
            }
            if !n.bound.is_finite() {
                return Err(CheckpointError::Malformed("non-finite node bound"));
            }
            if let Some(a) = &n.alpha {
                if a.len() != total_relu {
                    return Err(CheckpointError::Malformed("alpha vector has wrong length"));
                }
                if a.iter().any(|v| !v.is_finite()) {
                    return Err(CheckpointError::Malformed("non-finite alpha"));
                }
            }
            if let Some(w) = n.warm_idx {
                if w as usize >= self.warm_pool.len() {
                    return Err(CheckpointError::Malformed("warm index out of range"));
                }
            }
        }
        if let Some((w, v)) = &self.incumbent {
            if w.len() != num_inputs {
                return Err(CheckpointError::Malformed("witness has wrong input width"));
            }
            if w.iter().any(|x| !x.is_finite()) || !v.is_finite() {
                return Err(CheckpointError::Malformed("non-finite incumbent"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be written, read or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (the kind plus the path involved).
    Io(std::io::ErrorKind, String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the advertised data (torn write).
    Truncated {
        /// Bytes the parser needed.
        wanted: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section's payload does not match its stored FNV-1a checksum.
    SectionChecksum(u8),
    /// The whole-file trailing checksum does not match.
    FileChecksum,
    /// A structural invariant does not hold (valid checksums, bad data).
    Malformed(&'static str),
    /// The snapshot belongs to a different (weights, property) pair.
    QueryMismatch {
        /// Hash the caller expected.
        expected: u64,
        /// Hash stored in the snapshot.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(kind, path) => write!(f, "checkpoint io error ({kind:?}): {path}"),
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {FORMAT_VERSION})")
            }
            CheckpointError::Truncated { wanted, available } => write!(
                f,
                "checkpoint truncated: needed {wanted} bytes, only {available} available"
            ),
            CheckpointError::SectionChecksum(tag) => {
                write!(f, "checksum mismatch in checkpoint section {tag}")
            }
            CheckpointError::FileChecksum => f.write_str("whole-file checksum mismatch"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::QueryMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to query {found:016x}, expected {expected:016x}"
            ),
        }
    }
}

impl Error for CheckpointError {}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.kind(), path.display().to_string())
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { wanted, available } => {
                CheckpointError::Truncated { wanted, available }
            }
            CodecError::BadMagic => CheckpointError::BadMagic,
            CodecError::UnsupportedVersion(v) => CheckpointError::UnsupportedVersion(v),
            CodecError::Checksum => CheckpointError::FileChecksum,
            CodecError::Malformed(why) => CheckpointError::Malformed(why),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn encode_section(out: &mut Enc, tag: u8, payload: &Enc) {
    out.u8(tag);
    out.bytes(&payload.0);
    out.u64(fnv64(&payload.0));
}

/// Encodes a snapshot to its on-disk byte representation.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut out = Enc(Vec::with_capacity(4096));

    let mut h = Enc::new();
    h.u64(snap.query_hash);
    h.u64(snap.seed);
    h.u64(snap.nodes_done);
    h.u64(snap.next_seq);
    h.u64(snap.elapsed_nanos);
    h.f64(snap.dropped_bound);
    h.u8(degradation_code(snap.degradation));
    encode_section(&mut out, SEC_HEADER, &h);

    let mut inc = Enc::new();
    match &snap.incumbent {
        None => inc.u8(0),
        Some((w, v)) => {
            inc.u8(1);
            inc.u64(w.len() as u64);
            for &x in w {
                inc.f64(x);
            }
            inc.f64(*v);
        }
    }
    encode_section(&mut out, SEC_INCUMBENT, &inc);

    let mut pool = Enc::new();
    pool.var(snap.warm_pool.len() as u64);
    for d in &snap.warm_pool {
        pool.var(d.m);
        pool.var(d.n_struct);
        pool.var(d.basis.len() as u64);
        for &b in &d.basis {
            pool.var(b);
        }
        pool.bytes(&d.status);
        pool.var(d.factor.len() as u64);
        for &j in &d.factor {
            pool.var(j);
        }
    }
    encode_section(&mut out, SEC_WARM_POOL, &pool);

    let mut fr = Enc::new();
    fr.var(snap.frontier.len() as u64);
    for n in &snap.frontier {
        fr.f64(n.bound);
        fr.var(n.depth);
        fr.var(n.seq);
        fr.u8(n.retries);
        fr.u8(u8::from(n.lp_rule));
        fr.bytes(&n.phases);
        match &n.alpha {
            None => fr.u8(0),
            Some(a) => {
                fr.u8(1);
                fr.var(a.len() as u64);
                for &v in a {
                    fr.f64(v);
                }
            }
        }
        // 0 for no basis, else the pool index plus one.
        fr.var(n.warm_idx.map_or(0, |w| w.wrapping_add(1)));
    }
    encode_section(&mut out, SEC_FRONTIER, &fr);

    seal(MAGIC, FORMAT_VERSION, &out.0)
}

/// Reads one section, verifying tag and checksum, returning its payload.
fn section<'a>(dec: &mut Dec<'a>, tag: u8) -> Result<&'a [u8], CheckpointError> {
    let got = dec.u8()?;
    if got != tag {
        return Err(CheckpointError::Malformed("unexpected section tag"));
    }
    let payload = dec.bytes()?;
    let stored = dec.u64()?;
    if fnv64(payload) != stored {
        return Err(CheckpointError::SectionChecksum(tag));
    }
    Ok(payload)
}

/// Decodes a snapshot from its on-disk byte representation, verifying the
/// sealed trailer first and then every section checksum, so no field is
/// interpreted before its integrity is established.
///
/// # Errors
///
/// Any [`CheckpointError`] variant other than `Io`/`QueryMismatch`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let mut dec = Dec::new(unseal(MAGIC, FORMAT_VERSION, bytes)?);

    let mut h = Dec::new(section(&mut dec, SEC_HEADER)?);
    let query_hash = h.u64()?;
    let seed = h.u64()?;
    let nodes_done = h.u64()?;
    let next_seq = h.u64()?;
    let elapsed_nanos = h.u64()?;
    let dropped_bound = h.f64()?;
    let degradation = degradation_from_code(h.u8()?)?;
    if !h.done() {
        return Err(CheckpointError::Malformed("trailing bytes in header"));
    }

    let mut i = Dec::new(section(&mut dec, SEC_INCUMBENT)?);
    let incumbent = match i.u8()? {
        0 => None,
        1 => {
            let n = i.len(8)?;
            let mut w = Vec::with_capacity(n);
            for _ in 0..n {
                w.push(i.f64()?);
            }
            Some((w, i.f64()?))
        }
        _ => return Err(CheckpointError::Malformed("bad incumbent flag")),
    };
    if !i.done() {
        return Err(CheckpointError::Malformed("trailing bytes in incumbent"));
    }

    let mut p = Dec::new(section(&mut dec, SEC_WARM_POOL)?);
    let pool_len = p.var_len(12)?;
    let mut warm_pool = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        let m = p.var()?;
        let n_struct = p.var()?;
        let bl = p.var_len(1)?;
        let basis = (0..bl).map(|_| p.var()).collect::<Result<_, _>>()?;
        let status = p.bytes()?.to_vec();
        let fl = p.var_len(1)?;
        let factor = (0..fl).map(|_| p.var()).collect::<Result<_, _>>()?;
        warm_pool.push(WarmDesc { m, n_struct, basis, status, factor });
    }
    if !p.done() {
        return Err(CheckpointError::Malformed("trailing bytes in warm pool"));
    }

    let mut fdec = Dec::new(section(&mut dec, SEC_FRONTIER)?);
    let n_nodes = fdec.var_len(22)?;
    let mut frontier = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let bound = fdec.f64()?;
        let depth = fdec.var()?;
        let seq = fdec.var()?;
        let retries = fdec.u8()?;
        let lp_rule = match fdec.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::Malformed("bad node rule flag")),
        };
        let phases = fdec.bytes()?.to_vec();
        let alpha = match fdec.u8()? {
            0 => None,
            1 => {
                let al = fdec.var_len(8)?;
                let mut a = Vec::with_capacity(al);
                for _ in 0..al {
                    a.push(fdec.f64()?);
                }
                Some(a)
            }
            _ => return Err(CheckpointError::Malformed("bad alpha flag")),
        };
        let warm_idx = fdec.var()?.checked_sub(1);
        frontier.push(SnapshotNode {
            bound,
            depth,
            seq,
            retries,
            phases,
            lp_rule,
            alpha,
            warm_idx,
        });
    }
    if !fdec.done() {
        return Err(CheckpointError::Malformed("trailing bytes in frontier"));
    }
    if !dec.done() {
        return Err(CheckpointError::Malformed("trailing bytes after sections"));
    }

    Ok(Snapshot {
        query_hash,
        seed,
        nodes_done,
        next_seq,
        elapsed_nanos,
        dropped_bound,
        degradation,
        incumbent,
        warm_pool,
        frontier,
    })
}

// ---------------------------------------------------------------------------
// Atomic file IO
// ---------------------------------------------------------------------------

/// Writes a snapshot atomically ([`write_atomic`]): a crash at any point
/// leaves either the previous complete checkpoint or none — never a torn
/// file under the real name. Returns the bytes written.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any filesystem failure.
pub fn write_snapshot(path: &Path, snap: &Snapshot) -> Result<u64, CheckpointError> {
    let bytes = encode_snapshot(snap);
    write_atomic(path, &bytes).map_err(|e| io_err(path, &e))?;
    Ok(bytes.len() as u64)
}

/// Reads and fully verifies a snapshot file (checksums and structure of
/// the byte format; semantic validation is [`Snapshot::validate`]).
///
/// # Errors
///
/// [`CheckpointError::Io`] (kind `NotFound` when no checkpoint exists) or
/// any decode error.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
    decode_snapshot(&bytes)
}

/// Removes a query's checkpoint file, ignoring a missing one. Called when
/// a query completes: a finished answer must not leave a stale resume
/// handle behind.
pub fn remove_snapshot(path: &Path) {
    match fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            certnn_obs::event(
                "ckpt.remove_failed",
                vec![
                    ("path", path.display().to_string().into()),
                    ("kind", format!("{:?}", e.kind()).into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Interval;
    use proptest::prelude::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            query_hash: 0xdead_beef_cafe_f00d,
            seed: 7,
            nodes_done: 42,
            next_seq: 99,
            elapsed_nanos: 1_234_567,
            dropped_bound: f64::NEG_INFINITY,
            degradation: Degradation::TimedOut,
            incumbent: Some((vec![0.25, -1.0, 0.5], 1.75)),
            warm_pool: vec![WarmDesc {
                m: 2,
                n_struct: 3,
                basis: vec![0, 4],
                status: vec![0, 1, 2, 1, 0],
                factor: vec![3, 4, 0, 0],
            }],
            frontier: vec![
                SnapshotNode {
                    bound: 3.5,
                    depth: 2,
                    seq: 11,
                    retries: 0,
                    phases: vec![0, 1, 2, 0],
                    lp_rule: false,
                    alpha: Some(vec![0.0, 0.5, 1.0, 0.25]),
                    warm_idx: Some(0),
                },
                SnapshotNode {
                    bound: 1.25,
                    depth: 5,
                    seq: 17,
                    retries: 1,
                    phases: vec![2, 2, 1, 0],
                    lp_rule: true,
                    alpha: None,
                    warm_idx: None,
                },
            ],
        }
    }

    /// `encode_snapshot(&sample_snapshot())` as format version 1 wrote
    /// it (trailer over magic, version and sections).
    const V1_FIXTURE: &str = concat!(
        "434e434b010000000131000000000000000df0fecaefbeadde07000000000000",
        "002a00000000000000630000000000000087d6120000000000000000000000f0",
        "ff049af0e68fabaecd4702290000000000000001030000000000000000000000",
        "0000d03f000000000000f0bf000000000000e03f000000000000fc3f4bdc7ff1",
        "9a75c167033d0000000000000001000000000000000200000000000000030000",
        "0000000000020000000000000000000000000000000400000000000000050000",
        "00000000000001020100b0a81b425da3e66c048c000000000000000200000000",
        "0000000000000000000c4002000000000000000b000000000000000004000000",
        "00000000000102000104000000000000000000000000000000000000000000e0",
        "3f000000000000f03f000000000000d03f0000000000000000000000000000f4",
        "3f050000000000000011000000000000000104000000000000000202010000ff",
        "ffffffffffffff08fbab87588fc012c8282b93ef0e8a52",
    );

    /// `encode_snapshot(&sample_snapshot())` as format version 2 wrote
    /// it, before nodes carried their rule.
    const V2_FIXTURE: &str = concat!(
        "434e434b020000000131000000000000000df0fecaefbeadde07000000000000",
        "002a00000000000000630000000000000087d6120000000000000000000000f0",
        "ff049af0e68fabaecd4702290000000000000001030000000000000000000000",
        "0000d03f000000000000f0bf000000000000e03f000000000000fc3f4bdc7ff1",
        "9a75c167033d0000000000000001000000000000000200000000000000030000",
        "0000000000020000000000000000000000000000000400000000000000050000",
        "00000000000001020100b0a81b425da3e66c048c000000000000000200000000",
        "0000000000000000000c4002000000000000000b000000000000000004000000",
        "00000000000102000104000000000000000000000000000000000000000000e0",
        "3f000000000000f03f000000000000d03f0000000000000000000000000000f4",
        "3f050000000000000011000000000000000104000000000000000202010000ff",
        "ffffffffffffff08fbab87588fc012765ba0399834c4b0",
    );

    /// `encode_snapshot(&sample_snapshot())` as format version 3 wrote
    /// it, with every integer eight bytes wide.
    const V3_FIXTURE: &str = concat!(
        "434e434b030000000131000000000000000df0fecaefbeadde07000000000000",
        "002a00000000000000630000000000000087d6120000000000000000000000f0",
        "ff049af0e68fabaecd4702290000000000000001030000000000000000000000",
        "0000d03f000000000000f0bf000000000000e03f000000000000fc3f4bdc7ff1",
        "9a75c16703650000000000000001000000000000000200000000000000030000",
        "0000000000020000000000000000000000000000000400000000000000050000",
        "0000000000000102010004000000000000000300000000000000040000000000",
        "0000000000000000000000000000000000003379c4b508957727048e00000000",
        "00000002000000000000000000000000000c4002000000000000000b00000000",
        "0000000000040000000000000000010200010400000000000000000000000000",
        "0000000000000000e03f000000000000f03f000000000000d03f000000000000",
        "0000000000000000f43f05000000000000001100000000000000010104000000",
        "000000000202010000ffffffffffffffffd34161571dd5d36177f752ef82d4f8",
        "ca",
    );

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn v1_fixture_is_rejected_as_unsupported_version() {
        assert_eq!(
            decode_snapshot(&from_hex(V1_FIXTURE)),
            Err(CheckpointError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn v2_fixture_is_rejected_as_unsupported_version() {
        assert_eq!(
            decode_snapshot(&from_hex(V2_FIXTURE)),
            Err(CheckpointError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn v3_fixture_is_rejected_as_unsupported_version() {
        assert_eq!(
            decode_snapshot(&from_hex(V3_FIXTURE)),
            Err(CheckpointError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(encode_snapshot(&back), bytes);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&sample_snapshot());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut}/{} must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_snapshot(&sample_snapshot());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_snapshot(&corrupt).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn validate_rejects_structural_lies() {
        let snap = sample_snapshot();
        assert!(snap.validate(4, 3).is_ok());
        assert!(matches!(
            snap.validate(5, 3),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            snap.validate(4, 2),
            Err(CheckpointError::Malformed(_))
        ));
        let mut bad = snap.clone();
        bad.frontier[0].warm_idx = Some(3);
        assert!(bad.validate(4, 3).is_err());
        let mut bad = snap.clone();
        bad.frontier[0].bound = f64::NAN;
        assert!(bad.validate(4, 3).is_err());
        let mut bad = snap;
        bad.warm_pool[0].basis.pop();
        assert!(bad.validate(4, 3).is_err());
    }

    #[test]
    fn fingerprint_separates_weights_and_properties() {
        let a = Network::relu_mlp(3, &[4], 1, 1).unwrap();
        let b = Network::relu_mlp(3, &[4], 1, 2).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).unwrap();
        let spec2 = InputSpec::from_box(vec![Interval::new(-1.0, 0.5); 3]).unwrap();
        let obj = LinearObjective::output(0);
        let obj2 = LinearObjective {
            terms: vec![(0, 1.0)],
            constant: 1.0,
        };
        let base = query_fingerprint(&a, &spec, &obj);
        assert_eq!(base, query_fingerprint(&a, &spec, &obj));
        assert_ne!(base, query_fingerprint(&b, &spec, &obj));
        assert_ne!(base, query_fingerprint(&a, &spec2, &obj));
        assert_ne!(base, query_fingerprint(&a, &spec, &obj2));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("certnn_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q0.ckpt");
        let snap = sample_snapshot();
        let bytes = write_snapshot(&path, &snap).unwrap();
        assert!(bytes > 0);
        assert_eq!(read_snapshot(&path).unwrap(), snap);
        // Overwrite is atomic too (rename over existing).
        let mut snap2 = sample_snapshot();
        snap2.nodes_done = 43;
        write_snapshot(&path, &snap2).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().nodes_done, 43);
        remove_snapshot(&path);
        assert!(matches!(
            read_snapshot(&path),
            Err(CheckpointError::Io(std::io::ErrorKind::NotFound, _))
        ));
        remove_snapshot(&path); // idempotent on missing files
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
        let node = (
            -1.0e6..1.0e6f64,
            0u64..64,
            0u64..1000,
            prop::collection::vec(0u8..3, 0..12),
            prop::collection::vec(0.0..1.0f64, 0..12),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(bound, depth, seq, phases, alpha, has_alpha, has_warm)| SnapshotNode {
                bound,
                depth,
                seq,
                retries: (seq % 3) as u8,
                phases,
                lp_rule: seq % 2 == 1,
                alpha: has_alpha.then_some(alpha),
                warm_idx: has_warm.then_some(seq % 4),
            });
        (
            any::<u64>(),
            any::<u64>(),
            0u64..100_000,
            prop::collection::vec(-10.0..10.0f64, 0..6),
            prop::collection::vec(node, 0..8),
            any::<bool>(),
        )
            .prop_map(|(query_hash, seed, nodes_done, witness, frontier, has_inc)| Snapshot {
                query_hash,
                seed,
                nodes_done,
                next_seq: nodes_done.wrapping_mul(2),
                elapsed_nanos: nodes_done.wrapping_mul(31),
                dropped_bound: if nodes_done % 2 == 0 {
                    f64::NEG_INFINITY
                } else {
                    nodes_done as f64
                },
                degradation: match nodes_done % 5 {
                    0 => Degradation::Exact,
                    1 => Degradation::CheckpointFallback,
                    2 => Degradation::ColdFallback,
                    3 => Degradation::IntervalOnly,
                    _ => Degradation::TimedOut,
                },
                incumbent: has_inc.then(|| {
                    let v = witness.iter().sum();
                    (witness, v)
                }),
                warm_pool: vec![WarmDesc {
                    m: 2,
                    n_struct: 2,
                    basis: vec![1, 3],
                    status: vec![1, 0, 2, 0],
                    factor: if nodes_done % 2 == 0 { vec![2, 3, 0, 1] } else { Vec::new() },
                }],
                frontier,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn proptest_codec_round_trips_bit_identically(snap in arb_snapshot()) {
            let bytes = encode_snapshot(&snap);
            let back = decode_snapshot(&bytes).expect("valid snapshot must decode");
            prop_assert_eq!(&back, &snap);
            prop_assert_eq!(encode_snapshot(&back), bytes);
        }

        #[test]
        fn proptest_single_byte_corruption_is_detected(
            snap in arb_snapshot(),
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let mut bytes = encode_snapshot(&snap);
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= flip;
            prop_assert!(
                decode_snapshot(&bytes).is_err(),
                "corrupting byte {} with xor {:#x} must be detected", pos, flip
            );
        }
    }
}
