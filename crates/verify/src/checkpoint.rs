//! Crash-safe checkpointing of branch-and-bound search state.
//!
//! A long verification query is an investment: hours of frontier
//! exploration that a crash, OOM kill or deadline would otherwise throw
//! away. This module is the only code that knows the snapshot format: a
//! versioned, checksummed, atomically-written image of the live search
//! state of [`crate::bab`] — enough to resume a `TimedOut` (or SIGKILLed)
//! run where it stopped — plus the content-address that ties a snapshot to
//! the exact (weights, property) pair it belongs to. The search talks to it
//! at three points (open, after a completed node, at the end) through one
//! crate-private type, `Checkpointer`.
//!
//! # One node model
//!
//! A snapshot holds the search's own frontier nodes and their shared
//! warm starts: [`encode_snapshot`] writes them straight into the file and
//! [`decode_snapshot`] reads them straight back, so a frontier node and a
//! warm start are declared once, for the search and its file alike.
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
//! The pool holds each distinct warm start once, numbered by its first
//! use in frontier order; a node refers to it by that number. The
//! warm-start pool and the frontier write their counts, basis and
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
//! The snapshot is *combinatorial*, never numeric-derived state, and
//! [`decode_snapshot`] checks every structural invariant in the same pass
//! that reads it, against the resuming query's ReLU count and input width:
//!
//! * Frontier nodes carry phase assignments (pinned binaries under the
//!   LP rule), their node rule, bounds and tie-break sequence numbers.
//!   Phase vectors must have the query's ReLU count, bounds must be
//!   finite, and sequence numbers must be distinct and below the next one
//!   to assign, so the resumed heap order stays total. Every node is
//!   re-bounded by the resumed search before anything depends on it.
//! * Warm starts are stored as **basis signatures** (basic column per row
//!   plus per-column status codes) and the **history** of their
//!   factorization (the basis of its LU and the entering column of each
//!   eta since). Factorizations are re-derived from the model's own
//!   constraint columns on first use by replaying that history
//!   ([`certnn_lp::WarmStart::from_description`]), which reproduces the
//!   live search's factorization bit for bit — LU data from disk is
//!   never used. A description the LP layer rejects drops only the warm
//!   start of the nodes that use it.
//! * The incumbent witness must match the input width and be finite; it
//!   is re-verified by a fresh forward pass before it is installed. The
//!   stored objective value is written for readers of the file, checked
//!   finite and never read back: the forward pass re-derives it.
//! * α vectors must have the ReLU count and be finite, and are clamped to
//!   `[0, 1]`, where *any* value is sound.
//!
//! A resume against a snapshot whose query hash, checksums or structural
//! invariants do not match **never errors**: the search falls back to a
//! fresh solve tagged [`Degradation::CheckpointFallback`].

use crate::bab::{BabOptions, Node};
use crate::property::{InputSpec, LinearObjective};
use crate::sealed::{
    degradation_code, degradation_from_code, fnv64, seal, unseal, write_atomic, CodecError, Dec,
    Enc, Fnv1a,
};
use certnn_lp::{Degradation, WarmStart};
use certnn_milp::MilpStatus;
use certnn_nn::network::Network;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

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
struct CkptMetrics {
    written: certnn_obs::Counter,
    bytes: certnn_obs::Counter,
    resume_ok: certnn_obs::Counter,
    corrupt_fallbacks: certnn_obs::Counter,
    snapshot_nanos: certnn_obs::Histogram,
}

fn ckpt_metrics() -> &'static CkptMetrics {
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
// Snapshot
// ---------------------------------------------------------------------------

/// One query's search state: its header counters, the verified incumbent
/// and the open frontier. The default value is a search that has not
/// started: no node processed, nothing dropped, an empty frontier.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// [`query_fingerprint`] (plus run-config context) of the query this
    /// state belongs to; a resume against any other hash is rejected.
    pub query_hash: u64,
    /// Run-configuration seed recorded at capture time.
    pub seed: u64,
    /// Fully processed nodes (claimed-but-incomplete work is *not*
    /// counted: it is re-queued in the frontier and recounted when the
    /// resumed search claims it again).
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
    /// Open frontier: heap contents in iteration order, then the nodes
    /// workers had claimed at capture time.
    pub(crate) frontier: Vec<Node>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Self {
            query_hash: 0,
            seed: 0,
            nodes_done: 0,
            // The root carries sequence number 0.
            next_seq: 1,
            elapsed_nanos: 0,
            dropped_bound: f64::NEG_INFINITY,
            degradation: Degradation::Exact,
            incumbent: None,
            frontier: Vec::new(),
        }
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
    /// The bytes are not a readable snapshot: truncated, wrong magic or
    /// version, a whole-file checksum mismatch, or a structural invariant
    /// that does not hold.
    Codec(CodecError),
    /// A section's payload does not match its stored FNV-1a checksum.
    SectionChecksum(u8),
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
            CheckpointError::Codec(e) => write!(f, "unreadable checkpoint: {e}"),
            CheckpointError::SectionChecksum(tag) => {
                write!(f, "checksum mismatch in checkpoint section {tag}")
            }
            CheckpointError::QueryMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to query {found:016x}, expected {expected:016x}"
            ),
        }
    }
}

impl Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

fn malformed(why: &'static str) -> CheckpointError {
    CheckpointError::Codec(CodecError::Malformed(why))
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn encode_section(out: &mut Enc, tag: u8, payload: &Enc) {
    out.u8(tag);
    out.bytes(&payload.0);
    out.u64(fnv64(&payload.0));
}

/// Encodes a snapshot to its on-disk byte representation. Warm starts
/// shared by several nodes (siblings share their parent's) go into the
/// pool once, by `Arc` identity, described by their basis and
/// factorization history — numeric factorizations never leave the process.
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
    let mut pool_index: HashMap<*const WarmStart, u64> = HashMap::new();
    let mut fr = Enc::new();
    fr.var(snap.frontier.len() as u64);
    for n in &snap.frontier {
        fr.f64(n.bound);
        fr.var(n.depth as u64);
        fr.var(n.seq);
        fr.u8(n.retries.min(u8::MAX as usize) as u8);
        fr.u8(u8::from(n.lp_rule));
        // Length-prefixed codes: 0 open, 1 inactive, 2 active.
        fr.u64(n.phases.len() as u64);
        for p in &n.phases {
            fr.u8(match p {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        match &n.alpha {
            None => fr.u8(0),
            Some(a) => {
                fr.u8(1);
                fr.var(a.len() as u64);
                for &v in a.iter() {
                    fr.f64(v);
                }
            }
        }
        // 0 for no basis, else the pool index plus one.
        let warm = n.warm.as_ref().map(|w| {
            let next = pool_index.len() as u64;
            *pool_index.entry(Arc::as_ptr(w)).or_insert_with(|| {
                encode_warm(&mut pool, w);
                next
            })
        });
        fr.var(warm.map_or(0, |i| i + 1));
    }
    let mut pool_section = Enc::new();
    pool_section.var(pool_index.len() as u64);
    pool_section.0.extend_from_slice(&pool.0);
    encode_section(&mut out, SEC_WARM_POOL, &pool_section);
    encode_section(&mut out, SEC_FRONTIER, &fr);

    seal(MAGIC, FORMAT_VERSION, &out.0)
}

/// Appends one warm-pool entry: `m`, `n_struct`, the basis, the status
/// codes and the factorization history.
fn encode_warm(pool: &mut Enc, w: &WarmStart) {
    let (basis, status) = w.describe();
    let factor = w.describe_factor();
    pool.var(basis.len() as u64);
    pool.var((status.len() - basis.len()) as u64);
    pool.var(basis.len() as u64);
    for &b in &basis {
        pool.var(b);
    }
    pool.bytes(&status);
    pool.var(factor.len() as u64);
    for &j in &factor {
        pool.var(j);
    }
}

/// Reads one section, verifying tag and checksum, returning its payload.
fn section<'a>(dec: &mut Dec<'a>, tag: u8) -> Result<&'a [u8], CheckpointError> {
    let got = dec.u8()?;
    if got != tag {
        return Err(malformed("unexpected section tag"));
    }
    let payload = dec.bytes()?;
    let stored = dec.u64()?;
    if fnv64(payload) != stored {
        return Err(CheckpointError::SectionChecksum(tag));
    }
    Ok(payload)
}

/// Reads `n` `f64`s, all of which must be finite.
fn finite_f64s(dec: &mut Dec, n: usize, why: &'static str) -> Result<Vec<f64>, CheckpointError> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let x = dec.f64()?;
        if !x.is_finite() {
            return Err(malformed(why));
        }
        v.push(x);
    }
    Ok(v)
}

/// Decodes a snapshot for a query with `total_relu` ReLU neurons and
/// `num_inputs` inputs. The sealed trailer and every section checksum are
/// verified before a field is interpreted, and every structural invariant
/// is checked while the fields are read: phase vectors of `total_relu`
/// codes in `{0, 1, 2}`, finite bounds, α vectors of `total_relu` finite
/// values (clamped to `[0, 1]`), distinct sequence numbers below
/// `next_seq`, warm indices inside the pool, pool entries whose basis and
/// status lengths match their dimensions, and a finite witness of
/// `num_inputs` values.
///
/// # Errors
///
/// [`CheckpointError::Codec`] or [`CheckpointError::SectionChecksum`];
/// [`CodecError::Malformed`] names the first violated invariant.
pub fn decode_snapshot(
    bytes: &[u8],
    total_relu: usize,
    num_inputs: usize,
) -> Result<Snapshot, CheckpointError> {
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
        return Err(malformed("trailing bytes in header"));
    }

    let mut i = Dec::new(section(&mut dec, SEC_INCUMBENT)?);
    let incumbent = match i.u8()? {
        0 => None,
        1 => {
            let n = i.len(8)?;
            if n != num_inputs {
                return Err(malformed("witness has wrong input width"));
            }
            let w = finite_f64s(&mut i, n, "non-finite incumbent")?;
            let v = i.f64()?;
            if !v.is_finite() {
                return Err(malformed("non-finite incumbent"));
            }
            Some((w, v))
        }
        _ => return Err(malformed("bad incumbent flag")),
    };
    if !i.done() {
        return Err(malformed("trailing bytes in incumbent"));
    }

    let mut p = Dec::new(section(&mut dec, SEC_WARM_POOL)?);
    let pool_len = p.var_len(12)?;
    let mut pool: Vec<Option<Arc<WarmStart>>> = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        let m = p.var()?;
        let n_struct = p.var()?;
        let bl = p.var_len(1)?;
        let basis: Vec<u64> = (0..bl).map(|_| p.var()).collect::<Result<_, _>>()?;
        let status = p.bytes()?;
        let fl = p.var_len(1)?;
        let factor: Vec<u64> = (0..fl).map(|_| p.var()).collect::<Result<_, _>>()?;
        if bl as u64 != m {
            return Err(malformed("warm basis length != m"));
        }
        if Some(status.len() as u64) != n_struct.checked_add(m) {
            return Err(malformed("warm status length != n_struct + m"));
        }
        // A description the LP layer rejects costs its nodes their warm
        // start (a cold solve), never the resume.
        let n_struct = status.len() - bl;
        pool.push(WarmStart::from_description(&basis, status, n_struct, bl, &factor).map(Arc::new));
    }
    if !p.done() {
        return Err(malformed("trailing bytes in warm pool"));
    }

    let mut fdec = Dec::new(section(&mut dec, SEC_FRONTIER)?);
    let n_nodes = fdec.var_len(22)?;
    let mut frontier = Vec::with_capacity(n_nodes);
    let mut seqs = HashSet::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let bound = fdec.f64()?;
        if !bound.is_finite() {
            return Err(malformed("non-finite node bound"));
        }
        let depth = usize::try_from(fdec.var()?).map_err(|_| malformed("node depth overflows"))?;
        let seq = fdec.var()?;
        if seq >= next_seq || !seqs.insert(seq) {
            return Err(malformed(
                "node sequence number repeats or is not below next_seq",
            ));
        }
        let retries = usize::from(fdec.u8()?);
        let lp_rule = match fdec.u8()? {
            0 => false,
            1 => true,
            _ => return Err(malformed("bad node rule flag")),
        };
        let codes = fdec.bytes()?;
        if codes.len() != total_relu {
            return Err(malformed("node phase vector has wrong length"));
        }
        let phases = codes
            .iter()
            .map(|&c| match c {
                0 => Ok(None),
                1 => Ok(Some(false)),
                2 => Ok(Some(true)),
                _ => Err(malformed("unknown phase code")),
            })
            .collect::<Result<_, _>>()?;
        let alpha = match fdec.u8()? {
            0 => None,
            1 => {
                let al = fdec.var_len(8)?;
                if al != total_relu {
                    return Err(malformed("alpha vector has wrong length"));
                }
                let a = finite_f64s(&mut fdec, al, "non-finite alpha")?;
                // Any α in [0,1] is sound; clamp rather than trust.
                Some(Arc::new(a.into_iter().map(|v| v.clamp(0.0, 1.0)).collect()))
            }
            _ => return Err(malformed("bad alpha flag")),
        };
        let warm = match fdec.var()?.checked_sub(1) {
            None => None,
            Some(w) => usize::try_from(w)
                .ok()
                .and_then(|w| pool.get(w))
                .ok_or(malformed("warm index out of range"))?
                .clone(),
        };
        frontier.push(Node {
            phases,
            bound,
            depth,
            seq,
            retries,
            warm,
            alpha,
            lp_rule,
        });
    }
    if !fdec.done() {
        return Err(malformed("trailing bytes in frontier"));
    }
    if !dec.done() {
        return Err(malformed("trailing bytes after sections"));
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
        frontier,
    })
}

// ---------------------------------------------------------------------------
// The search's checkpointing
// ---------------------------------------------------------------------------

/// One query's checkpointing inside a search: the file key and path, the
/// resume at open, the snapshot cadence with its single-writer gate, the
/// writes, and the end-of-search flush or delete. IO failures are reported
/// through obs and otherwise ignored: checkpointing must never affect the
/// solve.
pub(crate) struct Checkpointer {
    /// This query's checkpoint file (content-addressed name).
    path: PathBuf,
    /// Fingerprint of (weights, property, search-shape options, seed).
    query_hash: u64,
    /// Run seed recorded into every snapshot.
    seed: u64,
    /// Snapshot after this many newly processed nodes (≥ 1).
    every_nodes: usize,
    /// When this run opened the checkpoint, for the cumulative elapsed
    /// figure.
    run_start: Instant,
    /// Search wall time accumulated by previous runs of this query.
    prior_elapsed_nanos: u64,
    /// Processed-node count and instant of the last snapshot. Only read
    /// and written under the search's frontier lock.
    last: Mutex<(usize, Instant)>,
    /// Single-writer gate: at most one worker serializes at a time;
    /// others skip their cadence check instead of queueing.
    writing: AtomicBool,
    /// How long the latest snapshot took to encode and write, ns.
    last_write_nanos: AtomicU64,
}

impl Checkpointer {
    /// Opens checkpointing for one query under `policy` and picks where
    /// the search starts. The file key folds the run seed and every
    /// tree-shaping option into the query fingerprint, so a snapshot only
    /// ever meets a search that would walk the identical tree. When the
    /// policy resumes, a vetted snapshot of this query replaces `fresh`;
    /// a file that cannot be trusted (corruption, torn write, wrong
    /// query, structural lie) yields `fresh` tagged
    /// [`Degradation::CheckpointFallback`]; no file yields `fresh` as is.
    pub(crate) fn open(
        policy: &CheckpointPolicy,
        net: &Network,
        spec: &InputSpec,
        objective: &LinearObjective,
        opts: &BabOptions,
        fresh: Snapshot,
    ) -> (Self, Snapshot) {
        let query_hash = {
            let mut h = Fnv1a::new();
            h.write_u64(query_fingerprint(net, spec, objective));
            h.write_u64(policy.seed);
            h.write_f64(opts.abs_gap);
            h.write_u64(opts.milp_threshold as u64);
            h.write_u64(opts.alpha_iters as u64);
            h.write(&[u8::from(opts.warm_start), u8::from(opts.lp_skip)]);
            h.write_f64(opts.target_objective.unwrap_or(f64::NAN));
            h.write_f64(opts.bound_cutoff.unwrap_or(f64::NAN));
            h.finish()
        };
        let path = policy.file_for(query_hash);
        let start = if policy.resume {
            Self::resume(&path, query_hash, net, fresh)
        } else {
            fresh
        };
        let ckpt = Self {
            path,
            query_hash,
            seed: policy.seed,
            every_nodes: policy.every_nodes.max(1),
            run_start: Instant::now(),
            prior_elapsed_nanos: start.elapsed_nanos,
            last: Mutex::new((start.nodes_done as usize, Instant::now())),
            writing: AtomicBool::new(false),
            last_write_nanos: AtomicU64::new(0),
        };
        (ckpt, start)
    }

    /// Reads and fully vets this query's snapshot. Never panics and never
    /// surfaces an error to the solve: every failure mode is a fresh start.
    fn resume(path: &Path, query_hash: u64, net: &Network, fresh: Snapshot) -> Snapshot {
        let read = match fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return fresh,
            Err(e) => Err(CheckpointError::Io(e.kind(), path.display().to_string())),
            Ok(bytes) => decode_snapshot(&bytes, net.num_relu_neurons(), net.inputs()),
        }
        .and_then(|snap| {
            if snap.query_hash == query_hash {
                Ok(snap)
            } else {
                Err(CheckpointError::QueryMismatch {
                    expected: query_hash,
                    found: snap.query_hash,
                })
            }
        });
        match read {
            Ok(snap) => {
                ckpt_metrics().resume_ok.inc();
                certnn_obs::event(
                    "ckpt.resumed",
                    vec![
                        ("nodes_done", snap.nodes_done.into()),
                        ("frontier", snap.frontier.len().into()),
                        ("path", path.display().to_string().into()),
                    ],
                );
                snap
            }
            Err(e) => {
                ckpt_metrics().corrupt_fallbacks.inc();
                certnn_obs::event(
                    "ckpt.resume_rejected",
                    vec![
                        ("error", e.to_string().into()),
                        ("path", path.display().to_string().into()),
                    ],
                );
                Snapshot {
                    degradation: Degradation::CheckpointFallback,
                    ..fresh
                }
            }
        }
    }

    /// Called under the frontier lock after a completed node, with the
    /// processed-node count: whether a snapshot is due. The node cadence
    /// waits until the search has run at least as long since the last
    /// snapshot as that snapshot took to write, so writing costs at most
    /// half the wall time however small `every_nodes` is. A `true` claims
    /// the single-writer gate, which [`Checkpointer::write`] releases;
    /// while another worker holds it the answer is `false`.
    pub(crate) fn due(&self, nodes: usize) -> bool {
        let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
        let since = last.1.elapsed();
        let last_write = Duration::from_nanos(self.last_write_nanos.load(Ordering::Relaxed));
        let due_nodes = nodes.saturating_sub(last.0) >= self.every_nodes && since >= 2 * last_write;
        if !due_nodes && since < DEFAULT_EVERY {
            return false;
        }
        if self
            .writing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        *last = (nodes, Instant::now());
        true
    }

    /// Stamps `snap` with this query's key, seed and cumulative elapsed
    /// time, encodes it and writes it atomically ([`write_atomic`]): a
    /// crash at any point leaves the previous complete snapshot or none.
    /// Meters the outcome and always releases the single-writer gate.
    pub(crate) fn write(&self, mut snap: Snapshot) {
        let t0 = Instant::now();
        snap.query_hash = self.query_hash;
        snap.seed = self.seed;
        snap.elapsed_nanos = self.prior_elapsed_nanos + self.run_start.elapsed().as_nanos() as u64;
        let bytes = encode_snapshot(&snap);
        match write_atomic(&self.path, &bytes) {
            Ok(()) => {
                let m = ckpt_metrics();
                m.written.inc();
                m.bytes.add(bytes.len() as u64);
                m.snapshot_nanos.record_duration(t0.elapsed());
            }
            Err(e) => {
                let e = CheckpointError::Io(e.kind(), self.path.display().to_string());
                certnn_obs::event("ckpt.write_failed", vec![("error", e.to_string().into())]);
            }
        }
        let took = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.last_write_nanos.store(took, Ordering::Relaxed);
        self.writing.store(false, Ordering::Release);
    }

    /// Ends the query's checkpointing. Anytime semantics: a search that
    /// stopped early (time or node limit, aborted pool) writes a final
    /// snapshot so the caller holds a resumable handle; a finished answer
    /// (optimal, cutoff, target, infeasible) deletes the file — a
    /// completed query must not leave a stale resume behind.
    pub(crate) fn finish(&self, status: MilpStatus, snap: impl FnOnce() -> Snapshot) {
        if matches!(
            status,
            MilpStatus::TimeLimit | MilpStatus::NodeLimit | MilpStatus::Aborted
        ) {
            self.write(snap());
            return;
        }
        match fs::remove_file(&self.path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                certnn_obs::event(
                    "ckpt.remove_failed",
                    vec![
                        ("path", self.path.display().to_string().into()),
                        ("kind", format!("{:?}", e.kind()).into()),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Interval;
    use proptest::prelude::*;

    /// ReLU count and input width of the sample snapshot's query.
    const RELU: usize = 4;
    const INPUTS: usize = 3;

    /// Phases from their file codes: `0` open, `1` inactive, `2` active.
    fn phases(codes: &[u8]) -> Vec<Option<bool>> {
        codes.iter().map(|&c| (c > 0).then_some(c == 2)).collect()
    }

    fn sample_snapshot() -> Snapshot {
        // Two rows, three structurals: the LU was computed for columns
        // [3, 4], then one eta brought column 0 in at row 0.
        let warm =
            WarmStart::from_description(&[0, 4], &[0, 1, 2, 1, 0], 3, 2, &[3, 4, 0, 0]).unwrap();
        Snapshot {
            query_hash: 0xdead_beef_cafe_f00d,
            seed: 7,
            nodes_done: 42,
            next_seq: 99,
            elapsed_nanos: 1_234_567,
            dropped_bound: f64::NEG_INFINITY,
            degradation: Degradation::TimedOut,
            incumbent: Some((vec![0.25, -1.0, 0.5], 1.75)),
            frontier: vec![
                Node {
                    phases: phases(&[0, 1, 2, 0]),
                    bound: 3.5,
                    depth: 2,
                    seq: 11,
                    retries: 0,
                    warm: Some(Arc::new(warm)),
                    alpha: Some(Arc::new(vec![0.0, 0.5, 1.0, 0.25])),
                    lp_rule: false,
                },
                Node {
                    phases: phases(&[2, 2, 1, 0]),
                    bound: 1.25,
                    depth: 5,
                    seq: 17,
                    retries: 1,
                    warm: None,
                    alpha: None,
                    lp_rule: true,
                },
            ],
        }
    }

    fn decode(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
        decode_snapshot(bytes, RELU, INPUTS)
    }

    fn is_malformed(r: &Result<Snapshot, CheckpointError>) -> bool {
        matches!(r, Err(CheckpointError::Codec(CodecError::Malformed(_))))
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

    /// `encode_snapshot(&sample_snapshot())` in the current format 4,
    /// captured while the file still had its own node and warm-start
    /// types: the codec must keep writing exactly these bytes.
    const V4_FIXTURE: &str = concat!(
        "434e434b040000000131000000000000000df0fecaefbeadde07000000000000",
        "002a00000000000000630000000000000087d6120000000000000000000000f0",
        "ff049af0e68fabaecd4702290000000000000001030000000000000000000000",
        "0000d03f000000000000f0bf000000000000e03f000000000000fc3f4bdc7ff1",
        "9a75c16703180000000000000001020302000405000000000000000001020100",
        "040304000007829d6a2e95f570045600000000000000020000000000000c4002",
        "0b000004000000000000000001020001040000000000000000000000000000e0",
        "3f000000000000f03f000000000000d03f01000000000000f43f051101010400",
        "0000000000000202010000004e5af0b3c1d3cbdeb70dc84c57b14f3f",
    );

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn v1_fixture_is_rejected_as_unsupported_version() {
        assert!(matches!(
            decode(&from_hex(V1_FIXTURE)),
            Err(CheckpointError::Codec(CodecError::UnsupportedVersion(1)))
        ));
    }

    #[test]
    fn v2_fixture_is_rejected_as_unsupported_version() {
        assert!(matches!(
            decode(&from_hex(V2_FIXTURE)),
            Err(CheckpointError::Codec(CodecError::UnsupportedVersion(2)))
        ));
    }

    #[test]
    fn v3_fixture_is_rejected_as_unsupported_version() {
        assert!(matches!(
            decode(&from_hex(V3_FIXTURE)),
            Err(CheckpointError::Codec(CodecError::UnsupportedVersion(3)))
        ));
    }

    #[test]
    fn v4_fixture_is_written_and_read_back_exactly() {
        let bytes = from_hex(V4_FIXTURE);
        assert_eq!(encode_snapshot(&sample_snapshot()), bytes);
        let back = decode(&bytes).unwrap();
        assert_eq!(encode_snapshot(&back), bytes);
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode(&bytes).unwrap();
        assert_eq!(encode_snapshot(&back), bytes);
        assert_eq!(
            (back.query_hash, back.seed, back.nodes_done, back.next_seq),
            (snap.query_hash, snap.seed, snap.nodes_done, snap.next_seq)
        );
        assert_eq!(back.elapsed_nanos, snap.elapsed_nanos);
        assert_eq!(back.dropped_bound.to_bits(), snap.dropped_bound.to_bits());
        assert_eq!(back.degradation, snap.degradation);
        assert_eq!(back.incumbent, snap.incumbent);
        // `Node` equality is the heap order, so compare field by field.
        assert_eq!(back.frontier.len(), snap.frontier.len());
        let describe = |n: &Node| {
            n.warm
                .as_deref()
                .map(|w| (w.describe(), w.describe_factor()))
        };
        for (a, b) in back.frontier.iter().zip(&snap.frontier) {
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
            assert_eq!(
                (a.depth, a.seq, a.retries, a.lp_rule),
                (b.depth, b.seq, b.retries, b.lp_rule)
            );
            assert_eq!(a.phases, b.phases);
            assert_eq!(a.alpha, b.alpha);
            assert_eq!(describe(a), describe(b));
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&sample_snapshot());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
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
                decode(&corrupt).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    /// Re-seals `bytes` after `edit` changed the payload of section `tag`,
    /// so the lie passes every checksum and only decoding can catch it.
    fn reseal(bytes: &[u8], tag: u8, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut dec = Dec::new(unseal(MAGIC, FORMAT_VERSION, bytes).unwrap());
        let mut edit = Some(edit);
        let mut out = Enc::new();
        for t in [SEC_HEADER, SEC_INCUMBENT, SEC_WARM_POOL, SEC_FRONTIER] {
            let mut payload = section(&mut dec, t).unwrap().to_vec();
            if t == tag {
                (edit.take().unwrap())(&mut payload);
            }
            encode_section(&mut out, t, &Enc(payload));
        }
        seal(MAGIC, FORMAT_VERSION, &out.0)
    }

    #[test]
    fn decode_rejects_structural_lies() {
        let bytes = encode_snapshot(&sample_snapshot());
        assert!(decode(&bytes).is_ok());
        // Another query's ReLU count or input width.
        assert!(is_malformed(&decode_snapshot(&bytes, RELU + 1, INPUTS)));
        assert!(is_malformed(&decode_snapshot(&bytes, RELU, INPUTS - 1)));
        // A warm index past the pool: the last node's reference is the
        // frontier's last byte.
        let far = reseal(&bytes, SEC_FRONTIER, |p| *p.last_mut().unwrap() = 4);
        assert!(is_malformed(&decode(&far)));
        // An unknown phase code: the first node's codes follow the node
        // count, its bound, depth, sequence number, retries, rule flag and
        // the codes' length, 21 bytes in all.
        let code = reseal(&bytes, SEC_FRONTIER, |p| p[21] = 3);
        assert!(is_malformed(&decode(&code)));
        // A pool entry claiming more rows than its basis has: `m` follows
        // the pool count.
        let rows = reseal(&bytes, SEC_WARM_POOL, |p| p[1] = 3);
        assert!(is_malformed(&decode(&rows)));
        // Lies the encoder writes as readily as the truth.
        let lies: [fn(&mut Snapshot); 4] = [
            |s| s.frontier[0].bound = f64::NAN,
            |s| s.frontier[0].alpha = Some(Arc::new(vec![0.5; RELU - 1])),
            |s| s.frontier[0].alpha = Some(Arc::new(vec![f64::NAN; RELU])),
            |s| s.incumbent = Some((vec![f64::INFINITY; INPUTS], 1.0)),
        ];
        for lie in lies {
            let mut bad = sample_snapshot();
            lie(&mut bad);
            assert!(is_malformed(&decode(&encode_snapshot(&bad))));
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("certnn_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Opens checkpointing under `dir`, resuming, for a query of the
    /// sample snapshot's shape, starting from an empty fresh state.
    fn open(dir: &Path) -> (Checkpointer, Snapshot) {
        let net = Network::relu_mlp(INPUTS, &[RELU], 1, 1).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); INPUTS]).unwrap();
        let policy = CheckpointPolicy {
            resume: true,
            ..CheckpointPolicy::new(dir)
        };
        let obj = LinearObjective::output(0);
        Checkpointer::open(
            &policy,
            &net,
            &spec,
            &obj,
            &BabOptions::default(),
            Snapshot::default(),
        )
    }

    #[test]
    fn decode_rejects_lying_sequence_numbers() {
        // A repeated number, or one the resumed search would assign again,
        // breaks the total heap order that exact replay relies on.
        let mut repeated = sample_snapshot();
        repeated.frontier[1].seq = repeated.frontier[0].seq;
        let mut reissued = sample_snapshot();
        reissued.frontier[1].seq = reissued.next_seq;
        let dir = scratch_dir("seq");
        for bad in [repeated, reissued] {
            assert!(is_malformed(&decode(&encode_snapshot(&bad))));
            // Such a file costs the resume, not the answer: the query
            // starts fresh, tagged.
            let (c, _) = open(&dir);
            c.write(bad);
            let (_, start) = open(&dir);
            assert!(start.frontier.is_empty());
            assert_eq!(start.degradation, Degradation::CheckpointFallback);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointer_resumes_its_own_flush_and_deletes_a_finished_query() {
        let dir = scratch_dir("rt");
        let files = || fs::read_dir(&dir).unwrap().count();
        // No file: the fresh start comes back as it was.
        let (c, start) = open(&dir);
        assert!(start.frontier.is_empty());
        assert_eq!(start.degradation, Degradation::Exact);
        // A search stopped by a limit flushes; the next leg resumes from
        // exactly that state under this query's key.
        c.finish(MilpStatus::NodeLimit, sample_snapshot);
        assert_eq!(files(), 1);
        let (c, start) = open(&dir);
        assert_eq!(start.query_hash, c.query_hash);
        let expected = Snapshot {
            query_hash: c.query_hash,
            seed: 0,
            elapsed_nanos: start.elapsed_nanos,
            ..sample_snapshot()
        };
        assert_eq!(encode_snapshot(&start), encode_snapshot(&expected));
        // A later write replaces the file in place.
        c.write(Snapshot {
            nodes_done: 43,
            ..sample_snapshot()
        });
        assert_eq!(files(), 1);
        let (c, start) = open(&dir);
        assert_eq!(start.nodes_done, 43);
        // A finished answer deletes the file; a missing file is no error.
        c.finish(MilpStatus::Optimal, Snapshot::default);
        assert_eq!(files(), 0);
        c.finish(MilpStatus::Infeasible, Snapshot::default);
        // A file that fails its checks starts fresh, tagged.
        fs::write(&c.path, b"not a checkpoint").unwrap();
        let (_, start) = open(&dir);
        assert!(start.frontier.is_empty());
        assert_eq!(start.degradation, Degradation::CheckpointFallback);
        let _ = fs::remove_dir_all(&dir);
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

    /// A snapshot with its query's ReLU count and input width.
    fn arb_snapshot() -> impl Strategy<Value = (Snapshot, usize, usize)> {
        (0usize..12, 0usize..6).prop_flat_map(|(relu, inputs)| {
            let node = (
                -1.0e6..1.0e6f64,
                0usize..64,
                0u64..1000,
                prop::collection::vec(0u8..3, relu),
                prop::collection::vec(0.0..1.0f64, relu),
                any::<bool>(),
                0usize..3,
            );
            (
                any::<u64>(),
                any::<u64>(),
                0u64..100_000,
                prop::collection::vec(-10.0..10.0f64, inputs),
                prop::collection::vec(node, 0..8),
                any::<bool>(),
            )
                .prop_map(
                    move |(query_hash, seed, nodes_done, witness, nodes, has_inc)| {
                        // Two distinct warm starts, one with a factorization
                        // history; nodes share them as siblings do.
                        let pool = [
                            WarmStart::from_description(
                                &[1, 3],
                                &[1, 0, 2, 0],
                                2,
                                2,
                                &[2, 3, 0, 1],
                            ),
                            WarmStart::from_description(&[1, 3], &[1, 0, 2, 0], 2, 2, &[]),
                        ]
                        .map(|w| Arc::new(w.unwrap()));
                        let frontier = nodes
                            .into_iter()
                            .enumerate()
                            .map(
                                |(i, (bound, depth, seq, codes, alpha, has_alpha, warm))| Node {
                                    phases: phases(&codes),
                                    bound,
                                    depth,
                                    // Distinct, and below `next_seq`.
                                    seq: seq * 8 + i as u64,
                                    retries: (seq % 3) as usize,
                                    warm: pool.get(warm).cloned(),
                                    alpha: has_alpha.then(|| Arc::new(alpha)),
                                    lp_rule: seq % 2 == 1,
                                },
                            )
                            .collect();
                        let snap = Snapshot {
                            query_hash,
                            seed,
                            nodes_done,
                            next_seq: 8_000 + nodes_done,
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
                            frontier,
                        };
                        (snap, relu, inputs)
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn proptest_codec_round_trips_bit_identically((snap, relu, inputs) in arb_snapshot()) {
            let bytes = encode_snapshot(&snap);
            let back = decode_snapshot(&bytes, relu, inputs).expect("valid snapshot must decode");
            prop_assert_eq!(back.frontier.len(), snap.frontier.len());
            prop_assert_eq!(encode_snapshot(&back), bytes);
        }

        #[test]
        fn proptest_single_byte_corruption_is_detected(
            (snap, relu, inputs) in arb_snapshot(),
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let mut bytes = encode_snapshot(&snap);
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= flip;
            prop_assert!(
                decode_snapshot(&bytes, relu, inputs).is_err(),
                "corrupting byte {} with xor {:#x} must be detected", pos, flip
            );
        }
    }
}
