//! Content-addressed certificate cache and crash-safe job spool.
//!
//! Every file here is a [`certnn_verify::sealed`] file — magic + version
//! header, FNV-1a trailer over the body — published with
//! [`write_atomic`], so a crash at any moment leaves either a previous
//! complete file or no file — never a torn one under the real name.
//!
//! **Cache** (`cache/c<key>.cert`): a finished [`JobOutcome`] under its
//! job key, sealed together with the *full request* that produced it.
//! The 64-bit FNV job key only names the file; before an entry is
//! served, its embedded request is compared byte-for-byte against the
//! submitted one, so a key collision (FNV-1a is not collision
//! resistant) can never exchange one query's certificate for another's.
//! Serving a cached certificate replays the exact bytes a fresh solve
//! produced — the verdict, bound, witness and statistics are
//! bit-identical. A corrupt or truncated entry is *detected* (checksum),
//! deleted, and answered by a fresh solve tagged with the degradation
//! ladder — the cache can lose work, never correctness.
//!
//! **Spool** (`jobs/j<key>.job`): the [`JobRequest`] of every accepted,
//! unfinished job. Written before the job is queued, removed after its
//! certificate is cached; a daemon restarted over the same directory
//! re-queues every spooled job and resumes its branch-and-bound from the
//! query's checkpoint.

use crate::flight::{decode_flight, encode_flight, FlightLog};
use crate::protocol::{decode_outcome, decode_request, encode_outcome, encode_request, JobOutcome, JobRequest};
use crate::wire::ProtocolError;
use certnn_verify::sealed::{seal, unseal, write_atomic, Dec, Enc};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic of a certificate cache entry.
const CERT_MAGIC: [u8; 4] = *b"CNCE";
/// Magic of a spooled job.
const JOB_MAGIC: [u8; 4] = *b"CNJB";
/// Magic of a persisted flight log.
const FLIGHT_MAGIC: [u8; 4] = *b"CNFL";
/// On-disk format version of both stores. Version 2 embeds the full
/// request in every certificate entry so a served certificate is
/// provably for the submitted query, not merely for a colliding key.
const STORE_VERSION: u32 = 2;

/// Why a load returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No entry exists under the key.
    Absent,
    /// An entry exists but is corrupt or truncated; it has been deleted.
    Corrupt,
}

/// Canonical encoding of a request, used both inside certificate
/// entries and for the byte-exact comparison that guards against job
/// key collisions (bit-pattern floats make it NaN-proof where a
/// `PartialEq` comparison would not be).
fn request_bytes(req: &JobRequest) -> Vec<u8> {
    let mut e = Enc::new();
    encode_request(&mut e, req);
    e.0
}

/// Encodes a sealed certificate entry: the request it answers followed
/// by the outcome (exposed for the fault-injection tests, which
/// truncate and corrupt these bytes directly).
pub fn encode_entry(outcome: &JobOutcome, req: &JobRequest) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&request_bytes(req));
    encode_outcome(&mut e, outcome);
    seal(CERT_MAGIC, STORE_VERSION, &e.0)
}

/// Decodes a sealed certificate entry into the request it answers and
/// the stored outcome.
///
/// # Errors
///
/// [`ProtocolError`] on any structural or checksum violation.
pub fn decode_entry(bytes: &[u8]) -> Result<(JobRequest, JobOutcome), ProtocolError> {
    let body = unseal(CERT_MAGIC, STORE_VERSION, bytes)?;
    let mut d = Dec::new(body);
    let req_bytes = d.bytes()?.to_vec();
    let outcome = decode_outcome(&mut d)?;
    d.finish()?;
    let mut rd = Dec::new(&req_bytes);
    let req = decode_request(&mut rd)?;
    rd.finish()?;
    Ok((req, outcome))
}

/// The daemon's on-disk state: certificate cache + job spool under one
/// root directory.
#[derive(Debug)]
pub struct Store {
    cache_dir: PathBuf,
    jobs_dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store under `root`.
    ///
    /// # Errors
    ///
    /// I/O error when the directories cannot be created.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        let cache_dir = root.join("cache");
        let jobs_dir = root.join("jobs");
        fs::create_dir_all(&cache_dir)?;
        fs::create_dir_all(&jobs_dir)?;
        Ok(Self { cache_dir, jobs_dir })
    }

    /// Path of the certificate for `key`.
    pub fn cert_path(&self, key: u64) -> PathBuf {
        self.cache_dir.join(format!("c{key:016x}.cert"))
    }

    /// Path of the spooled job for `key`.
    pub fn job_path(&self, key: u64) -> PathBuf {
        self.jobs_dir.join(format!("j{key:016x}.job"))
    }

    /// Publishes a finished certificate atomically, sealed with the
    /// request it answers.
    ///
    /// # Errors
    ///
    /// I/O error from the filesystem.
    pub fn put_cert(&self, outcome: &JobOutcome, req: &JobRequest) -> std::io::Result<()> {
        write_atomic(&self.cert_path(outcome.key), &encode_entry(outcome, req))
    }

    /// Loads the certificate for `key`, fully verifying its checksum
    /// *and* that the stored entry answers exactly `req` (byte-for-byte
    /// on the canonical request encoding — the 64-bit key alone is not
    /// collision resistant). A corrupt or truncated entry is deleted and
    /// reported as [`Miss::Corrupt`]; a structurally valid entry for a
    /// *different* query under a colliding key is left on disk and
    /// reported as [`Miss::Absent`] — either way the caller schedules a
    /// fresh solve, never serves a foreign certificate.
    pub fn get_cert(&self, key: u64, req: &JobRequest) -> Result<JobOutcome, Miss> {
        let path = self.cert_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return Err(Miss::Absent),
        };
        match decode_entry(&bytes) {
            Ok((stored_req, outcome)) if outcome.key == key => {
                if request_bytes(&stored_req) == request_bytes(req) {
                    Ok(outcome)
                } else {
                    Err(Miss::Absent)
                }
            }
            _ => {
                let _ = fs::remove_file(&path);
                Err(Miss::Corrupt)
            }
        }
    }

    /// Path of the persisted flight log for `key`.
    pub fn flight_path(&self, key: u64) -> PathBuf {
        self.cache_dir.join(format!("f{key:016x}.flight"))
    }

    /// Persists a job's flight log atomically next to its certificate,
    /// so the audit trail of how a cached verdict was produced survives
    /// daemon restarts.
    ///
    /// # Errors
    ///
    /// I/O error from the filesystem.
    pub fn put_flight(&self, log: &FlightLog) -> std::io::Result<()> {
        let mut e = Enc::new();
        encode_flight(&mut e, log);
        write_atomic(&self.flight_path(log.key), &seal(FLIGHT_MAGIC, STORE_VERSION, &e.0))
    }

    /// Loads the persisted flight log for `key`. `None` when absent; a
    /// corrupt or truncated log is deleted and reported as absent —
    /// flight logs are audit telemetry, losing one never blocks serving
    /// the (independently checksummed) certificate.
    pub fn get_flight(&self, key: u64) -> Option<FlightLog> {
        let path = self.flight_path(key);
        let bytes = fs::read(&path).ok()?;
        let decoded = unseal(FLIGHT_MAGIC, STORE_VERSION, &bytes).ok().and_then(|body| {
            let mut d = Dec::new(body);
            let log = decode_flight(&mut d).ok()?;
            d.finish().ok()?;
            Some(log)
        });
        if decoded.is_none() {
            let _ = fs::remove_file(&path);
        }
        decoded
    }

    /// Spools an accepted job so a restarted daemon can resume it.
    ///
    /// # Errors
    ///
    /// I/O error from the filesystem.
    pub fn put_job(&self, key: u64, req: &JobRequest) -> std::io::Result<()> {
        let mut e = Enc::new();
        encode_request(&mut e, req);
        write_atomic(&self.job_path(key), &seal(JOB_MAGIC, STORE_VERSION, &e.0))
    }

    /// Removes a finished job's spool entry (missing is fine).
    pub fn remove_job(&self, key: u64) {
        let _ = fs::remove_file(self.job_path(key));
    }

    /// Loads every valid spooled job, deleting corrupt ones. Returns
    /// `(key, request)` pairs sorted by key for deterministic re-queue
    /// order, plus the number of corrupt entries dropped.
    pub fn load_jobs(&self) -> (Vec<(u64, JobRequest)>, usize) {
        let mut jobs = Vec::new();
        let mut dropped = 0usize;
        let Ok(entries) = fs::read_dir(&self.jobs_dir) else {
            return (jobs, dropped);
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_prefix('j').and_then(|n| n.strip_suffix(".job")) else {
                // Stale temp files from a crashed publication are garbage
                // by construction; sweep them.
                if name.ends_with(".tmp") {
                    let _ = fs::remove_file(&path);
                }
                continue;
            };
            let Ok(key) = u64::from_str_radix(hex, 16) else { continue };
            let decoded = fs::read(&path).ok().and_then(|bytes| {
                let body = unseal(JOB_MAGIC, STORE_VERSION, &bytes).ok()?;
                let mut d = Dec::new(body);
                let req = decode_request(&mut d).ok()?;
                d.finish().ok()?;
                Some(req)
            });
            match decoded {
                Some(req) => jobs.push((key, req)),
                None => {
                    dropped += 1;
                    let _ = fs::remove_file(&path);
                }
            }
        }
        jobs.sort_by_key(|&(key, _)| key);
        (jobs, dropped)
    }

    /// `true` if any in-progress temp file exists under the store (used
    /// by the robustness suite to prove no publication ever leaks one).
    pub fn has_temp_files(&self) -> bool {
        for dir in [&self.cache_dir, &self.jobs_dir] {
            if let Ok(entries) = fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if entry.path().extension().is_some_and(|e| e == "tmp") {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_verify::verifier::VerifyStats;
    use certnn_verify::{Degradation, MilpStatus};
    use std::time::Duration;

    fn outcome(key: u64) -> JobOutcome {
        JobOutcome {
            key,
            status: MilpStatus::Optimal,
            upper_bound: 2.25,
            best_value: Some(2.25),
            witness: Some(vec![0.5, -0.5]),
            stats: VerifyStats {
                nodes: 10,
                elapsed: Duration::from_nanos(42),
                ..VerifyStats::default()
            },
            degradation: Degradation::Exact,
            cache_hit: false,
        }
    }

    fn request() -> JobRequest {
        JobRequest {
            network_text: "not parsed here".into(),
            bounds: vec![(-1.0, 1.0)],
            constraints: vec![],
            objective_terms: vec![(0, 1.0)],
            objective_constant: 0.0,
            time_limit_ms: 0,
            node_limit: 0,
            threads: 1,
            warm_start: true,
            alpha_iters: 1,
            lp_skip: true,
        }
    }

    fn temp_store(tag: &str) -> (PathBuf, Store) {
        let root = std::env::temp_dir().join(format!(
            "certnn-serve-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        let store = Store::open(&root).expect("store opens");
        (root, store)
    }

    /// Length and FNV-1a of an encoding: pins its bytes without a
    /// dependency on the codec under test.
    fn pin(bytes: &[u8]) -> (usize, u64) {
        let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (bytes.len(), h)
    }

    #[test]
    fn store_file_bytes_are_pinned() {
        // Certificates and spool entries written by earlier daemons must
        // stay readable: the sealed layout and both bodies are frozen.
        assert_eq!(pin(&encode_entry(&outcome(0xabcd), &request())), (278, 8284256462879516499));
        let (root, store) = temp_store("pin");
        store.put_job(7, &request()).expect("job spools");
        let spooled = fs::read(store.job_path(7)).expect("spool entry reads");
        assert_eq!(pin(&spooled), (137, 7723431086192077917));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn cert_round_trips_bit_identically() {
        let (root, store) = temp_store("rt");
        let req = request();
        let o = outcome(0xabcd);
        store.put_cert(&o, &req).expect("cert writes");
        let back = store.get_cert(0xabcd, &req).expect("cert loads");
        assert_eq!(back, o);
        assert_eq!(back.upper_bound.to_bits(), o.upper_bound.to_bits());
        assert_eq!(store.get_cert(0x9999, &req), Err(Miss::Absent));
        assert!(!store.has_temp_files());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn every_truncation_prefix_is_detected_and_deleted() {
        let (root, store) = temp_store("trunc");
        let req = request();
        let o = outcome(0x1111);
        let full = encode_entry(&o, &req);
        for cut in 0..full.len() {
            fs::write(store.cert_path(o.key), &full[..cut]).expect("writes");
            assert_eq!(
                store.get_cert(o.key, &req),
                Err(Miss::Corrupt),
                "truncation to {cut}/{} bytes must be detected",
                full.len()
            );
            assert!(
                !store.cert_path(o.key).exists(),
                "corrupt entry must be deleted"
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (root, store) = temp_store("flip");
        let req = request();
        let o = outcome(0x2222);
        let full = encode_entry(&o, &req);
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x01;
            fs::write(store.cert_path(o.key), &bad).expect("writes");
            // Either detected as corrupt, or (if the flip lands in a
            // benign spot like the cache_hit flag) it must still decode
            // to a *checksummed* body — but FNV over the body makes any
            // body flip fail, and header flips fail magic/version, so
            // every flip is a miss.
            assert_eq!(
                store.get_cert(o.key, &req),
                Err(Miss::Corrupt),
                "flip at byte {i} must be detected"
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn key_mismatch_inside_valid_entry_is_corrupt() {
        let (root, store) = temp_store("keymix");
        let req = request();
        let o = outcome(0x3333);
        // A valid entry filed under the wrong name must not be served.
        fs::write(store.cert_path(0x4444), encode_entry(&o, &req)).expect("writes");
        assert_eq!(store.get_cert(0x4444, &req), Err(Miss::Corrupt));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn colliding_key_with_different_request_is_never_served() {
        // Simulates an FNV job-key collision: a structurally valid entry
        // whose embedded key matches the filename but whose request is a
        // *different* query. It must answer Absent (fresh solve), not
        // serve the foreign certificate, and not be destroyed — it is a
        // valid entry for its own query.
        let (root, store) = temp_store("collide");
        let req_a = request();
        let mut req_b = request();
        req_b.objective_constant = 42.0;
        let o = outcome(0x5555);
        store.put_cert(&o, &req_a).expect("cert writes");
        assert_eq!(store.get_cert(0x5555, &req_b), Err(Miss::Absent));
        assert!(store.cert_path(0x5555).exists(), "colliding entry survives");
        // The rightful owner still gets its certificate.
        assert_eq!(store.get_cert(0x5555, &req_a), Ok(o));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn spool_round_trip_and_corrupt_drop() {
        let (root, store) = temp_store("spool");
        let req = request();
        store.put_job(7, &req).expect("job spools");
        store.put_job(3, &req).expect("job spools");
        fs::write(store.job_path(9), b"garbage").expect("writes");
        let (jobs, dropped) = store.load_jobs();
        assert_eq!(dropped, 1);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].0, 3, "re-queue order is key-sorted");
        assert_eq!(jobs[1].1, req);
        store.remove_job(7);
        store.remove_job(7); // idempotent
        assert_eq!(store.load_jobs().0.len(), 1);
        let _ = fs::remove_dir_all(root);
    }
}
