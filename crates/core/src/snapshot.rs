//! Crash-safe run snapshots: the on-disk container for durable,
//! resumable long runs.
//!
//! A snapshot file is a single UTF-8 header line followed by an opaque
//! body (§5.0 of DESIGN.md):
//!
//! ```text
//! R2D3SNAP <version> <kind> <fnv1a64-of-body, 16 hex digits> <body-len>\n
//! <body bytes…>
//! ```
//!
//! * `version` — integer format version ([`SNAPSHOT_VERSION`]); readers
//!   accept the current version, migrate bodies one version back
//!   ([`OLDEST_MIGRATABLE_VERSION`]), and reject anything else with a
//!   typed error — they never guess.
//! * `kind` — what the body describes (`lifetime`, `campaign`,
//!   `shard`, `job`); resuming a lifetime run from a campaign snapshot
//!   is a typed error, not undefined behavior.
//! * digest/length — FNV-1a 64 over the exact body bytes plus the body
//!   byte count, so truncation and corruption are distinguishable.
//!
//! Writes are atomic: the file is assembled at `<path>.tmp`, fsynced,
//! then renamed over `<path>`, and the parent directory is fsynced so
//! the rename itself is durable. A crash mid-write leaves either the
//! previous snapshot or none — never a torn one. All I/O goes through
//! the [`crate::chaos::Vfs`] seam ([`write_atomic_with`] /
//! [`read_verified_with`]) so chaos tests can inject torn writes,
//! `ENOSPC` and crash points. Reads verify length then digest and return a typed
//! [`SnapshotError`] on any mismatch: **never a panic, never silent
//! reuse of corrupt state**.
//!
//! Bodies are JSON, read with [`r2d3_netlist::json`]; any failure to
//! decode one is [`SnapshotError::Malformed`]. Values that must
//! round-trip bit-exactly — `f64` accumulators, RNG state words,
//! digests — are serialized as hex strings of their bit patterns (see
//! [`f64_slice_to_json`]), which is what makes a resumed run
//! byte-identical to an uninterrupted one.

use crate::chaos::{RealFs, Vfs};
use r2d3_netlist::json::{hex_u64, FieldError, SyntaxError};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Current snapshot format version. Bump on any body-schema change.
///
/// History:
/// * **1** — initial container (kinds `lifetime`, `campaign`, `shard`).
/// * **2** — adds the `job` manifest kind for the serve daemon's durable
///   job store. The v1 kinds' body schemas are unchanged.
/// * **3** — the `lifetime` body drops `last_temps`, `history_hash` and
///   `warm_temps`, which nothing read, and keeps `warm_cells`. Its config
///   digest no longer covers `threads`, and `LifetimeConfig` lost
///   `alpha_theta` and `pro_runtime_temps`, so no v2 `lifetime` body can
///   match a v3 run: it is refused (see [`read_verified`]). The
///   `campaign`, `shard` and `job` bodies are unchanged and migrate as
///   they are.
/// * **4** — the `lifetime` body drops `warm_cells`: a run solves its
///   steady states exactly, from one response per run, so no replica
///   carries a thermal field. A v3 `lifetime` body is refused (see
///   [`read_verified`]): its config digest matches a v4 run, and resuming
///   it would follow SOR-solved months with exact ones. The `campaign`,
///   `shard` and `job` bodies are unchanged and migrate as they are.
/// * **5** — the `lifetime` body's schema is unchanged, but its forward
///   MTTF values are exact integrals of the survival function where a v4
///   body holds Monte-Carlo estimates of them, in `acc` and in the
///   in-flight replica's `series`. A v4 `lifetime` body is refused (see
///   [`read_verified`]): its config digest matches a v5 run, and resuming
///   it would follow sampled months with exact ones. The `campaign`,
///   `shard` and `job` bodies are unchanged and migrate as they are.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Oldest snapshot version [`read_verified`] can still migrate forward.
/// The window is exactly one version (N−1): anything older is refused
/// with [`SnapshotError::UnsupportedMigration`] instead of a guess.
pub const OLDEST_MIGRATABLE_VERSION: u32 = 4;

/// Magic token opening every snapshot header.
pub const SNAPSHOT_MAGIC: &str = "R2D3SNAP";

/// Largest snapshot file [`read_verified`] accepts, in bytes. `--resume`
/// and `campaign merge` take snapshot paths from the user, so a read is
/// refused past this size ([`SnapshotError::TooLarge`]) instead of
/// allocating whatever the file holds. A campaign snapshot of the
/// largest admitted sweep (65,536 scenarios per substrate) is far
/// smaller.
pub const MAX_SNAPSHOT_BYTES: u64 = 256 << 20;

/// Typed rejection reasons for snapshot files. Every failure mode of
/// loading is represented here; loading never panics and never returns
/// partially-parsed state.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem-level failure (open, read, write, rename, fsync).
    Io(std::io::Error),
    /// The file does not start with a well-formed `R2D3SNAP` header.
    NotASnapshot,
    /// Written by an incompatible format version.
    Version {
        /// Version in the file's header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The snapshot is of a different run type (e.g. a campaign
    /// snapshot offered to `lifetime --resume`).
    Kind {
        /// Kind in the file's header.
        found: String,
        /// Kind the caller required.
        expected: &'static str,
    },
    /// The body is shorter than the header promised (torn copy,
    /// interrupted download, truncated file).
    Truncated {
        /// Body bytes the header declared.
        expected: usize,
        /// Body bytes actually present.
        found: usize,
    },
    /// The body digest does not match the header (bit rot, manual
    /// edit).
    DigestMismatch {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the body as found.
        found: u64,
    },
    /// The file is larger than [`MAX_SNAPSHOT_BYTES`]; it was refused
    /// without being read whole.
    TooLarge {
        /// The size limit, in bytes.
        limit: u64,
    },
    /// The body passed integrity checks but does not parse as the
    /// expected run state.
    Malformed(String),
    /// The snapshot is internally valid but belongs to a different run
    /// configuration (seed, scenario count, grid…) than the one being
    /// resumed.
    ConfigMismatch(String),
    /// The snapshot predates the migration window: this build migrates
    /// bodies forward from [`OLDEST_MIGRATABLE_VERSION`] only, and a kind
    /// whose body cannot migrate from `found` starts its window at
    /// `oldest`.
    UnsupportedMigration {
        /// Version in the file's header.
        found: u32,
        /// Oldest version this build can still migrate.
        oldest: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::NotASnapshot => {
                write!(f, "not a snapshot file (missing {SNAPSHOT_MAGIC} header)")
            }
            SnapshotError::Version { found, expected } => {
                write!(f, "snapshot version {found} unsupported (this build reads {expected})")
            }
            SnapshotError::Kind { found, expected } => {
                write!(f, "snapshot is a \"{found}\" run, expected \"{expected}\"")
            }
            SnapshotError::Truncated { expected, found } => {
                write!(
                    f,
                    "snapshot truncated: header declares {expected} body bytes, {found} present"
                )
            }
            SnapshotError::DigestMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot digest mismatch: header says {expected:016x}, body hashes to {found:016x}"
                )
            }
            SnapshotError::TooLarge { limit } => {
                write!(f, "snapshot file is larger than the {limit}-byte limit")
            }
            SnapshotError::Malformed(msg) => write!(f, "snapshot body malformed: {msg}"),
            SnapshotError::ConfigMismatch(msg) => {
                write!(f, "snapshot belongs to a different run: {msg}")
            }
            SnapshotError::UnsupportedMigration { found, oldest } => {
                write!(
                    f,
                    "snapshot version {found} predates the migration window \
                     (this build migrates {oldest} and newer)"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SyntaxError> for SnapshotError {
    fn from(e: SyntaxError) -> Self {
        SnapshotError::Malformed(e.to_string())
    }
}

impl From<FieldError> for SnapshotError {
    fn from(e: FieldError) -> Self {
        SnapshotError::Malformed(e.to_string())
    }
}

/// FNV-1a 64 over raw bytes — the same digest family the checkpoint
/// slots use, applied to the snapshot body.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a slice of `f64`s as a JSON array of their bit patterns as
/// hex strings (read back with
/// [`Value::hexes`](r2d3_netlist::json::Value::hexes) and
/// `f64::from_bits`). Exact for every value including negative zero,
/// subnormals and infinities; NaN payloads round-trip too.
#[must_use]
pub fn f64_slice_to_json(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&hex_u64(v.to_bits()));
    }
    out.push(']');
    out
}

/// Atomically writes a snapshot through the real filesystem — see
/// [`write_atomic_with`].
pub fn write_atomic(path: &Path, kind: &str, body: &[u8]) -> Result<(), SnapshotError> {
    write_atomic_with(&RealFs, path, kind, body)
}

/// Atomically writes a snapshot through a [`Vfs`]: header + `body`
/// assembled at `<path>.tmp`, fsynced, renamed over `path`, and the
/// parent directory fsynced — *mandatory*, because a crash after the
/// rename but before the directory sync can lose the file entirely
/// (the entry was never durable). A crash at any point leaves the
/// previous snapshot (or nothing), never a torn one.
pub fn write_atomic_with(
    vfs: &dyn Vfs,
    path: &Path,
    kind: &str,
    body: &[u8],
) -> Result<(), SnapshotError> {
    let digest = fnv1a64(body);
    let header =
        format!("{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} {kind} {digest:016x} {}\n", body.len());

    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    let mut file = vfs.create(&tmp)?;
    file.write_all(header.as_bytes())?;
    file.write_all(body)?;
    file.sync_all()?;
    drop(file);
    vfs.rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        vfs.sync_dir(dir)?;
    }
    Ok(())
}

/// Migrates a verified body from `version` up to [`SNAPSHOT_VERSION`],
/// one step at a time. Each step is a total function of (kind, body):
/// it either produces a valid next-version body or a typed error.
fn migrate(version: u32, kind: &str, mut body: String) -> Result<String, SnapshotError> {
    let mut v = version;
    while v < SNAPSHOT_VERSION {
        body = match v {
            // v4 → v5: only what a `lifetime` body means changed. A v4
            // one carries the digest of a config a v5 run shares, but its
            // forward MTTFs were sampled and a v5 run's are exact, so a
            // resumed run would match neither. Refuse it here rather than
            // let it resume: a checkpoint that fails to load is discarded
            // and its unit restarted.
            4 => {
                if kind == "lifetime" {
                    return Err(SnapshotError::UnsupportedMigration {
                        found: version,
                        oldest: v + 1,
                    });
                }
                body
            }
            _ => unreachable!("no migration step registered for version {v}"),
        };
        v += 1;
    }
    Ok(body)
}

/// Reads and verifies a snapshot of the given `kind`, returning the body
/// as a string. Refuses a file over [`MAX_SNAPSHOT_BYTES`]
/// ([`SnapshotError::TooLarge`]) before reading it whole, then verifies,
/// in order: magic/header shape, version (newer
/// than this build → [`SnapshotError::Version`]; older than
/// [`OLDEST_MIGRATABLE_VERSION`] → [`SnapshotError::UnsupportedMigration`]),
/// kind, declared length (→ [`SnapshotError::Truncated`]), digest
/// (→ [`SnapshotError::DigestMismatch`]). Bodies from versions inside
/// the migration window are migrated forward after integrity checks.
pub fn read_verified(path: &Path, kind: &'static str) -> Result<String, SnapshotError> {
    read_verified_with(&RealFs, path, kind)
}

/// [`read_verified`] through a [`Vfs`] — the seam chaos tests inject
/// torn files and crash-rolled-back state through.
pub fn read_verified_with(
    vfs: &dyn Vfs,
    path: &Path,
    kind: &'static str,
) -> Result<String, SnapshotError> {
    let raw = vfs.read_at_most(path, MAX_SNAPSHOT_BYTES).map_err(|e| {
        if e.kind() == std::io::ErrorKind::FileTooLarge {
            SnapshotError::TooLarge { limit: MAX_SNAPSHOT_BYTES }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    let newline = raw.iter().position(|&b| b == b'\n').ok_or(SnapshotError::NotASnapshot)?;
    let header = std::str::from_utf8(&raw[..newline]).map_err(|_| SnapshotError::NotASnapshot)?;
    let mut parts = header.split(' ');
    let (magic, version, found_kind, digest, len) = match (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) {
        (Some(m), Some(v), Some(k), Some(d), Some(l), None) => (m, v, k, d, l),
        _ => return Err(SnapshotError::NotASnapshot),
    };
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::NotASnapshot);
    }
    let version: u32 = version.parse().map_err(|_| SnapshotError::NotASnapshot)?;
    if version > SNAPSHOT_VERSION {
        return Err(SnapshotError::Version { found: version, expected: SNAPSHOT_VERSION });
    }
    if version < OLDEST_MIGRATABLE_VERSION {
        return Err(SnapshotError::UnsupportedMigration {
            found: version,
            oldest: OLDEST_MIGRATABLE_VERSION,
        });
    }
    if found_kind != kind {
        return Err(SnapshotError::Kind { found: found_kind.to_string(), expected: kind });
    }
    let expected_digest =
        u64::from_str_radix(digest, 16).map_err(|_| SnapshotError::NotASnapshot)?;
    let expected_len: usize = len.parse().map_err(|_| SnapshotError::NotASnapshot)?;

    let body = &raw[newline + 1..];
    if body.len() != expected_len {
        return Err(SnapshotError::Truncated { expected: expected_len, found: body.len() });
    }
    let found_digest = fnv1a64(body);
    if found_digest != expected_digest {
        return Err(SnapshotError::DigestMismatch {
            expected: expected_digest,
            found: found_digest,
        });
    }
    let body = String::from_utf8(body.to_vec())
        .map_err(|_| SnapshotError::Malformed("body is not UTF-8".into()))?;
    migrate(version, kind, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("r2d3-snapshot-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trips_body_exactly() {
        let path = tmp_path("roundtrip");
        let body = br#"{"cursor": 7, "acc": ["3ff0000000000000"]}"#;
        write_atomic(&path, "lifetime", body).unwrap();
        let read = read_verified(&path, "lifetime").unwrap();
        assert_eq!(read.as_bytes(), body);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_file_is_refused_by_its_length() {
        // A sparse file one byte past the limit: refused before any of
        // it is read, with an error that names the limit.
        let path = tmp_path("oversized");
        let file = fs::File::create(&path).unwrap();
        file.set_len(MAX_SNAPSHOT_BYTES + 1).unwrap();
        drop(file);
        let err = read_verified(&path, "campaign").unwrap_err();
        assert!(matches!(err, SnapshotError::TooLarge { limit: MAX_SNAPSHOT_BYTES }), "{err:?}");
        assert!(err.to_string().contains(&MAX_SNAPSHOT_BYTES.to_string()), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_kind_is_typed() {
        let path = tmp_path("kind");
        write_atomic(&path, "campaign", b"{}").unwrap();
        match read_verified(&path, "lifetime") {
            Err(SnapshotError::Kind { found, expected }) => {
                assert_eq!(found, "campaign");
                assert_eq!(expected, "lifetime");
            }
            other => panic!("expected Kind error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_and_corruption_are_distinguished() {
        let path = tmp_path("corrupt");
        write_atomic(&path, "shard", b"0123456789").unwrap();
        let full = fs::read(&path).unwrap();

        // Truncated body: length check fires before the digest check.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(
            read_verified(&path, "shard"),
            Err(SnapshotError::Truncated { expected: 10, found: 7 })
        ));

        // Same length, one bit flipped: digest check fires.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(read_verified(&path, "shard"), Err(SnapshotError::DigestMismatch { .. })));

        // Version bump: rejected before looking at the body.
        let bumped = String::from_utf8(full).unwrap().replacen(
            &format!("{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} "),
            &format!("{SNAPSHOT_MAGIC} {} ", SNAPSHOT_VERSION + 1),
            1,
        );
        fs::write(&path, bumped).unwrap();
        assert!(matches!(
            read_verified(&path, "shard"),
            Err(SnapshotError::Version { found, .. }) if found == SNAPSHOT_VERSION + 1
        ));

        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn previous_version_containers_migrate_or_are_refused_by_kind() {
        let previous = SNAPSHOT_VERSION - 1;
        assert_eq!(previous, OLDEST_MIGRATABLE_VERSION, "the window is one version");
        let body = r#"{"cursor": 3}"#;
        // A v4 lifetime body: the v5 schema, with a sampled forward MTTF.
        let lifetime =
            r#"{"replica": 0, "month": 1, "series": {"mttf_months": ["4056b8c9a4a3e2a1"]}}"#;
        for (kind, migrates) in
            [("campaign", true), ("shard", true), ("job", true), ("lifetime", false)]
        {
            let body = if kind == "lifetime" { lifetime } else { body };
            let path = tmp_path(&format!("migrate-{kind}"));
            write_atomic(&path, kind, body.as_bytes()).unwrap();
            // Rewrite the header as the previous version; the digest
            // covers only the body, so the container stays consistent.
            let old = fs::read_to_string(&path).unwrap().replacen(
                &format!("{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} "),
                &format!("{SNAPSHOT_MAGIC} {previous} "),
                1,
            );
            fs::write(&path, old).unwrap();
            match read_verified(&path, kind) {
                Ok(read) if migrates => assert_eq!(read, body, "{kind} body changed"),
                Err(SnapshotError::UnsupportedMigration { found, oldest }) if !migrates => {
                    assert_eq!((found, oldest), (previous, SNAPSHOT_VERSION), "{kind}");
                }
                other => panic!("{kind}: unexpected {other:?}"),
            }
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn pre_window_versions_are_unsupported() {
        // Every kind, down to version 0: the v3 `campaign`, `shard` and
        // `job` bodies that migrated into format 4 are outside the window
        // of format 5.
        for kind in ["campaign", "shard", "job", "lifetime"] {
            for version in 0..OLDEST_MIGRATABLE_VERSION {
                let path = tmp_path(&format!("migrate-v{version}-{kind}"));
                write_atomic(&path, kind, b"{}").unwrap();
                let old = fs::read_to_string(&path).unwrap().replacen(
                    &format!("{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} "),
                    &format!("{SNAPSHOT_MAGIC} {version} "),
                    1,
                );
                fs::write(&path, old).unwrap();
                match read_verified(&path, kind) {
                    Err(SnapshotError::UnsupportedMigration { found, oldest }) => {
                        assert_eq!((found, oldest), (version, OLDEST_MIGRATABLE_VERSION), "{kind}");
                    }
                    other => panic!("{kind} v{version}: unexpected {other:?}"),
                }
                fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn garbage_is_not_a_snapshot() {
        let path = tmp_path("garbage");
        fs::write(&path, b"hello world\nnot a snapshot").unwrap();
        assert!(matches!(read_verified(&path, "lifetime"), Err(SnapshotError::NotASnapshot)));
        fs::write(&path, b"no newline at all").unwrap();
        assert!(matches!(read_verified(&path, "lifetime"), Err(SnapshotError::NotASnapshot)));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_atomic_survives_crash_after_rename() {
        // Regression for the classic unsynced-dir bug: under strict
        // crash semantics (MemFs), a tmp+fsync+rename whose directory
        // is never fsynced loses the file on power loss. write_atomic
        // must sync the parent directory, so the snapshot survives.
        use crate::chaos::MemFs;
        let fs = MemFs::new();
        let dir = Path::new("/state");
        fs.create_dir_all(dir).unwrap();
        fs.sync_dir(dir).unwrap();
        let path = dir.join("run.snap");
        write_atomic_with(&fs, &path, "lifetime", b"{\"cursor\": 9}").unwrap();
        fs.crash();
        let body = read_verified_with(&fs, &path, "lifetime").unwrap();
        assert_eq!(body, "{\"cursor\": 9}");
        assert!(!fs.exists(&dir.join("run.snap.tmp")), "tmp file must not survive");
    }

    #[test]
    fn crash_mid_write_leaves_previous_snapshot() {
        use crate::chaos::{FaultPlan, FaultyFs};
        let fs = FaultyFs::new(FaultPlan::clean());
        let dir = Path::new("/state");
        fs.create_dir_all(dir).unwrap();
        fs.sync_dir(dir).unwrap();
        let path = dir.join("run.snap");
        write_atomic_with(&fs, &path, "campaign", b"{\"gen\": 1}").unwrap();

        // Crash somewhere inside the second write's op sequence: the
        // write fails with a typed error and, after restart, the
        // previous snapshot reads back intact.
        fs.set_plan(FaultPlan { crash_at: Some(fs.op_count() + 3), ..FaultPlan::clean() });
        let err = write_atomic_with(&fs, &path, "campaign", b"{\"gen\": 2}").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(ref e) if crate::chaos::is_injected_crash(e)));
        fs.restart();
        let body = read_verified_with(&fs, &path, "campaign").unwrap();
        assert_eq!(body, "{\"gen\": 1}");
    }

    #[test]
    fn f64_bits_round_trip() {
        let vals = [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e308];
        let vals = [&vals[..], &[1.0 / 3.0, 2.0f64.sqrt(), -1e-300]].concat();
        let body = format!("{{\"v\": {}}}", f64_slice_to_json(&vals));
        let back = r2d3_netlist::json::parse(&body).unwrap().hexes("v").unwrap();
        assert_eq!(back, vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }
}
