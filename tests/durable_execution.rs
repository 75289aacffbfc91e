//! Durable-execution guarantees, end to end through the public API.
//!
//! The contract under test (DESIGN.md §5.0): every campaign schedule —
//! batch, traced, stopped and resumed from disk, sharded and merged —
//! renders the **byte-identical** report; a lifetime run interrupted at
//! an arbitrary point and resumed from its snapshot produces the
//! uninterrupted result; a snapshot damaged in any way (bit rot,
//! truncation, version skew, wrong kind) is rejected with a typed
//! error, never silently reused; and the streaming telemetry sink
//! delivers — or exactly accounts for — every record offered to it.

use r2d3::engine::campaign::{
    merge_shards, render_report, run_campaign, run_campaign_durable, run_campaign_traced,
    CampaignConfig, CampaignReport, CampaignState, ShardReport, ShardSpec, SubstrateKind,
};
use r2d3::engine::chaos::splitmix64;
use r2d3::engine::lifetime::{LifetimeConfig, LifetimeRunState, LifetimeSim};
use r2d3::engine::policy::PolicyKind;
use r2d3::engine::snapshot::{SnapshotError, SNAPSHOT_VERSION};
use r2d3::engine::telemetry::{
    OverflowPolicy, StreamSink, TelemetryEvent, TelemetryRecord, TelemetrySink,
};
use std::io::Write;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("r2d3-durable-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

fn lifetime_config() -> LifetimeConfig {
    LifetimeConfig {
        months: 10,
        replicas: 2,
        seed: 0xD00B,
        ..LifetimeConfig::new(PolicyKind::Pro, 1.0, 1.0)
    }
}

fn campaign_config(scenarios: usize, substrates: Vec<SubstrateKind>) -> CampaignConfig {
    CampaignConfig {
        seed: 0xD00B,
        scenarios_per_substrate: scenarios,
        substrates,
        ..Default::default()
    }
}

/// Kill the lifetime run at an arbitrary month-step, persist the
/// snapshot, reload it from disk and finish: the outcome must equal the
/// uninterrupted run's, field for field, bit for bit.
#[test]
fn lifetime_killed_and_resumed_is_byte_identical() {
    let cfg = lifetime_config();
    let total_steps = cfg.months * cfg.replicas;
    // Arbitrary interior stop point, derived (not hand-picked) so the
    // test does not quietly rot onto a boundary step.
    let stop = (cfg.seed as usize % (total_steps - 2)) + 1;

    let straight = LifetimeSim::new(cfg.clone()).run().unwrap();

    let path = tmp_path("lifetime-kill.r2d3s");
    let mut steps = 0usize;
    let killed = LifetimeSim::new(cfg.clone())
        .run_durable(None, |st| {
            steps += 1;
            if steps == stop {
                st.save(&path)?;
                return Ok(ControlFlow::Break(()));
            }
            Ok(ControlFlow::Continue(()))
        })
        .unwrap();
    assert!(killed.is_none(), "run must report interruption, not an outcome");

    let resume = LifetimeRunState::load(&path).unwrap();
    let resumed = LifetimeSim::new(cfg)
        .run_durable(Some(resume), |_| Ok(ControlFlow::Continue(())))
        .unwrap()
        .expect("resumed run must finish");
    assert_eq!(resumed, straight);
}

/// Every corruption mode is rejected with the matching typed error:
/// flipped body bit, truncation, version skew, kind confusion. A
/// damaged snapshot must never load.
#[test]
fn damaged_snapshots_are_rejected_not_reused() {
    let cfg = lifetime_config();
    let path = tmp_path("lifetime-donor.r2d3s");
    let _ = LifetimeSim::new(cfg)
        .run_durable(None, |st| {
            st.save(&path)?;
            Ok(ControlFlow::Break(()))
        })
        .unwrap();
    let good = std::fs::read(&path).unwrap();

    // Bit-flip deep in the body → digest mismatch.
    let mut flipped = good.clone();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    let bad = tmp_path("lifetime-flipped.r2d3s");
    std::fs::write(&bad, &flipped).unwrap();
    assert!(matches!(LifetimeRunState::load(&bad), Err(SnapshotError::DigestMismatch { .. })));

    // Torn copy → truncation reported against the header's promise.
    let cut = tmp_path("lifetime-truncated.r2d3s");
    std::fs::write(&cut, &good[..good.len() / 2]).unwrap();
    assert!(matches!(LifetimeRunState::load(&cut), Err(SnapshotError::Truncated { .. })));

    // Version bump → refused before the body is even looked at.
    let text = String::from_utf8(good.clone()).unwrap();
    let current = format!("R2D3SNAP {SNAPSHOT_VERSION} ");
    let bumped = tmp_path("lifetime-version.r2d3s");
    std::fs::write(&bumped, text.replacen(&current, "R2D3SNAP 99 ", 1)).unwrap();
    assert!(matches!(
        LifetimeRunState::load(&bumped),
        Err(SnapshotError::Version { found: 99, .. })
    ));

    // The previous version → typed UnsupportedMigration: a lifetime body
    // of the previous format holds sampled forward MTTFs, and this build
    // computes them exactly.
    let previous = tmp_path("lifetime-previous.r2d3s");
    let prior = SNAPSHOT_VERSION - 1;
    std::fs::write(&previous, text.replacen(&current, &format!("R2D3SNAP {prior} "), 1)).unwrap();
    assert!(matches!(
        LifetimeRunState::load(&previous),
        Err(SnapshotError::UnsupportedMigration { found, oldest })
            if found == prior && oldest == SNAPSHOT_VERSION
    ));

    // Pre-migration-window version → typed UnsupportedMigration.
    let ancient = tmp_path("lifetime-ancient.r2d3s");
    std::fs::write(&ancient, text.replacen(&current, "R2D3SNAP 0 ", 1)).unwrap();
    assert!(matches!(
        LifetimeRunState::load(&ancient),
        Err(SnapshotError::UnsupportedMigration { found: 0, .. })
    ));

    // A lifetime snapshot offered to the campaign loader → kind error.
    assert!(matches!(CampaignState::load(&path), Err(SnapshotError::Kind { .. })));

    // Not a snapshot at all.
    let junk = tmp_path("lifetime-junk.r2d3s");
    std::fs::write(&junk, b"totally not a snapshot").unwrap();
    assert!(matches!(LifetimeRunState::load(&junk), Err(SnapshotError::NotASnapshot)));
}

/// Three shards, run independently (as three hosts would), merged back:
/// the merged report renders byte-identically to the unsharded run.
#[test]
fn three_way_shard_merge_equals_unsharded_report() {
    let config = campaign_config(12, vec![SubstrateKind::Behavioral]);
    let unsharded = run_campaign(&config);

    let shards: Vec<_> = (1..=3)
        .map(|k| {
            let shard = ShardSpec::new(k, 3).unwrap();
            let report =
                run_campaign_durable(&config, Some(shard), None, |_| Ok(ControlFlow::Continue(())))
                    .unwrap()
                    .expect("an unobserved shard must finish");
            ShardReport { shard, report }
        })
        .collect();
    let merged = merge_shards(&shards).unwrap();
    assert_eq!(render_report(&merged), render_report(&unsharded));
    assert_eq!(merged, unsharded);
}

/// Interrupt a two-substrate campaign *past* the first substrate's
/// boundary, resume from the disk snapshot, and compare against the
/// straight run — the cursor must restore mid-flight partial state
/// exactly, including the completed substrate's report.
#[test]
fn campaign_killed_across_substrate_boundary_resumes_identically() {
    let config = campaign_config(3, vec![SubstrateKind::Behavioral, SubstrateKind::Netlist]);
    let straight = run_campaign(&config);

    let path = tmp_path("campaign-kill.r2d3s");
    let mut done = 0usize;
    let killed = run_campaign_durable(&config, None, None, |st| {
        done += 1;
        if done == 4 {
            st.save(&path)?;
            return Ok(ControlFlow::Break(()));
        }
        Ok(ControlFlow::Continue(()))
    })
    .unwrap();
    assert!(killed.is_none());

    let state = CampaignState::load(&path).unwrap();
    assert_eq!(state.substrate(), 1, "stop point must sit inside the second substrate");
    let resumed =
        run_campaign_durable(&config, None, Some(state), |_| Ok(ControlFlow::Continue(())))
            .unwrap()
            .expect("resumed campaign must finish");
    assert_eq!(render_report(&resumed), render_report(&straight));
}

/// One row of the campaign schedule table.
struct Case {
    scenarios: usize,
    substrates: &'static [SubstrateKind],
    /// Observer steps after which the durable run saves and stops, in
    /// `1..=steps + 1`; `steps + 1` never stops.
    stop: usize,
    /// Shards the sharded schedule splits the campaign into.
    shards: usize,
}

const B: SubstrateKind = SubstrateKind::Behavioral;
const N: SubstrateKind = SubstrateKind::Netlist;

const CASES: [Case; 6] = [
    // A 3-way merge, and a stop inside the second substrate.
    Case { scenarios: 3, substrates: &[B, N], stop: 4, shards: 3 },
    // Runs that never stop.
    Case { scenarios: 5, substrates: &[N], stop: 6, shards: 2 },
    Case { scenarios: 2, substrates: &[N, B], stop: 5, shards: 2 },
    // Shards that own no scenario.
    Case { scenarios: 1, substrates: &[N], stop: 1, shards: 3 },
    // A stop on the last scenario of the first substrate.
    Case { scenarios: 2, substrates: &[B, N], stop: 2, shards: 1 },
    Case { scenarios: 4, substrates: &[N], stop: 3, shards: 3 },
];

/// Runs `config` (or one shard of it) durably, saves the state to disk
/// and stops after `stop` observer steps, then loads that snapshot and
/// resumes to completion. Returns the final report and the state the
/// run stopped at (`None` when `stop` lies past the last step).
fn stop_and_resume(
    config: &CampaignConfig,
    shard: Option<ShardSpec>,
    stop: usize,
    name: &str,
) -> (CampaignReport, Option<CampaignState>) {
    let path = tmp_path(name);
    let mut steps = 0usize;
    let first = run_campaign_durable(config, shard, None, |st| {
        steps += 1;
        if steps == stop {
            st.save(&path)?;
            return Ok(ControlFlow::Break(()));
        }
        Ok(ControlFlow::Continue(()))
    })
    .unwrap();
    if let Some(report) = first {
        return (report, None);
    }
    let state = CampaignState::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let resumed =
        run_campaign_durable(config, shard, Some(state.clone()), |_| Ok(ControlFlow::Continue(())))
            .unwrap()
            .expect("resumed campaign must finish");
    (resumed, Some(state))
}

/// Byte-identity is one property over every campaign schedule: the
/// batch report equals, field for field and so byte for byte once
/// rendered, the traced run's, a durable run stopped after `stop` steps
/// and resumed from disk, and an N-way shard set — each shard stopped
/// and resumed — merged back together.
#[test]
fn every_campaign_schedule_renders_the_batch_report() {
    assert!(CASES.iter().any(|c| c.shards == 3), "the table must hold a 3-way merge");
    assert!(
        CASES
            .iter()
            .any(|c| c.substrates.len() == 2
                && (c.scenarios + 1..=2 * c.scenarios).contains(&c.stop)),
        "the table must stop a run inside the second substrate"
    );
    for (i, case) in CASES.iter().enumerate() {
        let config = CampaignConfig {
            seed: splitmix64(0xD00B + i as u64),
            scenarios_per_substrate: case.scenarios,
            substrates: case.substrates.to_vec(),
            ..Default::default()
        };
        let steps = case.scenarios * case.substrates.len();
        assert!((1..=steps + 1).contains(&case.stop), "case {i}: stop out of range");
        let batch = run_campaign(&config);

        let (traced, traces) = run_campaign_traced(&config);
        assert_eq!(traced, batch, "case {i}: traced run");
        let swept: Vec<_> = traced
            .substrates
            .iter()
            .flat_map(|s| s.results.iter().map(move |r| (s.substrate, r.id)))
            .collect();
        let traced_ids: Vec<_> = traces.iter().map(|t| (t.substrate, t.scenario)).collect();
        assert_eq!(traced_ids, swept, "case {i}: one trace per (substrate, scenario)");
        assert!(traces.iter().any(|t| !t.records.is_empty()), "case {i}: traces carry records");

        let (resumed, stopped) = stop_and_resume(&config, None, case.stop, &format!("case-{i}"));
        assert_eq!(resumed, batch, "case {i}: stopped after {} steps", case.stop);
        match stopped {
            Some(state) => {
                assert!(case.stop <= steps, "case {i}: a run past its last step stopped");
                assert_eq!(state.substrate(), (case.stop - 1) / case.scenarios, "case {i}");
                assert_eq!(state.scenario(), (case.stop - 1) % case.scenarios + 1, "case {i}");
            }
            None => assert_eq!(case.stop, steps + 1, "case {i}: the run never stopped"),
        }

        let shards: Vec<ShardReport> = (1..=case.shards)
            .map(|k| {
                let shard = ShardSpec::new(k, case.shards).unwrap();
                let owned = (0..case.scenarios as u32).filter(|&id| shard.owns(id)).count();
                let stop = 1 + (case.stop + k) % (owned * case.substrates.len() + 1);
                let name = format!("case-{i}-shard-{k}");
                ShardReport { shard, report: stop_and_resume(&config, Some(shard), stop, &name).0 }
            })
            .collect();
        let merged = merge_shards(&shards).unwrap();
        assert_eq!(merged, batch, "case {i}: {}-way merge", case.shards);
    }
}

/// A writer that is deliberately slower than the producer, so the
/// bounded channel actually fills and the overflow policy matters.
struct SlowWriter(Arc<Mutex<Vec<u8>>>);

impl Write for SlowWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_micros(20));
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn record(i: u64) -> TelemetryRecord {
    TelemetryRecord {
        epoch: i,
        cycle: i * 7,
        event: TelemetryEvent::Exec { pipe: (i % 6) as u32, cycles: 20_000, retired: i },
    }
}

/// Block policy: every one of a large burst of records reaches the
/// output — zero drops, even with a slow consumer and a tiny channel.
#[test]
fn stream_sink_block_policy_is_lossless_under_load() {
    const N: u64 = 20_000;
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut sink =
        StreamSink::with_capacity(SlowWriter(Arc::clone(&buf)), 16, OverflowPolicy::Block);
    for i in 0..N {
        sink.record(record(i));
    }
    let stats = sink.finish().unwrap();
    assert_eq!(stats.recorded, N);
    assert_eq!(stats.written, N);
    assert_eq!(stats.dropped, 0);

    let lines = buf.lock().unwrap().iter().filter(|&&b| b == b'\n').count() as u64;
    assert_eq!(lines, N, "one JSON line per record must reach the writer");
}

/// Drop policy: records may be shed when the channel is full, but the
/// accounting is exact — recorded = written + dropped, and the output
/// holds precisely the written ones.
#[test]
fn stream_sink_drop_policy_accounts_for_every_record() {
    const N: u64 = 20_000;
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut sink =
        StreamSink::with_capacity(SlowWriter(Arc::clone(&buf)), 16, OverflowPolicy::Drop);
    for i in 0..N {
        sink.record(record(i));
    }
    let stats = sink.finish().unwrap();
    assert_eq!(stats.recorded, N);
    assert_eq!(stats.recorded, stats.written + stats.dropped, "no record may vanish unaccounted");
    assert!(stats.dropped > 0, "slow writer + tiny channel must shed load under Drop");

    let lines = buf.lock().unwrap().iter().filter(|&&b| b == b'\n').count() as u64;
    assert_eq!(lines, stats.written);
}
