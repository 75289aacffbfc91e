//! Property tests for the serve wire protocol: every document type
//! round-trips byte-exactly through encode/decode, and no input —
//! however malformed — makes a decoder panic. Decoders return typed
//! [`ApiError`]s; the daemon turns those into error responses, so these
//! properties are what keep a hostile client from killing the service.

use proptest::collection::vec;
use proptest::prelude::*;
use r2d3::engine::api::wire::{decode_response, decode_spec, encode_spec, parse_overflow};
use r2d3::engine::api::{
    ApiError, JobEvent, JobId, JobSpec, JobState, JobStatus, Reply, Request, Response,
    PROTO_VERSION,
};
use r2d3::engine::campaign::{KindId, SubstrateKind};
use r2d3::engine::telemetry::OverflowPolicy;
use r2d3::isa::Unit;

// --- strategies ----------------------------------------------------

/// Printable-ASCII strings, the protocol's native text domain (the
/// wire escape maps everything else to `?`, which is deliberately
/// lossy and therefore not round-trippable).
fn ascii_text() -> impl Strategy<Value = String> {
    vec(0x20u8..0x7f, 0..32).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

fn substrates() -> impl Strategy<Value = Vec<SubstrateKind>> {
    prop_oneof![
        Just(vec![SubstrateKind::Behavioral]),
        Just(vec![SubstrateKind::Netlist]),
        Just(vec![SubstrateKind::Behavioral, SubstrateKind::Netlist]),
    ]
}

fn kind_subset() -> impl Strategy<Value = Vec<KindId>> {
    vec(any::<bool>(), KindId::ALL.len()).prop_map(|mask| {
        let picked: Vec<KindId> =
            KindId::ALL.iter().zip(&mask).filter(|(_, keep)| **keep).map(|(k, _)| *k).collect();
        if picked.is_empty() {
            KindId::ALL.to_vec()
        } else {
            picked
        }
    })
}

fn campaign_spec() -> impl Strategy<Value = JobSpec> {
    (any::<u64>(), 1usize..300, substrates(), kind_subset(), 1usize..8, any::<u8>()).prop_map(
        |(seed, scenarios, subs, kinds, shards, priority)| {
            JobSpec::campaign()
                .seed(seed)
                .scenarios(scenarios)
                .substrates(subs)
                .kinds(kinds)
                .shards(shards.min(scenarios))
                .priority(priority)
                .build()
                .expect("generated campaign spec is valid")
        },
    )
}

fn lifetime_spec() -> impl Strategy<Value = JobSpec> {
    (0usize..4, 1usize..200, 0usize..3, any::<u64>(), any::<u8>()).prop_map(
        |(policy, months, workload, seed, priority)| {
            let policy = ["norecon", "static", "lite", "pro"][policy];
            let workload = ["gemm", "gemv", "fft"][workload];
            JobSpec::lifetime()
                .policy(r2d3::engine::api::parse_policy(policy).unwrap())
                .months(months)
                .workload(r2d3::engine::api::parse_workload(workload).unwrap())
                .seed(seed)
                .priority(priority)
                .build()
                .expect("generated lifetime spec is valid")
        },
    )
}

fn inject_spec() -> impl Strategy<Value = JobSpec> {
    (0usize..5, 0usize..8, any::<u8>(), any::<bool>(), any::<u64>(), 1u64..500).prop_map(
        |(unit, layer, bit, netlist, seed, epochs)| {
            let unit = [Unit::Ifu, Unit::Exu, Unit::Lsu, Unit::Tlu, Unit::Ffu][unit];
            let substrate =
                if netlist { SubstrateKind::Netlist } else { SubstrateKind::Behavioral };
            JobSpec::inject(unit, layer)
                .bit(bit)
                .substrate(substrate)
                .seed(seed)
                .epochs(epochs)
                .build()
                .expect("generated inject spec is valid")
        },
    )
}

fn job_spec() -> impl Strategy<Value = JobSpec> {
    prop_oneof![campaign_spec(), lifetime_spec(), inject_spec()]
}

/// Counts (units, progress steps) travel as bare JSON integers, which
/// decoders accept only when exact: below 2^53, the range every
/// IEEE-double JSON reader agrees on. Full-range values (seeds, job ids)
/// travel as hex strings instead. Counts are daemon-generated step
/// totals, so the bounded domain is the protocol's actual domain.
fn count() -> impl Strategy<Value = u64> {
    0u64..(1 << 53)
}

fn job_event() -> impl Strategy<Value = JobEvent> {
    (any::<u64>(), count(), count(), count(), ascii_text(), 0usize..9).prop_map(
        |(job, unit, done, total, text, pick)| {
            let job = JobId(job);
            match pick {
                0 => JobEvent::Accepted { job, units: unit },
                1 => JobEvent::Started { job, unit },
                2 => JobEvent::Progress { job, unit, done, total },
                3 => JobEvent::Checkpointed { job, unit, done },
                4 => JobEvent::UnitDone { job, unit },
                5 => JobEvent::WorkerLost { job, unit, done },
                6 => JobEvent::Completed { job },
                7 => JobEvent::Failed { job, error: text },
                _ => JobEvent::Canceled { job },
            }
        },
    )
}

fn job_status() -> impl Strategy<Value = JobStatus> {
    (
        (any::<u64>(), ascii_text(), 0usize..3, any::<u8>()),
        (0usize..5, any::<bool>(), ascii_text()),
        (count(), count(), count(), count()),
    )
        .prop_map(
            |(
                (id, client, kind, priority),
                (state, has_error, error),
                (units, units_done, progress_done, progress_total),
            )| {
                let state = [
                    JobState::Queued,
                    JobState::Running,
                    JobState::Completed,
                    JobState::Failed,
                    JobState::Canceled,
                ][state];
                JobStatus {
                    id: JobId(id),
                    client,
                    kind: ["campaign", "lifetime", "inject"][kind],
                    priority,
                    state,
                    error: has_error.then_some(error),
                    units,
                    units_done,
                    progress_done,
                    progress_total,
                }
            },
        )
}

// --- round trips ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn specs_round_trip(spec in job_spec()) {
        let line = encode_spec(&spec);
        prop_assert_eq!(decode_spec(&line).unwrap(), spec, "line: {}", line);
    }

    #[test]
    fn submit_requests_round_trip(client in ascii_text(), spec in job_spec()) {
        let req = Request::Submit { client, spec };
        let line = req.encode();
        prop_assert_eq!(Request::decode(&line).unwrap(), req, "line: {}", line);
    }

    #[test]
    fn job_requests_round_trip(job in any::<u64>(), pick in 0usize..5, drop in any::<bool>()) {
        let job = JobId(job);
        let overflow = if drop { OverflowPolicy::Drop } else { OverflowPolicy::Block };
        let req = match pick {
            0 => Request::Status { job: None },
            1 => Request::Status { job: Some(job) },
            2 => Request::Watch { job, overflow },
            3 => Request::Cancel { job },
            _ => Request::Result { job },
        };
        let line = req.encode();
        prop_assert_eq!(Request::decode(&line).unwrap(), req, "line: {}", line);
    }

    #[test]
    fn events_round_trip(ev in job_event()) {
        let line = ev.encode();
        prop_assert!(!line.contains('\n'), "events must be single-line: {}", line);
        prop_assert_eq!(JobEvent::decode(&line).unwrap(), ev, "line: {}", line);
    }

    #[test]
    fn responses_round_trip(
        statuses in vec(job_status(), 0..4),
        job in any::<u64>(),
        report in ascii_text(),
        code in ascii_text(),
        message in ascii_text(),
        pick in 0usize..7,
    ) {
        let job = JobId(job);
        let resp = match pick {
            0 => Response::Ok(Reply::Submitted { job }),
            1 => Response::Ok(Reply::Jobs(statuses)),
            2 => Response::Ok(Reply::Watching { job }),
            3 => Response::Ok(Reply::Canceled { job, canceled: true }),
            4 => Response::Ok(Reply::Report { job, report }),
            5 => Response::Ok(Reply::ShuttingDown),
            _ => Response::Err { code, message },
        };
        let line = resp.encode();
        prop_assert_eq!(decode_response(&line).unwrap(), resp, "line: {}", line);
    }
}

// --- malformed input never panics ----------------------------------

/// Every decoder, fed the same line; the property under test is simply
/// "returns", the typed-error-or-value contract. A panic anywhere in
/// here fails the test.
fn decode_all(line: &str) {
    let _ = Request::decode(line);
    let _ = decode_response(line);
    let _ = JobEvent::decode(line);
    let _ = decode_spec(line);
    let _ = parse_overflow(line);
    let _ = JobState::parse(line);
    let _ = JobId::parse(line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_decoders(bytes in vec(any::<u8>(), 0..120)) {
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_valid_lines_never_panic(spec in job_spec(), keep in any::<u64>()) {
        let line = Request::Submit { client: "fuzz".into(), spec }.encode();
        let cut = (keep as usize) % (line.len() + 1);
        // Truncation can split a UTF-8 boundary only for non-ASCII,
        // which the wire never emits; index directly.
        decode_all(&line[..cut]);
    }

    #[test]
    fn mutated_valid_lines_decode_or_reject(ev in job_event(), pos in any::<u64>(), byte in any::<u8>()) {
        let mut bytes = ev.encode().into_bytes();
        let at = (pos as usize) % bytes.len();
        bytes[at] = byte;
        decode_all(&String::from_utf8_lossy(&bytes));
    }
}

// --- version and error-class pinning -------------------------------

#[test]
fn counts_are_exact_to_the_documented_boundary() {
    let exact = (1u64 << 53) - 1;
    let ev = JobEvent::Progress { job: JobId(u64::MAX), unit: 0, done: exact, total: exact };
    assert_eq!(JobEvent::decode(&ev.encode()).unwrap(), ev);
}

#[test]
fn decoders_reject_other_proto_versions() {
    let line = Request::Shutdown.encode();
    let skewed = line.replace(
        &format!("\"proto_version\":{PROTO_VERSION}"),
        &format!("\"proto_version\":{}", PROTO_VERSION + 1),
    );
    assert_ne!(line, skewed, "needle must match the encoder");
    let err = Request::decode(&skewed).unwrap_err();
    assert_eq!(err, ApiError::Version { found: PROTO_VERSION + 1 });
    assert_eq!(err.code(), "version");
}

#[test]
fn error_classes_are_typed_and_stable() {
    assert_eq!(Request::decode("]").unwrap_err().code(), "syntax");
    assert_eq!(Request::decode("{\"op\":\"status\"}").unwrap_err().code(), "missing");
    assert_eq!(
        Request::decode(&format!("{{\"proto_version\":{PROTO_VERSION},\"op\":\"launch\"}}"))
            .unwrap_err()
            .code(),
        "unknown_op"
    );
    assert_eq!(
        Request::decode(&format!(
            "{{\"proto_version\":{PROTO_VERSION},\"op\":\"cancel\",\"job\":\"zebra\"}}"
        ))
        .unwrap_err()
        .code(),
        "invalid"
    );
}
