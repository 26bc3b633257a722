//! The WAL's line codec from the outside. Round trip: whatever a
//! [`WalRecord`] holds — every variant, extreme integers, any float bit
//! pattern, hostile strings, long slot vectors — `Wal::decode(&wal.encode())`
//! gives it back bit for bit, each record is exactly one line, and
//! re-encoding the decoded WAL reproduces the text byte for byte (what
//! `fed-recover`'s "replayed WAL re-encodes to the same text" check leans
//! on). Rejection: a correctly checksummed line the encoder could not have
//! written is an error, never a panic and never a second spelling of a
//! record.

use proptest::prelude::*;
use proptest::TestRng;
use reshape_core::wal::crc32;
use reshape_core::{
    AllocOrder, HealAction, JobId, JobSpec, ProcessorConfig, QueuePolicy, RemapPolicy,
    ReservationId, SchedulerCore, TopologyPref, Wal, WalError, WalRecord,
};
use serde_json::Value;

/// One record of every variant, used only for its shape: [`arbitrary`]
/// redraws every field.
fn one_of_each() -> Vec<WalRecord> {
    let spec = JobSpec::new(
        "t",
        TopologyPref::Grid { problem_size: 8 },
        ProcessorConfig::new(1, 1),
        1,
    );
    let job = JobId(0);
    let cfg = ProcessorConfig::new(1, 1);
    vec![
        WalRecord::Open {
            total_procs: 1,
            policy: QueuePolicy::Fcfs,
            remap_policy: RemapPolicy::Paper,
            events_cap: 0,
            alloc_order: AllocOrder::LowestId,
            slot_speeds: None,
        },
        WalRecord::Submit {
            spec: spec.clone(),
            now: 0.0,
        },
        WalRecord::SubmitReserved {
            spec,
            reservation: ReservationId(0),
            now: 0.0,
        },
        WalRecord::TrySchedule { now: 0.0 },
        WalRecord::ResizePoint {
            job,
            iter_time: 0.0,
            redist_time: 0.0,
            now: 0.0,
        },
        WalRecord::PhaseChange { job, now: 0.0 },
        WalRecord::NoteRedist {
            job,
            from: cfg,
            to: cfg,
            seconds: 0.0,
        },
        WalRecord::Finished { job, now: 0.0 },
        WalRecord::Failed {
            job,
            reason: String::new(),
            now: 0.0,
        },
        WalRecord::NodeFailed {
            job,
            dead_slots: vec![],
            to: cfg,
            now: 0.0,
        },
        WalRecord::ExpandFailed { job, now: 0.0 },
        WalRecord::Cancel { job, now: 0.0 },
        WalRecord::Reserve {
            start: 0.0,
            end: 0.0,
            procs: 0,
        },
        WalRecord::CancelReservation {
            id: ReservationId(0),
        },
        WalRecord::Tick { now: 0.0 },
        WalRecord::LendGrant {
            lease: 0,
            slots: vec![],
            now: 0.0,
        },
        WalRecord::LendReclaim { lease: 0, now: 0.0 },
        WalRecord::BorrowAttach {
            lease: 0,
            global_slots: vec![],
            lender_epoch: 0,
            now: 0.0,
        },
        WalRecord::BorrowEvict { lease: 0, now: 0.0 },
        WalRecord::PauseExpansion {
            on: false,
            now: 0.0,
        },
        WalRecord::EpochBump { epoch: 0, now: 0.0 },
        WalRecord::HealRepair {
            lease: 0,
            action: HealAction::ReturnEscrow,
            now: 0.0,
        },
        compacted(SchedulerCore::new(1, QueuePolicy::Fcfs).with_wal(Wal::in_memory())),
    ]
}

fn pick<T: Clone>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.gen_range_u64(0, from.len() as u64) as usize].clone()
}

fn int(rng: &mut TestRng) -> u64 {
    match rng.gen_range_u64(0, 4) {
        0 => pick(
            rng,
            &[0, 1, 9, 10, u64::from(u32::MAX), u64::MAX - 1, u64::MAX],
        ),
        1 => rng.gen_range_u64(0, 1000),
        _ => rng.next_u64(),
    }
}

fn size(rng: &mut TestRng) -> usize {
    int(rng) as usize
}

fn float(rng: &mut TestRng) -> f64 {
    match rng.gen_range_u64(0, 3) {
        0 => pick(
            rng,
            &[
                0.0,
                -0.0,
                1.0,
                -1.5,
                0.1 + 0.2,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                5e-324,
                f64::EPSILON,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ],
        ),
        // Any bit pattern at all: NaN payloads, subnormals, both signs.
        1 => f64::from_bits(rng.next_u64()),
        _ => rng.gen_f64() * 1e6,
    }
}

fn text(rng: &mut TestRng) -> String {
    let hostile = [
        "",
        " ",
        "LU",
        "two words",
        "  leading and trailing  ",
        "\n",
        "line\nbreak\r\nand\rreturn",
        "\\",
        "\\s\\n\\e",
        "trailing backslash\\",
        "\"quoted\" {\"type\":\"tick\"}",
        "tab\there \u{1}\u{0}",
        "naïve ✓ 日本語 \u{2028}",
        "-",
    ];
    match rng.gen_range_u64(0, hostile.len() as u64 + 1) as usize {
        i if i < hostile.len() => hostile[i].to_string(),
        _ => "4 KiB\\ ".repeat(4096 / 7 + 1),
    }
}

fn slots(rng: &mut TestRng) -> Vec<usize> {
    let len = pick(rng, &[0, 1, 2, 17, 1000]);
    (0..len).map(|_| size(rng)).collect()
}

fn config(rng: &mut TestRng) -> ProcessorConfig {
    ProcessorConfig {
        rows: size(rng).max(1),
        cols: size(rng).max(1),
    }
}

fn spec(rng: &mut TestRng) -> JobSpec {
    let topology = match rng.gen_range_u64(0, 4) {
        0 => TopologyPref::Grid {
            problem_size: size(rng),
        },
        1 => TopologyPref::Linear {
            problem_size: size(rng),
            even_only: rng.next_u64() & 1 == 1,
        },
        2 => TopologyPref::AnyCount {
            min: size(rng),
            max: size(rng),
            step: size(rng),
        },
        _ => TopologyPref::Explicit {
            configs: (0..rng.gen_range_u64(0, 12)).map(|_| config(rng)).collect(),
        },
    };
    // Built field by field: the codec carries what it is given, legal for
    // the topology or not.
    JobSpec {
        name: text(rng),
        topology,
        initial: config(rng),
        iterations: size(rng),
        resizable: rng.next_u64() & 1 == 1,
        priority: rng.gen_range_u64(0, 256) as u8,
        survivable: rng.next_u64() & 1 == 1,
    }
}

/// The checkpoint `core` writes when it compacts: the only way to one from
/// outside the crate, whose state type is not exported.
fn compacted(mut core: SchedulerCore) -> WalRecord {
    core.compact_wal();
    core.wal()
        .expect("a journaling core")
        .records()
        .swap_remove(1)
}

/// An arbitrary checkpoint: a core of 1-8 processors takes submissions
/// under hostile names, resize points and redistribution prices of any
/// float bits, a cancellation, leases both ways, a reservation, a pause and
/// an epoch bump, then compacts.
fn checkpoint(rng: &mut TestRng) -> WalRecord {
    let procs = rng.gen_range_u64(1, 9) as usize;
    let mut core = SchedulerCore::new(procs, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
    let jobs = rng.gen_range_u64(0, 6);
    for i in 0..jobs {
        let spec = JobSpec {
            name: text(rng),
            topology: TopologyPref::AnyCount {
                min: 1,
                max: procs,
                step: 1,
            },
            initial: ProcessorConfig::linear(rng.gen_range_u64(1, procs as u64 + 1) as usize),
            iterations: rng.gen_range_u64(1, 10) as usize,
            resizable: rng.next_u64() & 1 == 1,
            priority: rng.gen_range_u64(0, 256) as u8,
            survivable: rng.next_u64() & 1 == 1,
        };
        core.submit(spec, i as f64);
    }
    let now = jobs as f64;
    for id in 1..=jobs {
        let (job, c) = (JobId(id), config(rng));
        core.resize_point(job, float(rng), float(rng), now);
        core.note_redist_cost(job, c, ProcessorConfig::linear(1), float(rng));
    }
    if jobs > 0 && rng.next_u64() & 1 == 1 {
        core.cancel(JobId(rng.gen_range_u64(1, jobs + 1)), now);
    }
    core.lend_grant(int(rng), 1, now);
    core.borrow_attach(int(rng), &slots(rng), int(rng), now);
    core.reserve(
        now,
        now + 1.0 + rng.gen_f64(),
        rng.gen_range_u64(0, procs as u64 + 1) as usize,
    );
    core.set_expand_paused(rng.next_u64() & 1 == 1, now);
    core.bump_epoch(now);
    compacted(core)
}

/// An arbitrary record of the same variant as `like`. The match has no
/// wildcard arm on purpose: a new `WalRecord` variant does not compile here
/// until it has a generator (and an entry in [`one_of_each`], which
/// `every_variant_is_generated` counts).
fn arbitrary(like: &WalRecord, rng: &mut TestRng) -> WalRecord {
    let job = JobId(int(rng));
    match like {
        WalRecord::Open { .. } => WalRecord::Open {
            total_procs: size(rng),
            policy: pick(rng, &[QueuePolicy::Fcfs, QueuePolicy::Backfill]),
            remap_policy: pick(
                rng,
                &[
                    RemapPolicy::Paper,
                    RemapPolicy::GreedyExpand,
                    RemapPolicy::NeverShrink,
                    RemapPolicy::CostBenefit,
                ],
            ),
            events_cap: size(rng),
            alloc_order: pick(rng, &[AllocOrder::LowestId, AllocOrder::FastestFirst]),
            slot_speeds: match rng.gen_range_u64(0, 2) {
                0 => None,
                _ => Some(
                    (0..pick(rng, &[0, 1, 5, 1000]))
                        .map(|_| float(rng))
                        .collect(),
                ),
            },
        },
        WalRecord::Submit { .. } => WalRecord::Submit {
            spec: spec(rng),
            now: float(rng),
        },
        WalRecord::SubmitReserved { .. } => WalRecord::SubmitReserved {
            spec: spec(rng),
            reservation: ReservationId(int(rng)),
            now: float(rng),
        },
        WalRecord::TrySchedule { .. } => WalRecord::TrySchedule { now: float(rng) },
        WalRecord::ResizePoint { .. } => WalRecord::ResizePoint {
            job,
            iter_time: float(rng),
            redist_time: float(rng),
            now: float(rng),
        },
        WalRecord::PhaseChange { .. } => WalRecord::PhaseChange {
            job,
            now: float(rng),
        },
        WalRecord::NoteRedist { .. } => WalRecord::NoteRedist {
            job,
            from: config(rng),
            to: config(rng),
            seconds: float(rng),
        },
        WalRecord::Finished { .. } => WalRecord::Finished {
            job,
            now: float(rng),
        },
        WalRecord::Failed { .. } => WalRecord::Failed {
            job,
            reason: text(rng),
            now: float(rng),
        },
        WalRecord::NodeFailed { .. } => WalRecord::NodeFailed {
            job,
            dead_slots: slots(rng),
            to: config(rng),
            now: float(rng),
        },
        WalRecord::ExpandFailed { .. } => WalRecord::ExpandFailed {
            job,
            now: float(rng),
        },
        WalRecord::Cancel { .. } => WalRecord::Cancel {
            job,
            now: float(rng),
        },
        WalRecord::Reserve { .. } => WalRecord::Reserve {
            start: float(rng),
            end: float(rng),
            procs: size(rng),
        },
        WalRecord::CancelReservation { .. } => WalRecord::CancelReservation {
            id: ReservationId(int(rng)),
        },
        WalRecord::Tick { .. } => WalRecord::Tick { now: float(rng) },
        WalRecord::LendGrant { .. } => WalRecord::LendGrant {
            lease: int(rng),
            slots: slots(rng),
            now: float(rng),
        },
        WalRecord::LendReclaim { .. } => WalRecord::LendReclaim {
            lease: int(rng),
            now: float(rng),
        },
        WalRecord::BorrowAttach { .. } => WalRecord::BorrowAttach {
            lease: int(rng),
            global_slots: slots(rng),
            lender_epoch: int(rng),
            now: float(rng),
        },
        WalRecord::BorrowEvict { .. } => WalRecord::BorrowEvict {
            lease: int(rng),
            now: float(rng),
        },
        WalRecord::PauseExpansion { .. } => WalRecord::PauseExpansion {
            on: rng.next_u64() & 1 == 1,
            now: float(rng),
        },
        WalRecord::EpochBump { .. } => WalRecord::EpochBump {
            epoch: int(rng),
            now: float(rng),
        },
        WalRecord::HealRepair { .. } => WalRecord::HealRepair {
            lease: int(rng),
            action: pick(
                rng,
                &[HealAction::EvictStaleBorrow, HealAction::ReturnEscrow],
            ),
            now: float(rng),
        },
        WalRecord::Checkpoint { .. } => checkpoint(rng),
    }
}

/// A WAL holding one arbitrary record of every variant, so each case
/// exercises every arm of the codec.
#[derive(Debug)]
struct OneOfEach;

impl Strategy for OneOfEach {
    type Value = Vec<WalRecord>;

    fn generate(&self, rng: &mut TestRng) -> Vec<WalRecord> {
        one_of_each()
            .iter()
            .map(|like| arbitrary(like, rng))
            .collect()
    }
}

/// Structural equality with floats compared by bit pattern (`==` would call
/// `-0.0` and `0.0` equal and every NaN different from itself).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_bits(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_bits(vx, vy))
        }
        _ => a == b,
    }
}

#[test]
fn every_variant_is_generated() {
    let shapes = one_of_each();
    let kinds = reshape_core::wal::record_histogram(&shapes);
    assert_eq!(
        kinds.len(),
        23,
        "one_of_each() must list every WalRecord variant"
    );
    assert!(kinds.values().all(|&n| n == 1), "{kinds:?}");
}

proptest! {
    #[test]
    fn encode_decode_roundtrips_every_variant(records in OneOfEach) {
        let mut wal = Wal::in_memory();
        for r in records.clone() {
            wal.append(r);
        }
        let text = wal.encode();
        prop_assert_eq!(text.matches('\n').count(), records.len(), "one line per record");
        prop_assert!(text.ends_with('\n') && !text.contains('\r'));

        let back = Wal::decode(&text).expect("an encoded stream decodes");
        prop_assert_eq!(back.len(), records.len());
        for (got, want) in back.records().iter().zip(&records) {
            prop_assert!(
                same_bits(&serde_json::to_value(got), &serde_json::to_value(want)),
                "decoded {got:?}\n    from {want:?}"
            );
        }
        prop_assert!(back.encode() == text, "re-encoding the decoded WAL changed the text");
    }
}

/// `payload` framed as the encoder would frame it, so the checksum passes
/// and the payload grammar alone decides.
fn framed(payload: &str) -> String {
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

#[test]
fn well_formed_payloads_decode() {
    // The rejections below each differ from one of these by a single
    // defect; if these stopped decoding the rejections would prove nothing.
    for payload in [
        "fin 12 400c000000000000",
        "crsv 18446744073709551615",
        "fail 3 node\\s2\\\\crashed 4022800000000000",
        "fail 3 \\e 4022800000000000",
        "nr 1 2 2 2 3 4020cccccccccccd",
        "open 8 fcfs paper 1024 lowest 1 2 3ff0000000000000 7ff8000000000000",
        "sub LU grid 8000 2 2 10 1 255 0 0000000000000000",
        "ckpt 1 1 0 0 0000000000000000 0000000000000000 0 0 0 0 0 0 0 0 0 0",
        "ckpt 3 2 1 0 4000000000000000 4010000000000000 1 2 1 5 1 1 4000000000000000 \
         4010000000000000 2 1 3 1 2 1 8 1 9 1 40 0 2 1 LU any 1 8 1 1 1 1 1 1 0 running 1 1 \
         1 4 0000000000000000 1 3ff0000000000000 0 2 LU grid 8000 2 2 10 1 0 0 queued 0 \
         3ff0000000000000 0 0 1 2 1 0 1 1 1 1 1 3ff0000000000000 0000000000000000 1 1 1 \
         3ff0000000000000 1 1 1 1 1 2 3fe0000000000000 grow 1 1 1 2 0",
    ] {
        let wal = Wal::decode(&framed(payload)).unwrap_or_else(|e| panic!("`{payload}`: {e}"));
        assert_eq!(wal.len(), 1, "`{payload}`");
        assert_eq!(
            wal.encode(),
            framed(payload),
            "`{payload}` is the canonical spelling"
        );
    }
}

#[test]
fn malformed_payloads_are_errors_not_panics() {
    for (payload, why) in [
        ("zap 1 400c000000000000", "unknown tag"),
        ("FIN 12 400c000000000000", "tags are lower case"),
        ("", "no tag at all"),
        ("fin 12", "missing field"),
        ("fin", "missing fields"),
        ("fin 12 400c000000000000 0", "extra field"),
        ("fin 12 400c000000000000 ", "trailing separator"),
        ("fin  12 400c000000000000", "doubled separator"),
        ("fin +1 400c000000000000", "signed integer"),
        ("fin -1 400c000000000000", "negative integer"),
        ("fin 01 400c000000000000", "leading zero"),
        ("fin 0x1 400c000000000000", "hex integer"),
        ("fin 184467440737095516150 400c000000000000", "21 digits"),
        ("fin 18446744073709551616 400c000000000000", "u64::MAX + 1"),
        ("fin 12 400c00000000000", "15-digit float"),
        ("fin 12 400c0000000000000", "17-digit float"),
        ("fin 12 400C000000000000", "upper-case float"),
        ("fin 12 3.5", "decimal float"),
        ("pause 2 400c000000000000", "flag out of range"),
        ("pause true 400c000000000000", "spelled-out flag"),
        ("fail 3 bad\\x 4022800000000000", "unknown escape"),
        ("fail 3 dangling\\ 4022800000000000", "escape cut short"),
        (
            "fail 3 a\\eb 4022800000000000",
            "the empty marker inside a string",
        ),
        ("fail 3  4022800000000000", "empty string written bare"),
        ("nr 1 0 2 2 3 4020cccccccccccd", "rows == 0"),
        ("nr 1 2 2 2 0 4020cccccccccccd", "cols == 0"),
        (
            "nf 4 2 5 6 0 1 4023000000000000",
            "degenerate surviving configuration",
        ),
        (
            "nf 4 3 5 6 1 2 4023000000000000",
            "slot count larger than the slots present",
        ),
        (
            "lg 7 18446744073709551615 0 1 4026000000000000",
            "absurd slot count",
        ),
        ("open 8 lifo paper 1024 lowest 0", "unknown queue policy"),
        ("open 8 fcfs eager 1024 lowest 0", "unknown remap policy"),
        (
            "open 8 fcfs paper 1024 highest 0",
            "unknown allocation order",
        ),
        (
            "open 8 fcfs paper 1024 lowest 1 2 3ff0000000000000",
            "fewer speeds than announced",
        ),
        ("open 8 fcfs paper 1024 lowest", "speeds marker missing"),
        ("heal 8 shrug 4032000000000000", "unknown heal action"),
        (
            "sub LU torus 8000 2 2 10 1 0 0 0000000000000000",
            "unknown topology",
        ),
        (
            "sub LU grid 8000 0 2 10 1 0 0 0000000000000000",
            "degenerate initial configuration",
        ),
        (
            "sub LU exp 1 0 4 1 4 10 1 0 0 0000000000000000",
            "degenerate explicit configuration",
        ),
        (
            "sub LU grid 8000 2 2 10 1 256 0 0000000000000000",
            "priority past u8",
        ),
        (
            "{\"type\":\"finished\",\"job\":12,\"now\":3.5}",
            "a pre-codec JSON payload",
        ),
        (
            "ckpt 1 1 0 0 0000000000000000 0000000000000000 0 0 0 0 2 7 0 5 0 0 0 0 0 0",
            "lent leases out of order",
        ),
        (
            "ckpt 1 1 0 0 0000000000000000 0000000000000000 0 0 0 0 2 7 0 7 0 0 0 0 0 0",
            "a lent lease twice",
        ),
        (
            "ckpt 3 1 0 0 0000000000000000 0000000000000000 0 0 0 0 0 0 \
             1 1 LU grid 8000 2 2 10 1 0 0 parked 0 0000000000000000 0 0 0 0 0",
            "unknown job state",
        ),
        (
            "ckpt 3 1 0 0 0000000000000000 0000000000000000 0 0 0 0 0 0 0 0 0 \
             1 1 0 0 2 1 1 1 2 3ff0000000000000 1 1 1 1 4000000000000000 none 0",
            "redistribution costs out of order",
        ),
        (
            "ckpt 3 1 0 0 0000000000000000 0000000000000000 0 0 0 0 0 0 0 0 0 \
             1 1 0 0 0 sideways 0",
            "unknown resize",
        ),
        (
            "ckpt 3 1 0 0 0000000000000000 0000000000000000 0 0 0 0 0 0 0 0 0",
            "profiles missing",
        ),
    ] {
        match Wal::decode(&framed(payload)) {
            Err(WalError::Corrupt { line: 1, reason }) => assert!(
                reason.starts_with("unparseable record: "),
                "{why} (`{payload}`): reason was `{reason}`"
            ),
            Err(other) => panic!("{why} (`{payload}`): wrong error {other}"),
            Ok(wal) => panic!("{why} (`{payload}`) decoded as {:?}", wal.records()),
        }
    }
}
