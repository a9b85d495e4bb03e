//! hera-snap end-to-end: whole-VM checkpoint/restore determinism,
//! corrupted-snapshot hardening, and the allocation edge cases the
//! snapshot must carry faithfully (cache bypasses, OOM traps).

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, RunOutcome, VmConfig, VmError};
use hera_frontend::*;
use hera_integration::gc_pressure_vm;
use hera_isa::{ElemTy, Instr, ProgramBuilder, Trap, Ty, Value};
use hera_snap::SnapError;

/// A one-class program with a single static `main`.
fn main_program(ret: Option<Ty>, body: Vec<Stmt>) -> hera_isa::Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, c, "main", vec![], ret);
    define(&mut pb, main, vec![], body).expect("main should compile");
    pb.finish_with_entry("Main", "main")
        .expect("program resolves")
}

/// A loop long enough to cross several checkpoint intervals: a mixing
/// hash over an array, so the heap content is non-trivial too.
fn mixing_program(iters: i32) -> hera_isa::Program {
    main_program(
        Some(Ty::Int),
        vec![
            Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(256))),
            Stmt::Let("acc".into(), i32c(1)),
            for_range(
                "i",
                i32c(0),
                i32c(iters),
                vec![
                    Stmt::Assign("acc".into(), bxor(mul(local("acc"), i32c(31)), local("i"))),
                    Stmt::SetIndex(local("a"), rem(local("i"), i32c(256)), local("acc")),
                ],
            ),
            Stmt::Return(Some(add(local("acc"), index(local("a"), i32c(7))))),
        ],
    )
}

/// A small-footprint config so snapshots stay a few KiB: tiny heap and
/// caches, one SPE.
fn tiny_spe_config() -> VmConfig {
    let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(8 << 10, 8 << 10);
    cfg.heap.size_bytes = 128 << 10;
    cfg
}

/// Assert two outcomes are observationally identical (everything the
/// paper's determinism claim covers: result, traps, output, stats,
/// final heap image).
fn assert_same_outcome(full: &RunOutcome, restored: &RunOutcome, what: &str) {
    assert_eq!(full.result, restored.result, "{what}: result diverged");
    assert_eq!(full.traps, restored.traps, "{what}: traps diverged");
    assert_eq!(full.output, restored.output, "{what}: output diverged");
    assert_eq!(
        full.heap_digest, restored.heap_digest,
        "{what}: final heap image diverged"
    );
    assert_eq!(full.stats, restored.stats, "{what}: RunStats diverged");
}

#[test]
fn checkpoint_restore_round_trip_on_spe() {
    let vm = HeraJvm::new(
        mixing_program(60_000),
        tiny_spe_config().with_checkpoint_every(400_000),
    )
    .expect("constructs");
    let full = vm.run().expect("runs");
    assert!(full.is_clean(), "traps: {:?}", full.traps);
    assert!(
        full.checkpoints.len() >= 2,
        "expected several checkpoints, got {}",
        full.checkpoints.len()
    );
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, &format!("restore from seq {}", blob.seq));
    }
}

#[test]
fn checkpoint_restore_round_trip_on_ppe() {
    let mut cfg = VmConfig::pinned_ppe().with_checkpoint_every(300_000);
    cfg.heap.size_bytes = 128 << 10;
    let vm = HeraJvm::new(mixing_program(40_000), cfg).expect("constructs");
    let full = vm.run().expect("runs");
    assert!(!full.checkpoints.is_empty());
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, &format!("restore from seq {}", blob.seq));
    }
}

/// A resumed run must re-take exactly the checkpoints the full run took
/// after the restore point — byte-identical blobs, so a chain of
/// crash/restore cycles can always be stitched back together.
#[test]
fn resumed_runs_take_byte_identical_later_checkpoints() {
    let vm = HeraJvm::new(
        mixing_program(60_000),
        tiny_spe_config().with_checkpoint_every(400_000),
    )
    .expect("constructs");
    let full = vm.run().expect("runs");
    assert!(full.checkpoints.len() >= 2);
    let first = &full.checkpoints[0];
    let restored = vm.restore_bytes(&first.bytes).expect("restore succeeds");
    assert_eq!(
        restored.checkpoints.len(),
        full.checkpoints.len() - 1,
        "resumed run should re-take every later checkpoint"
    );
    for (f, r) in full.checkpoints[1..].iter().zip(&restored.checkpoints) {
        assert_eq!(f.seq, r.seq);
        assert_eq!(f.at_cycle, r.at_cycle);
        assert_eq!(
            f.bytes, r.bytes,
            "checkpoint {} of the resumed run is not byte-identical",
            f.seq
        );
    }
}

#[test]
fn snapshot_header_inspection() {
    let vm = HeraJvm::new(
        mixing_program(30_000),
        tiny_spe_config().with_checkpoint_every(400_000),
    )
    .expect("constructs");
    let full = vm.run().expect("runs");
    let blob = &full.checkpoints[0];
    let info = hera_core::snapshot::inspect(&blob.bytes).expect("inspects");
    assert_eq!(info.seq, blob.seq);
    assert!(info.wall_cycles >= blob.at_cycle);
    assert!(info.core_len > 0 && info.payload_len > info.core_len as usize);
}

// ------------------------------------------------------------ disk I/O

#[test]
fn checkpoints_write_to_disk_and_restore_from_path() {
    let dir = std::path::PathBuf::from(format!("target/snap-test-{}-disk", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let vm = HeraJvm::new(
        mixing_program(60_000),
        tiny_spe_config().with_checkpoint_every(400_000),
    )
    .expect("constructs")
    .with_checkpoint_dir(&dir);
    let full = vm.run().expect("runs");
    assert!(full.checkpoints.len() >= 2);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("readdir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(
        files.len(),
        full.checkpoints.len(),
        "one .hsnap file per checkpoint"
    );
    for (path, blob) in files.iter().zip(&full.checkpoints) {
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("hsnap"),
            "unexpected file {path:?}"
        );
        let on_disk = std::fs::read(path).expect("read snapshot");
        assert_eq!(on_disk, blob.bytes, "disk blob differs from in-memory blob");
    }
    let restored = vm.restore(&files[0]).expect("restore from path");
    assert_same_outcome(&full, &restored, "restore from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- whole-machine crash

/// A scheduled whole-machine crash aborts the run with a typed error —
/// and because checkpoints hit the disk *before* the crash check fires,
/// the latest on-disk snapshot always allows recovery to the exact
/// uninterrupted outcome.
#[test]
fn machine_crash_then_recover_from_latest_disk_checkpoint() {
    let dir = std::path::PathBuf::from(format!("target/snap-test-{}-crash", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Uninterrupted reference (same checkpointing config, no crash).
    let program = mixing_program(60_000);
    let cfg = tiny_spe_config().with_checkpoint_every(300_000);
    let vm = HeraJvm::new(program.clone(), cfg).expect("constructs");
    let full = vm.run().expect("runs");
    assert!(full.checkpoints.len() >= 2);
    let crash_at = full.checkpoints[1].at_cycle + 10_000;

    // Crashing run: dies mid-flight, leaving snapshots on disk.
    let crash_cfg = tiny_spe_config()
        .with_checkpoint_every(300_000)
        .with_faults(hera_cell::FaultPlan::default().with_machine_crash(crash_at));
    let crash_vm = HeraJvm::new(program, crash_cfg)
        .expect("constructs")
        .with_checkpoint_dir(&dir);
    match crash_vm.run() {
        Err(VmError::MachineCrash { at_cycle }) => assert!(at_cycle >= crash_at),
        other => panic!("expected a machine crash, got {other:?}"),
    }
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("readdir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    assert!(
        files.len() >= 2,
        "checkpoints before the crash must be on disk"
    );

    // Restoring with the crash still scheduled faithfully re-crashes —
    // the crash is machine state, not snapshot state.
    assert!(matches!(
        crash_vm.restore(files.last().expect("non-empty")),
        Err(VmError::MachineCrash { .. })
    ));

    // Recover with the same VM config minus the crash (the config
    // digest deliberately ignores the crash plan so this is legal).
    let recovered = vm
        .restore(files.last().expect("non-empty"))
        .expect("recovery restore succeeds");
    assert_same_outcome(&full, &recovered, "crash recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- corruption hardening

fn small_snapshot() -> (HeraJvm, Vec<u8>) {
    let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(4 << 10, 4 << 10);
    cfg.heap.size_bytes = 32 << 10;
    let vm = HeraJvm::new(mixing_program(8_000), cfg.with_checkpoint_every(200_000))
        .expect("constructs");
    let full = vm.run().expect("runs");
    let blob = full.checkpoints.first().expect("at least one checkpoint");
    (vm, blob.bytes.clone())
}

/// Every single-bit flip anywhere in a snapshot must be rejected with a
/// typed error — never a panic, never a silently wrong resume. Header
/// flips hit the explicit magic/version/flags/length checks; payload
/// flips are guaranteed caught by CRC-32 (which detects all single-bit
/// errors).
#[test]
fn single_bit_flip_sweep_rejects_every_corruption() {
    let (vm, bytes) = small_snapshot();
    assert!(
        bytes.len() < 64 << 10,
        "sweep blob unexpectedly large ({} bytes) — test would crawl",
        bytes.len()
    );
    let mut rejected = 0u64;
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            match vm.restore_bytes(&corrupt) {
                Err(VmError::Snap(_)) => rejected += 1,
                Err(other) => panic!("bit {bit} of byte {byte}: wrong error kind {other:?}"),
                Ok(_) => panic!("bit {bit} of byte {byte}: corrupted snapshot restored!"),
            }
        }
    }
    assert_eq!(rejected, (bytes.len() * 8) as u64);
}

#[test]
fn truncated_snapshots_are_rejected() {
    let (vm, bytes) = small_snapshot();
    // Every interesting prefix: empty, partial header, exact header,
    // partial payload, all-but-one byte.
    let cuts = [0, 1, 7, 8, 12, 16, 27, 28, bytes.len() / 2, bytes.len() - 1];
    for &cut in &cuts {
        match vm.restore_bytes(&bytes[..cut]) {
            Err(VmError::Snap(e)) => {
                assert!(
                    matches!(
                        e,
                        SnapError::Truncated { .. } | SnapError::LengthMismatch { .. }
                    ),
                    "cut at {cut}: unexpected variant {e:?}"
                );
            }
            other => panic!("cut at {cut}: expected typed rejection, got {other:?}"),
        }
    }
    // Trailing garbage is equally fatal: the header's declared payload
    // length no longer matches.
    let mut padded = bytes.clone();
    padded.push(0xAB);
    assert!(matches!(
        vm.restore_bytes(&padded),
        Err(VmError::Snap(SnapError::LengthMismatch { .. }))
    ));
}

#[test]
fn bad_magic_version_and_flags_are_typed_errors() {
    let (vm, bytes) = small_snapshot();

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        vm.restore_bytes(&bad_magic),
        Err(VmError::Snap(SnapError::BadMagic))
    ));

    let mut bad_version = bytes.clone();
    bad_version[8] = 0xFF; // version u32 LE at offset 8
    match vm.restore_bytes(&bad_version) {
        Err(VmError::Snap(SnapError::BadVersion { found, expected })) => {
            assert_eq!(expected, hera_snap::FORMAT_VERSION);
            assert_ne!(found, expected);
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }

    let mut bad_flags = bytes.clone();
    bad_flags[12] = 0x01; // flags u32 LE at offset 12
    assert!(matches!(
        vm.restore_bytes(&bad_flags),
        Err(VmError::Snap(SnapError::BadFlags(1)))
    ));
}

/// A crafted snapshot — valid container, valid CRC — whose data-cache
/// entry claims a dirty span reaching past its unit must be refused at
/// restore: accepted, the next write-back would slice the SPE's local
/// region out of range.
#[test]
fn crafted_dirty_span_outside_its_unit_is_rejected() {
    // One object written on the SPE and never flushed: it is dirty in
    // the data cache at every checkpoint of the spin loop.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let point = pb.add_class("Point", None);
    let fx = pb.add_field(point, "x", Ty::Int);
    pb.add_field(point, "y", Ty::Int);
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    let body = vec![
        Stmt::Let("p".into(), Expr::New(point)),
        Stmt::SetField(local("p"), fx, i32c(5)),
        Stmt::Let("acc".into(), i32c(1)),
        for_range(
            "i",
            i32c(0),
            i32c(8_000),
            vec![Stmt::Assign(
                "acc".into(),
                bxor(mul(local("acc"), i32c(31)), local("i")),
            )],
        ),
        Stmt::Return(Some(add(local("acc"), field(local("p"), fx)))),
    ];
    define(&mut pb, main, vec![], body).expect("main should compile");
    let program = pb.finish_with_entry("Main", "main").expect("resolves");
    let vm = HeraJvm::new(program, tiny_spe_config().with_checkpoint_every(100_000))
        .expect("constructs");
    let full = vm.run().expect("runs");
    let bytes = &full.checkpoints.first().expect("a checkpoint").bytes;
    vm.restore_bytes(bytes)
        .expect("the untouched blob restores");

    // The entry's tail is `len = 16, dirty_lo = 8, dirty_hi = 12`.
    let payload = hera_snap::open(bytes).expect("valid container");
    let tail: Vec<u8> = [16u32, 8, 12]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let hits: Vec<usize> = (0..payload.len() - tail.len())
        .filter(|&i| payload[i..].starts_with(&tail))
        .collect();
    assert_eq!(hits.len(), 1, "expected exactly one dirty Point entry");
    let mut crafted = payload.to_vec();
    crafted[hits[0] + 8..hits[0] + 12].copy_from_slice(&0x0010_0000u32.to_le_bytes());
    match vm.restore_bytes(&hera_snap::seal(&crafted)) {
        Err(VmError::Snap(SnapError::Corrupt(msg))) => {
            assert!(msg.contains("dirty span"), "unexpected message: {msg}")
        }
        other => panic!("expected a Corrupt rejection, got {other:?}"),
    }
}

/// A heap image is input: an array header whose length no allocation
/// can have written — here one whose byte size does not fit 32 bits —
/// must be refused at restore, not multiplied at the resumed run's first
/// access.
#[test]
fn crafted_array_length_is_rejected() {
    // No byte of the length is zero, so all four sit in one literal
    // chunk of the heap image's encoding and can be patched in place.
    const LEN: i32 = 0x0101_0101;
    let body = vec![
        Stmt::Let("a".into(), new_array(ElemTy::Byte, i32c(LEN))),
        Stmt::Let("acc".into(), i32c(1)),
        for_range(
            "i",
            i32c(0),
            i32c(8_000),
            vec![Stmt::Assign(
                "acc".into(),
                bxor(mul(local("acc"), i32c(31)), local("i")),
            )],
        ),
        Stmt::Return(Some(add(local("acc"), length(local("a"))))),
    ];
    let cfg = VmConfig::pinned_ppe().with_checkpoint_every(400_000);
    let vm = HeraJvm::new(main_program(Some(Ty::Int), body), cfg).expect("constructs");
    let full = vm.run().expect("runs");
    let bytes = &full.checkpoints.first().expect("a checkpoint").bytes;
    vm.restore_bytes(bytes)
        .expect("the untouched blob restores");

    // A `byte[]` header is `0x8000_0000` (array bit, element code 0),
    // then the length; its three zero bytes end the zero run before it.
    let payload = hera_snap::open(bytes).expect("valid container");
    let header: Vec<u8> = [&[0x80][..], &LEN.to_le_bytes()].concat();
    let hits: Vec<usize> = (0..payload.len() - header.len())
        .filter(|&i| payload[i..].starts_with(&header))
        .collect();
    assert_eq!(hits.len(), 1, "expected exactly one byte[LEN] header");
    let mut crafted = payload.to_vec();
    crafted[hits[0] + 1..hits[0] + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    match vm.restore_bytes(&hera_snap::seal(&crafted)) {
        Err(VmError::Snap(SnapError::Corrupt(msg))) => {
            assert!(
                msg.contains("outside the heap"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("expected a Corrupt rejection, got {other:?}"),
    }
}

/// One level of the PPE cache model as a checkpoint payload carries it:
/// the tags (stored inverted) and the LRU stamps, each RLE-coded, then
/// the tick.
#[derive(Clone)]
struct CacheLevel {
    at: std::ops::Range<usize>,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl CacheLevel {
    /// Decode a level of `slots` slots starting at `payload[start]`.
    fn decode(payload: &[u8], start: usize, slots: usize) -> Option<CacheLevel> {
        let mut r = hera_snap::SnapReader::new(&payload[start..]);
        let mut words = || -> Option<Vec<u64>> {
            let raw = hera_snap::rle_decode(&mut r, slots * 8).ok()?;
            let words = raw.chunks_exact(8);
            Some(
                words
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        };
        let tags = words()?.into_iter().map(|t| !t).collect();
        let stamps = words()?;
        let tick = r.u64().ok()?;
        Some(CacheLevel {
            at: start..start + r.position(),
            tags,
            stamps,
            tick,
        })
    }

    /// The sealed snapshot with this level written back in place.
    fn spliced_into(&self, payload: &[u8]) -> Vec<u8> {
        let mut w = hera_snap::SnapWriter::new();
        for words in [self.tags.iter().map(|&t| !t).collect(), self.stamps.clone()] {
            let bytes: Vec<u8> = words.iter().flat_map(|v: &u64| v.to_le_bytes()).collect();
            hera_snap::rle_encode(&mut w, &bytes);
        }
        w.u64(self.tick);
        // The payload opens with the CORE section's length, which counts
        // the level: a re-coded level of another size moves it.
        let core_len = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let core_len = core_len - self.at.len() as u64 + w.len() as u64;
        let mut crafted = core_len.to_le_bytes().to_vec();
        crafted.extend_from_slice(&payload[8..self.at.start]);
        crafted.extend_from_slice(w.bytes());
        crafted.extend_from_slice(&payload[self.at.end..]);
        hera_snap::seal(&crafted)
    }
}

/// `HwCache::import_state` must refuse replacement state no run can have
/// produced, however valid the container around it: accepted, a saturated
/// tick overflows on the resumed run's first PPE access, and the other
/// three silently change which lines later accesses hit and evict.
#[test]
fn crafted_ppe_cache_state_is_rejected() {
    let mut cfg = VmConfig::pinned_ppe().with_checkpoint_every(300_000);
    cfg.heap.size_bytes = 128 << 10;
    let vm = HeraJvm::new(mixing_program(40_000), cfg).expect("constructs");
    let full = vm.run().expect("runs");
    let bytes = &full.checkpoints.first().expect("a checkpoint").bytes;
    let payload = hera_snap::open(bytes).expect("valid container");

    // Find the L1 by shape: the L2 follows it and the four access counters
    // follow that; every access ticks the L1 and every L1 miss the L2.
    let slots = |l: hera_cell::hwcache::LevelParams| {
        ((l.capacity / (l.line * l.ways)).max(1) * l.ways) as usize
    };
    let (l1_slots, l2_slots) = (slots(cfg.cell.hwcache.l1), slots(cfg.cell.hwcache.l2));
    let found: Vec<CacheLevel> = (0..payload.len())
        .filter_map(|start| {
            let l1 = CacheLevel::decode(payload, start, l1_slots)?;
            let l2 = CacheLevel::decode(payload, l1.at.end, l2_slots)?;
            let mut counters = hera_snap::SnapReader::new(&payload[l2.at.end..]);
            let [accesses, l1_hits, l2_hits, memory] =
                [(); 4].map(|()| counters.u64().unwrap_or(0));
            // Wrapping: a chance match elsewhere must not overflow.
            (accesses > 0
                && accesses == l1_hits.wrapping_add(l2_hits).wrapping_add(memory)
                && l1.tick == accesses
                && l2.tick == accesses.wrapping_sub(l1_hits))
            .then_some(l1)
        })
        .collect();
    let [l1] = &found[..] else {
        panic!(
            "expected exactly one PPE cache section, found {}",
            found.len()
        );
    };
    assert!(
        l1.spliced_into(payload) == *bytes,
        "writing the level back unchanged must reproduce the checkpoint"
    );

    let ways = cfg.cell.hwcache.l1.ways as usize;
    let live = (l1.tags.iter())
        .position(|&t| t != u64::MAX)
        .expect("the run touched the L1");
    let crafted = |mutate: &dyn Fn(&mut CacheLevel)| {
        let mut level = l1.clone();
        mutate(&mut level);
        level.spliced_into(payload)
    };
    let cases: [(&str, Vec<u8>); 4] = [
        ("saturated tick", crafted(&|l| l.tick = u64::MAX)),
        (
            "stamp ahead of the tick",
            crafted(&|l| l.stamps[live] = l.tick + 1),
        ),
        // The next line number indexes the next set.
        ("tag in the wrong set", crafted(&|l| l.tags[live] += 1)),
        (
            "tag twice in one set",
            crafted(&|l| l.tags[live / ways * ways + (live + 1) % ways] = l.tags[live]),
        ),
    ];
    for (what, snapshot) in &cases {
        match vm.restore_bytes(snapshot) {
            Err(VmError::Snap(SnapError::Corrupt(msg))) => {
                assert!(
                    msg.contains("ppe cache"),
                    "{what}: unexpected message: {msg}"
                )
            }
            other => panic!("{what}: expected a Corrupt rejection, got {other:?}"),
        }
    }
}

/// An SPE local store is encoded as the all-zero buffer it always is
/// (its data-cache region lives in the data cache): a CRC-valid snapshot
/// whose store carries a byte is refused with a typed error.
#[test]
fn crafted_local_store_bytes_are_rejected() {
    let (vm, bytes) = small_snapshot();
    let payload = hera_snap::open(&bytes).expect("valid container");
    // The one SPE's 256 KiB store: total, then a single zero chunk.
    let size = hera_cell::LocalStore::SIZE as u64;
    let zeros: Vec<u8> = [&size.to_le_bytes()[..], &[0], &size.to_le_bytes()].concat();
    let hits: Vec<usize> = (0..payload.len() - zeros.len())
        .filter(|&i| payload[i..].starts_with(&zeros))
        .collect();
    let [at] = hits[..] else {
        panic!("expected one all-zero local store, found {}", hits.len());
    };
    // The same total as zeros then one literal 0xAB byte; CORE's length
    // prefix at the head of the payload grows by the ten bytes added.
    let mut store = hera_snap::SnapWriter::new();
    store.u64(size);
    store.u8(0);
    store.u64(size - 1);
    store.u8(1);
    store.u64(1);
    store.u8(0xAB);
    let core_len = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let grown = core_len + (store.len() - zeros.len()) as u64;
    let mut crafted = grown.to_le_bytes().to_vec();
    crafted.extend_from_slice(&payload[8..at]);
    crafted.extend_from_slice(store.bytes());
    crafted.extend_from_slice(&payload[at + zeros.len()..]);
    match vm.restore_bytes(&hera_snap::seal(&crafted)) {
        Err(VmError::Snap(SnapError::Corrupt(msg))) => {
            assert!(msg.contains("local store"), "unexpected message: {msg}")
        }
        Err(e) => panic!("expected a Corrupt rejection, got {e:?}"),
        Ok(_) => panic!("a local store holding a byte restored"),
    }
}

/// A method id is an index into the program's method table: a CRC-valid
/// snapshot whose JIT key set names a method the program does not have is
/// refused with a typed error, not compiled (which indexed past the table
/// and panicked).
#[test]
fn crafted_method_id_is_rejected() {
    let mut cfg = VmConfig::pinned_ppe().with_checkpoint_every(100_000);
    cfg.heap.size_bytes = 32 << 10;
    let program = mixing_program(8_000);
    let main = program.entry.expect("an entry point");
    let vm = HeraJvm::new(program, cfg).expect("constructs");
    let full = vm.run().expect("runs");
    let bytes = &full.checkpoints.first().expect("a checkpoint").bytes;
    let payload = hera_snap::open(bytes).expect("valid container");

    // Find the key set by shape: one key, `main` compiled for the PPE; the
    // registry counters follow it, then the thread count (one) and thread
    // 0 on the PPE.
    let key = [&1u64.to_le_bytes()[..], &main.0.to_le_bytes(), &[0]].concat();
    let thread = [&1u64.to_le_bytes()[..], &0u32.to_le_bytes(), &[0]].concat();
    let stats = 8 * hera_jit::RegistryStats::LEN;
    let hits: Vec<usize> = (0..payload.len() - key.len() - stats - thread.len())
        .filter(|&i| {
            payload[i..].starts_with(&key) && payload[i + key.len() + stats..].starts_with(&thread)
        })
        .collect();
    let [at] = hits[..] else {
        panic!("expected one JIT key set, found {}", hits.len());
    };
    let mut crafted = payload.to_vec();
    crafted[at + 8..at + 12].copy_from_slice(&0x00FF_0000u32.to_le_bytes());
    match vm.restore_bytes(&hera_snap::seal(&crafted)) {
        Err(VmError::Snap(SnapError::Corrupt(msg))) => {
            assert!(msg.contains("method id"), "unexpected message: {msg}")
        }
        Err(e) => panic!("expected a Corrupt rejection, got {e:?}"),
        Ok(_) => panic!("a snapshot naming a missing method restored"),
    }
}

/// A structurally valid snapshot from a *different* machine or program
/// must be refused up front (digest check), not half-applied.
#[test]
fn restore_rejects_config_or_program_mismatch() {
    let (_, bytes) = small_snapshot();

    // Same program, different machine shape.
    let mut other_cfg = VmConfig::pinned_spe(2).with_cache_sizes(4 << 10, 4 << 10);
    other_cfg.heap.size_bytes = 32 << 10;
    let other_vm = HeraJvm::new(
        mixing_program(8_000),
        other_cfg.with_checkpoint_every(200_000),
    )
    .expect("constructs");
    assert!(
        matches!(
            other_vm.restore_bytes(&bytes),
            Err(VmError::Snap(SnapError::Corrupt(_)))
        ),
        "config mismatch must be refused"
    );

    // Same machine shape, different program.
    let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(4 << 10, 4 << 10);
    cfg.heap.size_bytes = 32 << 10;
    let other_prog_vm = HeraJvm::new(mixing_program(8_001), cfg.with_checkpoint_every(200_000))
        .expect("constructs");
    assert!(
        matches!(
            other_prog_vm.restore_bytes(&bytes),
            Err(VmError::Snap(SnapError::Corrupt(_)))
        ),
        "program mismatch must be refused"
    );
}

// ------------------------------------------------- format-version golden

/// The on-disk format is versioned: any byte-level change to the
/// encoding must bump `FORMAT_VERSION` (old snapshots are then refused
/// by the version check instead of misparsed). This golden pins the
/// byte stream of a fixed run; if it fails without a version bump, the
/// format changed silently.
#[test]
fn format_version_golden() {
    const GOLDEN_VERSION: u32 = 3;
    const GOLDEN_DIGEST: u64 = 0xf3d2_34c2_dd7f_f6b4;
    assert_eq!(
        hera_snap::FORMAT_VERSION,
        GOLDEN_VERSION,
        "FORMAT_VERSION changed — re-pin GOLDEN_DIGEST from the printout below"
    );
    let (_, bytes) = small_snapshot();
    let digest = hera_snap::digest64(&bytes);
    assert_eq!(
        digest,
        GOLDEN_DIGEST,
        "snapshot byte stream changed without a FORMAT_VERSION bump \
         (actual digest: {digest:#018x}, {} bytes)",
        bytes.len()
    );
}

fn checkpoint_digests(run: &RunOutcome) -> Vec<u64> {
    run.checkpoints
        .iter()
        .map(|c| hera_snap::digest64(&c.bytes))
        .collect()
}

/// Byte-exact oracle for encode-side refactors: `digest64` of every
/// checkpoint of the three kernels on the fleet-sized machine (6 SPEs,
/// 2 MB heap, `checkpoint_every = wall / 8`, scale 0.1), captured before
/// the encode pipeline was rewritten (ISSUE 16). The format golden above
/// covers a few-KiB snapshot; these cover local stores, six data caches
/// and a populated heap.
#[test]
fn kernel_checkpoint_bytes_match_pinned_digests() {
    use hera_workloads::Workload;
    const PINNED: [(Workload, &[u64]); 3] = [
        (
            Workload::Compress,
            &[
                0x473f_7b5d_90d6_a135,
                0x32bd_276d_f763_b124,
                0xc2e4_ff31_1738_4166,
                0xff9b_7b9f_29ba_bc33,
                0x527f_94fc_21a0_ad98,
                0x67e1_6768_8075_e406,
                0x233a_2125_990e_e5fa,
                0x07a0_ad25_b0df_c00e,
            ],
        ),
        (
            Workload::MpegAudio,
            &[
                0x3401_86d1_17ca_3bd8,
                0x312e_a932_bcdb_034a,
                0x18ac_a31e_70d7_bdb1,
                0x4a14_6a5b_61f7_a73e,
                0x0bde_c9f2_1ea2_7c45,
                0x1ab3_8271_3ef1_d7c8,
                0x5561_b413_9d4e_45f6,
                0xeef6_2f6c_d84b_251b,
            ],
        ),
        (
            Workload::Mandelbrot,
            &[
                0x7d39_481f_4a7e_6797,
                0xc643_ee03_937a_8fe4,
                0x3943_ce68_ff25_c40e,
                0x9ee7_fed3_b981_d209,
                0xe8fb_b297_de14_ec73,
                0x769d_64f6_8662_5879,
                0x7984_8a6f_2d50_290d,
                0x1330_f152_c0c6_1ae2,
            ],
        ),
    ];
    for (w, pinned) in PINNED {
        let (program, expected) = w.build(6, 0.1);
        let mut cfg = VmConfig::pinned_spe(6);
        cfg.heap.size_bytes = 2 << 20;
        let wall = HeraJvm::new(program.clone(), cfg)
            .expect("constructs")
            .run()
            .expect("plain run")
            .stats
            .wall_cycles;
        let full = HeraJvm::new(program, cfg.with_checkpoint_every((wall / 8).max(1)))
            .expect("constructs")
            .run()
            .expect("checkpointed run");
        assert_eq!(full.result, Some(Value::I32(expected)), "{}", w.name());
        let got = checkpoint_digests(&full);
        assert_eq!(
            got,
            pinned,
            "{}: checkpoint bytes changed (actual: {got:#018x?})",
            w.name()
        );
    }
}

/// Same oracle for a heap whose free spans hold stale non-zero bytes:
/// the GC-pressure run fills its heap a dozen times over, so both of its
/// checkpoints are taken after several collections.
#[test]
fn post_gc_checkpoint_bytes_match_pinned_digests() {
    const PINNED: &[u64] = &[0xe3f0_5bb2_2258_24a5, 0xa1eb_f0a3_410c_3a4d];
    let full = gc_pressure_vm().run().expect("runs");
    assert!(full.stats.gc.collections > 0, "GC never ran");
    let got = checkpoint_digests(&full);
    assert_eq!(
        got, PINNED,
        "post-GC checkpoint bytes changed (actual: {got:#018x?})"
    );
}

// ----------------------------------- cache-bypass paths under snapshot

/// A method bigger than the whole code cache can never be resident; the
/// cache serves it in bypass mode. The bypass path must behave
/// identically live and across a restore.
#[test]
fn oversized_method_bypasses_code_cache_live_and_across_restore() {
    // A straight-line method large enough to out-size a 2 KiB code
    // cache once compiled.
    let mut body = vec![Stmt::Let("acc".into(), i32c(1))];
    for k in 0..400 {
        body.push(Stmt::Assign(
            "acc".into(),
            bxor(mul(local("acc"), i32c(31)), i32c(k)),
        ));
    }
    body.push(Stmt::Return(Some(local("acc"))));
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let big = declare_static(&mut pb, c, "big", vec![], Some(Ty::Int));
    define(&mut pb, big, vec![], body).expect("big compiles");
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("s".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(200),
                vec![Stmt::Assign("s".into(), add(local("s"), call(big, vec![])))],
            ),
            Stmt::Return(Some(local("s"))),
        ],
    )
    .expect("main compiles");
    let program = pb.finish_with_entry("Main", "main").unwrap();

    let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(8 << 10, 2 << 10);
    cfg.heap.size_bytes = 64 << 10;
    let vm = HeraJvm::new(program, cfg.with_checkpoint_every(200_000)).expect("constructs");
    let full = vm.run().expect("runs");
    assert!(full.is_clean(), "traps: {:?}", full.traps);
    assert!(
        full.stats.code_cache.bypasses > 0,
        "expected the oversized method to bypass the code cache: {:?}",
        full.stats.code_cache
    );
    assert!(!full.checkpoints.is_empty(), "run took no checkpoints");
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, "oversized-method restore");
    }
}

/// A transfer unit bigger than the whole data cache is accessed in
/// bypass mode (direct main-memory DMA per access) — live and across a
/// restore. Arrays are cached in `array_block_bytes` units, so an 8 KiB
/// block against a 4 KiB cache exercises the `align8(len) > capacity`
/// bypass on every block.
#[test]
fn oversized_array_bypasses_data_cache_live_and_across_restore() {
    let vm = HeraJvm::new(
        main_program(Some(Ty::Int), bypass_array_body()),
        bypass_array_config().with_checkpoint_every(200_000),
    )
    .expect("constructs");
    let full = vm.run().expect("runs");
    assert!(full.is_clean(), "traps: {:?}", full.traps);
    assert_eq!(full.result, Some(Value::I32(4096 * 4095 / 2)));
    assert!(
        full.stats.data_cache.bypasses > 0,
        "expected the oversized array to bypass the data cache: {:?}",
        full.stats.data_cache
    );
    assert!(!full.checkpoints.is_empty(), "run took no checkpoints");
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, "oversized-array restore");
    }
}

/// Fill a 4096-int array, then sum it.
fn bypass_array_body() -> Vec<Stmt> {
    vec![
        Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(4096))),
        Stmt::Let("s".into(), i32c(0)),
        for_range(
            "i",
            i32c(0),
            i32c(4096),
            vec![Stmt::SetIndex(local("a"), local("i"), local("i"))],
        ),
        for_range(
            "j",
            i32c(0),
            i32c(4096),
            vec![Stmt::Assign(
                "s".into(),
                add(local("s"), index(local("a"), local("j"))),
            )],
        ),
        Stmt::Return(Some(local("s"))),
    ]
}

fn bypass_array_config() -> VmConfig {
    let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(4 << 10, 8 << 10);
    cfg.heap.size_bytes = 128 << 10;
    cfg.array_block_bytes = 8 << 10; // unit > cache capacity → bypass
    cfg
}

/// The bypass cell's virtual time, pinned across commits: wall cycles,
/// the SPE breakdown, the data cache's counters and the DMA count of a
/// run in which every array access misses, bypasses and DMAs one element.
#[test]
fn bypass_cell_matches_pinned_values() {
    let vm = HeraJvm::new(
        main_program(Some(Ty::Int), bypass_array_body()),
        bypass_array_config(),
    )
    .expect("constructs");
    let out = vm.run().expect("runs");
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32(4096 * 4095 / 2)));
    let dc = out.stats.data_cache;
    assert_eq!(
        (
            out.stats.wall_cycles,
            out.stats.spe.to_raw(),
            [dc.hits, dc.misses, dc.purges, dc.writebacks, dc.bypasses],
            [dc.bytes_fetched, dc.bytes_written_back],
            out.stats.bus.transfers,
        ),
        (
            3_190_209,
            (
                [0, 62564, 65550, 127051, 98354, 2836690],
                [0, 28673, 16386, 45071, 16387, 16385],
            ),
            [3, 16381, 0, 1, 16380],
            [8, 8],
            16384,
        ),
        "bypass cell changed"
    );
}

/// Objects are cached whole, so a single object larger than the data
/// cache bypasses on every field access.
#[test]
fn oversized_object_bypasses_data_cache_live_and_across_restore() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let big = pb.add_class("Big", None);
    // 700 int fields ≈ 2.8 KiB object against a 2 KiB data cache.
    let first = pb.add_field(big, "f0", Ty::Int);
    for k in 1..700 {
        pb.add_field(big, &format!("f{k}"), Ty::Int);
    }
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("p".into(), Expr::New(big)),
            Stmt::Let("s".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(50),
                vec![
                    Stmt::SetField(local("p"), first, local("i")),
                    Stmt::Assign("s".into(), add(local("s"), field(local("p"), first))),
                ],
            ),
            Stmt::Return(Some(local("s"))),
        ],
    )
    .expect("main compiles");
    let program = pb.finish_with_entry("Main", "main").unwrap();

    let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(2 << 10, 8 << 10);
    cfg.heap.size_bytes = 64 << 10;
    let vm = HeraJvm::new(program, cfg.with_checkpoint_every(100_000)).expect("constructs");
    let full = vm.run().expect("runs");
    assert!(full.is_clean(), "traps: {:?}", full.traps);
    assert_eq!(full.result, Some(Value::I32((0..50).sum())));
    assert!(
        full.stats.data_cache.bypasses > 0,
        "expected the oversized object to bypass the data cache: {:?}",
        full.stats.data_cache
    );
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, "oversized-object restore");
    }
}

// --------------------------------------------- OOM semantics + snapshot

/// The allocator must GC and retry rather than trap, and the
/// checkpointed run restores to the same outcome.
#[test]
fn gc_then_retry_avoids_oom_and_survives_restore() {
    let vm = gc_pressure_vm();
    let full = vm.run().expect("runs");
    assert!(full.is_clean(), "GC-then-retry failed: {:?}", full.traps);
    assert_eq!(full.result, Some(Value::I32(2_999)));
    assert!(full.stats.gc.collections > 0, "GC never ran");
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, "gc-pressure restore");
    }
}

/// Build a program where a spawned worker retains every allocation (a
/// linked list) until the heap is truly exhausted, while `main` does
/// allocation-free work and returns a constant.
fn oom_worker_program() -> hera_isa::Program {
    use hera_core::native::install_runtime;
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let node = pb.add_class("Node", None);
    let fnext = pb.add_field(node, "next", Ty::Ref(node));
    let fpay = pb.add_field(node, "pay", Ty::Array(ElemTy::Int));
    let worker = pb.add_class("Hog", Some(api.thread_class));
    let run = declare_virtual(&mut pb, worker, "run", vec![], None);
    define(
        &mut pb,
        run,
        vec![("this", Ty::Ref(worker))],
        vec![
            Stmt::Let("head".into(), cast(Ty::Ref(node), Expr::Null)),
            // Unbounded retained allocation: must eventually trap OOM.
            for_range(
                "i",
                i32c(0),
                i32c(1_000_000),
                vec![
                    Stmt::Let("n".into(), Expr::New(node)),
                    Stmt::SetField(local("n"), fnext, local("head")),
                    Stmt::SetField(local("n"), fpay, new_array(ElemTy::Int, i32c(64))),
                    Stmt::Assign("head".into(), local("n")),
                ],
            ),
        ],
    )
    .expect("run compiles");
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Expr(call(api.spawn, vec![Expr::New(worker)])),
            // Allocation-free spin so main outlives a few GC cycles
            // without ever needing the heap.
            Stmt::Let("s".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(2_000),
                vec![Stmt::Assign("s".into(), add(local("s"), i32c(3)))],
            ),
            Stmt::Return(Some(local("s"))),
        ],
    )
    .expect("main compiles");
    pb.finish_with_entry("Main", "main").expect("resolves")
}

/// True exhaustion: GC runs but cannot free (everything is reachable),
/// the allocating thread traps `OutOfMemory`, and *only* that thread
/// dies — the entry thread still completes with its result.
#[test]
fn oom_trap_kills_only_the_allocating_thread() {
    let mut cfg = VmConfig::pinned_ppe();
    cfg.heap.size_bytes = 64 << 10;
    let vm = HeraJvm::new(oom_worker_program(), cfg).expect("constructs");
    let out = vm.run().expect("the VM itself must not fail");
    assert_eq!(
        out.result,
        Some(Value::I32(6_000)),
        "the entry thread must complete despite the worker's OOM"
    );
    assert_eq!(
        out.traps.len(),
        1,
        "exactly one thread traps: {:?}",
        out.traps
    );
    assert_eq!(out.traps[0].1, Trap::OutOfMemory);
    assert!(
        out.traps[0].0 != hera_core::ThreadId(0),
        "the trap must land on the worker, not the entry thread"
    );
    assert!(
        out.stats.gc.collections > 0,
        "OOM must be preceded by at least one full GC attempt"
    );
}

/// Checkpoint *before* exhaustion, then restore: the resumed run must
/// march into the same OOM at the same point with identical stats.
#[test]
fn restore_before_exhaustion_replays_the_same_oom() {
    let mut cfg = VmConfig::pinned_ppe().with_checkpoint_every(150_000);
    cfg.heap.size_bytes = 64 << 10;
    let vm = HeraJvm::new(oom_worker_program(), cfg).expect("constructs");
    let full = vm.run().expect("runs");
    assert_eq!(full.traps.len(), 1);
    assert_eq!(full.traps[0].1, Trap::OutOfMemory);
    assert!(
        !full.checkpoints.is_empty(),
        "need at least one checkpoint before exhaustion"
    );
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        assert_same_outcome(&full, &restored, "pre-OOM restore");
    }
}

// ------------------------------------- a thread dead mid-loop, in bytes

/// `main` spawns a worker whose `run` is `setup` followed by a 100-pass
/// loop over `step` (loop variable `i`), then spins allocation-free for
/// long enough to be checkpointed well after the worker is gone.
fn dying_worker_program(setup: Vec<Stmt>, step: Vec<Stmt>) -> hera_isa::Program {
    use hera_core::native::install_runtime;
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let worker = pb.add_class("Doomed", Some(api.thread_class));
    let run = declare_virtual(&mut pb, worker, "run", vec![], None);
    let mut body = setup;
    body.push(for_range("i", i32c(0), i32c(100), step));
    define(&mut pb, run, vec![("this", Ty::Ref(worker))], body).expect("run compiles");
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Expr(call(api.spawn, vec![Expr::New(worker)])),
            Stmt::Let("s".into(), i32c(1)),
            for_range(
                "i",
                i32c(0),
                i32c(20_000),
                vec![Stmt::Assign(
                    "s".into(),
                    bxor(mul(local("s"), i32c(31)), local("i")),
                )],
            ),
            Stmt::Return(Some(local("s"))),
        ],
    )
    .expect("main compiles");
    pb.finish_with_entry("Main", "main").expect("resolves")
}

/// A thread that trapped in the middle of a loop stays in every later
/// checkpoint — its frame's `pc` and `sp`, its behaviour window, its
/// arena with whatever operands the trapping op had already popped — so
/// those bytes pin how far a trapping op got. One worker per trap a
/// three-op `Load Load X` sequence can end in: a zero divisor, an index
/// past the end, a null array. Captured on the 1:1 engine (ISSUE 23's
/// first commit).
#[test]
fn dead_thread_checkpoints_match_pinned_values() {
    let int_array = Ty::Array(ElemTy::Int);
    let cases: [(&str, Vec<Stmt>, Vec<Stmt>, Trap); 3] = [
        (
            "div",
            vec![
                Stmt::Let("n".into(), i32c(1000)),
                Stmt::Let("d".into(), i32c(40)),
                Stmt::Let("acc".into(), i32c(0)),
            ],
            vec![
                Stmt::Let("q".into(), div(local("n"), local("d"))),
                Stmt::Assign("acc".into(), add(local("acc"), local("q"))),
                Stmt::Assign("d".into(), sub(local("d"), i32c(1))),
            ],
            Trap::DivisionByZero,
        ),
        (
            "bounds",
            vec![
                Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(40))),
                Stmt::Let("acc".into(), i32c(0)),
            ],
            vec![
                Stmt::Let("x".into(), index(local("a"), local("i"))),
                Stmt::Assign("acc".into(), add(local("acc"), local("x"))),
            ],
            Trap::ArrayIndexOutOfBounds { index: 40, len: 40 },
        ),
        (
            "null",
            vec![
                Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(128))),
                Stmt::Let("acc".into(), i32c(0)),
            ],
            vec![
                Stmt::If(
                    cmp_eq(local("i"), i32c(40)),
                    vec![Stmt::Assign("a".into(), cast(int_array, Expr::Null))],
                    vec![],
                ),
                Stmt::Let("x".into(), index(local("a"), local("i"))),
                Stmt::Assign("acc".into(), add(local("acc"), local("x"))),
            ],
            Trap::NullPointer,
        ),
    ];
    // (case/core, wall cycles, digest64 of each checkpoint)
    const PINNED: [(&str, u64, &[u64]); 6] = [
        (
            "div/ppe",
            520_601,
            &[0x2b8a_3701_508a_4c45, 0xf764_39dd_b25f_b96e],
        ),
        (
            "div/spe2",
            709_985,
            &[
                0x575e_6863_5bc8_e068,
                0xb842_7147_9c1b_e603,
                0x1b0b_2f96_eef3_9720,
            ],
        ),
        (
            "bounds/ppe",
            519_911,
            &[0xb537_fa8f_6abc_22f1, 0xf57b_f198_80c4_52dd],
        ),
        (
            "bounds/spe2",
            709_985,
            &[
                0xd75c_64cd_4fbd_6bff,
                0x1237_a859_d7dc_e814,
                0xf8c0_1cf6_b9ff_896d,
            ],
        ),
        (
            "null/ppe",
            520_884,
            &[0x7acb_c9d1_25ae_b225, 0x9b75_09ca_e177_e9c3],
        ),
        (
            "null/spe2",
            709_985,
            &[
                0xddaa_19f1_d8bf_fc57,
                0x5db8_0537_9f92_b65e,
                0x4e2b_96f3_0348_78b7,
            ],
        ),
    ];
    let mut got = Vec::new();
    for (name, setup, step, trap) in cases {
        let program = dying_worker_program(setup, step);
        let run = program
            .method_by_name("Doomed", "run", 0)
            .expect("worker has a run method");
        let code = program.method(run).code().expect("bytecode");
        assert!(
            code.windows(3).any(|w| matches!(
                w,
                [
                    Instr::Load(_),
                    Instr::Load(_),
                    Instr::IDiv | Instr::ALoad(_)
                ]
            )),
            "{name}: the worker's loop holds a `Load Load X` sequence"
        );
        for (core, cfg) in [
            ("ppe", VmConfig::pinned_ppe()),
            ("spe2", VmConfig::pinned_spe(2)),
        ] {
            let mut cfg = cfg.with_checkpoint_every(200_000);
            cfg.heap.size_bytes = 128 << 10;
            let out = HeraJvm::new(program.clone(), cfg)
                .expect("constructs")
                .run()
                .expect("runs");
            let label = format!("{name}/{core}");
            assert_eq!(
                out.traps,
                vec![(hera_core::ThreadId(1), trap.clone())],
                "{label}: only the worker dies, of its own trap"
            );
            assert!(out.result.is_some(), "{label}: main completes");
            assert!(
                out.checkpoints.len() >= 2,
                "{label}: main must be checkpointed after the worker died"
            );
            got.push((label, out.stats.wall_cycles, checkpoint_digests(&out)));
        }
    }
    let pinned: Vec<(String, u64, Vec<u64>)> = PINNED
        .iter()
        .map(|&(l, w, d)| (l.to_string(), w, d.to_vec()))
        .collect();
    assert_eq!(
        got, pinned,
        "dead-thread checkpoints changed (actual: {got:#x?})"
    );
}

/// Every counter of every stats struct the CORE section carries survives
/// a checkpoint, in its own field. Each counter gets a distinct non-zero
/// value, so a dropped, swapped or misplaced counter changes the pinned
/// digest or fails a comparison — which the real-run digests cannot see
/// for counters a run leaves at zero.
#[test]
fn every_counter_survives_a_checkpoint() {
    use hera_core::snapshot::{restore_into, RestoreMode};
    use hera_core::world::World;
    const PINNED: u64 = 0x0556_82ed_80d8_9753;

    let program = mixing_program(10);
    let cfg = VmConfig::pinned_spe(2);
    let mut w = World::new(&program, cfg);
    let mut next = 1000u64;
    let mut v = || {
        next += 7919;
        next
    };
    let fs = &mut w.machine.fault_stats;
    for c in [
        &mut fs.injected_mfc_transfer,
        &mut fs.injected_eib_timeout,
        &mut fs.injected_ls_corruption,
        &mut fs.injected_proxy_timeout,
        &mut fs.injected_migration_timeout,
        &mut fs.mfc_retries,
        &mut fs.backoff_cycles,
        &mut fs.watchdog_cycles,
        &mut fs.unrecoverable,
        &mut fs.drained_threads,
        &mut fs.salvaged_bytes,
    ] {
        *c = v();
    }
    fs.deaths = vec![(1, v())];
    let hs = &mut w.machine.ppe_cache.stats;
    for c in [
        &mut hs.accesses,
        &mut hs.l1_hits,
        &mut hs.l2_hits,
        &mut hs.memory_accesses,
    ] {
        *c = v();
    }
    w.heap.stats.allocations = v();
    w.heap.stats.bytes_allocated = v();
    for dc in &mut w.data_caches {
        let s = &mut dc.stats;
        for c in [
            &mut s.hits,
            &mut s.misses,
            &mut s.purges,
            &mut s.writebacks,
            &mut s.bytes_fetched,
            &mut s.bytes_written_back,
            &mut s.bypasses,
        ] {
            *c = v();
        }
    }
    for cc in &mut w.code_caches {
        let s = &mut cc.stats;
        for c in [
            &mut s.method_hits,
            &mut s.method_misses,
            &mut s.tib_hits,
            &mut s.tib_misses,
            &mut s.purges,
            &mut s.bytes_loaded,
            &mut s.toc_lookups,
            &mut s.bypasses,
        ] {
            *c = v();
        }
    }
    let mut rs = w.registry.stats();
    for c in [
        &mut rs.ppe_compilations,
        &mut rs.spe_compilations,
        &mut rs.dual_compiled,
        &mut rs.ppe_compile_cycles,
        &mut rs.spe_compile_cycles,
        &mut rs.ppe_code_bytes,
        &mut rs.spe_code_bytes,
    ] {
        *c = v();
    }
    w.registry.set_stats(rs);
    let gc = &mut w.gc;
    for c in [
        &mut gc.collections,
        &mut gc.ppe_cycles,
        &mut gc.objects_freed,
        &mut gc.bytes_freed,
    ] {
        *c = v();
    }

    let bytes = w.checkpoint_now();
    let digest = hera_snap::digest64(&bytes);
    assert_eq!(
        digest, PINNED,
        "counter checkpoint changed (actual: {digest:#018x})"
    );
    let mut back = World::new(&program, cfg);
    restore_into(&mut back, &bytes, RestoreMode::Strict).expect("restores");
    assert_eq!(back.machine.fault_stats, w.machine.fault_stats);
    assert_eq!(back.machine.ppe_cache.stats, w.machine.ppe_cache.stats);
    assert_eq!(back.heap.stats, w.heap.stats);
    for (b, a) in back.data_caches.iter().zip(&w.data_caches) {
        assert_eq!(b.stats, a.stats);
    }
    for (b, a) in back.code_caches.iter().zip(&w.code_caches) {
        assert_eq!(b.stats, a.stats);
    }
    assert_eq!(back.registry.stats(), w.registry.stats());
    assert_eq!(back.gc, w.gc);
}
