//! Random-pattern fault-simulation campaigns.

use crate::collapse::{collapse_active, FaultClasses};
use crate::fault::Fault;
use crate::observe::structurally_observable;
use r2d3_netlist::{pack_blocks, FaultSim, NetId, Netlist, SimBlock, SimScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pattern blocks whose good-value vectors are held in memory at once.
/// Bounds peak memory at `BLOCK_BATCH * num_nets * 8` bytes while still
/// amortizing each fault's cone derivation over many blocks.
const BLOCK_BATCH: usize = 32;

/// 64-pattern blocks fused into one 512-lane walk ([`SimScratch`]) —
/// a full cache line of lanes per net, matching the SIMD kernels'
/// widest (AVX-512) chunk.
const LANE_GROUP: usize = 8;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Total test patterns to apply (rounded up to a multiple of 64, the
    /// bit-parallel block width). The paper's budget is 10 M ATPG
    /// instructions; one pattern models one test instruction.
    pub max_patterns: usize,
    /// RNG seed for pattern generation.
    pub seed: u64,
    /// Number of worker threads for the fault loop (1 = serial). Thread
    /// count never changes results: faults are simulated independently
    /// over the same pattern sequence.
    pub threads: usize,
}

impl CampaignConfig {
    /// Default worker count: the machine's available parallelism, capped
    /// at 8 (the fault loop saturates memory bandwidth beyond that).
    #[must_use]
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_patterns: 8192,
            seed: 0xA7C6,
            threads: CampaignConfig::default_threads(),
        }
    }
}

/// Classification of one fault after the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// Fault effect observed; `pattern` is the first detecting pattern
    /// index (a proxy for detection latency in test instructions).
    Detected {
        /// First detecting pattern index.
        pattern: usize,
    },
    /// Detectable in principle but not detected within the pattern budget.
    Undetected,
    /// Provably undetectable: the site is redundant by construction or has
    /// no structural path to any observed output.
    Undetectable,
}

impl FaultStatus {
    /// `true` for [`FaultStatus::Detected`].
    #[must_use]
    pub fn is_detected(self) -> bool {
        matches!(self, FaultStatus::Detected { .. })
    }
}

/// Result of a campaign: per-fault classifications in input order.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    faults: Vec<Fault>,
    statuses: Vec<FaultStatus>,
    patterns_applied: usize,
}

impl CampaignOutcome {
    /// Reassembles an outcome from parts (used by
    /// [`crate::observe::core_level_campaign`] to split a composed-chain
    /// outcome back into per-stage views).
    pub(crate) fn from_raw_parts(
        faults: Vec<Fault>,
        statuses: Vec<FaultStatus>,
        patterns_applied: usize,
    ) -> Self {
        CampaignOutcome { faults, statuses, patterns_applied }
    }

    /// The faults, in the order supplied to [`run_campaign`].
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Per-fault statuses, parallel to [`faults`](CampaignOutcome::faults).
    #[must_use]
    pub fn statuses(&self) -> &[FaultStatus] {
        &self.statuses
    }

    /// `(fault, status)` pairs.
    pub fn results(&self) -> Vec<(Fault, FaultStatus)> {
        self.faults.iter().copied().zip(self.statuses.iter().copied()).collect()
    }

    /// Iterator over detected faults with their detection pattern index.
    pub fn detected(&self) -> impl Iterator<Item = (Fault, usize)> + '_ {
        self.faults.iter().zip(&self.statuses).filter_map(|(f, s)| match s {
            FaultStatus::Detected { pattern } => Some((*f, *pattern)),
            _ => None,
        })
    }

    /// Number of faults in each class: `(detected, undetected, undetectable)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for s in &self.statuses {
            match s {
                FaultStatus::Detected { .. } => c.0 += 1,
                FaultStatus::Undetected => c.1 += 1,
                FaultStatus::Undetectable => c.2 += 1,
            }
        }
        c
    }

    /// Fraction of *all* faults that are detectable (detected + undetected),
    /// the quantity the paper reports as coverage in Fig. 4(b).
    #[must_use]
    pub fn detectable_fraction(&self) -> f64 {
        let (d, u, _) = self.counts();
        (d + u) as f64 / self.statuses.len().max(1) as f64
    }

    /// Fraction of detectable faults that were detected within the budget.
    #[must_use]
    pub fn detected_of_detectable(&self) -> f64 {
        let (d, u, _) = self.counts();
        d as f64 / (d + u).max(1) as f64
    }

    /// Patterns actually applied.
    #[must_use]
    pub fn patterns_applied(&self) -> usize {
        self.patterns_applied
    }
}

/// Classifies provably undetectable faults (redundant by construction or
/// structurally unobservable); returns the indices that need simulation.
fn preclassify(netlist: &Netlist, faults: &[Fault], statuses: &mut [FaultStatus]) -> Vec<usize> {
    let observable = structurally_observable(netlist, netlist.outputs());
    let mut active = Vec::with_capacity(faults.len());
    for (i, fault) in faults.iter().enumerate() {
        let redundant = netlist
            .redundant_constants()
            .iter()
            .any(|&(net, val)| net == fault.net && val == fault.stuck);
        if redundant || !observable[fault.net.index()] {
            statuses[i] = FaultStatus::Undetectable;
        } else {
            active.push(i);
        }
    }
    active
}

/// Generates the campaign's pattern blocks up front (one `Vec<u64>` of
/// input lanes per 64-pattern block), drawing from the same RNG stream
/// the campaign has always used so results stay seed-compatible.
fn pattern_blocks(netlist: &Netlist, blocks: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..blocks).map(|_| (0..netlist.num_inputs()).map(|_| rng.gen()).collect()).collect()
}

/// Runs a random-pattern stuck-at campaign over `faults` on `netlist`,
/// observing the netlist's primary outputs.
///
/// Faults that are ground-truth redundant
/// ([`Netlist::redundant_constants`]) or structurally unobservable from
/// the outputs are classified [`FaultStatus::Undetectable`] without
/// simulation. The rest are **collapsed** into structural equivalence
/// classes ([`FaultClasses`]) and only one representative per class is
/// simulated; class members receive the representative's verdict at the
/// end. Because the classes are function-exact, the expanded statuses,
/// first-detection pattern indices, and applied-pattern counts are
/// byte-identical to simulating every fault.
///
/// Representatives are fault-simulated incrementally ([`FaultSim`]),
/// one walk per **fanout-free-region stem** rather than one per fault:
/// a fault's effect leaves its region only through the stem, so each
/// fault's lanes are narrowed to those on which it flips the stem
/// ([`FaultSim::sensitize`]), and one walk seeded at the stem with the
/// union of its faults' lanes detects each of them exactly on its own
/// (see `simulate_batch`). Pattern blocks are processed in batches
/// whose good-value vectors are cached and fused into 512-lane groups
/// of eight blocks ([`pack_blocks`]), walked with the engine's
/// runtime-dispatched SIMD kernel. Detection accounting stays
/// block-exact: within a group the earliest block with a nonzero
/// detection word wins, and its `trailing_zeros` picks the lane, so
/// classifications, first-detection pattern indices, and applied-pattern
/// counts are identical to walking the 64-lane blocks one at a time.
/// Detected faults are dropped from later batches.
///
/// Results are bit-identical to [`run_campaign_reference`] for any seed
/// and any thread count.
#[must_use]
pub fn run_campaign(
    netlist: &Netlist,
    faults: &[Fault],
    config: &CampaignConfig,
) -> CampaignOutcome {
    debug_assert!(
        r2d3_netlist::ir::validate(netlist).is_ok(),
        "campaign requires a valid IR netlist: {:?}",
        r2d3_netlist::ir::validate(netlist)
    );
    let blocks = config.max_patterns.div_ceil(64).max(1);
    let mut statuses = vec![FaultStatus::Undetected; faults.len()];
    let active = preclassify(netlist, faults, &mut statuses);

    // Collapse the active faults: simulate one representative per
    // equivalence class, expand verdicts to members afterwards.
    let classes = FaultClasses::build(netlist);
    let (reps, expansions) = collapse_active(&classes, faults, &active);
    let mut remaining = reps;

    let engine = FaultSim::new(netlist);
    // Faults of one stem sit together (and a site's two polarities side
    // by side), so each stem's turn is one contiguous run. Dropping
    // detected faults keeps the order.
    remaining.sort_unstable_by_key(|&fi| {
        let f = faults[fi];
        (engine.stem(f.net), f.net, f.stuck)
    });
    let inputs = pattern_blocks(netlist, blocks, config.seed);
    let threads = config.threads.max(1);
    let mut blocks_applied = 0usize;
    let mut goods: Vec<Vec<u64>> = Vec::new();

    for batch_start in (0..blocks).step_by(BLOCK_BATCH) {
        if remaining.is_empty() {
            break;
        }
        let batch = &inputs[batch_start..blocks.min(batch_start + BLOCK_BATCH)];
        goods.truncate(batch.len());
        goods.resize_with(batch.len(), Vec::new);
        for (buf, pattern) in goods.iter_mut().zip(batch) {
            netlist.eval_all_into(pattern, buf);
        }
        // Fuse the batch's good vectors into 512-lane groups, shared by
        // every fault (and every worker) this batch. The first batch's
        // first block is covered by the one-block probe in
        // `simulate_batch` — most detectable faults die there — so its
        // groups start at the second block. Later batches hold only
        // hard-to-detect survivors, for which a one-block probe almost
        // always misses; they go straight to the wide groups. A trailing
        // partial group pads by repeating its last block; `real` marks
        // how many lane groups carry genuine patterns.
        let probe = batch_start == 0;
        let grouped = if probe { &goods[1..] } else { &goods[..] };
        let groups: Vec<(Vec<SimBlock<LANE_GROUP>>, usize)> = grouped
            .chunks(LANE_GROUP)
            .map(|chunk| {
                let refs: Vec<&[u64]> = chunk.iter().map(Vec::as_slice).collect();
                (pack_blocks::<LANE_GROUP>(&refs), chunk.len())
            })
            .collect();

        let results = if threads == 1 || remaining.len() < 128 {
            simulate_batch(&engine, faults, &remaining, &goods, &groups, batch_start)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = stem_chunks(&engine, faults, &remaining, threads)
                    .into_iter()
                    .map(|chunk| {
                        let (engine, goods, groups) = (&engine, &goods, &groups);
                        scope.spawn(move || {
                            simulate_batch(engine, faults, chunk, goods, groups, batch_start)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("campaign worker panicked"))
                    .collect::<Vec<_>>()
            })
        };

        // Workers cover disjoint chunks of `remaining` in order, so the
        // concatenated results are parallel to `remaining`.
        let mut next = Vec::with_capacity(remaining.len());
        for (fi, detected, blocks_used) in results {
            blocks_applied = blocks_applied.max(blocks_used);
            match detected {
                Some(status) => statuses[fi] = status,
                None => next.push(fi),
            }
        }
        remaining = next;
    }

    // Expand class verdicts: every member inherits its representative's
    // status (byte-identical to simulating the member — the classes are
    // function-exact, so detect words match block for block).
    for (member, rep) in expansions {
        statuses[member] = statuses[rep];
    }

    CampaignOutcome { faults: faults.to_vec(), statuses, patterns_applied: blocks_applied * 64 }
}

/// Splits the stem-sorted `remaining` into at most `parts` contiguous
/// chunks of about equal length, each cut moved forward to the next
/// stem boundary, so every worker owns whole stems.
fn stem_chunks<'r>(
    engine: &FaultSim,
    faults: &[Fault],
    remaining: &'r [usize],
    parts: usize,
) -> Vec<&'r [usize]> {
    let target = remaining.len().div_ceil(parts);
    let mut chunks = Vec::with_capacity(parts);
    let mut rest = remaining;
    while !rest.is_empty() {
        let mut cut = target.min(rest.len());
        let stem = engine.stem(faults[rest[cut - 1]].net);
        while cut < rest.len() && engine.stem(faults[rest[cut]].net) == stem {
            cut += 1;
        }
        let (head, tail) = rest.split_at(cut);
        chunks.push(head);
        rest = tail;
    }
    chunks
}

/// One fault's progress through a batch: its index, its detection (if
/// any) and the last block it reached plus one.
type Progress = (usize, Option<FaultStatus>, usize);

/// Simulates the faults of `chunk` (stem-sorted, whole stems) over one
/// batch of cached good values. Returns one [`Progress`] per fault,
/// parallel to `chunk`.
///
/// A fault's walk is shared by its whole fanout-free region. A stuck-at
/// fault differs from the good circuit only on its excitation lanes,
/// where it flips its site. Every net between the site and its stem has
/// one reader and is not an output, so the flip reaches the stem
/// exactly on the lanes where each path gate passes it, and reaches the
/// outputs only through the stem. The fault's detect word is therefore
/// `mask & obs`: `mask` its excitation lanes ANDed with the path gates'
/// Boolean differences ([`FaultSim::sensitize`]), `obs` the detect word
/// of one walk seeded at the stem with the union of its pending faults'
/// masks. Lanes never interact, so each fault's word is exact on its
/// own lanes.
///
/// The probe, a `W = 1` walk, covers the batch's first block once per
/// stem, and stops once every fault's lowest masked lane is observed
/// (the excitation freeze: each word is a subset of its mask, so its
/// verdict and first lane are pinned). The probe block *is* the batch's
/// first block and the wide groups then start at the second, so a hit
/// pins exactly the pattern a block-by-block walk would have found, and
/// a miss still charges the probe block to the accounting. Later batches
/// hold hard-to-detect survivors and skip the probe. Each lane group
/// then walks once per stem whose union is nonzero on a real block; a
/// fault detected in group `g` skips later groups, and within a group
/// the *earliest* block with a nonzero word is the detecting block, with
/// `trailing_zeros` picking the lane. Only that block and its
/// predecessors count as applied; padded lanes of a trailing partial
/// group (`real < LANE_GROUP`) are never seeded.
fn simulate_batch(
    engine: &FaultSim,
    faults: &[Fault],
    chunk: &[usize],
    goods: &[Vec<u64>],
    groups: &[(Vec<SimBlock<LANE_GROUP>>, usize)],
    batch_start: usize,
) -> Vec<Progress> {
    let mut results: Vec<Progress> = chunk.iter().map(|&fi| (fi, None, batch_start)).collect();
    // Mirrors the group slicing in `run_campaign`.
    let probe = batch_start == 0;
    if probe {
        let good = goods[0].as_chunks::<1>().0;
        let mut probe_scratch = SimScratch::<1>::new();
        for_each_stem(
            engine,
            faults,
            &mut results,
            good,
            1,
            |stem, union, masks| {
                let exit = masks.iter().fold(0, |e, (_, [m])| e | (m & m.wrapping_neg()));
                engine.seeded_walk(good, stem, union, [exit], &mut probe_scratch);
                probe_scratch.detect_words()
            },
            |(_, detected, blocks_used), [word]| {
                *blocks_used = batch_start + 1;
                if word != 0 {
                    let lane = word.trailing_zeros() as usize;
                    *detected = Some(FaultStatus::Detected { pattern: batch_start * 64 + lane });
                }
            },
        );
    }
    let mut wide = SimScratch::<LANE_GROUP>::new();
    for (gi, (good, real)) in groups.iter().enumerate() {
        let group_start = batch_start + usize::from(probe) + gi * LANE_GROUP;
        for_each_stem(
            engine,
            faults,
            &mut results,
            good,
            *real,
            |stem, union, _| {
                engine.seeded_walk(good, stem, union, [0; LANE_GROUP], &mut wide);
                wide.detect_words()
            },
            |(_, detected, blocks_used), words| {
                if let Some(g) = (0..*real).find(|&g| words[g] != 0) {
                    let lane = words[g].trailing_zeros() as usize;
                    *detected =
                        Some(FaultStatus::Detected { pattern: (group_start + g) * 64 + lane });
                    *blocks_used = group_start + g + 1;
                } else {
                    *blocks_used = group_start + real;
                }
            },
        );
    }
    results
}

/// Takes the undetected faults of `results` one stem at a time over the
/// good values of `W` blocks, the first `real` of them genuine. Builds
/// each fault's stem lanes (its index in `results` and mask) into a
/// buffer reused from stem to stem, calls `walk(stem, union, masks)`
/// once if their union is nonzero, and hands every fault its detect
/// words, `mask & obs`, to `classify`.
fn for_each_stem<const W: usize>(
    engine: &FaultSim,
    faults: &[Fault],
    results: &mut [Progress],
    good: &[SimBlock<W>],
    real: usize,
    mut walk: impl FnMut(NetId, SimBlock<W>, &[(usize, SimBlock<W>)]) -> SimBlock<W>,
    mut classify: impl FnMut(&mut Progress, SimBlock<W>),
) {
    let mut settle =
        |stem: NetId, masks: &mut Vec<(usize, SimBlock<W>)>, results: &mut [Progress]| {
            let mut union = [0u64; W];
            for (_, mask) in masks.iter() {
                for (u, m) in union.iter_mut().zip(mask) {
                    *u |= m;
                }
            }
            let obs = if union == [0; W] { [0; W] } else { walk(stem, union, masks) };
            for (i, mask) in masks.drain(..) {
                let mut words = mask;
                for (w, o) in words.iter_mut().zip(obs) {
                    *w &= o;
                }
                classify(&mut results[i], words);
            }
        };
    let mut masks = Vec::new();
    // Lanes the fault at `site.0` flips the stem `site.2` on, excited or not.
    let mut site: Option<(NetId, SimBlock<W>, NetId)> = None;
    for i in 0..results.len() {
        let (fi, detected, _) = results[i];
        if detected.is_some() {
            continue;
        }
        let fault = faults[fi];
        let path = match site {
            Some((net, path, _)) if net == fault.net => path,
            _ => {
                let mut path = [0u64; W];
                path[..real].fill(!0);
                let stem = engine.sensitize(good, fault.net, &mut path);
                if let Some((_, _, prev)) = site {
                    if prev != stem {
                        settle(prev, &mut masks, results);
                    }
                }
                site = Some((fault.net, path, stem));
                path
            }
        };
        let value = good[fault.net.index()];
        let mut mask = path;
        for (m, v) in mask.iter_mut().zip(value) {
            *m &= if fault.stuck { !v } else { v };
        }
        masks.push((i, mask));
    }
    if let Some((_, _, stem)) = site {
        settle(stem, &mut masks, results);
    }
}

/// Reference campaign: full-netlist re-evaluation per fault per block via
/// [`Netlist::eval_all_stuck_into`], serial, block-outer. Kept as the
/// correctness oracle and performance baseline for [`run_campaign`]'s
/// incremental engine — both must classify every fault identically, with
/// identical detection pattern indices, for any seed.
#[must_use]
pub fn run_campaign_reference(
    netlist: &Netlist,
    faults: &[Fault],
    config: &CampaignConfig,
) -> CampaignOutcome {
    let blocks = config.max_patterns.div_ceil(64).max(1);
    let mut statuses = vec![FaultStatus::Undetected; faults.len()];
    let mut remaining = preclassify(netlist, faults, &mut statuses);
    let inputs = pattern_blocks(netlist, blocks, config.seed);

    let mut faulty_values: Vec<u64> = Vec::with_capacity(netlist.num_nets());
    let mut blocks_applied = 0usize;
    for (block, input) in inputs.iter().enumerate() {
        if remaining.is_empty() {
            break;
        }
        blocks_applied = block + 1;
        let good = netlist.eval_all(input);
        let good_out = netlist.output_values(&good);
        remaining.retain(|&fi| {
            let fault = faults[fi];
            netlist.eval_all_stuck_into(input, (fault.net, fault.stuck), &mut faulty_values);
            let mut diff = 0u64;
            for (o, g) in netlist.outputs().iter().zip(&good_out) {
                diff |= faulty_values[o.index()] ^ g;
            }
            if diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                statuses[fi] = FaultStatus::Detected { pattern: block * 64 + lane };
                false
            } else {
                true
            }
        });
    }

    CampaignOutcome { faults: faults.to_vec(), statuses, patterns_applied: blocks_applied * 64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use r2d3_netlist::stages::{all_stage_netlists, StageSizing};
    use r2d3_netlist::{compose_chain_with, ComposeOptions, NetlistBuilder};

    fn parity4() -> Netlist {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(4);
        let x = b.xor_tree(&i);
        b.output(x);
        b.finish()
    }

    #[test]
    fn parity_tree_fully_detectable() {
        let nl = parity4();
        let out = run_campaign(&nl, &all_faults(&nl), &CampaignConfig::default());
        let (d, u, un) = out.counts();
        assert_eq!(u, 0);
        assert_eq!(un, 0);
        assert_eq!(d, out.faults().len());
        // XOR propagates every flip: detection should be nearly immediate.
        for (_, pattern) in out.detected() {
            assert!(pattern < 64, "parity fault took {pattern} patterns");
        }
    }

    #[test]
    fn redundant_faults_classified_undetectable() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let z = b.redundant_zero(i[0]);
        let live = b.or2(i[1], z);
        b.output(live);
        let nl = b.finish();
        let faults = all_faults(&nl);
        let out = run_campaign(&nl, &faults, &CampaignConfig::default());
        let sa0_on_z = faults.iter().position(|f| f.net == z && !f.stuck).unwrap();
        assert_eq!(out.statuses()[sa0_on_z], FaultStatus::Undetectable);
        // SA1 on the redundant net *is* detectable (forces the OR high
        // when i1 = 0).
        let sa1_on_z = faults.iter().position(|f| f.net == z && f.stuck).unwrap();
        assert!(out.statuses()[sa1_on_z].is_detected());
    }

    #[test]
    fn unobservable_logic_classified_undetectable() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let dead = b.and2(i[0], i[1]); // never observed
        let live = b.xor2(i[0], i[1]);
        let _ = dead;
        b.output(live);
        let nl = b.finish();
        let faults = all_faults(&nl);
        let out = run_campaign(&nl, &faults, &CampaignConfig::default());
        let dead_fault = faults.iter().position(|f| f.net == dead).unwrap();
        assert_eq!(out.statuses()[dead_fault], FaultStatus::Undetectable);
    }

    #[test]
    fn budget_limits_detection() {
        // An AND tree over many inputs needs the all-ones pattern for SA0
        // at the root; with a tiny budget some faults stay undetected.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(24);
        let root = b.and_tree(&i);
        b.output(root);
        let nl = b.finish();
        let faults = all_faults(&nl);
        let tiny = CampaignConfig { max_patterns: 64, seed: 1, threads: 1 };
        let out = run_campaign(&nl, &faults, &tiny);
        let (_, undetected, _) = out.counts();
        assert!(undetected > 0, "24-input AND should resist 64 random patterns");
        // With a larger budget, coverage must be monotonically better.
        let big = CampaignConfig { max_patterns: 1 << 16, seed: 1, threads: 1 };
        let out_big = run_campaign(&nl, &faults, &big);
        assert!(out_big.counts().0 >= out.counts().0);
    }

    #[test]
    fn threaded_matches_serial() {
        // Enough representatives to pass the serial cutoff: a stage
        // netlist and the composed core-level chain at reduced sizing,
        // over two batches, so workers split stems in the probe batch
        // and in a later one.
        let sizing = StageSizing { gates_per_mm2: 4_000.0, ..Default::default() };
        let stages = all_stage_netlists(&sizing);
        let netlists: Vec<&Netlist> = stages.iter().map(|s| s.netlist()).collect();
        let (chain, _) = compose_chain_with(&netlists, &ComposeOptions::core_level()).unwrap();
        for nl in [stages[1].netlist(), &chain] {
            let faults = all_faults(nl);
            let config = |threads| CampaignConfig { max_patterns: 4_096, seed: 7, threads };
            let serial = run_campaign(nl, &faults, &config(1));
            assert!(serial.counts().1 > 0, "some faults survive the first batch");
            for threads in [2, 3, 8] {
                let par = run_campaign(nl, &faults, &config(threads));
                assert_eq!(serial.statuses(), par.statuses(), "{threads} threads");
                assert_eq!(serial.patterns_applied(), par.patterns_applied(), "{threads} threads");
            }
        }
    }

    #[test]
    fn incremental_matches_reference_oracle() {
        // The incremental engine must classify every fault identically to
        // full re-evaluation, including detection pattern indices and the
        // honest applied-pattern count, on a circuit with redundant and
        // unobservable logic.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(10);
        let x = b.xor_tree(&i[..6]);
        let y = b.and_tree(&i[4..]);
        let z = b.redundant_zero(i[0]);
        let w = b.or2(y, z);
        let dead = b.and2(i[8], i[9]);
        let _ = dead;
        b.output(x);
        b.output(w);
        let nl = b.finish();
        let faults = all_faults(&nl);
        for seed in [1u64, 0xA7C6, 77] {
            let config = CampaignConfig { max_patterns: 2048, seed, threads: 1 };
            let inc = run_campaign(&nl, &faults, &config);
            let reference = run_campaign_reference(&nl, &faults, &config);
            assert_eq!(inc.statuses(), reference.statuses(), "seed {seed}");
            assert_eq!(inc.patterns_applied(), reference.patterns_applied(), "seed {seed}");
        }
    }

    #[test]
    fn partial_lane_groups_match_reference() {
        // Budgets that are not a multiple of 256 leave a trailing partial
        // lane group whose padded lanes must not leak into detection or
        // applied-pattern accounting.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(16);
        let x = b.xor_tree(&i[..5]);
        let y = b.and_tree(&i[4..12]);
        let z = b.or2(x, y);
        b.output(z);
        b.output(y);
        let nl = b.finish();
        let faults = all_faults(&nl);
        for max_patterns in [64usize, 192, 320, 2048 + 128] {
            let config = CampaignConfig { max_patterns, seed: 9, threads: 1 };
            let inc = run_campaign(&nl, &faults, &config);
            let reference = run_campaign_reference(&nl, &faults, &config);
            assert_eq!(inc.statuses(), reference.statuses(), "{max_patterns} patterns");
            assert_eq!(
                inc.patterns_applied(),
                reference.patterns_applied(),
                "{max_patterns} patterns"
            );
        }
    }

    #[test]
    fn patterns_applied_reflects_blocks_simulated() {
        // Parity faults all fall in the first block, so only 64 patterns
        // are actually applied out of the 8192 budget.
        let nl = parity4();
        let out = run_campaign(&nl, &all_faults(&nl), &CampaignConfig::default());
        assert_eq!(out.patterns_applied(), 64);
        // A budget-limited AND tree leaves faults undetected, so the whole
        // budget really is applied.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(24);
        let root = b.and_tree(&i);
        b.output(root);
        let hard = b.finish();
        let tiny = CampaignConfig { max_patterns: 128, seed: 1, threads: 1 };
        let out = run_campaign(&hard, &all_faults(&hard), &tiny);
        assert!(out.counts().1 > 0);
        assert_eq!(out.patterns_applied(), 128);
    }

    #[test]
    fn detectable_fraction_arithmetic() {
        let nl = parity4();
        let out = run_campaign(&nl, &all_faults(&nl), &CampaignConfig::default());
        assert!((out.detectable_fraction() - 1.0).abs() < f64::EPSILON);
        assert!((out.detected_of_detectable() - 1.0).abs() < f64::EPSILON);
    }
}
