//! Fault dictionaries: syndrome-based diagnosis.
//!
//! R2D3 "localizes faults at the granularity of a pipeline unit"
//! (contribution 2). At manufacturing/bring-up time the classical tool
//! for localization is a *fault dictionary*: simulate every fault under a
//! fixed pattern set, record each fault's output syndrome, and look up
//! observed silicon responses in the table. This module provides that
//! flow over the gate-level stage netlists, including the resolution
//! statistics (how many candidate faults share a syndrome) that bound
//! how precisely a symptom can be localized.

use crate::fault::Fault;
use r2d3_netlist::{pack_blocks, FaultCone, FaultSim, Netlist, SimBlock, WideScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A built dictionary: pattern set plus syndrome → candidate-fault map.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    /// Input blocks (64 patterns each), one `Vec<u64>` per block.
    patterns: Vec<Vec<u64>>,
    faults: Vec<Fault>,
    /// Syndrome hash → indices into `faults`.
    classes: HashMap<u64, Vec<usize>>,
    /// Syndrome of the fault-free circuit (hash of all-zero diffs).
    clean_hash: u64,
}

fn hash_words(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        *h ^= w;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

impl FaultDictionary {
    /// Builds a dictionary for `faults` under `blocks` blocks of 64
    /// deterministic pseudo-random patterns.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    #[must_use]
    pub fn build(netlist: &Netlist, faults: &[Fault], blocks: usize, seed: u64) -> Self {
        assert!(blocks > 0, "dictionary needs patterns");
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns: Vec<Vec<u64>> =
            (0..blocks).map(|_| (0..netlist.num_inputs()).map(|_| rng.gen()).collect()).collect();

        // Full net-value vectors per block: the incremental engine
        // simulates each fault's fanout cone against these cached goods
        // instead of re-evaluating the whole netlist per (fault, block).
        let goods: Vec<Vec<u64>> = patterns.iter().map(|p| netlist.eval_all(p)).collect();
        let mut clean_hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in &goods {
            hash_words(&mut clean_hash, netlist.outputs().iter().map(|_| 0u64));
        }

        // Fuse blocks into 512-lane groups and walk each fault's cone
        // once per group with the value-exact wide kernel. Hashing the
        // per-output diff of each *real* block in global block order
        // yields hashes identical to a block-at-a-time walk — lanes are
        // independent, so the wide diffs match the narrow ones bit for
        // bit, and padded lanes are never hashed.
        const DICT_LANES: usize = 8;
        let groups: Vec<(Vec<SimBlock<DICT_LANES>>, usize)> = goods
            .chunks(DICT_LANES)
            .map(|chunk| {
                let refs: Vec<&[u64]> = chunk.iter().map(Vec::as_slice).collect();
                (pack_blocks::<DICT_LANES>(&refs), chunk.len())
            })
            .collect();

        let engine = FaultSim::new(netlist);
        let mut cone = FaultCone::new();
        let mut wide = WideScratch::<DICT_LANES>::new();
        let mut classes: HashMap<u64, Vec<usize>> = HashMap::new();
        for (fi, fault) in faults.iter().enumerate() {
            engine.cone_into(fault.net, &mut cone);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (packed, real) in &groups {
                engine.eval_stuck_wide(packed, (fault.net, fault.stuck), &cone, &mut wide);
                for g in 0..*real {
                    hash_words(
                        &mut h,
                        netlist
                            .outputs()
                            .iter()
                            .map(|&o| wide.value(packed, o)[g] ^ packed[o.index()][g]),
                    );
                }
            }
            classes.entry(h).or_default().push(fi);
        }

        FaultDictionary { patterns, faults: faults.to_vec(), classes, clean_hash }
    }

    /// The pattern blocks the dictionary was built with (apply these to
    /// the device under diagnosis).
    #[must_use]
    pub fn patterns(&self) -> &[Vec<u64>] {
        &self.patterns
    }

    /// Diagnoses a device: `respond` receives each pattern block and must
    /// return the device's primary-output values. Returns the candidate
    /// faults whose dictionary syndrome matches (empty when the response
    /// matches no known single stuck-at fault; the exact clean response
    /// returns the faults whose syndrome is empty, i.e. undetected ones).
    #[must_use]
    pub fn diagnose(
        &self,
        netlist: &Netlist,
        mut respond: impl FnMut(&[u64]) -> Vec<u64>,
    ) -> Vec<Fault> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for pattern in &self.patterns {
            let good = netlist.eval(pattern);
            let observed = respond(pattern);
            hash_words(&mut h, observed.iter().zip(&good).map(|(o, g)| o ^ g));
        }
        self.classes
            .get(&h)
            .map(|idxs| idxs.iter().map(|&i| self.faults[i]).collect())
            .unwrap_or_default()
    }

    /// Whether a response hash equals the fault-free syndrome.
    #[must_use]
    pub fn is_clean_syndrome(
        &self,
        netlist: &Netlist,
        mut respond: impl FnMut(&[u64]) -> Vec<u64>,
    ) -> bool {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for pattern in &self.patterns {
            let good = netlist.eval(pattern);
            let observed = respond(pattern);
            hash_words(&mut h, observed.iter().zip(&good).map(|(o, g)| o ^ g));
        }
        h == self.clean_hash
    }

    /// Diagnostic resolution: mean number of candidate faults per
    /// equivalence class (1.0 = every fault uniquely identifiable).
    #[must_use]
    pub fn resolution(&self) -> f64 {
        if self.classes.is_empty() {
            return 0.0;
        }
        self.faults.len() as f64 / self.classes.len() as f64
    }

    /// Number of distinguishable syndrome classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::collapsed_faults;
    use r2d3_netlist::stages::{stage_netlist, StageSizing};
    use r2d3_netlist::NetlistBuilder;

    #[test]
    fn diagnosis_recovers_the_injected_fault() {
        let sizing = StageSizing { gates_per_mm2: 1_000.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Exu, &sizing);
        let nl = sn.netlist();
        let faults = collapsed_faults(nl);
        let dict = FaultDictionary::build(nl, &faults, 4, 42);

        // Inject every 13th fault and check the dictionary finds it.
        for fault in faults.iter().step_by(13) {
            let candidates = dict.diagnose(nl, |pattern| {
                let v = nl.eval_all_stuck(pattern, (fault.net, fault.stuck));
                nl.output_values(&v)
            });
            assert!(
                candidates.contains(fault),
                "dictionary missed {fault}: candidates {candidates:?}"
            );
        }
    }

    #[test]
    fn clean_device_matches_clean_syndrome() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(6);
        let x = b.xor_tree(&i);
        let y = b.and_tree(&i);
        b.output(x);
        b.output(y);
        let nl = b.finish();
        let faults = crate::fault::all_faults(&nl);
        let dict = FaultDictionary::build(&nl, &faults, 2, 7);
        assert!(dict.is_clean_syndrome(&nl, |p| nl.eval(p)));
    }

    #[test]
    fn resolution_improves_with_more_patterns() {
        let sizing = StageSizing { gates_per_mm2: 800.0, ..Default::default() };
        let sn = stage_netlist(r2d3_isa::Unit::Tlu, &sizing);
        let nl = sn.netlist();
        let faults = collapsed_faults(nl);
        let small = FaultDictionary::build(nl, &faults, 1, 5);
        let large = FaultDictionary::build(nl, &faults, 8, 5);
        assert!(
            large.class_count() >= small.class_count(),
            "more patterns must distinguish at least as many classes ({} vs {})",
            large.class_count(),
            small.class_count()
        );
        assert!(large.resolution() <= small.resolution());
        assert!(large.resolution() >= 1.0);
    }

    #[test]
    fn equivalent_faults_share_a_class() {
        // SA0 on the output of an AND and SA0 on either single-fanout
        // input are classically equivalent — the dictionary must not
        // separate them.
        let mut b = NetlistBuilder::new();
        let i = b.inputs(2);
        let a = b.and2(i[0], i[1]);
        b.output(a);
        let nl = b.finish();
        let faults = vec![Fault::sa0(i[0]), Fault::sa0(i[1]), Fault::sa0(a)];
        let dict = FaultDictionary::build(&nl, &faults, 4, 3);
        assert_eq!(dict.class_count(), 1, "all three SA0s are equivalent");
        assert!((dict.resolution() - 3.0).abs() < 1e-12);
    }
}
