//! Aggregation of campaign outcomes into the paper's Fig. 4 categories.

use crate::campaign::{CampaignOutcome, FaultStatus};

/// Detection-latency buckets from Fig. 4(c), in test instructions
/// (one random pattern models one test instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyBucket {
    /// Detected within 50 instructions.
    Lt50,
    /// Detected within 500 instructions.
    Lt500,
    /// Detected within 5 000 instructions.
    Lt5k,
    /// Detected, but only after more than 5 000 instructions.
    Gt5k,
}

impl LatencyBucket {
    /// All buckets in Fig. 4(c) order.
    pub const ALL: [LatencyBucket; 4] =
        [LatencyBucket::Lt50, LatencyBucket::Lt500, LatencyBucket::Lt5k, LatencyBucket::Gt5k];

    /// Classifies a detection pattern index.
    #[must_use]
    pub fn for_pattern(pattern: usize) -> LatencyBucket {
        match pattern {
            0..=49 => LatencyBucket::Lt50,
            50..=499 => LatencyBucket::Lt500,
            500..=4999 => LatencyBucket::Lt5k,
            _ => LatencyBucket::Gt5k,
        }
    }

    /// Human-readable label matching the figure legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LatencyBucket::Lt50 => "<50",
            LatencyBucket::Lt500 => "<500",
            LatencyBucket::Lt5k => "<5K",
            LatencyBucket::Gt5k => ">5K",
        }
    }
}

/// Fig. 4(b)-style summary for one unit (or aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitReport {
    /// Label: a unit name, "Total" or "Core-Level".
    pub label: String,
    /// Total faults in the universe.
    pub total: usize,
    /// Detected within the budget.
    pub detected: usize,
    /// Detectable but not detected within the budget.
    pub undetected: usize,
    /// Provably undetectable.
    pub undetectable: usize,
    /// Detected-fault latency histogram (Fig. 4(c)), per bucket.
    pub latency: [usize; 4],
}

impl UnitReport {
    /// Percentage of all faults that are detectable (Fig. 4(b) coverage).
    #[must_use]
    pub fn detectable_pct(&self) -> f64 {
        100.0 * (self.detected + self.undetected) as f64 / self.total.max(1) as f64
    }

    /// Percentage of detectable faults detected within the budget.
    #[must_use]
    pub fn detected_of_detectable_pct(&self) -> f64 {
        let detectable = self.detected + self.undetected;
        100.0 * self.detected as f64 / detectable.max(1) as f64
    }

    /// Percentage of detectable faults detected within `bucket` *or any
    /// faster bucket* (cumulative; the paper quotes "96 % within 5 k").
    #[must_use]
    pub fn cumulative_detected_pct(&self, bucket: LatencyBucket) -> f64 {
        let detectable = (self.detected + self.undetected).max(1);
        let upto = LatencyBucket::ALL
            .iter()
            .take_while(|b| **b != bucket)
            .chain(std::iter::once(&bucket))
            .map(|b| self.latency[*b as usize])
            .sum::<usize>();
        100.0 * upto as f64 / detectable as f64
    }

    /// Merges another report into an aggregate (used for "Total").
    pub fn merge(&mut self, other: &UnitReport) {
        self.total += other.total;
        self.detected += other.detected;
        self.undetected += other.undetected;
        self.undetectable += other.undetectable;
        for (a, b) in self.latency.iter_mut().zip(other.latency) {
            *a += b;
        }
    }
}

/// Builds a [`UnitReport`] from a campaign outcome.
#[must_use]
pub fn unit_report(label: impl Into<String>, outcome: &CampaignOutcome) -> UnitReport {
    let mut report = UnitReport {
        label: label.into(),
        total: outcome.statuses().len(),
        detected: 0,
        undetected: 0,
        undetectable: 0,
        latency: [0; 4],
    };
    for status in outcome.statuses() {
        match status {
            FaultStatus::Detected { pattern } => {
                report.detected += 1;
                report.latency[LatencyBucket::for_pattern(*pattern) as usize] += 1;
            }
            FaultStatus::Undetected => report.undetected += 1,
            FaultStatus::Undetectable => report.undetectable += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::fault::all_faults;
    use r2d3_netlist::NetlistBuilder;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyBucket::for_pattern(0), LatencyBucket::Lt50);
        assert_eq!(LatencyBucket::for_pattern(49), LatencyBucket::Lt50);
        assert_eq!(LatencyBucket::for_pattern(50), LatencyBucket::Lt500);
        assert_eq!(LatencyBucket::for_pattern(4999), LatencyBucket::Lt5k);
        assert_eq!(LatencyBucket::for_pattern(5000), LatencyBucket::Gt5k);
    }

    #[test]
    fn report_sums_to_total() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(8);
        let t = b.and_tree(&i);
        let x = b.xor_tree(&i);
        b.output(t);
        b.output(x);
        let nl = b.finish();
        let out = run_campaign(&nl, &all_faults(&nl), &CampaignConfig::default());
        let r = unit_report("test", &out);
        assert_eq!(r.detected + r.undetected + r.undetectable, r.total);
        assert_eq!(r.latency.iter().sum::<usize>(), r.detected);
        assert!(r.detectable_pct() <= 100.0);
    }

    #[test]
    fn cumulative_is_monotone() {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(16);
        let t = b.and_tree(&i);
        b.output(t);
        let nl = b.finish();
        let out = run_campaign(
            &nl,
            &all_faults(&nl),
            &CampaignConfig { max_patterns: 1 << 14, ..Default::default() },
        );
        let r = unit_report("t", &out);
        let mut prev = 0.0;
        for bucket in LatencyBucket::ALL {
            let c = r.cumulative_detected_pct(bucket);
            assert!(c >= prev, "cumulative must be monotone");
            prev = c;
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = UnitReport {
            label: "Total".into(),
            total: 10,
            detected: 5,
            undetected: 3,
            undetectable: 2,
            latency: [5, 0, 0, 0],
        };
        let b = UnitReport {
            label: "x".into(),
            total: 4,
            detected: 4,
            undetected: 0,
            undetectable: 0,
            latency: [2, 2, 0, 0],
        };
        a.merge(&b);
        assert_eq!(a.total, 14);
        assert_eq!(a.detected, 9);
        assert_eq!(a.latency, [7, 2, 0, 0]);
    }
}
