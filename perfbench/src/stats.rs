//! Order statistics and the naming rules every reported metric follows.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
}

/// Nearest-rank percentile `p` (in `0..1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct { value: sorted[rank - 1], n })
}

/// Median of repeated measurements of one quantity (the mean of the two
/// middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(Pct { value: 10.0, n: 20 }));
        // p95 of 256 samples: rank 244, twelve beyond it.
        let many: Vec<f64> = (1..=256).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.95), Some(Pct { value: 244.0, n: 256 }));
        let too_few: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&too_few, 0.95), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_and_units_use_allowed_characters() {
        assert!(valid_name("campaign.kind_ms.behavioral.checker_corrupt"));
        assert!(valid_name("wall_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Mcycle/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"u".repeat(17)));
    }
}
