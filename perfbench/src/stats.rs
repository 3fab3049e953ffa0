//! The benchmark's own arithmetic: percentiles, medians, rates, job-hours
//! and digests. Kept free of any workload so the tests below pin it down.

use sia_sim::{JobRecord, SolveOutcome, SolverStats};

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Interquartile mean: the mean of the samples ranked between the first
/// and the third quartile. Where host times mix cheap and costly
/// operations (idle and contended rounds, queries and scrapes), the median
/// jumps between the two groups as their proportions shift from input to
/// input; this mean of the middle half moves smoothly instead. `None`
/// for fewer than four samples.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 4 {
        return None;
    }
    let middle = &sorted[n / 4..n - n / 4];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Median of any non-empty sample (mean of the two middle values for an
/// even count); `NaN` for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Simulated job-hours: each job's time in the system, from submission to
/// completion, or to `end_s` (the end of the run) if it never finished.
pub fn job_hours(records: &[JobRecord], end_s: f64) -> f64 {
    records
        .iter()
        .map(|r| (r.finish_time.unwrap_or(end_s) - r.submit_time).max(0.0))
        .sum::<f64>()
        / 3600.0
}

/// Whether a round's solve fell back past the exact ILP. The batch
/// workloads' `error_rate` is these rounds over all scheduled rounds.
pub fn is_fallback(s: &SolverStats) -> bool {
    matches!(
        s.outcome,
        SolveOutcome::LagrangianFallback | SolveOutcome::GreedyFallback
    )
}

/// The `i`-th seed derived from `seed`; the 0th is `seed` itself.
pub fn mix_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        return seed;
    }
    // splitmix64 finalizer.
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, the decision digest: equal streams give equal digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn of(parts: &[&[u8]]) -> u64 {
        let mut d = Digest::default();
        for p in parts {
            d.update(p);
            // Separator, so ("ab", "c") and ("a", "bc") differ.
            d.update(&[0xff]);
        }
        d.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_cluster::JobId;
    use sia_workloads::{ModelKind, SizeCategory};

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // p99 of 100 samples leaves one beyond it: not reportable.
        assert_eq!(percentile(&samples, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        // Exactly ten beyond is enough; nine is not.
        let hundred_one: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred_one, 0.9), Some(91.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut shuffled = many.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), Some(990.0));
    }

    #[test]
    fn interquartile_mean_drops_both_outer_quarters() {
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        // Keeps ranks 3..=6.
        assert_eq!(interquartile_mean(&samples), Some(4.5));
        let mut skewed = samples.clone();
        skewed[7] = 1e9;
        assert_eq!(interquartile_mean(&skewed), Some(4.5));
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), None);
        // A bimodal sample whose median sits between the groups.
        let mut bimodal = vec![1.0; 49];
        bimodal.extend(vec![3.0; 51]);
        let iqm = interquartile_mean(&bimodal).unwrap();
        assert!(iqm > 1.0 && iqm < 3.0, "{iqm}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn error_rate_denominators() {
        // Serve: 15 not-ok answers over 7800 requests.
        assert!((rate(15, 7800) - 15.0 / 7800.0).abs() < 1e-15);
        // Fleet: failed runs over all runs.
        assert_eq!(rate(0, 24), 0.0);
        assert_eq!(rate(3, 24), 0.125);
        // Nothing attempted is no error, not a division by zero.
        assert_eq!(rate(0, 0), 0.0);
    }

    fn stats(outcome: SolveOutcome) -> SolverStats {
        SolverStats {
            refit_s: 0.0,
            goodput_s: 0.0,
            build_s: 0.0,
            solve_s: 0.0,
            placement_s: 0.0,
            candidates: 0,
            nodes: 0,
            pivots: 0,
            lp_objective: None,
            objective: None,
            best_bound: None,
            nodes_pruned: 0,
            first_incumbent_node: None,
            first_incumbent_s: None,
            cache_hits: 0,
            cache_misses: 0,
            incumbent_seed: None,
            warm_pivots_saved: 0,
            workers: 1,
            shards: 0,
            budget_exhausted: false,
            lagrangian_iters: 0,
            lagrangian_gap: 0.0,
            lagrangian_norm: 0.0,
            outcome,
        }
    }

    #[test]
    fn batch_error_rate_counts_only_fallbacks_past_the_ilp() {
        let rounds = [
            stats(SolveOutcome::Optimal),
            stats(SolveOutcome::Feasible),
            stats(SolveOutcome::LagrangianFallback),
            stats(SolveOutcome::GreedyFallback),
            stats(SolveOutcome::Empty),
        ];
        let fallbacks = rounds.iter().filter(|s| is_fallback(s)).count() as u64;
        assert_eq!(fallbacks, 2);
        // Over all rounds, not over the rounds that solved something.
        assert_eq!(rate(fallbacks, rounds.len() as u64), 0.4);
    }

    fn record(submit: f64, finish: Option<f64>) -> JobRecord {
        JobRecord {
            id: JobId(0),
            name: "j".into(),
            model: ModelKind::ResNet18,
            category: SizeCategory::Small,
            submit_time: submit,
            first_start: None,
            finish_time: finish,
            gpu_seconds: 0.0,
            restarts: 0,
            failures: 0,
            avg_contention: 0.0,
            max_gpus: 1,
            work_target: 1.0,
            work_done: 0.0,
        }
    }

    #[test]
    fn job_hours_count_unfinished_jobs_to_the_end_of_the_run() {
        let records = [
            record(0.0, Some(3600.0)),    // 1 h, finished
            record(1800.0, None),         // unfinished: 1800 s to the end
            record(3600.0, Some(5400.0)), // 0.5 h
        ];
        assert!((job_hours(&records, 3600.0) - 2.0).abs() < 1e-12);
        // A job submitted after the end contributes nothing, never less.
        assert_eq!(job_hours(&[record(7200.0, None)], 3600.0), 0.0);
    }

    #[test]
    fn derived_seeds_keep_the_seed_first_and_differ() {
        assert_eq!(mix_seed(5, 0), 5);
        let seeds: std::collections::BTreeSet<u64> = (1..=10)
            .flat_map(|s| (0..16).map(move |i| mix_seed(s, i)))
            .collect();
        assert_eq!(seeds.len(), 160);
    }

    #[test]
    fn digest_separates_parts_and_is_stable() {
        assert_eq!(Digest::of(&[b"ab", b"c"]), Digest::of(&[b"ab", b"c"]));
        assert_ne!(Digest::of(&[b"ab", b"c"]), Digest::of(&[b"a", b"bc"]));
        // FNV-1a of the empty string is the offset basis.
        let mut d = Digest::default();
        d.update(b"");
        assert_eq!(d.0, 0xcbf2_9ce4_8422_2325);
    }
}
