//! Estimators every reported number goes through: the good-side decile
//! over reps, the median, the highest percentile that still has ten samples
//! beyond it, quartile spread, and the geometric mean that folds
//! per-program rows into one workload-level value.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle values for an even count); NaN for
/// an empty slice so a missing row can never pass for a measurement.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive values; NaN when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The worst-side order statistic that still has at least ten samples
/// beyond it, as `(percentile, value)`: with fewer than eleven samples no
/// tail is reported rather than one resting on a handful of reps.
pub fn tail(v: &[f64], better: Better) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let s = sorted(v);
    let rank = n - 10; // 1-based rank from the good side; 10 samples lie beyond.
    let value = match better {
        Better::Lower => s[rank - 1],
        Better::Higher => s[n - rank],
    };
    Some((100.0 * rank as f64 / n as f64, value))
}

/// The `p`-quantile of sorted values by the exclusive method of Python's
/// `statistics.quantiles` (position `p * (n + 1)`, clamped to the samples).
fn quantile(s: &[f64], p: f64) -> f64 {
    let n = s.len();
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    s[j - 1] + (pos - j as f64) * (s[j] - s[j - 1])
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them. `None` below two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v);
    Some((quantile(&s, 0.25), quantile(&s, 0.75)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(v: &[f64]) -> Option<f64> {
    quartiles(v).map(|(q1, q3)| (q3 - q1) / median(v))
}

/// The decile on the metric's good side: a tenth of the reps were at least
/// this good. This is what a timed row reports. The work of a rep is fixed
/// and the host only ever makes it slower, in spells that last from a few
/// reps to most of a run and leave the samples of one run in two clusters
/// (measured: up to 1.6x apart). The median jumps from one cluster to the
/// other with the share of the run a spell covers; this value stays on the
/// fast one until spells cover nine tenths of the run. Unlike the best rep
/// it does not rest on one sample, which matters on rows whose samples
/// scatter evenly (the pooled guests). Below ten reps (quick runs) it is
/// the median.
pub fn good_decile(v: &[f64], better: Better) -> f64 {
    if v.len() < 10 {
        return median(v);
    }
    let s = sorted(v);
    match better {
        Better::Lower => quantile(&s, 0.1),
        Better::Higher => quantile(&s, 0.9),
    }
}

/// What is printed for one row of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    /// The value the row reports, see [`good_decile`].
    pub decile: f64,
    pub median: f64,
    /// The best value seen (min for lower-is-better, max otherwise).
    pub best: f64,
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(v: &[f64], better: Better) -> Summary {
    let s = sorted(v);
    let best = match better {
        Better::Lower => s.first(),
        Better::Higher => s.last(),
    };
    Summary {
        n: v.len(),
        decile: good_decile(v, better),
        median: median(v),
        best: best.copied().unwrap_or(f64::NAN),
        tail: tail(v, better),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, Better::Lower), None);
        // 11 samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&eleven, Better::Lower).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        // 100 samples, lower is better: p90 = the 90th smallest.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, Better::Lower), Some((90.0, 90.0)));
        // Higher is better: the bad tail is the low side.
        assert_eq!(tail(&hundred, Better::Higher), Some((90.0, 11.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        // Two values: the method extrapolates, quantiles([1, 3]) == [0.5, 2, 3.5].
        assert!((quartile_spread(&[1.0, 3.0]).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn good_decile_sits_on_the_good_side_and_ignores_slow_spells() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(good_decile(&v, Better::Lower), 2.0);
        assert_eq!(good_decile(&v, Better::Higher), 18.0);
        // Times of a run of which a slow spell covered six tenths: the
        // median moves by two fifths, the good decile by a hundredth.
        let quiet = [
            100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 101.0, 100.0, 99.0, 100.5,
        ];
        let mostly_slow = [
            100.0, 101.0, 99.0, 100.5, 140.0, 150.0, 145.0, 160.0, 141.0, 139.0,
        ];
        let moved = |f: &dyn Fn(&[f64]) -> f64| (f(&mostly_slow) / f(&quiet) - 1.0).abs();
        assert!(moved(&|v| median(v)) > 0.35);
        assert!(moved(&|v| good_decile(v, Better::Lower)) < 0.01);
        // Too few reps for a decile: the median.
        assert_eq!(good_decile(&[1.0, 3.0], Better::Lower), 2.0);
        assert_eq!(good_decile(&[5.0], Better::Higher), 5.0);
        assert!(good_decile(&[], Better::Lower).is_nan());
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((Better::Lower.worse_by(100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(Better::Higher.worse_by(100.0, 120.0) < 0.0);
    }

    #[test]
    fn summary_reports_best_on_the_good_side() {
        let s = summarize(&[3.0, 1.0, 2.0], Better::Higher);
        assert_eq!((s.n, s.median, s.best, s.tail), (3, 2.0, 3.0, None));
        assert_eq!(s.decile, 2.0);
    }
}
