//! Small statistics helpers for repeated measurements.

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One timed section: `samples[instance][repetition]`.
///
/// A repetition of a section is the section run on every graph instance of
/// the run, and its time is the total over them. The run's value is the
/// total of each instance's fastest repetition: interference on a shared
/// box only ever adds time, so the minimum is the best estimate of the
/// undisturbed cost, and it is taken per instance because instances differ
/// in work.
#[derive(Debug, Clone)]
pub struct Section {
    pub samples: Vec<Vec<f64>>,
}

impl Section {
    pub fn new(instances: usize) -> Self {
        Self { samples: vec![Vec::new(); instances] }
    }

    pub fn push(&mut self, instance: usize, value: f64) {
        self.samples[instance].push(value);
    }

    pub fn best(&self) -> f64 {
        self.samples.iter().map(|s| min(s)).sum()
    }

    /// Per-repetition totals over instances, for the min/median/max line.
    pub fn per_repetition(&self) -> Vec<f64> {
        let reps = self.samples.iter().map(Vec::len).min().unwrap_or(0);
        (0..reps).map(|r| self.samples.iter().map(|s| s[r]).sum()).collect()
    }
}
