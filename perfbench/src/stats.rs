//! Order statistics for samples.

/// Sorted copy of `xs` (NaNs last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolation percentile, `p ∈ [0, 100]`. Empty input gives 0.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// min / q1 / median / q3 / max of a sample, quartiles by the
/// "exclusive" method (as Python's `statistics.quantiles(n=4)`).
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(xs: &[f64]) -> Spread {
        let v = sorted(xs);
        let n = v.len();
        if n == 0 {
            return Spread {
                n,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        }
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        };
        Spread {
            n,
            min: v[0],
            q1,
            median: median(&v),
            q3,
            max: v[n - 1],
        }
    }

    pub fn json(&self) -> String {
        format!(
            "\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}",
            self.n,
            num(self.min),
            num(self.q1),
            num(self.median),
            num(self.q3),
            num(self.max)
        )
    }
}

/// A finite JSON number (non-finite values become 0 so the line stays
/// parseable; callers never emit them on purpose).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// FNV-1a over bytes, for determinism fingerprints.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: derives independent seeds from one workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
