//! Traced mode reads back the program's own spans: `deepmorph-telemetry`
//! stage histograms and per-GEMM timing, armed around a measured phase.

use deepmorph_telemetry::{bucket_bounds, HistogramSnapshot, TelemetrySnapshot};

/// Sum of all samples of a histogram, taking each bucket at its midpoint.
pub fn busy(h: &HistogramSnapshot) -> f64 {
    h.buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| {
            let (lo, hi) = bucket_bounds(i);
            (lo as f64 + hi as f64) / 2.0 * n as f64
        })
        .sum()
}

/// Mean sample of a histogram, taking each bucket at its midpoint; zero
/// for an empty histogram.
pub fn mean(h: &HistogramSnapshot) -> f64 {
    busy(h) / h.count().max(1) as f64
}

/// GEMM totals over every timed shape: `(busy ms, calls)`.
pub fn gemm_totals(snapshot: &TelemetrySnapshot) -> (f64, f64) {
    let nanos: f64 = snapshot.kernels.iter().map(|k| busy(&k.nanos)).sum();
    let calls: u64 = snapshot.kernels.iter().map(|k| k.nanos.count()).sum();
    (nanos / 1e6, calls as f64)
}
