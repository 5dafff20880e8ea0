//! Outside-in layer timing for the traced run.
//!
//! The program's own spans stay disabled: the benchmark times each call
//! it makes into a layer's public functions and attributes the time to
//! that layer. Calls of one request are made one after another, so
//! their times do not overlap and their sum over the request's wall
//! time is the trace's coverage.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Layer times and counts of the traced requests of one client.
#[derive(Default, Clone)]
pub struct Trace {
    /// Layer times of the request in flight.
    current: BTreeMap<&'static str, f64>,
    /// Per-request milliseconds of each layer the request called.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Summed milliseconds of each layer.
    totals: BTreeMap<&'static str, f64>,
    /// Per-call values of each count.
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Summed wall milliseconds of the traced requests.
    request_ms: f64,
    /// Traced requests and their summed wall time.
    pub traced: (u64, Duration),
    /// Untraced requests of the same run and their summed wall time.
    pub untraced: (u64, Duration),
}

impl Trace {
    /// Run `f` as a call into `layer`, adding its time to the request.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Add a call into `layer` that took `took` to the request.
    pub fn add(&mut self, layer: &'static str, took: Duration) {
        *self.current.entry(layer).or_default() += crate::stats::ms(took);
    }

    /// Record one value of a count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Close the request in flight, which took `wall`.
    pub fn finish(&mut self, wall: Duration) {
        for (layer, ms) in std::mem::take(&mut self.current) {
            self.samples.entry(layer).or_default().push(ms);
            *self.totals.entry(layer).or_default() += ms;
        }
        self.request_ms += crate::stats::ms(wall);
    }

    /// Fold another client's trace into this one.
    pub fn merge(&mut self, other: Trace) {
        for (k, mut v) in other.samples {
            self.samples.entry(k).or_default().append(&mut v);
        }
        for (k, v) in other.totals {
            *self.totals.entry(k).or_default() += v;
        }
        for (k, mut v) in other.counts {
            self.counts.entry(k).or_default().append(&mut v);
        }
        self.request_ms += other.request_ms;
        self.traced.0 += other.traced.0;
        self.traced.1 += other.traced.1;
        self.untraced.0 += other.untraced.0;
        self.untraced.1 += other.untraced.1;
    }

    /// Per-request median milliseconds of `layer`.
    pub fn median_ms(&self, layer: &str) -> f64 {
        let mut v = self.samples.get(layer).cloned().unwrap_or_default();
        crate::stats::median(&mut v)
    }

    /// `layer`'s share of the summed request time.
    pub fn share(&self, layer: &str) -> f64 {
        self.totals.get(layer).copied().unwrap_or(0.0) / self.request_ms
    }

    /// Summed layer time over summed request wall time.
    pub fn coverage(&self) -> f64 {
        self.totals.values().sum::<f64>() / self.request_ms
    }

    /// Traced throughput over untraced throughput.
    pub fn overhead(&self) -> f64 {
        let rate = |(n, busy): (u64, Duration)| n as f64 / busy.as_secs_f64();
        rate(self.traced) / rate(self.untraced)
    }

    /// Values recorded for `name`.
    pub fn values(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }
}
