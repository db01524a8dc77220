//! The statistical-campaign report: verdict, estimate, efficiency against
//! the fixed-sample bound, and the per-fault-class breakdown.

use std::fmt::Write as _;
use std::time::Duration;

use faults::DetectionMatrix;

use crate::sprt::{chernoff_sample_bound, hoeffding_interval, SmcQuery};

/// The campaign's answer to `P(success) >= theta?`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmcVerdict {
    /// `p >= theta` accepted with type-II error at most `beta`.
    Holds,
    /// `p < theta` accepted with type-I error at most `alpha`.
    Fails,
    /// The sample budget ran out before the sequential test decided (only
    /// possible under [`crate::SmcMethod::Sprt`] with a finite budget and
    /// a true rate deep inside the indifference region).
    Undecided,
}

impl std::fmt::Display for SmcVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SmcVerdict::Holds => "holds",
            SmcVerdict::Fails => "fails",
            SmcVerdict::Undecided => "undecided",
        })
    }
}

/// Result of one statistical model-checking campaign.
///
/// Everything statistical — verdict, accepted sample count, successes,
/// estimate, interval, and the merged detection matrix of the accepted
/// samples — feeds [`SmcReport::canonical`] and therefore the
/// fingerprint; the determinism contract is "same spec ⇒ same fingerprint
/// for any `--jobs`". Scheduling artefacts (`jobs`, `wall`, `issued`,
/// `discarded`) and the matrix's monitoring counters / span timings stay
/// **outside** the fingerprint: how many speculative samples the raced
/// tail of the worker pool completed legitimately varies with the worker
/// count, while the decision must not.
#[derive(Clone, Debug)]
pub struct SmcReport {
    /// Which flow produced the samples (`"derived"` / `"micro"`).
    pub flow: String,
    /// Workload label (canonical rendering of the sample source).
    pub workload: String,
    /// The hypothesis-test query.
    pub query: SmcQuery,
    /// Estimation method label (`"sprt"` / `"chernoff"`).
    pub method: String,
    /// The campaign's answer.
    pub verdict: SmcVerdict,
    /// Samples accepted by the canonical-order fold (for the SPRT: exactly
    /// the samples up to and including the decision point).
    pub samples: u64,
    /// Successes among the accepted samples.
    pub successes: u64,
    /// The Okamoto/Chernoff fixed-sample bound for `epsilon = delta` at
    /// the query's `alpha` — the cost the sequential test is measured
    /// against.
    pub chernoff_bound: u64,
    /// Per-fault-class breakdown: the accepted samples' shard matrices
    /// merged into one [`DetectionMatrix`] (monitoring counters and span
    /// timings ride along outside the fingerprint).
    pub matrix: DetectionMatrix,
    /// Worker threads used. Outside the fingerprint.
    pub jobs: usize,
    /// Samples issued to workers (accepted + speculative). Outside the
    /// fingerprint — the raced tail varies with `jobs`.
    pub issued: u64,
    /// Speculative samples completed after the decision and discarded by
    /// the canonical-order fold. Outside the fingerprint.
    pub discarded: u64,
    /// Campaign wall-clock. Outside the fingerprint.
    pub wall: Duration,
}

impl SmcReport {
    /// The empirical success rate over the accepted samples.
    pub fn p_hat(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.successes as f64 / self.samples as f64
    }

    /// Two-sided Hoeffding interval at level `1 - alpha` around
    /// [`SmcReport::p_hat`].
    pub fn confidence_interval(&self) -> (f64, f64) {
        hoeffding_interval(self.successes, self.samples.max(1), self.query.alpha)
    }

    /// Samples saved against the fixed-sample bound (zero when the
    /// sequential test was slower, which a planted rate far from `theta`
    /// never is).
    pub fn samples_saved(&self) -> u64 {
        self.chernoff_bound.saturating_sub(self.samples)
    }

    /// A canonical rendering; two reports are interchangeable iff their
    /// canonical forms are byte-identical. Scheduling artefacts are
    /// deliberately absent.
    pub fn canonical(&self) -> String {
        let (lo, hi) = self.confidence_interval();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "smc flow={} workload={} method={}",
            self.flow, self.workload, self.method
        );
        let _ = writeln!(
            out,
            "query theta={:.6} delta={:.6} alpha={:.6} beta={:.6}",
            self.query.theta, self.query.delta, self.query.alpha, self.query.beta
        );
        let _ = writeln!(
            out,
            "verdict={} samples={} successes={} p_hat={:.6} ci=[{lo:.6}, {hi:.6}] chernoff={}",
            self.verdict,
            self.samples,
            self.successes,
            self.p_hat(),
            self.chernoff_bound
        );
        out.push_str(&self.matrix.canonical());
        out
    }

    /// FNV-1a over the canonical rendering — the same determinism contract
    /// as the campaign and fault-matrix fingerprints.
    pub fn fingerprint(&self) -> u64 {
        sctc_campaign::fnv1a64(self.canonical().as_bytes())
    }

    /// Human-readable summary: the statistical answer, the efficiency
    /// line, and the fault-class grid of the accepted samples.
    pub fn to_table(&self) -> String {
        let (lo, hi) = self.confidence_interval();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "P(success) >= {:.3}?  {}  (indifference ±{:.3}, alpha={:.2}, beta={:.2})",
            self.query.theta, self.verdict, self.query.delta, self.query.alpha, self.query.beta
        );
        let _ = writeln!(
            out,
            "p_hat = {:.4} in [{lo:.4}, {hi:.4}] from {} samples ({} successes)",
            self.p_hat(),
            self.samples,
            self.successes
        );
        let _ = writeln!(
            out,
            "{} spent {} of the {}-sample Chernoff budget ({} saved); issued {}, discarded {}, jobs {}",
            self.method,
            self.samples,
            self.chernoff_bound,
            self.samples_saved(),
            self.issued,
            self.discarded,
            self.jobs
        );
        out.push_str(&self.matrix.to_table());
        out
    }
}

/// Recomputes the fixed-sample bound a query is measured against
/// (`epsilon = delta`).
pub fn query_chernoff_bound(query: &SmcQuery) -> u64 {
    chernoff_sample_bound(query.delta, query.alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SmcReport {
        SmcReport {
            flow: "derived".into(),
            workload: "planted-torn fail=100/1000".into(),
            query: SmcQuery::new(0.8, 0.05),
            method: "sprt".into(),
            verdict: SmcVerdict::Holds,
            samples: 120,
            successes: 110,
            chernoff_bound: query_chernoff_bound(&SmcQuery::new(0.8, 0.05)),
            matrix: DetectionMatrix::merge("derived", 120, vec![]),
            jobs: 4,
            issued: 123,
            discarded: 3,
            wall: Duration::from_millis(5),
        }
    }

    #[test]
    fn fingerprint_ignores_scheduling_artefacts() {
        let a = report();
        let mut b = a.clone();
        b.jobs = 1;
        b.issued = 120;
        b.discarded = 0;
        b.wall = Duration::from_secs(9);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_the_statistics() {
        let a = report();
        let mut b = a.clone();
        b.successes -= 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.verdict = SmcVerdict::Fails;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn table_reports_the_efficiency_line() {
        let r = report();
        let table = r.to_table();
        assert!(table.contains("holds"));
        assert!(table.contains("Chernoff"));
        assert!(r.samples_saved() > 0);
        assert!(table.contains(&format!("{} saved", r.samples_saved())));
    }
}
