//! [`MetricSource`] implementations for the experiment result types, so
//! the campaign runner can flatten any outcome into named metrics without
//! per-scenario glue.

use specrun_workloads::metrics::{metric_key, MetricSet, MetricSource};

use crate::attack::poc::PocOutcome;
use crate::attack::sweep::SweepReport;
use crate::defense::DefenseReport;
use crate::window::WindowReport;

impl MetricSource for PocOutcome {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        // `leaked` is an Option<u8>; -1 encodes "no byte recovered" so the
        // metric stays numeric and the success flag stays separate.
        let leaked = self.leaked.map_or(-1.0, f64::from);
        out.push(metric_key(prefix, "leaked"), leaked);
        out.push(metric_key(prefix, "expected"), f64::from(self.expected));
        out.push(metric_key(prefix, "success"), f64::from(u8::from(self.success())));
        out.push(metric_key(prefix, "runahead_entries"), self.runahead_entries as f64);
        out.push(metric_key(prefix, "inv_branches"), self.inv_branches as f64);
    }
}

impl MetricSource for WindowReport {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        out.push(metric_key(prefix, "n1"), self.n1 as f64);
        out.push(metric_key(prefix, "n2"), self.n2 as f64);
        out.push(metric_key(prefix, "n3"), self.n3 as f64);
        out.push(metric_key(prefix, "rob_entries"), self.rob_entries as f64);
        out.push(metric_key(prefix, "episodes_n3"), self.episodes_n3 as f64);
        out.push(metric_key(prefix, "shape_holds"), f64::from(u8::from(self.shape_holds())));
    }
}

impl MetricSource for DefenseReport {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        self.outcome.emit_metrics(prefix, out);
        out.push(metric_key(prefix, "blocked"), f64::from(u8::from(self.blocked())));
        out.push(metric_key(prefix, "sl_promotions"), self.sl_promotions as f64);
        out.push(metric_key(prefix, "sl_deletions"), self.sl_deletions as f64);
        out.push(metric_key(prefix, "skipped_inv_branches"), self.skipped_inv_branches as f64);
    }
}

impl MetricSource for SweepReport {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        out.push(metric_key(prefix, "trials"), self.trials.len() as f64);
        out.push(metric_key(prefix, "successes"), self.successes() as f64);
        out.push(metric_key(prefix, "accuracy"), self.accuracy());
        out.push(metric_key(prefix, "mean_runahead_entries"), self.mean_runahead_entries());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::covert::ProbeTimings;

    fn outcome(leaked: Option<u8>) -> PocOutcome {
        PocOutcome {
            timings: ProbeTimings::new(vec![10, 200]),
            leaked,
            expected: 86,
            runahead_entries: 3,
            inv_branches: 1,
            arch_fingerprint: 0,
        }
    }

    #[test]
    fn poc_outcome_flattens() {
        let mut set = MetricSet::new();
        outcome(Some(86)).emit_metrics("poc", &mut set);
        assert_eq!(set.get("poc_leaked"), Some(86.0));
        assert_eq!(set.get("poc_success"), Some(1.0));
        assert_eq!(set.get("poc_runahead_entries"), Some(3.0));
    }

    #[test]
    fn missing_leak_encodes_negative() {
        let mut set = MetricSet::new();
        outcome(None).emit_metrics("", &mut set);
        assert_eq!(set.get("leaked"), Some(-1.0));
        assert_eq!(set.get("success"), Some(0.0));
    }

    #[test]
    fn window_report_flattens() {
        let r = WindowReport { n1: 255, n2: 480, n3: 840, rob_entries: 256, episodes_n3: 2 };
        let mut set = MetricSet::new();
        r.emit_metrics("w", &mut set);
        assert_eq!(set.get("w_n3"), Some(840.0));
        assert_eq!(set.get("w_shape_holds"), Some(1.0));
    }
}
