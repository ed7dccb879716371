//! # cb-sim — discrete-event performance simulator
//!
//! Reproduces the paper's evaluation (Figs. 3–4, Tables I–II) at full
//! scale — 120 GB datasets, 32 files, 960 jobs, up to 64 cores — by driving
//! the same head and master as the real runtime (`cloudburst_core::Head`,
//! `cloudburst_core::sched`) in virtual time over fair-shared links, with a
//! calibrated cost model standing in for the paper's OSU cluster + EC2/S3
//! testbed. See DESIGN.md §2 for the substitution argument.

#![deny(unsafe_code)]

pub mod calib;
pub mod experiments;
pub mod model;
pub mod params;

pub use model::{simulate, simulate_observed};
pub use params::{LinkSpec, PathSpec, SimCluster, SimParams};

/// Span-level checks of the shared Gantt renderer that simulated traces are
/// drawn through (`simulate --timeline`, `repro timeline`).
#[cfg(test)]
mod trace {
    mod tests {
        use cloudburst_core::obs::{SpanKind, Timeline};

        const S: u64 = 1_000_000_000;

        #[test]
        fn utilization_counts_busy_time() {
            let mut tl = Timeline::default();
            tl.record(0, 0, SpanKind::Fetch, 0, 2 * S);
            tl.record(0, 0, SpanKind::Process, 2 * S, 6 * S);
            tl.record(0, 1, SpanKind::Process, 0, 3 * S);
            tl.record(1, 0, SpanKind::RobjTransfer, 6 * S, 10 * S);
            assert_eq!(tl.horizon_ns, 10 * S);
            assert!((tl.utilization(0, 0) - 0.6).abs() < 1e-12);
            assert!((tl.utilization(0, 1) - 0.3).abs() < 1e-12);
            // Robj transfer is not "busy" slave work.
            assert_eq!(tl.utilization(1, 0), 0.0);
            assert!((tl.cluster_utilization(0) - 0.45).abs() < 1e-12);
        }

        #[test]
        fn empty_trace_is_zero() {
            let tl = Timeline::default();
            assert_eq!(tl.utilization(0, 0), 0.0);
            assert_eq!(tl.cluster_utilization(0), 0.0);
        }

        #[test]
        fn gantt_renders_rows() {
            let mut tl = Timeline::default();
            tl.record(0, 0, SpanKind::Fetch, 0, 5 * S);
            tl.record(0, 0, SpanKind::Process, 5 * S, 10 * S);
            tl.record(1, 0, SpanKind::Process, 0, 10 * S);
            let g = tl.render_gantt(20);
            assert!(g.contains("c0/s0"));
            assert!(g.contains("c1/s0"));
            let row0 = g.lines().find(|l| l.starts_with("c0/s0")).unwrap();
            assert!(row0.contains('▒') && row0.contains('█'));
            let row1 = g.lines().find(|l| l.starts_with("c1/s0")).unwrap();
            assert_eq!(row1.matches('█').count(), 20, "fully busy row");
        }
    }
}
