//! The fixed phase taxonomy of the placement flow.
//!
//! Spans accumulate into a dense array indexed by [`Phase`], so the set is a
//! closed enum rather than string keys: recording a span is two `Instant`
//! reads and one array add, with no hashing and no allocation. The variants
//! mirror where the wall-clock of one global-placement iteration can go
//! (gradient terms, Steiner-forest maintenance, STA sweeps) plus the post-GP
//! pipeline stages and the once-per-run work around the loop (parse, set-up,
//! write).
//!
//! The phases are one table of `Variant = "sink_name"` rows; the slot count,
//! the slot order and the names every sink writes are derived from it, so a
//! new phase is one row.

use crate::schema::vocabulary;

vocabulary! {
    /// One timed phase of the placement flow.
    ///
    /// The discriminants are dense (`0..Phase::COUNT`) and stable within a run;
    /// [`Phase::index`] is the slot in every per-phase array.
    pub enum Phase ("phase") {
        /// Weighted-average wirelength gradient. Its span is busy time and may
        /// overlap the density, congestion and STA phases' (see
        /// [`Phase::StaForward`]).
        WirelengthGrad = "wirelength_grad",
        /// Electrostatic density evaluation + gradient accumulation. The
        /// evaluation's span is busy time and may overlap the wirelength and
        /// STA phases' (see [`Phase::StaForward`]).
        DensityGrad = "density_grad",
        /// The smoothed congestion penalty (route-aware flows): its gradient on
        /// every active iteration without a map build, and on every active
        /// iteration its scaling and merge into the objective. The gradient's
        /// span is busy time and may overlap the wirelength and STA phases'.
        CongestionGrad = "congestion_grad",
        /// The exact RUDY congestion map: the two-task region that builds it
        /// beside the penalty gradient on a route feedback iteration, the
        /// feedback's reads of it, and the final summary build. The region's
        /// span is busy time and may overlap the wirelength and STA phases'.
        RudyUpdate = "rudy_update",
        /// Full Steiner-forest builds.
        SteinerBuild = "steiner_build",
        /// Incremental forest maintenance: branch updates + per-net rebuilds.
        SteinerUpdate = "steiner_update",
        /// STA forward sweeps in the loop (smoothed or exact analyses). Every
        /// iteration evaluates the objective's terms side by side: the density
        /// and congestion evaluations beside the timing analysis once it is
        /// live (the wirelength gradient on their side), beside the wirelength
        /// gradient before. Their spans, like this one, are busy time, the
        /// spans may overlap, and the `overlap_ms` gauge says by how much.
        StaForward = "sta_forward",
        /// Timing-gradient backward accumulation: busy time that may overlap the
        /// wirelength, density and congestion phases', like
        /// [`Phase::StaForward`].
        StaBackward = "sta_backward",
        /// Net-weighting updates driven by the exact STA (baseline mode).
        NetWeight = "net_weight",
        /// Exact STA runs that only feed the trace (run only when the caller set
        /// `trace_timing_every`).
        TraceSta = "trace_sta",
        /// Preconditioned Nesterov step.
        NesterovStep = "nesterov_step",
        /// Legalization (Abacus).
        Legalize = "legalize",
        /// Detailed-placement refinement passes.
        DetailPlace = "detail_place",
        /// The exact analysis of the final placement (reporting).
        FinalSta = "final_sta",
        /// Reading the design: the input files parsed, or a proxy synthesized
        /// (`dtp place`; once per run, outside every iteration).
        Parse = "parse",
        /// The flow's set-up before its first iteration: the working copy of the
        /// design, the models and the timer.
        Setup = "setup",
        /// Writing the placed design (`dtp place --out`).
        Write = "write",
    }
}

impl Phase {
    /// Whether this phase counts toward the flow's `timing_runtime`
    /// (the "wall-clock inside timing analysis" metric): the set
    /// [`SpanTable::sta_seconds`](crate::SpanTable::sta_seconds) sums.
    #[inline]
    pub fn is_sta(self) -> bool {
        matches!(
            self,
            Phase::StaForward
                | Phase::StaBackward
                | Phase::NetWeight
                | Phase::TraceSta
                | Phase::FinalSta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    #[test]
    fn names_are_unique() {
        for a in Phase::ALL {
            for b in Phase::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }

    #[test]
    fn sta_set_matches_legacy_accounting() {
        let sta: Vec<Phase> = Phase::ALL.iter().copied().filter(|p| p.is_sta()).collect();
        assert_eq!(
            sta,
            [
                Phase::StaForward,
                Phase::StaBackward,
                Phase::NetWeight,
                Phase::TraceSta,
                Phase::FinalSta
            ]
        );
    }
}
