//! The fixed phase taxonomy of the placement flow.
//!
//! Spans accumulate into a dense array indexed by [`Phase`], so the set is a
//! closed enum rather than string keys: recording a span is two `Instant`
//! reads and one array add, with no hashing and no allocation. The variants
//! mirror where the wall-clock of one global-placement iteration can go
//! (gradient terms, Steiner-forest maintenance, STA sweeps) plus the post-GP
//! pipeline stages and the once-per-run work around the loop (parse, set-up,
//! write).

/// One timed phase of the placement flow.
///
/// The discriminants are dense (`0..Phase::COUNT`) and stable within a run;
/// [`Phase::index`] is the slot in every per-phase array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Weighted-average wirelength gradient (incl. the weight merge).
    WirelengthGrad = 0,
    /// Electrostatic density evaluation + gradient accumulation.
    DensityGrad,
    /// Scaling and merging the smoothed congestion-penalty gradient into the
    /// objective (route-aware flows; the gradient itself is evaluated under
    /// [`Phase::RudyUpdate`]).
    CongestionGrad,
    /// The route layer's per-iteration region — RUDY congestion-map builds
    /// and incremental updates, and beside them the congestion penalty's
    /// gradient — plus the map's feedback reads and final build.
    RudyUpdate,
    /// Full Steiner-forest builds.
    SteinerBuild,
    /// Incremental forest maintenance: branch updates + per-net rebuilds.
    SteinerUpdate,
    /// STA forward sweeps in the loop (smoothed or exact analyses).
    StaForward,
    /// Timing-gradient backward accumulation.
    StaBackward,
    /// Net-weighting updates driven by the exact STA (baseline mode).
    NetWeight,
    /// Exact STA runs that only feed the trace (run only when the caller set
    /// `trace_timing_every`).
    TraceSta,
    /// Preconditioned Nesterov step.
    NesterovStep,
    /// Legalization (Abacus).
    Legalize,
    /// Detailed-placement refinement passes.
    DetailPlace,
    /// The exact analysis of the final placement (reporting).
    FinalSta,
    /// Reading the design: the input files parsed, or a proxy synthesized
    /// (`dtp place`; once per run, outside every iteration).
    Parse,
    /// The flow's set-up before its first iteration: the working copy of the
    /// design, the models and the timer.
    Setup,
    /// Writing the placed design (`dtp place --out`).
    Write,
}

impl Phase {
    /// Number of phases (length of every per-phase array).
    pub const COUNT: usize = 17;

    /// Every phase, in slot order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::WirelengthGrad,
        Phase::DensityGrad,
        Phase::CongestionGrad,
        Phase::RudyUpdate,
        Phase::SteinerBuild,
        Phase::SteinerUpdate,
        Phase::StaForward,
        Phase::StaBackward,
        Phase::NetWeight,
        Phase::TraceSta,
        Phase::NesterovStep,
        Phase::Legalize,
        Phase::DetailPlace,
        Phase::FinalSta,
        Phase::Parse,
        Phase::Setup,
        Phase::Write,
    ];

    /// Dense slot index of this phase.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in `metrics.json` and the JSONL stream.
    pub fn name(self) -> &'static str {
        match self {
            Phase::WirelengthGrad => "wirelength_grad",
            Phase::DensityGrad => "density_grad",
            Phase::CongestionGrad => "congestion_grad",
            Phase::RudyUpdate => "rudy_update",
            Phase::SteinerBuild => "steiner_build",
            Phase::SteinerUpdate => "steiner_update",
            Phase::StaForward => "sta_forward",
            Phase::StaBackward => "sta_backward",
            Phase::NetWeight => "net_weight",
            Phase::TraceSta => "trace_sta",
            Phase::NesterovStep => "nesterov_step",
            Phase::Legalize => "legalize",
            Phase::DetailPlace => "detail_place",
            Phase::FinalSta => "final_sta",
            Phase::Parse => "parse",
            Phase::Setup => "setup",
            Phase::Write => "write",
        }
    }

    /// Inverse of [`Phase::name`]: resolves a sink name back to the phase
    /// (the trace reader's lookup). `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Whether this phase counts toward the flow's `timing_runtime`
    /// (the legacy hand-timed "wall-clock inside timing analysis" metric).
    ///
    /// These phases are timed even when observability is off, so
    /// `FlowResult::timing_runtime` stays value-compatible with the
    /// pre-observability accounting at the same (negligible) cost: the same
    /// handful of `Instant` reads per iteration the old code did.
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
