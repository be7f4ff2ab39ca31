//! Helpers shared by the recorded-golden integration tests.

use dtp_core::FlowResult;

/// One flow run folded to bit patterns: every trace row's HPWL / overflow /
/// WNS / TNS, the final placement, the final QoR and the congestion summary.
pub fn fingerprint(r: &FlowResult) -> [u64; 11] {
    let fold = |it: &mut dyn Iterator<Item = f64>| {
        it.fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits())
    };
    [
        r.trace.len() as u64,
        fold(&mut r.trace.iter().map(|p| p.hpwl)),
        fold(&mut r.trace.iter().map(|p| p.overflow)),
        fold(&mut r.trace.iter().map(|p| p.wns)),
        fold(&mut r.trace.iter().map(|p| p.tns)),
        fold(&mut r.xs.iter().copied()),
        fold(&mut r.ys.iter().copied()),
        fold(&mut [r.hpwl, r.wns, r.tns].into_iter()),
        r.congestion.max_overflow.to_bits(),
        r.congestion.avg_overflow.to_bits(),
        r.congestion.overflowed_frac.to_bits(),
    ]
}
