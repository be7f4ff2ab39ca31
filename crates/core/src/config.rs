//! Flow configuration: the knobs of §4 of the paper, plus the trace-header
//! round trip: every config serializes into the trace header's generic
//! key/value fields and reconstructs from them (strictly — unknown or
//! missing keys are errors), which is what makes `dtp trace replay` work
//! from nothing but a recorded trace.
//!
//! Each config is written once, as a field table (`name: kind = default`
//! under its doc comment); [`config_table!`] generates the struct, its
//! `Default`, the ordered header keys and both directions of the round trip
//! from it, so a knob cannot be in one of them and missing from another.

use dtp_obs::json::Value;

/// How one kind of knob travels through the trace header's generic values.
trait Knob: Sized {
    /// What a well-formed value is called in an error message.
    const WHAT: &'static str;
    fn to_value(self) -> Value;
    fn from_value(v: &Value) -> Option<Self>;
}

/// The kinds of knob, one per row: `type: what a well-formed value is
/// called, to a header value, from a header value`.
macro_rules! knob_kinds {
    ($( $kind:ty: $what:literal, $to:expr, $from:expr; )*) => {$(
        impl Knob for $kind {
            const WHAT: &'static str = $what;
            fn to_value(self) -> Value {
                ($to)(self)
            }
            fn from_value(v: &Value) -> Option<Self> {
                ($from)(v)
            }
        }
    )*};
}

knob_kinds! {
    f64: "a number", Value::Num, Value::as_f64;
    usize: "a non-negative integer", |x| Value::Num(x as f64), |v: &Value| {
        let x = v.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= usize::MAX as f64).then_some(x as usize)
    };
    bool: "a boolean", Value::Bool, Value::as_bool;
    // A string, so the full `u64` range survives the f64 number pipeline.
    u64: "a u64 string", |x: u64| Value::Str(x.to_string()), |v: &Value| v.as_str()?.parse().ok();
}

/// Reads knob `key` out of trace-header fields.
fn knob<T: Knob>(fields: &[(String, Value)], key: &str) -> Result<T, String> {
    let (_, v) = fields
        .iter()
        .find(|(k, _)| k == key)
        .ok_or_else(|| format!("missing config field `{key}`"))?;
    T::from_value(v).ok_or_else(|| format!("config field `{key}` is not {}", T::WHAT))
}

/// Declares a config struct from its field table and generates everything
/// that has to agree with the field list: `Default`, the header keys in
/// emission order, `trace_fields` and the strict `from_trace_fields` (whose
/// visibility is the one given after `round trip:`).
macro_rules! config_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident (round trip: $vis:vis) {
            $( $(#[$doc:meta])* $field:ident: $kind:ty = $default:expr, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub struct $name {
            $( $(#[$doc])* pub $field: $kind, )*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $( $field: $default, )* }
            }
        }

        impl $name {
            /// The keys of [`Self::trace_fields`], in emission order.
            const KEYS: &'static [&'static str] = &[ $( stringify!($field), )* ];

            /// Serializes every knob into ordered trace-header fields. A
            /// `u64` is a string so its full range survives the f64 number
            /// pipeline.
            $vis fn trace_fields(&self) -> Vec<(String, Value)> {
                vec![ $( (stringify!($field).to_string(), self.$field.to_value()), )* ]
            }

            /// Reconstructs the config from trace-header fields, strictly:
            /// every knob must be present with the right type, and unknown
            /// keys are errors (a trace from a newer binary with more knobs
            /// must not silently replay with defaults for the extras).
            ///
            /// # Errors
            ///
            /// Returns a message naming the offending field.
            $vis fn from_trace_fields(fields: &[(String, Value)]) -> Result<Self, String> {
                let known = |k: &String| Self::KEYS.contains(&k.as_str());
                if let Some((k, _)) = fields.iter().find(|(k, _)| !known(k)) {
                    return Err(format!("unknown config field `{k}`"));
                }
                Ok($name { $( $field: knob(fields, stringify!($field))?, )* })
            }
        }
    };
}

/// Iteration at which a timing mechanism starts: "around the 100th iteration
/// where cells have been initially spread out" (§4). Net weighting always
/// starts here; it is the default of [`DiffTimingConfig::start_iter`].
pub(crate) const TIMING_START_ITER: usize = 100;

config_table! {
    /// Configuration of the differentiable timing objective (the paper's method).
    pub struct DiffTimingConfig (round trip: pub(crate)) {
        /// LSE smoothing γ (ps); the paper sets "around 100".
        gamma: f64 = 100.0,
        /// Initial TNS weight t1. The paper reports "around 0.01" on the
        /// ICCAD-2015 superblue suite; on the scaled synthetic proxies the same
        /// gradient balance is reached at 0.04 (the paper itself tunes t1/t2 per
        /// benchmark, §4).
        t1: f64 = 0.04,
        /// Initial WNS weight t2 (paper: "around 0.0001"; recalibrated like t1).
        t2: f64 = 0.0004,
        /// Multiplicative growth of t1/t2 per iteration; the paper increases
        /// them "by 1 % after each iteration".
        growth: f64 = 1.01,
        /// Iteration at which timing optimization starts.
        start_iter: usize = TIMING_START_ITER,
    }
}

/// Which placement flow to run: the three columns of Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowMode {
    /// Wirelength-driven only (DREAMPlace \[16\]).
    Wirelength,
    /// Net-weighting timing-driven (DREAMPlace 4.0 \[24\]): momentum net
    /// weights from an exact STA on every iteration from the 100th on.
    NetWeighting,
    /// Differentiable-timing-driven (this paper).
    Differentiable(DiffTimingConfig),
}

impl FlowMode {
    /// The paper's method with default hyperparameters.
    pub fn differentiable() -> FlowMode {
        FlowMode::Differentiable(DiffTimingConfig::default())
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            FlowMode::Wirelength => "DREAMPlace",
            FlowMode::NetWeighting => "NetWeighting",
            FlowMode::Differentiable(_) => "Ours",
        }
    }

    /// Canonical lowercase mode name recorded in the trace header (also the
    /// CLI `--mode` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FlowMode::Wirelength => "wirelength",
            FlowMode::NetWeighting => "net-weighting",
            FlowMode::Differentiable(_) => "differentiable",
        }
    }

    /// The mode's hyperparameters as ordered trace-header fields (empty for
    /// the two modes without any).
    pub fn trace_fields(&self) -> Vec<(String, Value)> {
        match self {
            FlowMode::Wirelength | FlowMode::NetWeighting => Vec::new(),
            FlowMode::Differentiable(c) => c.trace_fields(),
        }
    }

    /// Reconstructs a mode from its trace-header name and fields, strictly:
    /// unknown names, unknown keys, missing keys, and wrong value types are
    /// all errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending mode name or field.
    pub fn from_trace(name: &str, fields: &[(String, Value)]) -> Result<FlowMode, String> {
        // The modes without hyperparameters must carry no fields.
        let bare = |mode| match fields.first() {
            Some((k, _)) => Err(format!("unknown config field `{k}`")),
            None => Ok(mode),
        };
        match name {
            "wirelength" => bare(FlowMode::Wirelength),
            "net-weighting" => bare(FlowMode::NetWeighting),
            "differentiable" => {
                DiffTimingConfig::from_trace_fields(fields).map(FlowMode::Differentiable)
            }
            other => Err(format!("unknown flow mode `{other}`")),
        }
    }
}

config_table! {
    /// Global placement engine configuration (mode-independent knobs).
    pub struct FlowConfig (round trip: pub) {
        /// Maximum global-placement iterations.
        max_iters: usize = 500,
        /// Density bin grid (bins × bins). The Poisson solve runs on the
        /// O(N log N) FFT backend when this is a power of two and on the dense
        /// reference transforms otherwise.
        bins: usize = 64,
        /// How often (iterations) the flow records a
        /// [`TracePoint`](crate::TracePoint) with exact HPWL / WNS / TNS —
        /// each one costs a forest sync and, unless the timing mechanism ran
        /// an exact analysis of its own that iteration, a full STA. 0 (the
        /// default) = never: the optimiser reads none of it, so a flow pays
        /// for it only when the caller will read the trace; 1 = every
        /// iteration (Figure-8 mode). 0 and 10 place identically in every
        /// mode.
        trace_timing_every: usize = 0,
        /// Random seed for the initial center-cluster placement.
        seed: u64 = 1,
        /// A net's Steiner topology is rebuilt when the accumulated worst cell
        /// drift since its last build exceeds this fraction of the net's pin
        /// bounding-box half-perimeter; until then only node coordinates are
        /// updated.
        topo_dirty_frac: f64 = 0.10,
        /// Enable the routability subsystem: the differentiable congestion
        /// penalty joins the objective and the RUDY feedback loop (cell
        /// inflation + congested-net weighting) runs every
        /// [`route_update_period`](FlowConfig::route_update_period) iterations.
        /// `false` leaves the flow trajectory bit-for-bit identical to a build
        /// without the subsystem.
        route_aware: bool = false,
        /// Routing-congestion grid (bins × bins), for both the exact RUDY map
        /// and the smoothed penalty.
        route_grid: usize = 32,
        /// Per-direction routing supply in wire-µm per µm² of bin area (the
        /// per-bin capacity is this times the bin area).
        route_capacity: f64 = 0.5,
        /// Strength of the congestion pressure: the congestion gradient is
        /// rescaled so its ∞-norm equals this fraction of the combined
        /// wirelength+density gradient's ∞-norm, and congested nets get their
        /// wirelength weight boosted by up to `1 + route_weight`.
        route_weight: f64 = 1.0,
        /// Cap on the congestion-driven per-cell area inflation factor.
        inflation_max: f64 = 2.5,
        /// Run the RUDY feedback (inflation + net reweighting) every this many
        /// iterations once congestion optimization is active.
        route_update_period: usize = 20,
        /// Worker threads for the parallel phases (Nesterov update, gradient
        /// sweeps, legalization bands). 0 = the ambient pool (the process-global
        /// default, or whatever [`rayon::with_pool`] scope encloses the call);
        /// any other value up to 256 runs the flow on a dedicated pool of that
        /// width (above that the flow returns `FlowError::Config`).
        /// Every parallel kernel reduces in fixed chunk order, so the placement
        /// trajectory is bit-for-bit identical for every value of this knob.
        threads: usize = 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let d = DiffTimingConfig::default();
        assert_eq!(d.gamma, 100.0);
        assert_eq!(d.t1, 0.04);
        assert_eq!(d.t2, 0.0004);
        assert!((d.growth - 1.01).abs() < 1e-12);
        assert_eq!(d.start_iter, 100);
    }

    #[test]
    fn labels() {
        assert_eq!(FlowMode::Wirelength.label(), "DREAMPlace");
        assert_eq!(FlowMode::NetWeighting.label(), "NetWeighting");
        assert_eq!(FlowMode::differentiable().label(), "Ours");
    }

    /// Every field of a config, perturbed from its default one at a time,
    /// must come back out of `round` (from fields and back to fields) as it
    /// went in — a field the reader defaulted, or read from a neighbour's
    /// key, shows up as a difference here.
    fn every_perturbed_field_survives(
        defaults: Vec<(String, Value)>,
        round: impl Fn(&[(String, Value)]) -> Result<Vec<(String, Value)>, String>,
    ) {
        for i in 0..defaults.len() {
            let mut fields = defaults.clone();
            let v = &mut fields[i].1;
            *v = match &*v {
                Value::Num(x) => Value::Num(x + 1.0),
                Value::Bool(b) => Value::Bool(!b),
                Value::Str(seed) => {
                    Value::Str((seed.parse::<u64>().expect("a u64 string") + (1 << 60)).to_string())
                }
                other => panic!("no config kind serializes as {other:?}"),
            };
            assert_ne!(fields, defaults);
            let back = round(&fields).unwrap_or_else(|e| panic!("`{}`: {e}", fields[i].0));
            assert_eq!(back, fields, "field `{}` did not survive", fields[i].0);
        }
    }

    #[test]
    fn config_trace_fields_round_trip() {
        let cfg = FlowConfig {
            seed: u64::MAX - 3, // above 2^53: exercises the string encoding
            route_aware: true,
            threads: 4,
            topo_dirty_frac: 0.0375,
            ..FlowConfig::default()
        };
        let fields = cfg.trace_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, FlowConfig::KEYS, "header keys follow the field table's order");
        let back = FlowConfig::from_trace_fields(&fields).expect("round trip");
        assert_eq!(back, cfg);
        every_perturbed_field_survives(FlowConfig::default().trace_fields(), |f| {
            FlowConfig::from_trace_fields(f).map(|c| c.trace_fields())
        });
        // Strictness: a missing knob and an unknown knob are both errors.
        let missing: Vec<_> = fields[1..].to_vec();
        assert!(FlowConfig::from_trace_fields(&missing).is_err());
        let mut extra = fields.clone();
        extra.push(("bogus".to_string(), Value::Bool(true)));
        assert!(FlowConfig::from_trace_fields(&extra).is_err());
    }

    /// The surviving knobs, in header order: a new one is a visible edit
    /// here, and the order is part of the trace format.
    #[test]
    fn flow_config_keys_are_pinned() {
        assert_eq!(
            FlowConfig::KEYS,
            [
                "max_iters", "bins", "trace_timing_every", "seed", "topo_dirty_frac",
                "route_aware", "route_grid", "route_capacity", "route_weight", "inflation_max",
                "route_update_period", "threads",
            ]
        );
    }

    #[test]
    fn mode_trace_fields_round_trip() {
        for mode in [
            FlowMode::Wirelength,
            FlowMode::NetWeighting,
            FlowMode::differentiable(),
            FlowMode::Differentiable(DiffTimingConfig {
                gamma: 50.0,
                start_iter: 10,
                ..DiffTimingConfig::default()
            }),
        ] {
            let fields = mode.trace_fields();
            let back = FlowMode::from_trace(mode.name(), &fields).expect("round trip");
            assert_eq!(back, mode);
            every_perturbed_field_survives(fields.clone(), |f| {
                FlowMode::from_trace(mode.name(), f).map(|m| m.trace_fields())
            });
            // Strictness, per mode: a missing knob and an unknown knob.
            if !fields.is_empty() {
                assert!(FlowMode::from_trace(mode.name(), &fields[1..]).is_err());
            }
            let mut extra = fields;
            extra.push(("bogus".to_string(), Value::Bool(true)));
            assert!(FlowMode::from_trace(mode.name(), &extra).is_err());
        }
        assert_eq!(DiffTimingConfig::KEYS, ["gamma", "t1", "t2", "growth", "start_iter"]);
        assert!(FlowMode::from_trace("bogus", &[]).is_err());
        assert!(FlowMode::from_trace("path-extraction", &[]).is_err());
        // The modes without hyperparameters must carry no fields — neither
        // another mode's nor a retired one.
        for (name, key) in [("wirelength", "gamma"), ("net-weighting", "momentum")] {
            let err = FlowMode::from_trace(name, &[(key.to_string(), Value::Num(0.5))]);
            assert_eq!(err, Err(format!("unknown config field `{key}`")), "{name}");
        }
    }
}
