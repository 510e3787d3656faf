//! The unified k-class objective specification.
//!
//! [`ObjectiveSpec`] subsumes the two-class [`Objective`]
//! enum: it carries `k ≥ 2` strict-priority classes (component 0 is the
//! highest priority) with a per-class cost mode — the Fortz–Thorup
//! load cost `Φ` against the class's cascading residual capacity
//! `C̃_c = max(C − Σ_{j<c} load_j, 0)`, or the paper's SLA penalty `Λ`
//! (Eq. 4) with per-class [`SlaParams`]. The two-class specs map exactly
//! onto the legacy enum (see [`ObjectiveSpec::as_two_class`]), which is
//! how every evaluator guarantees `k = 2` results stay bit-identical to
//! the pre-spec code paths.
//!
//! # Migrating from `Objective`
//!
//! | legacy call | spec call |
//! |---|---|
//! | `Evaluator::new(t, d, Objective::LoadBased)` | `Evaluator::with_spec(t, d, &ObjectiveSpec::two_class_load())` |
//! | `Evaluator::new(t, d, Objective::SlaBased(p))` | `Evaluator::with_spec(t, d, &ObjectiveSpec::from(Objective::SlaBased(p)))` |
//! | `MultiEvaluator::new(t, d)` (removed) | `KClassBatchEvaluator::with_spec(t, d, &ObjectiveSpec::load(k))` |
//!
//! The two-class legacy constructors remain as thin forwarding
//! wrappers; new code should construct an `ObjectiveSpec` once and
//! thread it through. The k-class evaluator takes a spec only: it is
//! `dtr-engine`'s `KClassBatchEvaluator` (`dtr_multi::MultiEvaluator`
//! is a re-exported name of it).

use crate::objective::{Objective, SlaParams};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum supported class count — a sanity bound, not a structural
/// limit: strict-priority cascades beyond this are outside every
/// calibrated regime in the repo.
pub const MAX_CLASSES: usize = 8;

/// Per-class cost mode. Serializes as `"Load"` or `{"Sla": {...}}` so
/// corpus manifests stay readable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClassMode {
    /// Fortz–Thorup load cost `Φ` against the class's residual capacity.
    Load,
    /// SLA penalty `Λ` (Eq. 4) over the class's pair delays, with the
    /// link delay model evaluated against the class's residual capacity.
    Sla(SlaParams),
}

impl ClassMode {
    /// Short machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ClassMode::Load => "load",
            ClassMode::Sla(_) => "sla",
        }
    }
}

/// A k-class lexicographic objective: one [`ClassMode`] per class,
/// highest priority first. The cost it induces is the
/// [`LexCost`](crate::LexCost) `⟨c_0, …, c_{k−1}⟩` where `c_i` is class
/// i's `Φ` or `Λ` component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveSpec {
    /// Per-class modes, component 0 = highest priority.
    pub classes: Vec<ClassMode>,
}

impl Default for ObjectiveSpec {
    /// The paper's load-based two-class objective `A = ⟨Φ_H, Φ_L⟩`.
    fn default() -> Self {
        ObjectiveSpec::two_class_load()
    }
}

impl From<Objective> for ObjectiveSpec {
    fn from(o: Objective) -> Self {
        match o {
            Objective::LoadBased => ObjectiveSpec::two_class_load(),
            Objective::SlaBased(p) => ObjectiveSpec {
                classes: vec![ClassMode::Sla(p), ClassMode::Load],
            },
        }
    }
}

impl ObjectiveSpec {
    /// The paper's two-class load-based objective (Eq. 2).
    pub fn two_class_load() -> Self {
        ObjectiveSpec {
            classes: vec![ClassMode::Load; 2],
        }
    }

    /// `k` load-based classes with cascading residual capacities.
    pub fn load(k: usize) -> Self {
        ObjectiveSpec {
            classes: vec![ClassMode::Load; k],
        }
    }

    /// `k` classes where every class except the (best-effort) lowest
    /// carries the same SLA, and the lowest is load-based — the shape
    /// the `--objective sla --classes K` CLI flags request.
    pub fn uniform_sla(k: usize, params: SlaParams) -> Self {
        let mut classes = vec![ClassMode::Sla(params); k.saturating_sub(1)];
        classes.push(ClassMode::Load);
        ObjectiveSpec { classes }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The mode of class `c`.
    pub fn mode(&self, c: usize) -> ClassMode {
        self.classes[c]
    }

    /// Maps two-class specs onto the legacy [`Objective`] enum. Returns
    /// `None` for `k ≥ 3`, or for two-class combinations the legacy
    /// enum cannot represent (an SLA on the low class). Evaluators use
    /// this to route compatible specs through the pre-spec code paths,
    /// which is what makes `k = 2` results bit-identical by
    /// construction.
    pub fn as_two_class(&self) -> Option<Objective> {
        match self.classes.as_slice() {
            [ClassMode::Load, ClassMode::Load] => Some(Objective::LoadBased),
            [ClassMode::Sla(p), ClassMode::Load] => Some(Objective::SlaBased(*p)),
            _ => None,
        }
    }

    /// Structural validation: class count in `2..=MAX_CLASSES`, finite
    /// positive SLA bounds, finite non-negative penalty coefficients.
    pub fn validate(&self) -> Result<(), ObjectiveError> {
        let k = self.classes.len();
        if k < 2 {
            return Err(ObjectiveError::TooFewClasses { got: k });
        }
        if k > MAX_CLASSES {
            return Err(ObjectiveError::TooManyClasses {
                got: k,
                max: MAX_CLASSES,
            });
        }
        for (c, mode) in self.classes.iter().enumerate() {
            if let ClassMode::Sla(p) = mode {
                if !(p.bound_s.is_finite() && p.bound_s > 0.0) {
                    return Err(ObjectiveError::BadSla {
                        class: c,
                        reason: "delay bound must be a positive finite number of seconds",
                    });
                }
                if !(p.penalty_a.is_finite()
                    && p.penalty_a >= 0.0
                    && p.penalty_b.is_finite()
                    && p.penalty_b >= 0.0)
                {
                    return Err(ObjectiveError::BadSla {
                        class: c,
                        reason: "penalty coefficients must be finite and non-negative",
                    });
                }
            }
        }
        Ok(())
    }

    /// Human-readable summary, e.g. `"sla:25ms,sla:50ms,load"`.
    pub fn summary(&self) -> String {
        self.classes
            .iter()
            .map(|m| match m {
                ClassMode::Load => "load".to_string(),
                ClassMode::Sla(p) => format!("sla:{:.0}ms", p.bound_s * 1e3),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Structured errors for objective-spec construction and routing: the
/// spec API never panics on an unsupported combination — callers get a
/// variant naming what failed and where.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveError {
    /// Fewer than two classes — the dual-topology model needs at least
    /// a high and a low class.
    TooFewClasses {
        /// Classes in the spec.
        got: usize,
    },
    /// More classes than [`MAX_CLASSES`].
    TooManyClasses {
        /// Classes in the spec.
        got: usize,
        /// The supported maximum.
        max: usize,
    },
    /// An SLA class carries unusable parameters.
    BadSla {
        /// Which class (0 = highest priority).
        class: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The spec's class count does not match the demand classes it is
    /// being evaluated against.
    ClassCountMismatch {
        /// Classes in the spec.
        spec: usize,
        /// Classes in the demand set.
        demands: usize,
    },
    /// The consumer only supports a subset of specs (for example the
    /// two-class search stack), and this spec is outside it.
    Unsupported {
        /// The consumer that rejected the spec.
        context: &'static str,
        /// The rejected spec's [`ObjectiveSpec::summary`].
        spec: String,
    },
}

impl fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveError::TooFewClasses { got } => {
                write!(f, "objective needs at least 2 classes, got {got}")
            }
            ObjectiveError::TooManyClasses { got, max } => {
                write!(f, "objective has {got} classes, supported maximum is {max}")
            }
            ObjectiveError::BadSla { class, reason } => {
                write!(f, "SLA parameters for class {class}: {reason}")
            }
            ObjectiveError::ClassCountMismatch { spec, demands } => write!(
                f,
                "objective has {spec} classes but the demands carry {demands}"
            ),
            ObjectiveError::Unsupported { context, spec } => {
                write!(f, "{context} does not support objective \"{spec}\"")
            }
        }
    }
}

impl std::error::Error for ObjectiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_two_class_load_and_round_trips() {
        let spec = ObjectiveSpec::default();
        assert_eq!(spec.class_count(), 2);
        assert_eq!(spec.as_two_class(), Some(Objective::LoadBased));
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("Load"), "{json}");
        let back: ObjectiveSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn legacy_objectives_map_both_ways() {
        let p = SlaParams::default();
        let spec = ObjectiveSpec::from(Objective::SlaBased(p));
        assert_eq!(spec.as_two_class(), Some(Objective::SlaBased(p)));
        assert_eq!(
            ObjectiveSpec::from(Objective::LoadBased).as_two_class(),
            Some(Objective::LoadBased)
        );
    }

    #[test]
    fn k3_is_not_two_class() {
        assert_eq!(ObjectiveSpec::load(3).as_two_class(), None);
        // A low-class SLA is outside the legacy enum too.
        let spec = ObjectiveSpec {
            classes: vec![ClassMode::Load, ClassMode::Sla(SlaParams::default())],
        };
        assert_eq!(spec.as_two_class(), None);
    }

    #[test]
    fn uniform_sla_shapes_classes() {
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        assert!(matches!(spec.mode(0), ClassMode::Sla(_)));
        assert!(matches!(spec.mode(1), ClassMode::Sla(_)));
        assert!(matches!(spec.mode(2), ClassMode::Load));
        assert_eq!(spec.summary(), "sla:25ms,sla:25ms,load");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(matches!(
            ObjectiveSpec { classes: vec![] }.validate(),
            Err(ObjectiveError::TooFewClasses { got: 0 })
        ));
        assert!(matches!(
            ObjectiveSpec::load(MAX_CLASSES + 1).validate(),
            Err(ObjectiveError::TooManyClasses { .. })
        ));
        let bad = ObjectiveSpec {
            classes: vec![
                ClassMode::Sla(SlaParams {
                    bound_s: -1.0,
                    ..SlaParams::default()
                }),
                ClassMode::Load,
            ],
        };
        assert!(matches!(
            bad.validate(),
            Err(ObjectiveError::BadSla { class: 0, .. })
        ));
        assert!(ObjectiveSpec::load(4).validate().is_ok());
    }

    #[test]
    fn manifest_style_json_parses() {
        let json = r#"{"classes":[{"Sla":{"bound_s":0.02,"penalty_a":100.0,"penalty_b":1.0,
                        "delay":{"packet_size_bits":8000.0}}},"Load"]}"#;
        let spec: ObjectiveSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.class_count(), 2);
        assert!(matches!(spec.mode(0), ClassMode::Sla(p) if p.bound_s == 0.02));
    }

    #[test]
    fn errors_display_clearly() {
        let e = ObjectiveError::Unsupported {
            context: "robust search",
            spec: "sla:25ms,load".into(),
        };
        assert!(e.to_string().contains("robust search"));
        assert!(e.to_string().contains("sla:25ms,load"));
    }
}
