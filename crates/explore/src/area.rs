//! The area model: what each candidate ISA costs in silicon.
//!
//! Cycle counts alone cannot rank ASIP designs — a 32-lane SIMD datapath
//! with every custom family enabled always wins on cycles. The explorer
//! therefore prices each candidate with a simple additive gate-area
//! model, normalized so the plain scalar core costs `base`: each extra
//! SIMD lane and each custom-instruction family block adds area, and a
//! down-scaled (slower) implementation of the custom units gets an area
//! discount. The model is data, not code: it loads from a JSON file kept
//! next to the ISA descriptions (`targets/area_model_default.json`), so
//! recalibrating against a real synthesis flow is an edit, not a rebuild.

use crate::grid::Candidate;
use matic_isa::json::{parse, Json};

/// Schema identifier stamped into every area-model document.
pub const AREA_SCHEMA: &str = "matic-area-v1";

/// Additive normalized-gate-area model for candidate ISAs.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Area of the plain scalar core (everything else is relative to it).
    pub base: f64,
    /// Area of each SIMD lane beyond the first.
    pub per_lane: f64,
    /// Area of the SIMD control/issue block (present iff `simd`).
    pub simd_block: f64,
    /// Area of the complex-arithmetic block (present iff `complex`).
    pub complex_block: f64,
    /// Area of the MAC accumulate block (present iff `mac`).
    pub mac_block: f64,
    /// How much area a slower custom-unit implementation saves: at cost
    /// scale `s`, accelerator area divides by `1 + slow_discount·(s−1)`.
    /// 0 = no savings; must stay below 1 so the divisor is positive for
    /// every admissible scale.
    pub slow_discount: f64,
}

impl Default for AreaModel {
    /// Defaults loosely calibrated so the paper-like `w8_simd_cplx_mac`
    /// point costs ≈ 2.2× the scalar core — in the range ASIP datapath
    /// extensions typically add.
    fn default() -> AreaModel {
        AreaModel {
            base: 1.0,
            per_lane: 0.08,
            simd_block: 0.35,
            complex_block: 0.30,
            mac_block: 0.20,
            slow_discount: 0.5,
        }
    }
}

impl AreaModel {
    /// Normalized area of one candidate.
    pub fn area(&self, c: &Candidate) -> f64 {
        let mut accel = self.per_lane * (c.width.saturating_sub(1)) as f64;
        if c.features.simd {
            accel += self.simd_block;
        }
        if c.features.complex {
            accel += self.complex_block;
        }
        if c.features.mac {
            accel += self.mac_block;
        }
        let divisor = 1.0 + self.slow_discount * (c.cost_scale - 1.0);
        self.base + accel / divisor
    }

    /// Checks the model's coefficients for nonsense values.
    ///
    /// # Errors
    ///
    /// Names the offending coefficient.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("base", self.base),
            ("per_lane", self.per_lane),
            ("simd_block", self.simd_block),
            ("complex_block", self.complex_block),
            ("mac_block", self.mac_block),
            ("slow_discount", self.slow_discount),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "area model `{name}` must be a finite non-negative number (got {v})"
                ));
            }
        }
        if self.base <= 0.0 {
            return Err("area model `base` must be positive".to_string());
        }
        if self.slow_discount >= 1.0 {
            return Err("area model `slow_discount` must be below 1".to_string());
        }
        Ok(())
    }

    /// Serializes the model (the on-disk format).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(AREA_SCHEMA.into())),
            ("base".into(), Json::Num(self.base)),
            ("per_lane".into(), Json::Num(self.per_lane)),
            ("simd_block".into(), Json::Num(self.simd_block)),
            ("complex_block".into(), Json::Num(self.complex_block)),
            ("mac_block".into(), Json::Num(self.mac_block)),
            ("slow_discount".into(), Json::Num(self.slow_discount)),
        ])
    }

    /// Parses and validates a model from JSON text. Unknown keys are
    /// rejected so typos in model files surface immediately.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(text: &str) -> Result<AreaModel, String> {
        AreaModel::from_doc(&parse(text)?)
    }

    /// Builds and validates a model from a parsed JSON document, with the
    /// same checks and messages as [`AreaModel::from_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_doc(doc: &Json) -> Result<AreaModel, String> {
        let Json::Obj(fields) = doc else {
            return Err("area model must be a JSON object".to_string());
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "schema"
                    | "base"
                    | "per_lane"
                    | "simd_block"
                    | "complex_block"
                    | "mac_block"
                    | "slow_discount"
            ) {
                return Err(format!("unknown area-model field `{key}`"));
            }
        }
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `schema`".to_string())?;
        if schema != AREA_SCHEMA {
            return Err(format!("schema `{schema}`, expected `{AREA_SCHEMA}`"));
        }
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric area-model field `{key}`"))
        };
        let model = AreaModel {
            base: num("base")?,
            per_lane: num("per_lane")?,
            simd_block: num("simd_block")?,
            complex_block: num("complex_block")?,
            mac_block: num("mac_block")?,
            slow_discount: num("slow_discount")?,
        };
        model.validate()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{build_spec, Candidate};
    use matic::Features;

    fn candidate(width: usize, features: Features, scale: f64) -> Candidate {
        Candidate {
            spec: build_spec(width, features, scale),
            width,
            features,
            cost_scale: scale,
        }
    }

    #[test]
    fn scalar_core_costs_base_and_features_add_area() {
        let m = AreaModel::default();
        let scalar = candidate(1, Features::none(), 1.0);
        assert_eq!(m.area(&scalar), m.base);
        let full = candidate(8, Features::all(), 1.0);
        assert!(m.area(&full) > 2.0 * m.base, "{}", m.area(&full));
        // Monotone in width and features.
        assert!(m.area(&candidate(16, Features::all(), 1.0)) > m.area(&full));
        let no_mac = Features {
            simd: true,
            complex: true,
            mac: false,
        };
        assert!(m.area(&candidate(8, no_mac, 1.0)) < m.area(&full));
    }

    #[test]
    fn slower_custom_units_are_smaller() {
        let m = AreaModel::default();
        let fast = candidate(8, Features::all(), 1.0);
        let slow = candidate(8, Features::all(), 2.0);
        assert!(m.area(&slow) < m.area(&fast));
        assert!(m.area(&slow) > m.base, "still larger than the scalar core");
    }

    #[test]
    fn json_round_trip_and_validation() {
        let m = AreaModel::default();
        let text = m.to_json().pretty();
        let back = AreaModel::from_json(&text).unwrap();
        assert_eq!(m, back);

        let err = AreaModel::from_json(&text.replace("\"base\": 1", "\"base\": 0")).unwrap_err();
        assert!(err.contains("base"), "{err}");
        let err = AreaModel::from_json(&text.replace("\"per_lane\"", "\"per_lance\"")).unwrap_err();
        assert!(err.contains("per_lance"), "{err}");
        assert!(AreaModel::from_json("{}").is_err());
    }
}
