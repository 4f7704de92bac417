//! Plain-text serialization for trained models.
//!
//! A deliberately simple line-oriented format — human-inspectable,
//! dependency-free and stable:
//!
//! ```text
//! wlc-nn-mlp v1
//! layers 2
//! layer 4 16 logistic(1.0)
//! w <16 lines of 4 numbers>
//! b <1 line of 16 numbers>
//! layer 16 5 identity
//! ...
//! ```

use std::fmt::Write as _;

use wlc_math::float_text::{parse_f64, push_f64s};
use wlc_math::Matrix;

use crate::{Activation, DenseLayer, Mlp, NnError};

const MAGIC: &str = "wlc-nn-mlp v1";

/// Upper bound on the `layers` count a model file may declare. Guards the
/// parser against allocating storage for absurd counts from corrupt or
/// hostile input before any layer data has been seen.
const MAX_LAYERS: usize = 1024;

/// Upper bound on a single declared layer dimension.
const MAX_DIM: usize = 1 << 20;

/// Upper bound on the declared weight count of one layer (`in × out`).
const MAX_LAYER_PARAMS: usize = 1 << 24;

impl Mlp {
    /// Serializes the network (topology, activations, parameters) to the
    /// crate's plain-text format.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_nn::{Activation, Mlp, MlpBuilder};
    ///
    /// let mlp = MlpBuilder::new(2)
    ///     .hidden(3, Activation::tanh())
    ///     .output(1, Activation::identity())
    ///     .seed(7)
    ///     .build()?;
    /// let text = mlp.to_text();
    /// let back = Mlp::from_text(&text)?;
    /// assert_eq!(back.forward(&[0.1, 0.2])?, mlp.forward(&[0.1, 0.2])?);
    /// # Ok::<(), wlc_nn::NnError>(())
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "layers {}", self.layers().len());
        for layer in self.layers() {
            let _ = writeln!(
                out,
                "layer {} {} {}",
                layer.inputs(),
                layer.outputs(),
                layer.activation()
            );
            for r in 0..layer.outputs() {
                out.push_str("w ");
                push_f64s(&mut out, layer.weights().row(r), ' ');
                out.push('\n');
            }
            out.push_str("b ");
            push_f64s(&mut out, layer.biases(), ' ');
            out.push('\n');
        }
        out
    }

    /// Parses a network from the format produced by [`Mlp::to_text`].
    ///
    /// The parser is strict: truncated input, malformed lines, non-finite
    /// parameter values (NaN/Inf) and absurd declared dimensions are all
    /// rejected with a typed error — it never panics on untrusted input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parse`] describing the offending line on any
    /// format violation.
    pub fn from_text(text: &str) -> Result<Mlp, NnError> {
        let mut lines = text.lines().enumerate();

        let (ln, first) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
        if first.trim() != MAGIC {
            return Err(parse_err(ln + 1, "missing or wrong magic header"));
        }

        let (ln, count_line) = lines
            .next()
            .ok_or_else(|| parse_err(2, "missing `layers` line"))?;
        let layer_count: usize = count_line
            .trim()
            .strip_prefix("layers ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(ln + 1, "expected `layers <n>`"))?;
        if layer_count == 0 {
            return Err(parse_err(ln + 1, "layer count must be at least 1"));
        }
        if layer_count > MAX_LAYERS {
            return Err(parse_err(ln + 1, "layer count is implausibly large"));
        }

        let mut layers = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            let (ln, header) = lines
                .next()
                .ok_or_else(|| parse_err(0, "unexpected end of input in layer header"))?;
            let mut parts = header.split_whitespace();
            if parts.next() != Some("layer") {
                return Err(parse_err(
                    ln + 1,
                    "expected `layer <in> <out> <activation>`",
                ));
            }
            let inputs: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(ln + 1, "bad input width"))?;
            let outputs: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(ln + 1, "bad output width"))?;
            let act_token: String = parts.collect::<Vec<_>>().join(" ");
            let activation: Activation = act_token
                .parse()
                .map_err(|_| parse_err(ln + 1, "bad activation token"))?;
            if inputs == 0 || outputs == 0 {
                return Err(parse_err(ln + 1, "layer dimensions must be at least 1"));
            }
            if inputs > MAX_DIM || outputs > MAX_DIM || inputs * outputs > MAX_LAYER_PARAMS {
                return Err(parse_err(ln + 1, "layer dimensions are implausibly large"));
            }

            let mut weights = Matrix::zeros(outputs, inputs);
            for r in 0..outputs {
                let (ln, row_line) = lines
                    .next()
                    .ok_or_else(|| parse_err(0, "unexpected end of input in weights"))?;
                let rest = row_line
                    .trim()
                    .strip_prefix("w ")
                    .ok_or_else(|| parse_err(ln + 1, "expected weight row `w ...`"))?;
                let values = parse_floats(rest, ln + 1)?;
                if values.len() != inputs {
                    return Err(parse_err(ln + 1, "wrong number of weights in row"));
                }
                weights.row_mut(r).copy_from_slice(&values);
            }

            let (ln, bias_line) = lines
                .next()
                .ok_or_else(|| parse_err(0, "unexpected end of input in biases"))?;
            let rest = bias_line
                .trim()
                .strip_prefix("b ")
                .ok_or_else(|| parse_err(ln + 1, "expected bias row `b ...`"))?;
            let biases = parse_floats(rest, ln + 1)?;
            if biases.len() != outputs {
                return Err(parse_err(ln + 1, "wrong number of biases"));
            }

            layers.push(DenseLayer::from_parts(weights, biases, activation)?);
        }

        // Completeness guard: if the bias row we just consumed is the
        // document's final line, it must be newline-terminated. A
        // power cut (or torn copy) that truncates the last line
        // mid-float still yields tokens that parse and count
        // correctly — only the missing terminator betrays it.
        if lines.next().is_none() && !text.ends_with('\n') {
            return Err(parse_err(0, "truncated final line"));
        }

        Mlp::from_layers(layers)
    }
}

fn parse_err(line: usize, reason: &str) -> NnError {
    NnError::Parse {
        line,
        reason: reason.to_string(),
    }
}

fn parse_floats(s: &str, line: usize) -> Result<Vec<f64>, NnError> {
    s.split_whitespace()
        .map(|tok| {
            let v = parse_f64(tok).map_err(|_| parse_err(line, "bad float"))?;
            // A stored model must be usable; NaN/Inf weights poison every
            // forward pass, so reject them at the door.
            if !v.is_finite() {
                return Err(parse_err(line, "non-finite parameter value"));
            }
            Ok(v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MlpBuilder;

    fn sample_mlp() -> Mlp {
        MlpBuilder::new(3)
            .hidden(5, Activation::logistic_with_slope(2.0).unwrap())
            .hidden(4, Activation::Tanh)
            .output(2, Activation::identity())
            .seed(21)
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mlp = sample_mlp();
        let text = mlp.to_text();
        let back = Mlp::from_text(&text).unwrap();
        assert_eq!(back, mlp);
        assert_eq!(back.topology(), mlp.topology());
    }

    #[test]
    fn roundtrip_preserves_exact_bits() {
        // Floats are written as the shortest text that parses back to
        // the same f64, so the roundtrip must be bit-exact.
        let mlp = sample_mlp();
        let back = Mlp::from_text(&mlp.to_text()).unwrap();
        for (a, b) in mlp.params_flat().iter().zip(back.params_flat().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = Mlp::from_text("not-a-model\nlayers 1\n");
        assert!(matches!(err, Err(NnError::Parse { line: 1, .. })));
    }

    #[test]
    fn rejects_truncated_input() {
        let mlp = sample_mlp();
        let text = mlp.to_text();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(Mlp::from_text(&truncated).is_err());
    }

    #[test]
    fn rejects_corrupt_float() {
        let mlp = sample_mlp();
        let text = mlp.to_text().replacen("w ", "w oops ", 1);
        assert!(matches!(Mlp::from_text(&text), Err(NnError::Parse { .. })));
    }

    #[test]
    fn rejects_zero_layers() {
        let err = Mlp::from_text("wlc-nn-mlp v1\nlayers 0\n");
        assert!(matches!(err, Err(NnError::Parse { .. })));
    }

    #[test]
    fn rejects_bad_activation() {
        let mlp = MlpBuilder::new(1)
            .output(1, Activation::identity())
            .seed(1)
            .build()
            .unwrap();
        let text = mlp.to_text().replace("identity", "mystery");
        assert!(matches!(Mlp::from_text(&text), Err(NnError::Parse { .. })));
    }

    #[test]
    fn rejects_wrong_row_width() {
        let text = "wlc-nn-mlp v1\nlayers 1\nlayer 2 1 identity\nw 1.0\nb 0.0\n";
        assert!(matches!(Mlp::from_text(text), Err(NnError::Parse { .. })));
    }

    #[test]
    fn rejects_nonfinite_parameters() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!("wlc-nn-mlp v1\nlayers 1\nlayer 2 1 identity\nw 1.0 {bad}\nb 0.5\n");
            assert!(
                matches!(Mlp::from_text(&text), Err(NnError::Parse { .. })),
                "accepted weight {bad}"
            );
        }
        let text = "wlc-nn-mlp v1\nlayers 1\nlayer 2 1 identity\nw 1.0 2.0\nb NaN\n";
        assert!(Mlp::from_text(text).is_err());
    }

    #[test]
    fn rejects_absurd_dimensions() {
        // Declared sizes must be sanity-checked before any allocation.
        assert!(Mlp::from_text("wlc-nn-mlp v1\nlayers 9999999999\n").is_err());
        assert!(Mlp::from_text(
            "wlc-nn-mlp v1\nlayers 1\nlayer 99999999 99999999 identity\nw 1.0\nb 1.0\n"
        )
        .is_err());
        assert!(Mlp::from_text("wlc-nn-mlp v1\nlayers 1\nlayer 0 1 identity\nb 1.0\n").is_err());
    }

    #[test]
    fn parses_handwritten_model() {
        let text = "wlc-nn-mlp v1\nlayers 1\nlayer 2 1 identity\nw 2.0 3.0\nb 0.5\n";
        let mlp = Mlp::from_text(text).unwrap();
        assert_eq!(mlp.forward([1.0, 1.0]).unwrap(), vec![5.5]);
    }
}
