//! Strict CSV input validation.
//!
//! [`Dataset::from_csv_string`] accepts anything that parses as a float —
//! including `NaN`, `inf` and silently re-appended duplicate rows — which
//! lets bad measurement data flow straight into training. The validated
//! loaders here check every row for:
//!
//! - cells that do not parse as floats,
//! - non-finite cells (NaN / ±Inf),
//! - short or long rows (wrong column count),
//! - exact duplicates of an earlier row.
//!
//! [`ValidateMode::Strict`] turns the first problem into a typed
//! [`DataError::Validation`]; [`ValidateMode::Repair`] drops the offending
//! rows and returns a [`ValidationReport`] listing every repair so callers
//! can surface what was discarded.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use wlc_math::float_text::parse_f64;

use crate::dataset::parse_csv_header;
use crate::{DataError, Dataset, Sample};

/// What to do when a CSV row fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidateMode {
    /// Fail fast: the first bad row is a [`DataError::Validation`].
    #[default]
    Strict,
    /// Drop bad rows, keep the rest, and report every drop.
    Repair,
}

impl fmt::Display for ValidateMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateMode::Strict => write!(f, "strict"),
            ValidateMode::Repair => write!(f, "repair"),
        }
    }
}

impl std::str::FromStr for ValidateMode {
    type Err = DataError;

    fn from_str(s: &str) -> Result<Self, DataError> {
        match s.trim() {
            "strict" => Ok(ValidateMode::Strict),
            "repair" => Ok(ValidateMode::Repair),
            _ => Err(DataError::InvalidParameter {
                name: "mode",
                reason: "expected `strict` or `repair`",
            }),
        }
    }
}

/// One dropped (repair mode) or offending (strict mode) row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIssue {
    /// 1-based line number in the CSV input.
    pub line: usize,
    /// What was wrong with the row.
    pub reason: String,
}

impl fmt::Display for RowIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

/// Outcome of a validated CSV load.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ValidationReport {
    /// Non-blank data rows seen (header excluded).
    pub rows_seen: usize,
    /// Rows that passed validation and were kept.
    pub rows_kept: usize,
    /// One entry per dropped row (empty in strict mode and for clean
    /// input).
    pub issues: Vec<RowIssue>,
}

impl ValidationReport {
    /// Whether every row passed.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rows: {} kept, {} dropped",
            self.rows_seen,
            self.rows_kept,
            self.issues.len()
        )
    }
}

/// Checks one data row; `Ok` is the parsed cells, `Err` the reason it
/// fails validation.
fn check_row(
    line: &str,
    input_names: &[String],
    output_names: &[String],
) -> Result<Vec<f64>, String> {
    let width = input_names.len() + output_names.len();
    let tokens: Vec<&str> = line.split(',').map(str::trim).collect();
    if tokens.len() != width {
        return Err(format!("expected {width} columns, got {}", tokens.len()));
    }
    let mut values = Vec::with_capacity(width);
    for (c, tok) in tokens.iter().enumerate() {
        let column = || -> &str {
            input_names
                .get(c)
                .or_else(|| output_names.get(c - input_names.len()))
                .map_or("?", String::as_str)
        };
        let v =
            parse_f64(tok).map_err(|_| format!("bad float `{tok}` in column `{}`", column()))?;
        if !v.is_finite() {
            return Err(format!("non-finite value `{tok}` in column `{}`", column()));
        }
        values.push(v);
    }
    Ok(values)
}

impl Dataset {
    /// Parses CSV (the [`Dataset::to_csv_string`] format) with per-row
    /// validation; see the module docs for the checks performed.
    ///
    /// # Errors
    ///
    /// - [`DataError::Csv`] for a malformed header (both modes — a broken
    ///   header means nothing can be trusted).
    /// - [`DataError::Validation`] for the first bad row in
    ///   [`ValidateMode::Strict`].
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_data::{Dataset, ValidateMode};
    ///
    /// let csv = "a,y*\n1.0,2.0\n1.0,NaN\n1.0,2.0\n";
    /// // Repair drops the NaN row and the duplicate of row 2.
    /// let (ds, report) = Dataset::from_csv_string_validated(csv, ValidateMode::Repair)?;
    /// assert_eq!(ds.len(), 1);
    /// assert_eq!(report.issues.len(), 2);
    /// // Strict refuses the same input outright.
    /// assert!(Dataset::from_csv_string_validated(csv, ValidateMode::Strict).is_err());
    /// # Ok::<(), wlc_data::DataError>(())
    /// ```
    pub fn from_csv_string_validated(
        csv: &str,
        mode: ValidateMode,
    ) -> Result<(Dataset, ValidationReport), DataError> {
        let mut lines = csv.lines().enumerate();
        let (_, header) = lines.next().ok_or(DataError::Csv {
            line: 1,
            reason: "missing header".into(),
        })?;
        let (input_names, output_names) = parse_csv_header(header)?;
        let mut ds = Dataset::new(input_names, output_names)?;

        let mut report = ValidationReport {
            rows_seen: 0,
            rows_kept: 0,
            issues: Vec::new(),
        };
        // First line (1-based) at which each exact row text was kept.
        // wlc-lint: allow(determinism, reason = "membership-only duplicate probe; the map is never iterated, so hash order cannot leak into results")
        let mut first_seen: HashMap<&str, usize> = HashMap::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() {
                continue;
            }
            report.rows_seen += 1;
            let checked = check_row(trimmed, ds.input_names(), ds.output_names());
            let verdict = match checked {
                Ok(values) => {
                    if let Some(&orig) = first_seen.get(trimmed) {
                        Err(format!("duplicate of line {orig}"))
                    } else {
                        Ok(values)
                    }
                }
                Err(reason) => Err(reason),
            };
            match verdict {
                Ok(values) => {
                    first_seen.insert(trimmed, line_no);
                    let (x, y) = values.split_at(ds.input_width());
                    ds.push(Sample::new(x.to_vec(), y.to_vec()))?;
                    report.rows_kept += 1;
                }
                Err(reason) => match mode {
                    ValidateMode::Strict => {
                        return Err(DataError::Validation {
                            line: line_no,
                            reason,
                        });
                    }
                    ValidateMode::Repair => {
                        report.issues.push(RowIssue {
                            line: line_no,
                            reason,
                        });
                    }
                },
            }
        }
        Ok((ds, report))
    }

    /// Reads and validates a CSV file; see
    /// [`Dataset::from_csv_string_validated`].
    ///
    /// # Errors
    ///
    /// As for [`Dataset::from_csv_string_validated`], plus
    /// [`DataError::Io`] on filesystem failure.
    pub fn load_csv_validated<P: AsRef<Path>>(
        path: P,
        mode: ValidateMode,
    ) -> Result<(Dataset, ValidationReport), DataError> {
        let text = std::fs::read_to_string(path)?;
        Dataset::from_csv_string_validated(&text, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "a,b,y*\n1.0,2.0,3.0\n4.0,5.0,6.0\n";

    #[test]
    fn clean_input_passes_both_modes() {
        for mode in [ValidateMode::Strict, ValidateMode::Repair] {
            let (ds, report) = Dataset::from_csv_string_validated(CLEAN, mode).unwrap();
            assert_eq!(ds.len(), 2);
            assert!(report.is_clean(), "{mode}: {report}");
            assert_eq!(report.rows_seen, 2);
            assert_eq!(report.rows_kept, 2);
        }
    }

    #[test]
    fn validated_matches_plain_parser_on_clean_input() {
        let plain = Dataset::from_csv_string(CLEAN).unwrap();
        let (validated, _) =
            Dataset::from_csv_string_validated(CLEAN, ValidateMode::Strict).unwrap();
        assert_eq!(plain, validated);
    }

    #[test]
    fn strict_rejects_each_defect_kind() {
        let cases = [
            ("a,y*\n1.0,NaN\n", "non-finite"),
            ("a,y*\ninf,1.0\n", "non-finite"),
            ("a,y*\n1.0\n", "columns"),
            ("a,y*\n1.0,2.0,3.0\n", "columns"),
            ("a,y*\n1.0,zzz\n", "bad float"),
            ("a,y*\n1.0,2.0\n1.0,2.0\n", "duplicate"),
        ];
        for (csv, needle) in cases {
            let err = Dataset::from_csv_string_validated(csv, ValidateMode::Strict).unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, DataError::Validation { .. }) && msg.contains(needle),
                "csv {csv:?} -> {msg}"
            );
        }
    }

    #[test]
    fn repair_drops_and_reports_bad_rows() {
        let csv = "a,y*\n1.0,2.0\n1.0,NaN\n3.0,4.0\n1.0,2.0\nshort\n5.0,6.0\n";
        let (ds, report) = Dataset::from_csv_string_validated(csv, ValidateMode::Repair).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(report.rows_seen, 6);
        assert_eq!(report.rows_kept, 3);
        assert_eq!(report.issues.len(), 3);
        // Line numbers point at the offending rows.
        let lines: Vec<usize> = report.issues.iter().map(|i| i.line).collect();
        assert_eq!(lines, vec![3, 5, 6]);
        assert!(report.issues[1].reason.contains("duplicate of line 2"));
        assert!(report.to_string().contains("3 dropped"));
    }

    #[test]
    fn header_errors_are_fatal_in_repair_mode() {
        assert!(matches!(
            Dataset::from_csv_string_validated("a,b\n1,2\n", ValidateMode::Repair),
            Err(DataError::Csv { .. })
        ));
    }

    #[test]
    fn whitespace_variants_are_not_textual_duplicates() {
        // Numerically equal but textually distinct rows are kept: the
        // duplicate check targets mechanically repeated lines.
        let csv = "a,y*\n1.0,2.0\n1.00,2.0\n";
        let (ds, report) = Dataset::from_csv_string_validated(csv, ValidateMode::Repair).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(report.is_clean());
    }

    #[test]
    fn mode_parses_from_str() {
        assert_eq!(
            "strict".parse::<ValidateMode>().unwrap(),
            ValidateMode::Strict
        );
        assert_eq!(
            " repair ".parse::<ValidateMode>().unwrap(),
            ValidateMode::Repair
        );
        assert!("lenient".parse::<ValidateMode>().is_err());
        assert_eq!(ValidateMode::default(), ValidateMode::Strict);
    }

    #[test]
    fn file_loader_validates() {
        let dir = std::env::temp_dir().join("wlc-data-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "a,y*\n1.0,NaN\n").unwrap();
        assert!(Dataset::load_csv_validated(&path, ValidateMode::Strict).is_err());
        let (ds, report) = Dataset::load_csv_validated(&path, ValidateMode::Repair).unwrap();
        assert!(ds.is_empty());
        assert_eq!(report.issues.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
