use std::fmt;
use std::path::Path;

use wlc_math::Matrix;

use crate::DataError;

/// One observation: a configuration vector `X` and the performance
/// indicators `Y` measured under it.
///
/// This is the paper's training tuple (§2.2):
/// `(X, Y) = (x1..xn, y1..ym)` where `X` is a workload configuration and
/// `Y` the performance indicators collected by running the application
/// under `X`.
///
/// # Examples
///
/// ```
/// use wlc_data::Sample;
/// let s = Sample::new(vec![560.0, 10.0, 16.0, 18.0], vec![4.2, 250.0]);
/// assert_eq!(s.x().len(), 4);
/// assert_eq!(s.y().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Sample {
    /// Creates a sample from configuration and indicator vectors.
    pub fn new(x: Vec<f64>, y: Vec<f64>) -> Self {
        Sample { x, y }
    }

    /// The configuration (input) vector.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// The performance-indicator (output) vector.
    pub fn y(&self) -> &[f64] {
        &self.y
    }
}

/// A named collection of [`Sample`]s.
///
/// Column names give experiments self-describing CSV output and catch
/// wiring mistakes (e.g. swapping input order) early.
///
/// # Examples
///
/// ```
/// use wlc_data::{Dataset, Sample};
///
/// let mut ds = Dataset::new(
///     vec!["injection_rate".into(), "web_threads".into()],
///     vec!["throughput".into()],
/// )?;
/// ds.push(Sample::new(vec![560.0, 18.0], vec![250.0]))?;
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.input_width(), 2);
/// # Ok::<(), wlc_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    input_names: Vec<String>,
    output_names: Vec<String>,
    samples: Vec<Sample>,
}

impl Dataset {
    /// Creates an empty dataset with the given column names.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if either name list is
    /// empty.
    pub fn new(input_names: Vec<String>, output_names: Vec<String>) -> Result<Self, DataError> {
        if input_names.is_empty() {
            return Err(DataError::InvalidParameter {
                name: "input_names",
                reason: "must not be empty",
            });
        }
        if output_names.is_empty() {
            return Err(DataError::InvalidParameter {
                name: "output_names",
                reason: "must not be empty",
            });
        }
        Ok(Dataset {
            input_names,
            output_names,
            samples: Vec::new(),
        })
    }

    /// Builds a dataset from parallel input/output matrices.
    ///
    /// # Errors
    ///
    /// - [`DataError::LengthMismatch`] if row counts differ.
    /// - [`DataError::WidthMismatch`] if widths do not match the names.
    pub fn from_matrices(
        input_names: Vec<String>,
        output_names: Vec<String>,
        xs: &Matrix,
        ys: &Matrix,
    ) -> Result<Self, DataError> {
        let mut ds = Dataset::new(input_names, output_names)?;
        if xs.rows() != ys.rows() {
            return Err(DataError::LengthMismatch {
                left: xs.rows(),
                right: ys.rows(),
                op: "from_matrices",
            });
        }
        for r in 0..xs.rows() {
            ds.push(Sample::new(xs.row(r).to_vec(), ys.row(r).to_vec()))?;
        }
        Ok(ds)
    }

    /// Input (configuration) column names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output (indicator) column names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Number of input columns.
    pub fn input_width(&self) -> usize {
        self.input_names.len()
    }

    /// Number of output columns.
    pub fn output_width(&self) -> usize {
        self.output_names.len()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in insertion order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::WidthMismatch`] if the sample's widths do not
    /// match the dataset's columns.
    pub fn push(&mut self, sample: Sample) -> Result<(), DataError> {
        if sample.x().len() != self.input_width() {
            return Err(DataError::WidthMismatch {
                expected: self.input_width(),
                actual: sample.x().len(),
                what: "inputs",
            });
        }
        if sample.y().len() != self.output_width() {
            return Err(DataError::WidthMismatch {
                expected: self.output_width(),
                actual: sample.y().len(),
                what: "outputs",
            });
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Splits the samples into `(X, Y)` matrices (one row per sample).
    ///
    /// For an empty dataset both matrices have zero rows.
    pub fn to_matrices(&self) -> (Matrix, Matrix) {
        let mut xs = Matrix::zeros(self.len(), self.input_width());
        let mut ys = Matrix::zeros(self.len(), self.output_width());
        for (r, s) in self.samples.iter().enumerate() {
            xs.row_mut(r).copy_from_slice(s.x());
            ys.row_mut(r).copy_from_slice(s.y());
        }
        (xs, ys)
    }

    /// Creates a new dataset containing the samples at `indices`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if any index is out of
    /// bounds.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset, DataError> {
        let mut out = Dataset::new(self.input_names.clone(), self.output_names.clone())?;
        for &i in indices {
            let sample = self.samples.get(i).ok_or(DataError::InvalidParameter {
                name: "indices",
                reason: "index out of bounds",
            })?;
            out.push(sample.clone())?;
        }
        Ok(out)
    }

    /// Appends all samples of `other` (which must have identical column
    /// names).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the column names differ.
    pub fn merge(&mut self, other: &Dataset) -> Result<(), DataError> {
        if other.input_names != self.input_names || other.output_names != self.output_names {
            return Err(DataError::InvalidParameter {
                name: "other",
                reason: "column names must match to merge datasets",
            });
        }
        for s in other.samples() {
            self.push(s.clone())?;
        }
        Ok(())
    }

    /// Per-column summary statistics (min / mean / max / std) over inputs
    /// then outputs — a quick data-quality check before training.
    ///
    /// Returns one [`ColumnSummary`] per column; empty for an empty
    /// dataset.
    pub fn column_summaries(&self) -> Vec<ColumnSummary> {
        if self.is_empty() {
            return Vec::new();
        }
        let (xs, ys) = self.to_matrices();
        let mut out = Vec::with_capacity(self.input_width() + self.output_width());
        for (names, m, is_input) in [
            (&self.input_names, &xs, true),
            (&self.output_names, &ys, false),
        ] {
            for (c, name) in names.iter().enumerate() {
                let col = m.col_to_vec(c);
                let mean = col.iter().sum::<f64>() / col.len() as f64;
                let var = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / col.len() as f64;
                out.push(ColumnSummary {
                    name: name.clone(),
                    is_input,
                    min: col.iter().copied().fold(f64::INFINITY, f64::min),
                    mean,
                    max: col.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    std_dev: var.sqrt(),
                });
            }
        }
        out
    }

    /// Serializes to CSV: a header row of input then output names (outputs
    /// suffixed with `*`), then one row per sample.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self
            .input_names
            .iter()
            .cloned()
            .chain(self.output_names.iter().map(|n| format!("{n}*")))
            .collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for s in &self.samples {
            let cells: Vec<String> = s
                .x()
                .iter()
                .chain(s.y().iter())
                .map(|v| format!("{v:?}"))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Parses the CSV produced by [`Dataset::to_csv_string`]. Output
    /// columns are those whose header ends with `*`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Csv`] for malformed headers or rows.
    pub fn from_csv_string(csv: &str) -> Result<Dataset, DataError> {
        let mut lines = csv.lines().enumerate();
        let (_, header) = lines.next().ok_or(DataError::Csv {
            line: 1,
            reason: "missing header".into(),
        })?;
        let (input_names, output_names) = parse_csv_header(header)?;
        let mut ds = Dataset::new(input_names, output_names)?;
        for (idx, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let values: Result<Vec<f64>, DataError> = line
                .split(',')
                .map(|tok| {
                    tok.trim().parse::<f64>().map_err(|_| DataError::Csv {
                        line: idx + 1,
                        reason: format!("bad float `{}`", tok.trim()),
                    })
                })
                .collect();
            let values = values?;
            if values.len() != ds.input_width() + ds.output_width() {
                return Err(DataError::Csv {
                    line: idx + 1,
                    reason: "wrong number of columns".into(),
                });
            }
            let (x, y) = values.split_at(ds.input_width());
            ds.push(Sample::new(x.to_vec(), y.to_vec()))?;
        }
        Ok(ds)
    }

    /// Writes the dataset to a CSV file.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Io`] on filesystem failure.
    pub fn save_csv<P: AsRef<Path>>(&self, path: P) -> Result<(), DataError> {
        // wlc-lint: allow(durable-write, reason = "one-shot CLI export; the supervisor's durable path stages buffers via wlc_fault::write_atomic")
        std::fs::write(path, self.to_csv_string())?;
        Ok(())
    }
}

/// Parses a CSV header into `(input_names, output_names)`; outputs are the
/// `*`-suffixed columns, which must all come last.
pub(crate) fn parse_csv_header(header: &str) -> Result<(Vec<String>, Vec<String>), DataError> {
    let mut input_names = Vec::new();
    let mut output_names = Vec::new();
    let mut seen_output = false;
    for name in header.split(',') {
        let name = name.trim();
        if let Some(stripped) = name.strip_suffix('*') {
            output_names.push(stripped.to_string());
            seen_output = true;
        } else {
            if seen_output {
                return Err(DataError::Csv {
                    line: 1,
                    reason: "input column after output column".into(),
                });
            }
            input_names.push(name.to_string());
        }
    }
    if input_names.is_empty() || output_names.is_empty() {
        return Err(DataError::Csv {
            line: 1,
            reason: "need at least one input and one `*`-suffixed output column".into(),
        });
    }
    Ok((input_names, output_names))
}

/// Summary statistics of one dataset column (see
/// [`Dataset::column_summaries`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// Whether this is an input (configuration) column.
    pub is_input: bool,
    /// Smallest value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest value.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} samples, {} -> {})",
            self.len(),
            self.input_names.join("/"),
            self.output_names.join("/")
        )
    }
}

impl Extend<Sample> for Dataset {
    /// Appends samples, skipping any whose widths do not match.
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        for s in iter {
            let _ = self.push(s);
        }
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValidateMode;

    fn tiny() -> Dataset {
        let mut ds =
            Dataset::new(vec!["a".into(), "b".into()], vec!["y1".into(), "y2".into()]).unwrap();
        ds.push(Sample::new(vec![1.0, 2.0], vec![3.0, 4.0]))
            .unwrap();
        ds.push(Sample::new(vec![5.0, 6.0], vec![7.0, 8.0]))
            .unwrap();
        ds
    }

    #[test]
    fn new_requires_names() {
        assert!(Dataset::new(vec![], vec!["y".into()]).is_err());
        assert!(Dataset::new(vec!["x".into()], vec![]).is_err());
    }

    #[test]
    fn push_validates_widths() {
        let mut ds = tiny();
        assert!(ds.push(Sample::new(vec![1.0], vec![2.0, 3.0])).is_err());
        assert!(ds.push(Sample::new(vec![1.0, 2.0], vec![3.0])).is_err());
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn to_matrices_layout() {
        let ds = tiny();
        let (xs, ys) = ds.to_matrices();
        assert_eq!(xs.shape(), (2, 2));
        assert_eq!(ys.shape(), (2, 2));
        assert_eq!(xs.row(1), &[5.0, 6.0]);
        assert_eq!(ys.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn from_matrices_roundtrip() {
        let ds = tiny();
        let (xs, ys) = ds.to_matrices();
        let back = Dataset::from_matrices(
            ds.input_names().to_vec(),
            ds.output_names().to_vec(),
            &xs,
            &ys,
        )
        .unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn from_matrices_checks_rows() {
        let xs = Matrix::zeros(2, 1);
        let ys = Matrix::zeros(3, 1);
        assert!(Dataset::from_matrices(vec!["x".into()], vec!["y".into()], &xs, &ys).is_err());
    }

    #[test]
    fn subset_selects_in_order() {
        let ds = tiny();
        let sub = ds.subset(&[1, 0, 1]).unwrap();
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.samples()[0].x(), &[5.0, 6.0]);
        assert_eq!(sub.samples()[1].x(), &[1.0, 2.0]);
        assert!(ds.subset(&[5]).is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let ds = tiny();
        let csv = ds.to_csv_string();
        assert!(csv.starts_with("a,b,y1*,y2*\n"));
        let back = Dataset::from_csv_string(&csv).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(Dataset::from_csv_string("").is_err());
        assert!(Dataset::from_csv_string("a,b\n1,2\n").is_err()); // no outputs
        assert!(Dataset::from_csv_string("a,y*\n1\n").is_err()); // short row
        assert!(Dataset::from_csv_string("a,y*\n1,zzz\n").is_err()); // bad float
        assert!(Dataset::from_csv_string("y*,a\n1,2\n").is_err()); // input after output
    }

    #[test]
    fn csv_skips_blank_lines() {
        let ds = Dataset::from_csv_string("a,y*\n1,2\n\n3,4\n").unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn csv_file_roundtrip() {
        let ds = tiny();
        let dir = std::env::temp_dir().join("wlc-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.csv");
        ds.save_csv(&path).unwrap();
        let (back, _) = Dataset::load_csv_validated(&path, ValidateMode::Strict).unwrap();
        assert_eq!(back, ds);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Dataset::load_csv_validated(
            "/nonexistent/definitely/missing.csv",
            ValidateMode::Strict,
        );
        assert!(matches!(err, Err(DataError::Io(_))));
    }

    #[test]
    fn display_mentions_columns() {
        let ds = tiny();
        let s = ds.to_string();
        assert!(s.contains("2 samples"));
        assert!(s.contains("a/b"));
    }

    #[test]
    fn extend_and_iter() {
        let mut ds = tiny();
        ds.extend(vec![
            Sample::new(vec![9.0, 9.0], vec![9.0, 9.0]),
            Sample::new(vec![1.0], vec![1.0]), // wrong width: skipped
        ]);
        assert_eq!(ds.len(), 3);
        let count = (&ds).into_iter().count();
        assert_eq!(count, 3);
        assert_eq!(ds.iter().count(), 3);
    }

    #[test]
    fn merge_appends_matching_datasets() {
        let mut a = tiny();
        let b = tiny();
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.samples()[2], b.samples()[0]);
    }

    #[test]
    fn merge_rejects_mismatched_columns() {
        let mut a = tiny();
        let b = Dataset::new(vec!["z".into()], vec!["y".into()]).unwrap();
        assert!(a.merge(&b).is_err());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn column_summaries_cover_all_columns() {
        let ds = tiny();
        let summaries = ds.column_summaries();
        assert_eq!(summaries.len(), 4);
        // First input column "a": values 1 and 5.
        let a = &summaries[0];
        assert_eq!(a.name, "a");
        assert!(a.is_input);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 5.0);
        assert_eq!(a.mean, 3.0);
        assert!((a.std_dev - 2.0).abs() < 1e-12);
        // Last output column "y2" is marked as output.
        assert!(!summaries[3].is_input);
    }

    #[test]
    fn column_summaries_empty_dataset() {
        let ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        assert!(ds.column_summaries().is_empty());
    }

    #[test]
    fn empty_dataset_matrices() {
        let ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        assert!(ds.is_empty());
        let (xs, ys) = ds.to_matrices();
        assert_eq!(xs.rows(), 0);
        assert_eq!(ys.rows(), 0);
    }
}
