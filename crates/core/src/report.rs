//! Plain-text rendering for experiment output: aligned tables, the
//! actual-vs-predicted scatter plots of the paper's Figures 5/6, and
//! ASCII heat maps standing in for the 3-D surface diagrams.

use crate::SurfaceGrid;

/// Renders an aligned text table with a header separator.
///
/// # Examples
///
/// ```
/// use wlc_model::report::format_table;
/// let t = format_table(
///     &["Trial".into(), "Error".into()],
///     &[vec!["1".into(), "3.0 %".into()]],
/// );
/// assert!(t.contains("Trial"));
/// assert!(t.contains("3.0 %"));
/// ```
pub fn format_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .take(cols)
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let mut out = String::new();
    out.push_str(&render_row(headers));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 3 * cols + 1;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders an actual-vs-predicted chart in the style of the paper's
/// Figures 5/6: one column per sample index, `o` marking the actual
/// value, `x` the predicted value (`*` when they land on the same row).
///
/// Returns an empty string for empty input.
pub fn ascii_scatter(actual: &[f64], predicted: &[f64], height: usize) -> String {
    if actual.is_empty() || actual.len() != predicted.len() || height < 2 {
        return String::new();
    }
    let all: Vec<f64> = actual.iter().chain(predicted.iter()).copied().collect();
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let row_of = |v: f64| -> usize {
        let t = (v - lo) / span;
        ((1.0 - t) * (height - 1) as f64).round() as usize
    };
    let mut canvas = vec![vec![' '; actual.len()]; height];
    for (i, (&a, &p)) in actual.iter().zip(predicted.iter()).enumerate() {
        let ra = row_of(a);
        let rp = row_of(p);
        if ra == rp {
            canvas[ra][i] = '*';
        } else {
            canvas[ra][i] = 'o';
            canvas[rp][i] = 'x';
        }
    }
    let mut out = String::new();
    for (r, row) in canvas.iter().enumerate() {
        let label = if r == 0 {
            format!("{hi:>10.3} ")
        } else if r == height - 1 {
            format!("{lo:>10.3} ")
        } else {
            " ".repeat(11)
        };
        out.push_str(&label);
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(11));
    out.push('+');
    out.push_str(&"-".repeat(actual.len()));
    out.push('\n');
    out.push_str(&format!(
        "{:>12}sample index (o = actual, x = predicted, * = overlap)\n",
        " "
    ));
    out
}

/// Characters from low to high used by [`ascii_heatmap`].
const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Renders a surface grid as an ASCII heat map (rows = axis 1 top-down,
/// columns = axis 2 left-right), with the value range in a footer. This
/// is the terminal stand-in for the paper's 3-D diagrams.
pub fn ascii_heatmap(grid: &SurfaceGrid) -> String {
    let z = grid.z();
    let lo = z.as_slice().iter().copied().fold(f64::INFINITY, f64::min);
    let hi = z
        .as_slice()
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut out = String::new();
    for i in 0..z.rows() {
        out.push_str(&format!("{:>8.1} |", grid.axis1_values()[i]));
        for j in 0..z.cols() {
            let t = (z.get(i, j) - lo) / span;
            let idx = ((t * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[idx]);
            out.push(SHADES[idx]);
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>9}+{}\n", " ", "-".repeat(2 * z.cols())));
    out.push_str(&format!(
        "{:>10}axis2: {:.1} .. {:.1}   z: {:.3} (' ') .. {:.3} ('@')\n",
        " ",
        grid.axis2_values().first().copied().unwrap_or(0.0),
        grid.axis2_values().last().copied().unwrap_or(0.0),
        lo,
        hi
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_math::Matrix;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["A".into(), "LongHeader".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn scatter_marks_actual_and_predicted() {
        let s = ascii_scatter(&[0.0, 1.0, 2.0], &[2.0, 1.0, 0.0], 5);
        assert!(s.contains('o'));
        assert!(s.contains('x'));
        assert!(s.contains('*')); // the middle point overlaps
        assert!(s.contains("sample index"));
    }

    #[test]
    fn scatter_handles_degenerate_input() {
        assert!(ascii_scatter(&[], &[], 5).is_empty());
        assert!(ascii_scatter(&[1.0], &[1.0, 2.0], 5).is_empty());
        assert!(ascii_scatter(&[1.0], &[1.0], 1).is_empty());
        // Constant values must not divide by zero.
        let s = ascii_scatter(&[3.0, 3.0], &[3.0, 3.0], 4);
        assert!(s.contains('*'));
    }

    #[test]
    fn heatmap_extremes_use_extreme_shades() {
        let z = Matrix::from_rows(&[&[0.0, 10.0]]).unwrap();
        let grid = crate::SurfaceGrid::from_parts(vec![1.0], vec![1.0, 2.0], z).unwrap();
        let s = ascii_heatmap(&grid);
        assert!(s.contains('@'));
        assert!(s.contains("z:"));
    }
}
