//! A small, dependency-free SVG line-chart renderer for the figure
//! harness: one chart per paper figure, with per-system series, 95% CI
//! error bars, axes, ticks and a legend.
//!
//! Emitting standalone SVG keeps the reproduction self-contained — no
//! plotting toolchain needed to look at the results.

use std::fmt::Write;

/// One plotted series: a name and `(x, y, ci)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points: x, y mean, 95% CI half-width.
    pub points: Vec<(f64, f64, f64)>,
}

/// Chart labels and dimensions.
#[derive(Debug, Clone)]
pub struct ChartSpec {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Canvas width in pixels.
    pub width: u32,
    /// Canvas height in pixels.
    pub height: u32,
}

impl Default for ChartSpec {
    fn default() -> Self {
        ChartSpec {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            width: 720,
            height: 480,
        }
    }
}

/// Distinguishable series colors (color-blind-safe-ish palette).
const COLORS: [&str; 6] = ["#0072b2", "#d55e00", "#009e73", "#cc79a7", "#56b4e9", "#e69f00"];
const MARGIN_L: f64 = 80.0;
const MARGIN_R: f64 = 24.0;
const MARGIN_T: f64 = 48.0;
const MARGIN_B: f64 = 64.0;

/// Renders a line chart with error bars to an SVG string.
///
/// # Panics
///
/// Panics if `series` is empty or contains no points (a chart of nothing
/// is a caller bug).
pub fn render(spec: &ChartSpec, series: &[Series]) -> String {
    assert!(
        series.iter().any(|s| !s.points.is_empty()),
        "cannot render an empty chart"
    );
    let (w, h) = (spec.width as f64, spec.height as f64);
    let plot_w = w - MARGIN_L - MARGIN_R;
    let plot_h = h - MARGIN_T - MARGIN_B;

    let xs: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
    let ys_lo: Vec<f64> =
        series.iter().flat_map(|s| s.points.iter().map(|p| p.1 - p.2)).collect();
    let ys_hi: Vec<f64> =
        series.iter().flat_map(|s| s.points.iter().map(|p| p.1 + p.2)).collect();
    let x_min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let x_max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let y_min = ys_lo.iter().cloned().fold(f64::INFINITY, f64::min).min(0.0);
    let y_max = ys_hi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = (y_max - y_min).max(1e-12);

    let px = |x: f64| MARGIN_L + (x - x_min) / x_span * plot_w;
    let py = |y: f64| MARGIN_T + plot_h - (y - y_min) / y_span * plot_h;

    let mut svg = String::new();
    writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">"#
    )
    .expect("write to string");
    writeln!(svg, r#"<rect width="{w}" height="{h}" fill="white"/>"#).expect("write");

    // Title and axis labels.
    writeln!(
        svg,
        r#"<text x="{}" y="24" text-anchor="middle" font-size="16" font-weight="bold">{}</text>"#,
        w / 2.0,
        escape(&spec.title)
    )
    .expect("write");
    writeln!(
        svg,
        r#"<text x="{}" y="{}" text-anchor="middle" font-size="13">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        h - 16.0,
        escape(&spec.x_label)
    )
    .expect("write");
    writeln!(
        svg,
        r#"<text x="18" y="{}" text-anchor="middle" font-size="13" transform="rotate(-90 18 {})">{}</text>"#,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        escape(&spec.y_label)
    )
    .expect("write");

    // Axes.
    writeln!(
        svg,
        r#"<line x1="{MARGIN_L}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        MARGIN_T + plot_h,
        MARGIN_L + plot_w,
        MARGIN_T + plot_h
    )
    .expect("write");
    writeln!(
        svg,
        r#"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{}" stroke="black"/>"#,
        MARGIN_T + plot_h
    )
    .expect("write");

    // Ticks: 5 per axis.
    for i in 0..=4 {
        let f = i as f64 / 4.0;
        let xv = x_min + f * x_span;
        let yv = y_min + f * y_span;
        let xp = px(xv);
        let yp = py(yv);
        writeln!(
            svg,
            r#"<line x1="{xp}" y1="{}" x2="{xp}" y2="{}" stroke="black"/>"#,
            MARGIN_T + plot_h,
            MARGIN_T + plot_h + 5.0
        )
        .expect("write");
        writeln!(
            svg,
            r#"<text x="{xp}" y="{}" text-anchor="middle" font-size="11">{}</text>"#,
            MARGIN_T + plot_h + 18.0,
            format_tick(xv)
        )
        .expect("write");
        writeln!(
            svg,
            r#"<line x1="{}" y1="{yp}" x2="{MARGIN_L}" y2="{yp}" stroke="black"/>"#,
            MARGIN_L - 5.0
        )
        .expect("write");
        writeln!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="end" font-size="11">{}</text>"#,
            MARGIN_L - 8.0,
            yp + 4.0,
            format_tick(yv)
        )
        .expect("write");
        // Light horizontal gridline.
        writeln!(
            svg,
            r##"<line x1="{MARGIN_L}" y1="{yp}" x2="{}" y2="{yp}" stroke="#dddddd"/>"##,
            MARGIN_L + plot_w
        )
        .expect("write");
    }

    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        // A point no seed defined (a NaN mean) is left out, not drawn at NaN.
        let points: Vec<_> = s
            .points
            .iter()
            .copied()
            .filter(|p| p.1.is_finite())
            .collect();
        let path: Vec<String> = points
            .iter()
            .enumerate()
            .map(|(j, &(x, y, _))| {
                format!("{}{:.2},{:.2}", if j == 0 { "M" } else { "L" }, px(x), py(y))
            })
            .collect();
        writeln!(
            svg,
            r#"<path d="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
            path.join(" ")
        )
        .expect("write");
        for &(x, y, ci) in &points {
            let (xp, yp) = (px(x), py(y));
            // Error bars.
            if ci > 0.0 {
                let (y_lo, y_hi) = (py(y - ci), py(y + ci));
                writeln!(
                    svg,
                    r#"<line x1="{xp}" y1="{y_lo}" x2="{xp}" y2="{y_hi}" stroke="{color}" stroke-width="1"/>"#
                )
                .expect("write");
                for ye in [y_lo, y_hi] {
                    writeln!(
                        svg,
                        r#"<line x1="{}" y1="{ye}" x2="{}" y2="{ye}" stroke="{color}" stroke-width="1"/>"#,
                        xp - 4.0,
                        xp + 4.0
                    )
                    .expect("write");
                }
            }
            writeln!(svg, r#"<circle cx="{xp}" cy="{yp}" r="3.5" fill="{color}"/>"#)
                .expect("write");
        }
        // Legend entry.
        let lx = MARGIN_L + 12.0;
        let ly = MARGIN_T + 10.0 + i as f64 * 18.0;
        writeln!(
            svg,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/>"#,
            lx + 22.0
        )
        .expect("write");
        writeln!(
            svg,
            r#"<text x="{}" y="{}" font-size="12">{}</text>"#,
            lx + 28.0,
            ly + 4.0,
            escape(&s.name)
        )
        .expect("write");
    }

    writeln!(svg, "</svg>").expect("write");
    svg
}

fn format_tick(v: f64) -> String {
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.0}k", v / 1e3)
    } else if a >= 10.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders one paper figure from a finished sweep as SVG.
pub fn figure_svg(fig: &crate::Figure, sweep: &crate::SweepResult) -> String {
    let series: Vec<Series> = crate::SYSTEMS
        .iter()
        .enumerate()
        .map(|(i, system)| Series {
            name: system.name().to_string(),
            points: sweep
                .points
                .iter()
                .map(|p| {
                    let stat = fig.metric.pick(&p.systems[i]);
                    (p.axis, stat.mean, stat.ci95)
                })
                .collect(),
        })
        .collect();
    let spec = ChartSpec {
        title: format!("Figure {}: {}", fig.id, fig.title),
        x_label: fig.sweep.axis_label().to_string(),
        y_label: fig.metric.unit().to_string(),
        ..ChartSpec::default()
    };
    render(&spec, &series)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Vec<Series> {
        vec![
            Series {
                name: "REFER".into(),
                points: vec![(0.5, 100.0, 5.0), (1.0, 95.0, 4.0), (1.5, 92.0, 6.0)],
            },
            Series {
                name: "DaTree".into(),
                points: vec![(0.5, 90.0, 8.0), (1.0, 70.0, 9.0), (1.5, 50.0, 10.0)],
            },
        ]
    }

    #[test]
    fn renders_wellformed_svg() {
        let svg = render(&ChartSpec::default(), &demo_series());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), 6, "one marker per point");
        assert!(svg.contains("REFER") && svg.contains("DaTree"));
    }

    #[test]
    fn error_bars_appear_only_for_positive_ci() {
        let series = vec![Series {
            name: "flat".into(),
            points: vec![(0.0, 1.0, 0.0), (1.0, 2.0, 0.5)],
        }];
        let svg = render(&ChartSpec::default(), &series);
        // One error bar (3 lines) for the ci=0.5 point, none for ci=0.
        let bar_lines = svg.matches(r#"stroke-width="1""#).count();
        assert_eq!(bar_lines, 3);
    }

    #[test]
    fn undefined_points_are_not_drawn() {
        let series = vec![
            Series {
                name: "gap".into(),
                points: vec![(0.0, 1.0, 0.0), (1.0, f64::NAN, f64::NAN), (2.0, 3.0, 0.0)],
            },
            Series {
                name: "none".into(),
                points: vec![(0.0, f64::NAN, f64::NAN)],
            },
        ];
        let svg = render(&ChartSpec::default(), &series);
        assert_eq!(
            svg.matches("<circle").count(),
            2,
            "one marker per defined point"
        );
        assert!(!svg.contains("NaN"), "{svg}");
    }

    #[test]
    fn titles_are_escaped() {
        let spec = ChartSpec { title: "a < b & c".into(), ..ChartSpec::default() };
        let svg = render(&spec, &demo_series());
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    #[should_panic(expected = "empty chart")]
    fn empty_chart_panics() {
        let _ = render(&ChartSpec::default(), &[]);
    }

    #[test]
    fn tick_formatting_scales() {
        assert_eq!(format_tick(2_500_000.0), "2.5M");
        assert_eq!(format_tick(12_000.0), "12k");
        assert_eq!(format_tick(42.0), "42");
        assert_eq!(format_tick(0.61), "0.61");
    }
}
