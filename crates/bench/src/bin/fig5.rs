//! Fig. 5 — CDF over users of the fraction of their leavings that are
//! co-leavings, for 10/20/30-minute extraction windows.
//!
//! Paper reading: most users show strong sociality — they rarely leave an
//! AP alone.

use s3_bench::{fmt, plot, write_csv, Args, Scenario};
use s3_stats::cdf::Ecdf;
use s3_trace::events::leaving_stats;
use s3_types::TimeDelta;

fn main() {
    let args = Args::parse();
    let scenario = Scenario::build(&args);
    let store = &scenario.llf_log;

    let windows = [
        ("10min", TimeDelta::minutes(10)),
        ("20min", TimeDelta::minutes(20)),
        ("30min", TimeDelta::minutes(30)),
    ];
    let mut cdfs = Vec::new();
    println!("fig5: co-leaving fraction per user");
    for (label, window) in windows {
        let stats = leaving_stats(store, window, args.effective_threads());
        let fractions: Vec<f64> = stats
            .values()
            .filter(|s| s.total > 0)
            .map(|s| s.co_leaving_fraction())
            .collect();
        let cdf = Ecdf::new(fractions).expect("users with leavings exist");
        println!(
            "  {label}: {} users | median co-leaving fraction: {:.2}",
            cdf.len(),
            cdf.quantile(0.5)
        );
        cdfs.push(cdf);
    }

    let rows = (0..=100).map(|i| {
        let x = i as f64 / 100.0;
        format!(
            "{},{},{},{}",
            fmt(x),
            fmt(cdfs[0].eval(x)),
            fmt(cdfs[1].eval(x)),
            fmt(cdfs[2].eval(x))
        )
    });
    write_csv(
        &args.out_dir,
        "fig5.csv",
        "co_leaving_fraction,cdf_10min,cdf_20min,cdf_30min",
        rows,
    );

    let labels = ["10 min", "20 min", "30 min"];
    let series: Vec<plot::Series> = cdfs
        .iter()
        .zip(labels)
        .map(|(cdf, label)| {
            let points = (0..=100)
                .map(|i| {
                    let x = i as f64 / 100.0;
                    (x, cdf.eval(x))
                })
                .collect();
            plot::Series::new(label, points)
        })
        .collect();
    let svg = plot::line_chart(
        &plot::ChartConfig {
            title: "Fig 5: per-user co-leaving fraction".into(),
            x_label: "fraction of leavings that are co-leavings".into(),
            y_label: "CDF over users".into(),
            ..plot::ChartConfig::default()
        },
        &series,
    );
    plot::save_svg(&args.out_dir, "fig5.svg", &svg);
    args.write_metrics();
}
