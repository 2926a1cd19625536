//! Ablation (not a paper figure): S³ against the full baseline spectrum —
//! strongest-RSSI (the 802.11 default), random, least-users, LLF — plus an
//! S³ variant with α = 0 (pair term only). An untrained S³ is not a row:
//! an empty model engages the selector's LLF fallback, so it replays LLF.

use s3_bench::{fmt, write_csv, Args, Scenario};
use s3_core::{S3Config, S3Selector};
use s3_types::TimeDelta;
use s3_wlan::metrics::mean_active_balance_filtered;
use s3_wlan::selector::{ApSelector, LeastLoadedFirst, LeastUsers, RandomSelector, StrongestRssi};

fn main() {
    let args = Args::parse();
    let scenario = Scenario::build(&args);
    let bin = TimeDelta::minutes(10);
    let daytime = |h: u64| h >= 8;

    let default_config = S3Config::default();
    let zero_alpha = S3Config {
        alpha: 0.0,
        ..S3Config::default()
    };
    let trained = scenario.train_s3(&default_config, args.seed);
    let trained_zero_alpha = scenario.train_s3(&zero_alpha, args.seed);

    let mut policies: Vec<(&str, Box<dyn ApSelector>)> = vec![
        ("strongest-rssi", Box::new(StrongestRssi::new())),
        ("random", Box::new(RandomSelector::new(args.seed))),
        ("least-users", Box::new(LeastUsers::new())),
        ("llf", Box::new(LeastLoadedFirst::new())),
        (
            "s3-alpha0",
            Box::new(S3Selector::new(trained_zero_alpha, zero_alpha)),
        ),
        ("s3", Box::new(S3Selector::new(trained, default_config))),
    ];

    println!("baseline ablation: mean daytime balance on the eval days");
    let mut rows = Vec::new();
    for (name, selector) in policies.iter_mut() {
        let log = scenario.run_eval(selector.as_mut());
        let balance = mean_active_balance_filtered(&log, bin, daytime).unwrap_or(0.0);
        println!("  {name:<15} {balance:.4}");
        rows.push(format!("{name},{}", fmt(balance)));
    }
    write_csv(
        &args.out_dir,
        "ablation_baselines.csv",
        "policy,mean_daytime_balance",
        rows,
    );
    args.write_metrics();
}
