//! Diagnostic (not a paper figure): how do LLF and S³ place social groups,
//! and where does each lose balance?

use std::collections::{HashMap, HashSet};

use s3_bench::{Args, Scenario};
use s3_core::{S3Config, S3Selector};
use s3_types::{ApId, TimeDelta};
use s3_wlan::metrics::{balance_samples, mean_active_balance_filtered};
use s3_wlan::selector::LeastLoadedFirst;

fn main() {
    let args = Args::parse();
    let scenario = Scenario::build(&args);
    let bin = TimeDelta::minutes(10);

    let mut llf = LeastLoadedFirst::new();
    let llf_log = scenario.run_eval(&mut llf);
    let config = S3Config::default();
    let model = scenario.train_s3(&config, args.seed);
    println!(
        "model: {} known pairs, {} types",
        model.known_pairs(),
        model.type_count()
    );
    let s3_log = scenario.run_eval(&mut S3Selector::new(model, config));

    // For each group-meeting occurrence in the eval window: how many
    // distinct APs served the attending members?
    for (name, log) in [("llf", &llf_log), ("s3", &s3_log)] {
        let mut spread_sum = 0.0;
        let mut attend_sum = 0.0;
        let mut n = 0u32;
        for group in &scenario.campus.ground_truth.groups {
            if group.members.len() < 6 {
                continue;
            }
            for day in scenario.eval_first_day()..=scenario.eval_last_day() {
                for meeting in &group.meetings {
                    let Some((start, end)) = meeting.occurrence_on(day) else {
                        continue;
                    };
                    let mut aps: HashSet<ApId> = HashSet::new();
                    let mut attending = 0;
                    for r in log.sessions_overlapping(start + TimeDelta::minutes(30), end) {
                        if group.members.contains(&r.user)
                            && r.disconnect.abs_diff(end) <= TimeDelta::minutes(15)
                        {
                            aps.insert(r.ap);
                            attending += 1;
                        }
                    }
                    if attending >= 4 {
                        spread_sum += aps.len() as f64;
                        attend_sum += attending as f64;
                        n += 1;
                    }
                }
            }
        }
        println!(
            "{name}: {} meetings | mean attendees {:.1} | mean distinct APs {:.2}",
            n,
            attend_sum / n.max(1) as f64,
            spread_sum / n.max(1) as f64
        );
    }

    // Hour-of-day balance comparison.
    println!("hour | llf    | s3     | active-bin count llf");
    let llf_samples = balance_samples(&llf_log, bin);
    for hour in 8..24u64 {
        let l = mean_active_balance_filtered(&llf_log, bin, |h| h == hour);
        let s = mean_active_balance_filtered(&s3_log, bin, |h| h == hour);
        let count = llf_samples
            .iter()
            .filter(|x| x.active && x.start.hour_of_day() == hour)
            .count();
        if let (Some(l), Some(s)) = (l, s) {
            println!("{hour:>4} | {l:.4} | {s:.4} | {count}");
        }
    }

    // Per-user demand spread (how heavy-tailed are rates?).
    let mut rates: Vec<f64> = HashMap::<u32, f64>::new().into_values().collect();
    let mut per_user: HashMap<u32, (f64, u32)> = HashMap::new();
    for r in llf_log.records() {
        let e = per_user.entry(r.user.raw()).or_insert((0.0, 0));
        e.0 += r.mean_rate().as_f64();
        e.1 += 1;
    }
    rates.extend(per_user.values().map(|&(s, c)| s / c as f64));
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if !rates.is_empty() {
        let pct = |q: f64| rates[((rates.len() - 1) as f64 * q) as usize];
        println!(
            "user mean-rate kbps: p10 {:.0} | p50 {:.0} | p90 {:.0} | p99 {:.0}",
            pct(0.1) / 1e3,
            pct(0.5) / 1e3,
            pct(0.9) / 1e3,
            pct(0.99) / 1e3
        );
    }
    args.write_metrics();
}
