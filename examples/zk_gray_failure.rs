//! The ZOOKEEPER-2201 gray failure, end to end (paper §4.2).
//!
//! Run with: `cargo run --example zk_gray_failure`
//!
//! A minizk leader syncs its data tree to a follower over a wedged network
//! link, blocking inside the write-serialization critical section. All
//! writes hang; reads, heartbeats, and the `ruok` admin command stay green.
//! The generated watchdog detects the hang in seconds and pinpoints the
//! blocked operation with the concrete node path.

use std::time::Duration;

use watchdogs::harness::zk2201;
use watchdogs::minizk::bug2201::Bug2201Options;

fn main() {
    println!("reproducing ZOOKEEPER-2201 on minizk ...\n");
    let opts = Bug2201Options {
        checker_interval: Duration::from_secs(1),
        checker_timeout: Duration::from_millis(1500),
        observe_for: Duration::from_secs(8),
        tree_size: 20,
        write_period: Duration::from_millis(40),
    };
    let report = zk2201::run_with(&opts).expect("scenario").report;

    println!(
        "workload:   {} writes succeeded before the fault",
        report.writes_before
    );
    println!(
        "failure:    {} write timeouts during the fault, {} writes completed",
        report.write_timeouts, report.writes_during
    );
    println!(
        "gray-ness:  reads stayed {}",
        if report.reads_ok_during {
            "healthy"
        } else {
            "BROKEN"
        }
    );
    println!(
        "heartbeat:  leader reported {} throughout",
        if report.heartbeat_green_throughout {
            "HEALTHY (the failure is invisible to it)"
        } else {
            "suspected"
        }
    );
    println!(
        "admin ruok: {}",
        if report.ruok_green_throughout {
            "imok throughout (also blind)"
        } else {
            "failed"
        }
    );
    match report.watchdog_detection_ms {
        Some(ms) => {
            println!("\nwatchdog:   DETECTED in {:.1} s", ms as f64 / 1000.0);
            println!("pinpoint:   {}", report.pinpoint.as_deref().unwrap_or("-"));
            if !report.payload.is_empty() {
                let ctx: Vec<String> = report
                    .payload
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                println!("context:    {}", ctx.join(", "));
            }
        }
        None => println!("\nwatchdog:   did not detect (unexpected)"),
    }
}
