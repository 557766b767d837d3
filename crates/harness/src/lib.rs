//! Experiment harness: one module (and one binary) per paper artifact.
//!
//! | Module | Paper artifact | Binary |
//! |---|---|---|
//! | [`table1`] | Table 1 — detection matrix across abstractions | `table1` |
//! | [`table2`] | Table 2 — probe vs signal vs mimic | `table2` |
//! | [`reduction`] | Figures 2–3 — program logic reduction | `reduction` |
//! | [`zk2201`] | §4.2 — the ZOOKEEPER-2201 reproduction | `zk2201` |
//! | [`ablations`] | §3.1/§3.3 design choices (E6) | `ablations` |
//! | [`recovery`] | §5.2 — closed-loop recovery campaign | `wdog-recovery` |
//! | [`telemetry`] | runtime telemetry plane export | `wdog-telemetry` |
//! | [`chaos`] | randomized fault-schedule fuzzing of the checkers | `wdog-chaos` |
//! | [`infer`] | trace-driven checker inference (record→mine→emit→score) | `wdog-infer` |
//!
//! Every campaign that runs scenarios or schedules against a target —
//! chaos, recovery, inference, the scenario runner behind table1/table2/
//! telemetry/E6b, and the ZK-2201 reproduction — boots on a fresh
//! `SimClock` through one [`testbed::Testbed`], which also owns the
//! frozen-time teardown.
//!
//! Each experiment returns a serde-serializable result struct; binaries
//! print the paper-style table *and* write the raw JSON next to it (under
//! `results/`) so EXPERIMENTS.md numbers are regenerable.

pub mod ablations;
pub mod chaos;
pub mod cli;
pub mod fmt;
pub mod infer;
pub mod lint;
pub mod load;
pub mod recovery;
pub mod reduction;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod telemetry;
pub mod testbed;
pub mod zk2201;

use wdog_target::WatchdogTarget;

/// Resolves a `--target` flag value to campaign targets.
///
/// Accepts the name of any registered target or `all`; returns `None` for
/// unknown names so binaries can print usage.
pub fn select_targets(name: &str) -> Option<Vec<Box<dyn WatchdogTarget>>> {
    match name {
        "kvs" => Some(vec![Box::new(kvs::target::KvsTarget)]),
        "minizk" => Some(vec![Box::new(minizk::target::ZkTarget)]),
        "miniblock" => Some(vec![Box::new(miniblock::target::DnTarget)]),
        "all" => Some(vec![
            Box::new(kvs::target::KvsTarget),
            Box::new(minizk::target::ZkTarget),
            Box::new(miniblock::target::DnTarget),
        ]),
        _ => None,
    }
}

/// Parses `--target NAME` (default `kvs`) from CLI args; exits with usage
/// on an unknown name.
pub fn targets_from_cli(bin: &str) -> Vec<Box<dyn WatchdogTarget>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = "kvs".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--target" if i + 1 < args.len() => {
                name = args[i + 1].clone();
                i += 2;
            }
            other => {
                if let Some(v) = other.strip_prefix("--target=") {
                    name = v.to_owned();
                    i += 1;
                } else {
                    eprintln!("usage: {bin} [--target {{kvs|minizk|miniblock|all}}]");
                    std::process::exit(2);
                }
            }
        }
    }
    match select_targets(&name) {
        Some(t) => t,
        None => {
            eprintln!("unknown target {name:?}; expected kvs, minizk, miniblock, or all");
            std::process::exit(2);
        }
    }
}

/// The JSON artifact name for a campaign result: the bare experiment name
/// for the historical kvs default, suffixed for other targets.
pub fn result_name(experiment: &str, target: &str) -> String {
    if target == "kvs" {
        experiment.to_owned()
    } else {
        format!("{experiment}-{target}")
    }
}

/// Writes an experiment result as pretty JSON under `results/`.
///
/// Creation failures are reported but non-fatal: printing the table matters
/// more than archiving it.
pub fn write_json(name: &str, value: &impl serde::Serialize) {
    write_json_under(std::path::Path::new("results"), name, value);
}

/// [`write_json`] with the artifact root chosen by the caller (the
/// campaign binaries' `--out` flag).
pub fn write_json_under(dir: &std::path::Path, name: &str, value: &impl serde::Serialize) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("\n[raw results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Removes a stale `results/<name>.err` sidecar after a successful run.
///
/// `.err` files are stderr redirects external runners leave next to the
/// JSON artifacts when a bin fails. The bins themselves never write them,
/// so nothing deleted them either — a sidecar from a long-fixed failure
/// could sit beside a fresh, successful artifact forever. Every artifact
/// bin calls this on success so a committed sidecar always describes the
/// *latest* run; CI additionally refuses to pass while any `.err` is
/// tracked in the repo.
pub fn clear_err_sidecar(name: &str) {
    clear_err_sidecar_under(std::path::Path::new("results"), name);
}

/// [`clear_err_sidecar`] with the artifact root chosen by the caller.
pub fn clear_err_sidecar_under(dir: &std::path::Path, name: &str) {
    let path = dir.join(format!("{name}.err"));
    if !path.exists() {
        return;
    }
    match std::fs::remove_file(&path) {
        Ok(()) => println!("[removed stale error sidecar {}]", path.display()),
        Err(e) => eprintln!("warning: cannot remove {}: {e}", path.display()),
    }
}
