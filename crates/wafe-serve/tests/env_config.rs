//! Error-path coverage for the two environment-driven configuration
//! surfaces: `WAFE_BACKEND_*` (supervisor policy) and `WAFE_FAULTS`
//! (fault-injection plans). The happy paths are exercised all over the
//! chaos suite; these tests pin down what happens when an operator
//! exports something malformed — every bad value must either produce a
//! warning (supervisor: default kept, reason reported) or a hard error
//! naming the offending clause (fault plans), never a silent no-op.

use std::collections::HashMap;

use wafe_ipc::FaultPlan;
use wafe_serve::supervisor::SupervisorConfig;

fn from_map(vars: &[(&str, &str)]) -> (SupervisorConfig, Vec<String>) {
    let map: HashMap<String, String> = vars
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    SupervisorConfig::from_vars(|var| map.get(var).cloned())
}

#[test]
fn supervisor_happy_path_parses_all_vars() {
    let (c, warnings) = from_map(&[
        ("WAFE_BACKEND_TIMEOUT", "250"),
        ("WAFE_BACKEND_ROUNDTRIP", " 500 "),
        ("WAFE_BACKEND_RETRIES", "3"),
        ("WAFE_BACKEND_BACKOFF", "10"),
        ("WAFE_BACKEND_BACKOFF_MAX", "80"),
        ("WAFE_BACKEND_FLOOD_LINES", "100"),
        ("WAFE_BACKEND_QUEUE", "16"),
        ("WAFE_BACKEND_RESTART_ON_EXIT", "1"),
        ("WAFE_BACKEND_STAY_ALIVE", "0"),
    ]);
    assert_eq!(warnings, Vec::<String>::new());
    assert_eq!(c.read_timeout_ms, Some(250));
    assert_eq!(c.roundtrip_timeout_ms, Some(500));
    assert_eq!(c.max_restarts, 3);
    assert_eq!(c.backoff_base_ms, 10);
    assert_eq!(c.backoff_max_ms, 80);
    assert_eq!(c.max_lines_per_tick, 100);
    assert_eq!(c.queue_cap, 16);
    assert!(c.restart_on_exit);
    assert!(!c.stay_alive_when_broken);
}

#[test]
fn supervisor_malformed_values_warn_and_keep_defaults() {
    let defaults = SupervisorConfig::default();
    for (var, bad) in [
        ("WAFE_BACKEND_TIMEOUT", "5s"),
        ("WAFE_BACKEND_ROUNDTRIP", "half a second"),
        ("WAFE_BACKEND_RETRIES", "-1"),
        ("WAFE_BACKEND_BACKOFF", ""),
        ("WAFE_BACKEND_QUEUE", "10.5"),
        ("WAFE_BACKEND_RESTART_ON_EXIT", "yes"),
    ] {
        let (c, warnings) = from_map(&[(var, bad)]);
        assert_eq!(warnings.len(), 1, "{var}={bad} must warn");
        assert!(
            warnings[0].contains(var),
            "warning must name the variable: {}",
            warnings[0]
        );
        assert_eq!(c.read_timeout_ms, defaults.read_timeout_ms);
        assert_eq!(c.max_restarts, defaults.max_restarts);
        assert_eq!(c.queue_cap, defaults.queue_cap);
        assert_eq!(c.restart_on_exit, defaults.restart_on_exit);
    }
}

#[test]
fn supervisor_out_of_range_values_warn_and_keep_defaults() {
    // u64 overflow: more digits than u64 can hold.
    let (c, warnings) = from_map(&[("WAFE_BACKEND_TIMEOUT", "99999999999999999999999")]);
    assert_eq!(warnings.len(), 1);
    assert_eq!(c.read_timeout_ms, None);

    // Fits u64 but not the u32 retries field.
    let (c, warnings) = from_map(&[("WAFE_BACKEND_RETRIES", "4294967296")]);
    assert_eq!(warnings.len(), 1);
    assert!(
        warnings[0].contains("out of range"),
        "warning must say why: {}",
        warnings[0]
    );
    assert_eq!(c.max_restarts, 0);

    // Booleans only accept 0/1.
    let (c, warnings) = from_map(&[("WAFE_BACKEND_STAY_ALIVE", "2")]);
    assert_eq!(warnings.len(), 1);
    assert!(!c.stay_alive_when_broken);
}

#[test]
fn supervisor_collects_every_warning_not_just_the_first() {
    let (c, warnings) = from_map(&[
        ("WAFE_BACKEND_TIMEOUT", "soon"),
        ("WAFE_BACKEND_RETRIES", "99999999999999999999999"),
        ("WAFE_BACKEND_QUEUE", "32"),
    ]);
    assert_eq!(warnings.len(), 2);
    assert_eq!(c.queue_cap, 32, "good values still apply");
}

#[test]
fn fault_plan_rejects_malformed_clauses() {
    for (spec, fragment) in [
        ("line", "no ':'"),
        ("bogus:kill", "unknown fault point"),
        ("line:explode", "unknown fault action"),
        ("line:delay=abc", "bad delay"),
        ("line:truncate=", "bad truncate length"),
        ("line:flood=0", "flood count must be positive"),
        ("line:kill@%0", "trigger period must be positive"),
        ("line:kill@soon", "bad trigger"),
        ("seed=abc", "bad seed"),
        ("", "no clauses"),
        ("seed=7", "no clauses"),
    ] {
        let err = FaultPlan::parse(spec).expect_err(spec);
        assert!(
            err.contains(fragment),
            "\"{spec}\" must mention \"{fragment}\", got: {err}"
        );
    }
}

#[test]
fn fault_plan_rejects_out_of_range_numbers() {
    // One digit past u64::MAX in every numeric position.
    let over = "18446744073709551616";
    for spec in [
        format!("line:delay={over}"),
        format!("line:truncate={over}"),
        format!("line:flood={over}"),
        format!("line:kill@{over}"),
        format!("line:kill@{over}+"),
        format!("line:kill@%{over}"),
        format!("seed={over}"),
    ] {
        assert!(
            FaultPlan::parse(&spec).is_err(),
            "\"{spec}\" must not parse"
        );
    }
}

#[test]
fn fault_plan_happy_path_still_parses() {
    let plan = FaultPlan::parse("line:kill@3; read:garble@%2; seed=42").unwrap();
    assert_eq!(plan.describe().len(), 2);
    assert_eq!(plan.seed(), 42);
}
