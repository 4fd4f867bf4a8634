//! Deterministic fault injection for frontend mode's transport.
//!
//! A [`FaultPlan`] is a set of rules that fire at named points in the
//! frontend's transport ([`FAULT_POINTS`]): wafe-serve's backend
//! supervisor and scheduler consult the plan every time execution
//! passes such a point and applies whatever
//! actions the matching rules yield — delay, truncate, garble, flood,
//! drop, or kill. All randomness (garbling) comes from a seeded
//! xorshift64* generator, so a plan plus a backend script reproduces the
//! same failure byte-for-byte on every run; the chaos suite
//! (`tests/supervisor_chaos.rs`) is built on exactly this property.
//!
//! Plans are written in a small spec string — scriptable at runtime via
//! the `faultpoint` Tcl command and at startup via the `WAFE_FAULTS`
//! environment variable:
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := 'seed=' integer
//!          | point ':' action [ '@' trigger ]
//! point   := 'spawn' | 'read' | 'line' | 'write' | 'mass' | 'display'
//! action  := 'kill' | 'wedge' | 'drop' | 'garble'
//!          | 'truncate=' bytes | 'delay=' ms | 'flood=' copies
//! trigger := N        fire on the Nth consultation only (1-based)
//!          | N '+'    fire from the Nth consultation onward
//!          | '%' N    fire on every Nth consultation
//! ```
//!
//! Example: `line:kill@2;read:garble@3+;seed=7` kills the backend while
//! the second complete line is being handled and garbles every read from
//! the third onward, with generator seed 7.

use std::fmt;

/// The environment variable holding a fault-plan spec string.
pub const FAULTS_ENV_VAR: &str = "WAFE_FAULTS";

/// The named points the supervisor consults, in protocol order:
/// child spawn, a chunk read from the pipe, a complete protocol line,
/// a line written to the backend, a mass-channel chunk, an outbound
/// display frame (consulted by the scheduler, not the pipe).
pub const FAULT_POINTS: &[&str] = &["spawn", "read", "line", "write", "mass", "display"];

/// What a fired rule does at its point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the backend process on the spot (at `spawn`: fail the spawn).
    Kill,
    /// Discard the data passing the point, simulating a stalled peer.
    Wedge,
    /// Discard the data passing the point (alias of `Wedge`; reads
    /// naturally at the `line` and `write` points).
    Drop,
    /// Corrupt the data with seeded pseudo-random bytes. Line garbling
    /// preserves the first character so `%`-classification stays put;
    /// byte garbling preserves newlines so framing stays observable.
    Garble,
    /// Keep only the first N bytes of the data.
    Truncate(usize),
    /// Hold the data back for the given number of virtual milliseconds.
    Delay(u64),
    /// Replicate the data into N total copies (a flooding backend).
    Flood(usize),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Kill => write!(f, "kill"),
            FaultAction::Wedge => write!(f, "wedge"),
            FaultAction::Drop => write!(f, "drop"),
            FaultAction::Garble => write!(f, "garble"),
            FaultAction::Truncate(n) => write!(f, "truncate={n}"),
            FaultAction::Delay(ms) => write!(f, "delay={ms}"),
            FaultAction::Flood(n) => write!(f, "flood={n}"),
        }
    }
}

/// When a rule fires, counted in consultations of its point (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every consultation.
    Always,
    /// The Nth consultation only.
    On(u64),
    /// The Nth consultation and every one after it.
    From(u64),
    /// Every Nth consultation.
    Every(u64),
}

impl Trigger {
    fn matches(self, hit: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::On(n) => hit == n,
            Trigger::From(n) => hit >= n,
            Trigger::Every(k) => hit.is_multiple_of(k),
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Always => Ok(()),
            Trigger::On(n) => write!(f, "@{n}"),
            Trigger::From(n) => write!(f, "@{n}+"),
            Trigger::Every(k) => write!(f, "@%{k}"),
        }
    }
}

/// One parsed clause of a fault spec.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The point this rule watches (one of [`FAULT_POINTS`]).
    pub point: String,
    /// The action taken when the trigger matches.
    pub action: FaultAction,
    /// When the rule fires.
    pub trigger: Trigger,
    hits: u64,
}

/// A parsed, seeded fault plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
    rng: u64,
}

impl FaultPlan {
    /// Parses a spec string (see the module grammar). Errors name the
    /// offending clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        let mut seed: u64 = 0xBAD_FACE; // default: fixed, so unseeded plans still replay
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(v) = clause.strip_prefix("seed=") {
                seed = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed \"{v}\" in fault spec"))?;
                continue;
            }
            let (point, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause \"{clause}\" has no ':'"))?;
            let point = point.trim();
            if !FAULT_POINTS.contains(&point) {
                return Err(format!(
                    "unknown fault point \"{point}\": must be one of {}",
                    FAULT_POINTS.join(", ")
                ));
            }
            let (action_s, trigger_s) = match rest.split_once('@') {
                Some((a, t)) => (a.trim(), Some(t.trim())),
                None => (rest.trim(), None),
            };
            let parse_n = |s: &str, what: &str| -> Result<u64, String> {
                s.parse()
                    .map_err(|_| format!("bad {what} \"{s}\" in fault clause \"{clause}\""))
            };
            let action = if let Some(n) = action_s.strip_prefix("truncate=") {
                FaultAction::Truncate(parse_n(n, "truncate length")? as usize)
            } else if let Some(ms) = action_s.strip_prefix("delay=") {
                FaultAction::Delay(parse_n(ms, "delay")?)
            } else if let Some(n) = action_s.strip_prefix("flood=") {
                let copies = parse_n(n, "flood count")? as usize;
                if copies == 0 {
                    return Err(format!("flood count must be positive in \"{clause}\""));
                }
                FaultAction::Flood(copies)
            } else {
                match action_s {
                    "kill" => FaultAction::Kill,
                    "wedge" => FaultAction::Wedge,
                    "drop" => FaultAction::Drop,
                    "garble" => FaultAction::Garble,
                    other => {
                        return Err(format!(
                            "unknown fault action \"{other}\": must be kill, wedge, drop, \
                             garble, truncate=N, delay=MS, or flood=N"
                        ))
                    }
                }
            };
            let trigger = match trigger_s {
                None | Some("") => Trigger::Always,
                Some(t) => {
                    if let Some(k) = t.strip_prefix('%') {
                        let k = parse_n(k, "trigger period")?;
                        if k == 0 {
                            return Err(format!("trigger period must be positive in \"{clause}\""));
                        }
                        Trigger::Every(k)
                    } else if let Some(n) = t.strip_suffix('+') {
                        Trigger::From(parse_n(n, "trigger")?)
                    } else {
                        Trigger::On(parse_n(t, "trigger")?)
                    }
                }
            };
            rules.push(FaultRule {
                point: point.to_string(),
                action,
                trigger,
                hits: 0,
            });
        }
        if rules.is_empty() {
            return Err("fault spec contains no clauses".into());
        }
        Ok(FaultPlan {
            rules,
            seed,
            rng: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        })
    }

    /// Parses the `WAFE_FAULTS` environment variable, if set and
    /// non-empty. A malformed spec is an error, not a silent no-op.
    pub fn from_env() -> Option<Result<FaultPlan, String>> {
        match std::env::var(FAULTS_ENV_VAR) {
            Ok(s) if !s.trim().is_empty() => Some(FaultPlan::parse(&s)),
            _ => None,
        }
    }

    /// The seed the plan's generator started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consults the plan at a point: every rule watching the point
    /// counts one hit, and the actions of the rules whose trigger
    /// matches are returned in clause order.
    pub fn fire(&mut self, point: &str) -> Vec<FaultAction> {
        let mut out = Vec::new();
        for rule in &mut self.rules {
            if rule.point == point {
                rule.hits += 1;
                if rule.trigger.matches(rule.hits) {
                    out.push(rule.action.clone());
                }
            }
        }
        out
    }

    /// One line per rule: `point:action[@trigger] hits=N`.
    pub fn describe(&self) -> Vec<String> {
        self.rules
            .iter()
            .map(|r| format!("{}:{}{} hits={}", r.point, r.action, r.trigger, r.hits))
            .collect()
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — the same generator wafe-prop and Tcl's rand() use.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Corrupts a byte buffer in place: every byte except newlines is
    /// replaced with a seeded pseudo-random printable character, so
    /// framing survives but content does not.
    pub fn garble_bytes(&mut self, data: &mut [u8]) {
        for b in data.iter_mut() {
            if *b != b'\n' {
                *b = b'!' + (self.next_u64() % 94) as u8; // 0x21..=0x7E
            }
        }
    }

    /// Corrupts a line: the first character is preserved (so `%`
    /// classification is stable), the rest becomes seeded noise.
    pub fn garble_line(&mut self, line: &str) -> String {
        let mut chars = line.chars();
        let mut out = String::with_capacity(line.len());
        if let Some(first) = chars.next() {
            out.push(first);
        }
        for _ in chars {
            out.push(char::from(b'a' + (self.next_u64() % 26) as u8));
        }
        out
    }
}

/// Truncates a string to at most `n` bytes on a char boundary.
pub fn truncate_line(line: &str, n: usize) -> String {
    if line.len() <= n {
        return line.to_string();
    }
    let mut end = n;
    while end > 0 && !line.is_char_boundary(end) {
        end -= 1;
    }
    line[..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let p =
            FaultPlan::parse("line:kill@2; read:garble@3+; mass:delay=40; write:drop@%5; seed=9")
                .unwrap();
        assert_eq!(p.seed(), 9);
        let d = p.describe();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], "line:kill@2 hits=0");
        assert_eq!(d[1], "read:garble@3+ hits=0");
        assert_eq!(d[2], "mass:delay=40 hits=0");
        assert_eq!(d[3], "write:drop@%5 hits=0");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "nocolon",
            "bogus:kill",
            "line:explode",
            "line:kill@x",
            "line:flood=0",
            "line:kill@%0",
            "seed=abc",
            "line:truncate=big",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn trigger_semantics() {
        let mut p = FaultPlan::parse("line:kill@2").unwrap();
        assert!(p.fire("line").is_empty());
        assert_eq!(p.fire("line"), vec![FaultAction::Kill]);
        assert!(p.fire("line").is_empty(), "On(2) fires exactly once");

        let mut p = FaultPlan::parse("read:drop@2+").unwrap();
        assert!(p.fire("read").is_empty());
        assert_eq!(p.fire("read").len(), 1);
        assert_eq!(p.fire("read").len(), 1, "From(2) keeps firing");

        let mut p = FaultPlan::parse("read:drop@%3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| !p.fire("read").is_empty()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true]);

        // Other points do not advance the counter.
        let mut p = FaultPlan::parse("line:kill@1").unwrap();
        assert!(p.fire("read").is_empty());
        assert_eq!(p.fire("line"), vec![FaultAction::Kill]);
    }

    #[test]
    fn garble_is_deterministic_per_seed() {
        let g = |seed: u64| {
            let mut p = FaultPlan::parse(&format!("read:garble;seed={seed}")).unwrap();
            let mut data = b"hello world\nsecond".to_vec();
            p.garble_bytes(&mut data);
            data
        };
        assert_eq!(g(1), g(1), "same seed, same bytes");
        assert_ne!(g(1), g(2), "different seed, different bytes");
        let garbled = g(1);
        assert_eq!(garbled[11], b'\n', "newlines survive garbling");
        assert!(garbled
            .iter()
            .all(|&b| b == b'\n' || (0x21..=0x7E).contains(&b)));
    }

    #[test]
    fn garble_line_preserves_prefix() {
        let mut p = FaultPlan::parse("line:garble;seed=4").unwrap();
        let out = p.garble_line("%set x 1");
        assert!(out.starts_with('%'));
        assert_eq!(out.chars().count(), "%set x 1".chars().count());
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate_line("abcdef", 3), "abc");
        assert_eq!(truncate_line("ab", 10), "ab");
        // U+00E9 is two bytes; cutting inside it backs off.
        assert_eq!(truncate_line("é", 1), "");
    }
}
