//! Bit-exact checkpoint / restore snapshots of the per-key hint store.
//!
//! The format is a line-oriented text file (version-tagged, no external
//! serializer available in this workspace) with one property that matters
//! more than prettiness: **every `f64` round-trips exactly**, because it is
//! written as the hex of its IEEE-754 bit pattern, never as decimal. A
//! restored accumulator therefore folds to bit-identical estimates — the
//! crash-recovery test compares re-encoded snapshots as strings.
//!
//! Layout (one victim block per key, in shard-major order):
//!
//! ```text
//! reveal-serve-checkpoint v1
//! params <n> <m> <q:hex64> <sigma:hex64>
//! coefficients <count> shards <count> quarantine-threshold <count>
//! victims <count>
//! victim <key> traces <processed> failed <failed> run <consecutive> rails <lda> <learned> status <active|quarantined:<n>>
//! decisions P:<value> A:<value>:<eps-hex64> S …
//! end
//! ```
//!
//! The `rails <lda> <learned>` field (cumulative per-rail coefficient
//! counts under two-rail arbitration) was added after v1 shipped; the
//! decoder still accepts the original victim line without it, restoring
//! zero counts, so pre-arbitration checkpoints remain loadable.
//!
//! Writes are atomic: the snapshot lands in `<path>.tmp` and is renamed
//! over the target, so a crash mid-write leaves the previous checkpoint
//! intact — exactly the property the kill/restore contract needs.

use crate::accumulator::{QuarantineReason, ShardedAccumulator, VictimState, VictimStatus};
use crate::KeyId;
use reveal_attack::HintDecision;
use reveal_hints::{HintSummary, LweParameters};
use std::fmt;
use std::path::Path;

/// Typed checkpoint failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The header is missing or the version is unsupported.
    BadHeader(String),
    /// A line failed to parse.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The snapshot's parameters do not match the running configuration.
    ParamsMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io: {e}"),
            CheckpointError::BadHeader(h) => write!(f, "bad header: {h}"),
            CheckpointError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            CheckpointError::ParamsMismatch(m) => write!(f, "params mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// An in-memory snapshot of the accumulator: everything needed to resume
/// scoring bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// LWE parameters of the store.
    pub params: LweParameters,
    /// Expected coefficients per victim.
    pub coefficients: usize,
    /// Shard count (restored stores keep the same layout).
    pub shards: usize,
    /// Quarantine threshold.
    pub quarantine_threshold: u32,
    /// Victim states in shard-major order.
    pub victims: Vec<(KeyId, VictimState)>,
}

impl Snapshot {
    /// Captures the accumulator's current state.
    pub fn capture(acc: &ShardedAccumulator, quarantine_threshold: u32) -> Self {
        Self {
            params: *acc.params(),
            coefficients: acc.coefficients(),
            shards: acc.shards(),
            quarantine_threshold,
            victims: acc.iter().map(|(k, v)| (k, v.clone())).collect(),
        }
    }

    /// Rebuilds the accumulator of a store configured with `params`,
    /// `coefficients` and `shards` from this snapshot. The decision fold on
    /// next use reproduces the pre-snapshot estimates bit-identically.
    ///
    /// The snapshot must match that configuration exactly. The check runs
    /// before anything is sized from the snapshot, so a crafted dimension
    /// or shard count fails typed instead of sizing the restored store.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ParamsMismatch`] when the parameters, the
    /// coefficient count or the shard count differ.
    pub fn restore(
        &self,
        params: &LweParameters,
        coefficients: usize,
        shards: usize,
    ) -> Result<ShardedAccumulator, CheckpointError> {
        if self.params.n != params.n
            || self.params.m != params.m
            || self.params.q.to_bits() != params.q.to_bits()
            || self.params.error_std.to_bits() != params.error_std.to_bits()
            || self.params.secret_std.to_bits() != params.secret_std.to_bits()
        {
            return Err(CheckpointError::ParamsMismatch(format!(
                "snapshot n={} m={} vs store n={} m={}",
                self.params.n, self.params.m, params.n, params.m
            )));
        }
        if self.coefficients != coefficients {
            return Err(CheckpointError::ParamsMismatch(format!(
                "snapshot coefficients={} vs store {}",
                self.coefficients, coefficients
            )));
        }
        // `ShardedAccumulator::new` keeps at least one shard.
        if self.shards != shards.max(1) {
            return Err(CheckpointError::ParamsMismatch(format!(
                "snapshot shards={} vs store {}",
                self.shards,
                shards.max(1)
            )));
        }
        let mut acc = ShardedAccumulator::new(
            self.params,
            self.coefficients,
            self.shards,
            self.quarantine_threshold,
        );
        for (key, state) in &self.victims {
            acc.restore_victim(*key, state.clone());
        }
        Ok(acc)
    }

    /// Serializes to the v1 text format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("reveal-serve-checkpoint v1\n");
        out.push_str(&format!(
            "params {} {} {:016x} {:016x} {:016x}\n",
            self.params.n,
            self.params.m,
            self.params.q.to_bits(),
            self.params.error_std.to_bits(),
            self.params.secret_std.to_bits()
        ));
        out.push_str(&format!(
            "coefficients {} shards {} quarantine-threshold {}\n",
            self.coefficients, self.shards, self.quarantine_threshold
        ));
        out.push_str(&format!("victims {}\n", self.victims.len()));
        for (key, v) in &self.victims {
            let status = match v.status {
                VictimStatus::Active => "active".to_string(),
                VictimStatus::Quarantined(QuarantineReason::ConsecutiveFailures(n)) => {
                    format!("quarantined:{n}")
                }
            };
            out.push_str(&format!(
                "victim {key} traces {} failed {} run {} rails {} {} status {status}\n",
                v.traces_processed,
                v.traces_failed,
                v.consecutive_failures,
                v.lda_coefficients,
                v.learned_coefficients
            ));
            out.push_str("decisions");
            for d in &v.decisions {
                match d {
                    HintDecision::Perfect { value } => {
                        out.push_str(&format!(" P:{value}"));
                    }
                    HintDecision::Approximate { value, eps_squared } => {
                        out.push_str(&format!(" A:{value}:{:016x}", eps_squared.to_bits()));
                    }
                    HintDecision::Skipped => out.push_str(" S"),
                }
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the v1 text format.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`]s on malformed input.
    pub fn decode(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines().enumerate();
        let bad = |line: usize, reason: &str| CheckpointError::BadLine {
            line: line + 1,
            reason: reason.to_string(),
        };

        let (_, header) = lines
            .next()
            .ok_or_else(|| CheckpointError::BadHeader("empty file".into()))?;
        if header != "reveal-serve-checkpoint v1" {
            return Err(CheckpointError::BadHeader(header.to_string()));
        }

        let (ln, params_line) = lines
            .next()
            .ok_or_else(|| CheckpointError::BadHeader("missing params".into()))?;
        let p: Vec<&str> = params_line.split_whitespace().collect();
        if p.len() != 6 || p[0] != "params" {
            return Err(bad(ln, "expected `params <n> <m> <q> <error> <secret>`"));
        }
        let params = LweParameters {
            n: p[1].parse().map_err(|_| bad(ln, "bad n"))?,
            m: p[2].parse().map_err(|_| bad(ln, "bad m"))?,
            q: f64::from_bits(u64::from_str_radix(p[3], 16).map_err(|_| bad(ln, "bad q bits"))?),
            error_std: f64::from_bits(
                u64::from_str_radix(p[4], 16).map_err(|_| bad(ln, "bad error bits"))?,
            ),
            secret_std: f64::from_bits(
                u64::from_str_radix(p[5], 16).map_err(|_| bad(ln, "bad secret bits"))?,
            ),
        };

        let (ln, shape_line) = lines
            .next()
            .ok_or_else(|| CheckpointError::BadHeader("missing shape".into()))?;
        let s: Vec<&str> = shape_line.split_whitespace().collect();
        if s.len() != 6
            || s[0] != "coefficients"
            || s[2] != "shards"
            || s[4] != "quarantine-threshold"
        {
            return Err(bad(
                ln,
                "expected `coefficients <c> shards <s> quarantine-threshold <t>`",
            ));
        }
        let coefficients: usize = s[1].parse().map_err(|_| bad(ln, "bad coefficients"))?;
        let shards: usize = s[3].parse().map_err(|_| bad(ln, "bad shards"))?;
        let quarantine_threshold: u32 = s[5].parse().map_err(|_| bad(ln, "bad threshold"))?;

        let (ln, victims_line) = lines
            .next()
            .ok_or_else(|| CheckpointError::BadHeader("missing victims".into()))?;
        let v: Vec<&str> = victims_line.split_whitespace().collect();
        if v.len() != 2 || v[0] != "victims" {
            return Err(bad(ln, "expected `victims <count>`"));
        }
        let count: usize = v[1].parse().map_err(|_| bad(ln, "bad victim count"))?;

        // Counts come from the file: reserve no more than the remaining
        // lines can hold (two per victim, one per decision token).
        let mut victims = Vec::with_capacity(count.min(lines.clone().count() / 2));
        for _ in 0..count {
            let (ln, victim_line) = lines
                .next()
                .ok_or_else(|| CheckpointError::BadHeader("truncated victim block".into()))?;
            let w: Vec<&str> = victim_line.split_whitespace().collect();
            // Two accepted shapes: the extended line with `rails <l> <n>`
            // and the legacy line without it (restores zero rail counts).
            let (has_rails, status_idx) = match w.len() {
                13 if w[8] == "rails" && w[11] == "status" => (true, 12),
                10 if w[8] == "status" => (false, 9),
                _ => (false, 0),
            };
            if status_idx == 0
                || w[0] != "victim"
                || w[2] != "traces"
                || w[4] != "failed"
                || w[6] != "run"
            {
                return Err(bad(
                    ln,
                    "expected `victim <key> traces <p> failed <f> run <r> [rails <l> <n>] status <s>`",
                ));
            }
            let key: KeyId = w[1].parse().map_err(|_| bad(ln, "bad key"))?;
            let traces_processed: u64 = w[3].parse().map_err(|_| bad(ln, "bad traces"))?;
            let traces_failed: u64 = w[5].parse().map_err(|_| bad(ln, "bad failed"))?;
            let consecutive_failures: u32 = w[7].parse().map_err(|_| bad(ln, "bad run"))?;
            let (lda_coefficients, learned_coefficients) = if has_rails {
                (
                    w[9].parse().map_err(|_| bad(ln, "bad lda rail count"))?,
                    w[10]
                        .parse()
                        .map_err(|_| bad(ln, "bad learned rail count"))?,
                )
            } else {
                (0, 0)
            };
            let status = match w[status_idx] {
                "active" => VictimStatus::Active,
                other => match other.strip_prefix("quarantined:") {
                    Some(nstr) => VictimStatus::Quarantined(QuarantineReason::ConsecutiveFailures(
                        nstr.parse().map_err(|_| bad(ln, "bad quarantine count"))?,
                    )),
                    None => return Err(bad(ln, "bad status")),
                },
            };

            let (ln, dec_line) = lines
                .next()
                .ok_or_else(|| CheckpointError::BadHeader("missing decisions".into()))?;
            let mut tokens = dec_line.split_whitespace();
            if tokens.next() != Some("decisions") {
                return Err(bad(ln, "expected `decisions …`"));
            }
            let mut decisions = Vec::with_capacity(coefficients.min(tokens.clone().count()));
            for token in tokens {
                let d = if token == "S" {
                    HintDecision::Skipped
                } else if let Some(rest) = token.strip_prefix("P:") {
                    HintDecision::Perfect {
                        value: rest.parse().map_err(|_| bad(ln, "bad perfect value"))?,
                    }
                } else if let Some(rest) = token.strip_prefix("A:") {
                    let (value_str, eps_str) = rest
                        .split_once(':')
                        .ok_or_else(|| bad(ln, "bad approximate token"))?;
                    HintDecision::Approximate {
                        value: value_str.parse().map_err(|_| bad(ln, "bad approx value"))?,
                        eps_squared: f64::from_bits(
                            u64::from_str_radix(eps_str, 16)
                                .map_err(|_| bad(ln, "bad eps bits"))?,
                        ),
                    }
                } else {
                    return Err(bad(ln, "unknown decision token"));
                };
                decisions.push(d);
            }
            if decisions.len() != coefficients {
                return Err(bad(ln, "decision count does not match coefficients"));
            }
            // The fold-derived fields are recomputed lazily on the next
            // apply; summaries are re-derived here so restored state is
            // self-consistent without storing redundant floats.
            let summary = HintSummary::of(&decisions);
            victims.push((
                key,
                VictimState {
                    decisions,
                    traces_processed,
                    traces_failed,
                    consecutive_failures,
                    status,
                    last_estimate: None,
                    summary,
                    lda_coefficients,
                    learned_coefficients,
                },
            ));
        }

        match lines.next() {
            Some((_, "end")) => {}
            other => {
                return Err(CheckpointError::BadHeader(format!(
                    "missing `end` terminator, got {other:?}"
                )))
            }
        }

        Ok(Self {
            params,
            coefficients,
            shards,
            quarantine_threshold,
            victims,
        })
    }

    /// Atomically writes the snapshot to `path` (`<path>.tmp` + rename).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))
    }

    /// Loads a snapshot previously written with [`Snapshot::write_atomic`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] / parse errors.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveal_attack::{HintDecision, RobustAttackResult, RobustCoefficient, Suspicion};

    fn params() -> LweParameters {
        LweParameters::seal_like(16, 3329.0, 2.0)
    }

    fn populated() -> ShardedAccumulator {
        let mut acc = ShardedAccumulator::new(params(), 16, 4, 3);
        let result = RobustAttackResult {
            coefficients: (0..16)
                .map(|i| RobustCoefficient {
                    estimate: None,
                    confidence: 0.0,
                    suspicion: Suspicion::default(),
                    decision: match i % 3 {
                        0 => HintDecision::Perfect { value: i },
                        1 => HintDecision::Approximate {
                            value: -i,
                            eps_squared: 0.1 + i as f64 * 0.01,
                        },
                        _ => HintDecision::Skipped,
                    },
                    rail: if i % 4 == 0 {
                        reveal_attack::Rail::Learned
                    } else {
                        reveal_attack::Rail::Lda
                    },
                })
                .collect(),
            diagnostics: reveal_attack::Diagnostics::default(),
        };
        acc.apply_success(11, 0, &result).unwrap();
        acc.apply_success(4, 0, &result).unwrap();
        acc.apply_failure(4, 1, crate::ServeError::GapAbandoned);
        acc
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let acc = populated();
        let snap = Snapshot::capture(&acc, 3);
        let text = snap.encode();
        let back = Snapshot::decode(&text).unwrap();
        // Decision vectors and counters survive exactly (estimates are
        // recomputed on fold, so compare re-encoded text).
        assert_eq!(back.encode(), text);
        assert_eq!(back.victims.len(), 2);
        let (key, state) = &back.victims[0];
        assert_eq!(*key, 4);
        assert_eq!(state.traces_processed, 2);
        assert_eq!(state.traces_failed, 1);
    }

    #[test]
    fn restored_store_folds_bit_identically() {
        let acc = populated();
        let snap = Snapshot::capture(&acc, 3);
        let mut restored = snap.restore(&params(), 16, 4).unwrap();
        // Applying the same new trace to original and restored stores
        // yields bit-identical estimates.
        let mut original = snap.restore(&params(), 16, 4).unwrap();
        let next = RobustAttackResult {
            coefficients: vec![
                RobustCoefficient {
                    estimate: None,
                    confidence: 0.0,
                    suspicion: Suspicion::default(),
                    decision: HintDecision::Perfect { value: 1 },
                    rail: reveal_attack::Rail::Lda,
                };
                16
            ],
            diagnostics: reveal_attack::Diagnostics::default(),
        };
        let a = original.apply_success(11, 1, &next).unwrap();
        let b = restored.apply_success(11, 1, &next).unwrap();
        assert_eq!(a.bikz.to_bits(), b.bikz.to_bits());
    }

    #[test]
    fn atomic_write_and_load() {
        let acc = populated();
        let snap = Snapshot::capture(&acc, 3);
        let dir = std::env::temp_dir().join("reveal-serve-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ckpt");
        snap.write_atomic(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.encode(), snap.encode());
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_inputs_fail_typed() {
        assert!(matches!(
            Snapshot::decode(""),
            Err(CheckpointError::BadHeader(_))
        ));
        assert!(matches!(
            Snapshot::decode("reveal-serve-checkpoint v2\n"),
            Err(CheckpointError::BadHeader(_))
        ));
        let good = Snapshot::capture(&populated(), 3).encode();
        let truncated: String = good.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(Snapshot::decode(&truncated).is_err());
        let corrupt = good.replace("P:0", "X:0");
        assert!(matches!(
            Snapshot::decode(&corrupt),
            Err(CheckpointError::BadLine { .. })
        ));
    }

    #[test]
    fn crafted_counts_fail_typed_without_reserving() {
        let good = Snapshot::capture(&populated(), 3).encode();
        let victims = good
            .lines()
            .find(|l| l.starts_with("victims "))
            .unwrap()
            .to_string();
        let coefficients = good
            .lines()
            .find(|l| l.starts_with("coefficients "))
            .unwrap()
            .to_string();
        // A victim count far beyond the file: once past `usize`'s capacity
        // limit, once large enough that reserving it aborts the process.
        for huge in ["18446744073709551615", "100000000000"] {
            let crafted = good.replace(&victims, &format!("victims {huge}"));
            assert!(matches!(
                Snapshot::decode(&crafted),
                Err(CheckpointError::BadLine { .. })
            ));
        }
        // A coefficient count no decision line can match.
        let crafted = good.replace(
            &coefficients,
            &coefficients.replacen(" 16 ", " 18446744073709551615 ", 1),
        );
        assert_ne!(crafted, good);
        assert!(matches!(
            Snapshot::decode(&crafted),
            Err(CheckpointError::BadLine { .. })
        ));
    }

    #[test]
    fn rail_counts_round_trip_and_legacy_lines_restore_zero() {
        let acc = populated();
        let snap = Snapshot::capture(&acc, 3);
        let state = acc.victim(11).unwrap();
        assert_eq!(
            (state.lda_coefficients, state.learned_coefficients),
            (12, 4)
        );
        let text = snap.encode();
        let back = Snapshot::decode(&text).unwrap();
        let (_, restored) = back.victims.iter().find(|(k, _)| *k == 11).unwrap();
        assert_eq!(
            (restored.lda_coefficients, restored.learned_coefficients),
            (12, 4)
        );
        // A pre-arbitration checkpoint (no `rails` field) still loads,
        // with zeroed counts.
        let legacy: String = text
            .lines()
            .map(|l| {
                if l.starts_with("victim ") {
                    let w: Vec<&str> = l.split_whitespace().collect();
                    format!(
                        "{} {} {} {} {} {} {} {} {} {}\n",
                        w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[11], w[12]
                    )
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let old = Snapshot::decode(&legacy).unwrap();
        let (_, restored) = old.victims.iter().find(|(k, _)| *k == 11).unwrap();
        assert_eq!(
            (restored.lda_coefficients, restored.learned_coefficients),
            (0, 0)
        );
        assert_eq!(restored.traces_processed, 1);
    }

    #[test]
    fn compatibility_check_catches_mismatches() {
        let snap = Snapshot::capture(&populated(), 3);
        let mismatch = |r: Result<ShardedAccumulator, CheckpointError>| {
            matches!(r, Err(CheckpointError::ParamsMismatch(_)))
        };
        let restored = snap.restore(&params(), 16, 4).unwrap();
        assert_eq!(Snapshot::capture(&restored, 3).encode(), snap.encode());
        assert!(mismatch(snap.restore(&params(), 8, 4)));
        assert!(mismatch(snap.restore(&params(), 16, 8)));
        let other = LweParameters::seal_like(32, 3329.0, 2.0);
        assert!(mismatch(snap.restore(&other, 16, 4)));
    }

    #[test]
    fn crafted_dimensions_and_shards_fail_restore_typed() {
        // Each of these decodes, and sizing a store from it would abort the
        // process (a 2^64-dimensional DBDD instance, 10^11 shards); restore
        // must refuse it against the configured store first.
        let good = Snapshot::capture(&populated(), 3).encode();
        let line = |prefix: &str| good.lines().find(|l| l.starts_with(prefix)).unwrap();
        let (params_line, shape_line) = (line("params "), line("coefficients "));
        let with_token = |line: &str, index: usize, token: &str| {
            let mut tokens: Vec<&str> = line.split(' ').collect();
            tokens[index] = token;
            good.replace(line, &tokens.join(" "))
        };
        for huge in ["18446744073709551615", "100000000000"] {
            for crafted in [
                with_token(params_line, 1, huge),
                with_token(params_line, 2, huge),
                with_token(shape_line, 3, huge),
            ] {
                let snap = Snapshot::decode(&crafted).unwrap();
                assert!(matches!(
                    snap.restore(&params(), 16, 4),
                    Err(CheckpointError::ParamsMismatch(_))
                ));
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Tokens the mutations insert: huge, negative and NaN-bit numbers,
        /// and the format's own keywords and decision shapes.
        const HOSTILE: [&str; 16] = [
            "18446744073709551615",
            "100000000000",
            "340282366920938463463374607431768211456",
            "-1",
            "-9223372036854775808",
            "7ff8000000000000",
            "fff0000000000000",
            "victim",
            "decisions",
            "end",
            "params",
            "status",
            "rails",
            "quarantined:4294967296",
            "A:1:7ff8000000000000",
            "P:-9223372036854775808",
        ];

        /// The line and index of token `pick` (modulo the token count).
        fn token_at(lines: &[Vec<String>], pick: u64) -> Option<(usize, usize)> {
            let total: usize = lines.iter().map(Vec::len).sum();
            let mut k = usize::try_from(pick % total.max(1) as u64).ok()?;
            for (l, line) in lines.iter().enumerate() {
                if k < line.len() {
                    return Some((l, k));
                }
                k -= line.len();
            }
            None
        }

        /// Applies the mutation `bits` encodes: swap two tokens, delete
        /// one, insert or overwrite a hostile token, or delete or duplicate
        /// a whole line.
        fn mutate(lines: &mut Vec<Vec<String>>, bits: u64) {
            let hostile = HOSTILE[(bits >> 8) as usize % HOSTILE.len()].to_string();
            let (a, b) = (bits >> 16, bits >> 40);
            let line = (a % lines.len().max(1) as u64) as usize;
            match (bits % 6, token_at(lines, a), token_at(lines, b)) {
                (0, Some(x), Some(y)) => {
                    let token = lines[x.0][x.1].clone();
                    lines[x.0][x.1] = std::mem::replace(&mut lines[y.0][y.1], token);
                }
                (1, Some((l, i)), _) => {
                    lines[l].remove(i);
                }
                (2, Some((l, i)), _) => lines[l].insert(i, hostile),
                (3, Some((l, i)), _) => lines[l][i] = hostile,
                (4, ..) if !lines.is_empty() => {
                    lines.remove(line);
                }
                (5, ..) if !lines.is_empty() => {
                    let copy = lines[line].clone();
                    lines.insert(line, copy);
                }
                _ => {}
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A mutated checkpoint either fails to decode, typed, or
            /// decodes to a snapshot whose encoding is a fixed point of
            /// decode ∘ encode; restoring it against the configured store
            /// returns that store's shape or a typed mismatch, never a
            /// panic or an abort.
            #[test]
            fn mutated_checkpoints_decode_typed_and_restore_safely(
                script in proptest::collection::vec(any::<u64>(), 1..6),
            ) {
                let good = Snapshot::capture(&populated(), 3).encode();
                let mut lines: Vec<Vec<String>> = good
                    .lines()
                    .map(|l| l.split(' ').map(str::to_string).collect())
                    .collect();
                for bits in script {
                    mutate(&mut lines, bits);
                }
                let text: String = lines.iter().map(|l| l.join(" ") + "\n").collect();
                if let Ok(snap) = Snapshot::decode(&text) {
                    let encoded = snap.encode();
                    let again = Snapshot::decode(&encoded).map(|s| s.encode());
                    prop_assert_eq!(again, Ok(encoded));
                    match snap.restore(&params(), 16, 4) {
                        Ok(store) => {
                            prop_assert_eq!((store.coefficients(), store.shards()), (16, 4));
                        }
                        Err(e) => prop_assert!(matches!(e, CheckpointError::ParamsMismatch(_))),
                    }
                }
            }
        }
    }
}
