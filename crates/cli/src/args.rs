//! Minimal argument parsing for the `picos` CLI (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments and `--key
/// value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
}

/// Options that are boolean flags: present or absent, never consuming a
/// value (they parse as `"true"`).
const FLAGS: &[&str] = &["critical-path", "help"];

/// The options each subcommand reads, space-separated. Any other option
/// is an error, so a misspelt or retired option cannot silently fall back
/// to a default; `--help` is accepted by every command.
const OPTIONS: &[(&str, &str)] = &[
    ("gen", "block out"),
    ("stats", "block"),
    (
        "run",
        "block engine backend workers dm ts instances shards policy link-latency \
         link-occupancy link-width fault-seed drop-rate link-timeout paced window \
         timeline metrics-json metrics-csv trace-out critical-path",
    ),
    (
        "sweep",
        "block engine backend dm ts instances shards link-latency link-occupancy \
         link-width threads out timeline critical-path",
    ),
    (
        "whatif",
        "block axis prefix workers engine backend dm ts instances shards \
         link-latency link-occupancy link-width",
    ),
    (
        "serve",
        "addr journal-dir quota step-budget max-tenants scrape-window checkpoint-every",
    ),
    ("resources", "dm instances ts"),
    ("apps", ""),
    ("engines", ""),
];

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is present or a non-flag
    /// `--key` misses its value.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = argv.next().ok_or_else(usage)?;
        let mut positional = Vec::new();
        let mut options = HashMap::new();
        while let Some(a) = argv.next() {
            if let Some(key) = a.strip_prefix("--") {
                if FLAGS.contains(&key) {
                    options.insert(key.to_string(), "true".to_string());
                    continue;
                }
                let value = argv
                    .next()
                    .ok_or_else(|| format!("option --{key} needs a value"))?;
                options.insert(key.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Ok(Args {
            command,
            positional,
            options,
        })
    }

    /// Rejects any option the subcommand does not read, naming the first
    /// one (in sorted order). Unknown commands are left to the dispatcher.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unknown option.
    pub fn check_options(&self) -> Result<(), String> {
        let Some((_, known)) = OPTIONS.iter().find(|(c, _)| *c == self.command) else {
            return Ok(());
        };
        let mut unknown: Vec<&String> = self
            .options
            .keys()
            .filter(|k| *k != "help" && !known.split_whitespace().any(|o| o == *k))
            .collect();
        unknown.sort();
        match unknown.first() {
            None => Ok(()),
            Some(k) => Err(format!(
                "unknown option --{k} for `picos {}` (see `picos help`)",
                self.command
            )),
        }
    }

    /// An option parsed to a type, with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn opt<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// A required positional argument.
    ///
    /// # Errors
    ///
    /// Returns an error naming the argument when missing.
    pub fn pos(&self, idx: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument <{name}>\n{}", usage()))
    }
}

/// The usage string.
pub fn usage() -> String {
    "\
usage: picos <command> [args] [--key value ...]

<workload> is a trace file (*.json) or a generator name (see `picos apps`),
with --block <bs> selecting the block size for generated workloads.

commands:
  gen <app> --block <bs> [--out trace.json]     generate a paper workload
  stats <workload>                              print a Table-I style row
  run <workload> --engine <e> --workers <w>     run one engine
       engines: hw-only | hw-comm | full (alias: hil) | nanos | perfect
                | cluster
       options: --dm <8way|16way|p8way>  --ts <fifo|lifo>  --instances <n>
       cluster: --shards <n>  --policy <addr-hash|round-robin|locality>
                --link-latency <c> --link-occupancy <c> --link-width <w>
                (--backend is accepted as an alias for --engine)
       faults:  --fault-seed <s> --drop-rate <p> --link-timeout <cycles>
                deterministic link-fault injection on the cluster
                interconnect (seeded drops with ack/retry recovery);
                prints faults: drops/retries/redeliveries/recoveries
       paced:   --paced <interarrival-cycles> [--window <in-flight cap>]
                open-loop streaming session; prints offered vs achieved
                rate and the backpressure ratio
       telemetry: --timeline <window-cycles|auto> attaches a cycle-windowed
                sampler (per-unit busy cycles, queue/memory occupancy;
                `auto` picks a power-of-two window from the workload size);
                emit with --metrics-json <path> and/or --metrics-csv <path>
       spans:   --trace-out <file> records task-lifecycle spans and writes
                a Chrome Trace Event / Perfetto JSON trace of the run
                (open in ui.perfetto.dev); --critical-path walks the spans
                backward from the last finish and prints the makespan
                attributed by category (exec, dispatch, queueing, link...);
                both compose with --paced (spans of the streamed run)
  sweep <workload> --engine <e,e,...|all>       speedup vs workers (2..24),
       [--threads <n>] [--out results.csv]      cells run in parallel
       [--shards <n>] [--link-latency <c>]      (cluster cells)
       [--timeline <w>]                         per-cell telemetry; with
                                                --out also writes
                                                <out>.timeline.csv
       [--critical-path]                        per-cell makespan
                                                attribution in the
                                                critical_path column
  whatif <workload> [--axis dm|shards]          config search on a live
       [--prefix <0..1>] [--workers <w>]        session: the first --prefix
       [--engine <e>] [--dm <d>] [--shards <n>] fraction of the workload is
                                                recorded into a journaled
                                                live session, the session is
                                                forked in memory for the
                                                baseline, and one replica
                                                per candidate DM design (or
                                                cluster shard count) replays
                                                the recorded arrival prefix;
                                                every replica receives the
                                                remaining suffix and the
                                                projected makespans are
                                                ranked (best config printed)
  serve [--addr <host:port>]                    multi-tenant session service:
       [--journal-dir <dir>]                    thousands of live sessions
       [--quota <n>] [--step-budget <n>]        multiplexed by a round-robin
       [--max-tenants <n>] [--scrape-window <c>] fair scheduler, each tenant
       [--checkpoint-every <steps>]             journaled for bit-exact crash
                                                recovery (--journal-dir).
       protocol: line-delimited JSON over TCP — open / submit / barrier /
                advance / drain-events / stats / scrape / checkpoint /
                close / shutdown;
                `shutdown` triggers graceful exit (listener closed, in-flight
                steps finished, journals flushed). --addr 127.0.0.1:0 binds
                an ephemeral port and prints the resolved address.
       --quota caps each tenant's accepted-but-unfinished tasks (admission
                control above the session window); --step-budget is the
                per-tenant step slice per scheduler round;
       --checkpoint-every persists a full engine snapshot per tenant every
                N scheduler steps and truncates its journal to the
                post-snapshot tail, so restart recovery replays a bounded
                tail (snapshot + tail) instead of the whole history
  resources [--dm <design>] [--instances <n>]   FPGA cost estimate
  apps                                          list available generators
  engines                                       list available backends
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_positional_options() {
        let a = parse(&["run", "t.json", "--workers", "8", "--engine", "nanos"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.pos(0, "trace").unwrap(), "t.json");
        assert_eq!(a.opt("workers", 1usize).unwrap(), 8);
        assert_eq!(a.options["engine"], "nanos");
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["gen", "heat"]).unwrap();
        assert_eq!(a.opt("block", 64u64).unwrap(), 64);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["run", "--workers"]).is_err());
    }

    #[test]
    fn flags_take_no_value() {
        // A flag at the end of the line, and one followed by a normal
        // option: neither may consume the next token.
        let a = parse(&["run", "t.json", "--critical-path"]).unwrap();
        assert_eq!(a.options["critical-path"], "true");
        let a = parse(&["run", "--critical-path", "--workers", "8"]).unwrap();
        assert!(a.options.contains_key("critical-path"));
        assert_eq!(a.opt("workers", 1usize).unwrap(), 8);
    }

    #[test]
    fn usage_covers_the_serve_subcommand() {
        let u = usage();
        assert!(
            u.contains("serve [--addr <host:port>]"),
            "serve line missing"
        );
        for opt in [
            "--journal-dir",
            "--quota",
            "--step-budget",
            "--max-tenants",
            "--scrape-window",
            "--checkpoint-every",
        ] {
            assert!(u.contains(opt), "usage misses serve option {opt}");
        }
        for verb in [
            "submit",
            "barrier",
            "drain-events",
            "scrape",
            "checkpoint",
            "shutdown",
        ] {
            assert!(u.contains(verb), "usage misses protocol verb {verb}");
        }
    }

    #[test]
    fn usage_covers_the_whatif_subcommand() {
        let u = usage();
        assert!(u.contains("whatif <workload>"), "whatif line missing");
        for opt in ["--axis dm|shards", "--prefix"] {
            assert!(u.contains(opt), "usage misses whatif option {opt}");
        }
    }

    #[test]
    fn help_is_a_flag_not_an_option() {
        // `picos serve --help` must parse (and later print usage) rather
        // than die with "option --help needs a value".
        let a = parse(&["serve", "--help"]).unwrap();
        assert!(a.options.contains_key("help"));
    }

    #[test]
    fn option_check_names_the_option_and_spares_help() {
        let err = parse(&["stats", "heat", "--workers", "8"])
            .unwrap()
            .check_options()
            .unwrap_err();
        assert!(
            err.contains("--workers") && err.contains("picos stats"),
            "{err}"
        );
        // --help is global; unknown commands are the dispatcher's call.
        assert!(parse(&["serve", "--help"]).unwrap().check_options().is_ok());
        let bogus = parse(&["bogus", "--x", "1"]).unwrap();
        assert!(bogus.check_options().is_ok());
    }

    #[test]
    fn every_option_in_usage_is_accepted_by_its_command() {
        let u = usage();
        let mut command = String::new();
        let mut seen = 0;
        for line in u.lines().skip_while(|l| *l != "commands:").skip(1) {
            // A command line is indented by two spaces; deeper lines
            // continue the command above.
            if !line.starts_with("   ") {
                command = line.split_whitespace().next().unwrap_or("").to_string();
            }
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                let Some(key) = word.strip_prefix("--").filter(|k| !k.is_empty()) else {
                    continue;
                };
                let mut argv = vec![command.clone(), format!("--{key}")];
                if !FLAGS.contains(&key) {
                    argv.push("1".into());
                }
                let a = Args::parse(argv.into_iter()).unwrap();
                a.check_options()
                    .unwrap_or_else(|e| panic!("usage lists --{key} under {command}: {e}"));
                seen += 1;
            }
        }
        assert!(seen > 40, "usage parse found only {seen} options");
    }

    #[test]
    fn missing_command_is_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn bad_value_is_error() {
        let a = parse(&["run", "--workers", "lots"]).unwrap();
        assert!(a.opt("workers", 1usize).is_err());
    }

    #[test]
    fn missing_positional_is_error() {
        let a = parse(&["stats"]).unwrap();
        assert!(a.pos(0, "trace").is_err());
    }
}
