//! Compiling expanded shell pipelines into dataflow graphs.
//!
//! The input is a *fully expanded* pipeline — word expansion has already
//! happened (in the JIT, against live shell state), so commands are plain
//! argv vectors and redirect targets are concrete paths. This is exactly
//! the hand-off point the paper describes for Jash: interpretation handles
//! the dynamic features, then "the core analysis and transformation
//! infrastructure" takes over.

use crate::graph::{Dfg, NodeId, NodeKind};
use jash_spec::{ParallelClass, Registry};
use std::fmt;

/// A pipeline stage after word expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandedCommand {
    /// Command name.
    pub name: String,
    /// Arguments (no name).
    pub args: Vec<String>,
    /// `< path` redirect, already resolved to an absolute path.
    pub stdin_redirect: Option<String>,
    /// `> path` / `>> path` redirect.
    pub stdout_redirect: Option<(String, bool)>,
}

impl ExpandedCommand {
    /// A stage with no redirects.
    pub fn new(name: impl Into<String>, args: &[&str]) -> Self {
        ExpandedCommand {
            name: name.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
            stdin_redirect: None,
            stdout_redirect: None,
        }
    }
}

/// A dataflow region: a pipeline plus its boundary bindings.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// The stages, in pipe order.
    pub commands: Vec<ExpandedCommand>,
}

/// Why a pipeline cannot become a dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// No specification is registered for the command.
    UnknownCommand(String),
    /// The command's spec says it touches external state.
    SideEffectful(String),
    /// A mid-pipeline stage carries a redirect we cannot model.
    UnsupportedShape(String),
    /// The region reads interactive stdin, which the optimizer leaves to
    /// the interpreter.
    NeedsInteractiveStdin,
    /// Empty region.
    Empty,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownCommand(n) => write!(f, "no specification for `{n}`"),
            CompileError::SideEffectful(n) => write!(f, "`{n}` is side-effectful"),
            CompileError::UnsupportedShape(m) => write!(f, "unsupported shape: {m}"),
            CompileError::NeedsInteractiveStdin => {
                write!(f, "region reads interactive stdin")
            }
            CompileError::Empty => write!(f, "empty region"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiled region: graph plus the sink node carrying final output.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The graph.
    pub dfg: Dfg,
    /// Node whose input edge carries the region's stdout (a `WriteFile` or
    /// `Discard` node added by the compiler when the script redirects; when
    /// `None` the final command's stdout is the region's observable
    /// output and the executor captures it).
    pub capture_from: Option<NodeId>,
}

/// Compiles a region to a dataflow graph, or explains why it cannot be.
pub fn compile(region: &Region, registry: &Registry) -> Result<Compiled, CompileError> {
    if region.commands.is_empty() {
        return Err(CompileError::Empty);
    }
    let mut dfg = Dfg::new();
    let mut prev_out: Option<NodeId> = None;

    for (idx, cmd) in region.commands.iter().enumerate() {
        let first = idx == 0;
        let spec = registry
            .resolve(&cmd.name, &cmd.args)
            .ok_or_else(|| CompileError::UnknownCommand(cmd.name.clone()))?;
        if matches!(spec.class, ParallelClass::SideEffectful) {
            return Err(CompileError::SideEffectful(cmd.name.clone()));
        }
        if !first && cmd.stdin_redirect.is_some() {
            return Err(CompileError::UnsupportedShape(format!(
                "`{}` has a stdin redirect mid-pipeline",
                cmd.name
            )));
        }
        if cmd.stdout_redirect.is_some() && idx + 1 != region.commands.len() {
            return Err(CompileError::UnsupportedShape(format!(
                "`{}` redirects stdout mid-pipeline",
                cmd.name
            )));
        }

        // `cat f1 f2 ...` fuses into the read layer: its output is the
        // ordered concatenation of its operands (PaSh's cat-fusion, the
        // enabler of per-file splits).
        let node = if cmd.name == "cat"
            && !cmd.args.iter().any(|a| a.starts_with('-') && a.len() > 1)
            && (!cmd.args.is_empty() || cmd.stdin_redirect.is_some())
            && !cmd.args.iter().any(|a| a == "-")
        {
            let files: Vec<String> = cmd
                .args
                .iter()
                .cloned()
                .chain(cmd.stdin_redirect.iter().cloned())
                .collect();
            if files.len() == 1 {
                dfg.add_node(NodeKind::ReadFile {
                    path: files[0].clone(),
                })
            } else {
                let merge = dfg.add_node(NodeKind::Merge {
                    agg: jash_spec::Aggregator::Concat,
                });
                for f in files {
                    let r = dfg.add_node(NodeKind::ReadFile { path: f });
                    dfg.connect(r, merge);
                }
                merge
            }
        } else {
            // Normalize a lone positional input file into a stdin edge for
            // commands whose output is identical either way.
            let mut args = cmd.args.clone();
            let mut stdin_file = cmd.stdin_redirect.clone();
            if stdin_file.is_none() && spec.input_args.len() == 1 && normalizable(&cmd.name) {
                let i = spec.input_args[0];
                if args.get(i).map(|a| a != "-").unwrap_or(false) {
                    stdin_file = Some(args.remove(i));
                }
            }
            let mut spec = registry
                .resolve(&cmd.name, &args)
                .ok_or_else(|| CompileError::UnknownCommand(cmd.name.clone()))?;
            let reads_stdin = spec.reads_stdin || args.iter().any(|a| a == "-");
            // A stage fed by the pipe that also keeps a file operand
            // (`x | cat F -`) would read F whole inside every parallel
            // clone, while only the pipe splits.
            if stdin_file.is_none()
                && !first
                && reads_stdin
                && spec.input_args.iter().any(|&i| args[i] != "-")
            {
                spec.class = ParallelClass::NonParallelizable;
            }

            let n = dfg.add_node(NodeKind::Command {
                name: cmd.name.clone(),
                args,
                spec,
            });
            if let Some(path) = stdin_file {
                let r = dfg.add_node(NodeKind::ReadFile { path });
                dfg.connect(r, n);
            } else if first && reads_stdin {
                return Err(CompileError::NeedsInteractiveStdin);
            } else if let Some(prev) = prev_out {
                if reads_stdin {
                    dfg.connect(prev, n);
                } else {
                    // The stage ignores the pipe; drain it.
                    let d = dfg.add_node(NodeKind::Discard);
                    dfg.connect(prev, d);
                }
            }
            n
        };
        if !first {
            // `cat`-fusion nodes mid-pipeline (`x | cat f`) ignore the
            // incoming pipe; drain it so the upstream stage can finish.
            if matches!(
                dfg.node(node).kind,
                NodeKind::ReadFile { .. } | NodeKind::Merge { .. }
            ) {
                if let Some(prev) = prev_out {
                    let d = dfg.add_node(NodeKind::Discard);
                    dfg.connect(prev, d);
                }
            }
        }
        prev_out = Some(node);
    }

    // Bind the region's stdout.
    let last_cmd = region.commands.last().expect("nonempty");
    let capture_from = match &last_cmd.stdout_redirect {
        Some((path, append)) => {
            let w = dfg.add_node(NodeKind::WriteFile {
                path: path.clone(),
                append: *append,
            });
            dfg.connect(prev_out.expect("at least one node"), w);
            Some(w)
        }
        None => None,
    };

    dfg.validate()
        .map_err(CompileError::UnsupportedShape)?;
    Ok(Compiled { dfg, capture_from })
}

/// Commands whose output is unchanged when a single file operand moves to
/// stdin.
fn normalizable(name: &str) -> bool {
    matches!(
        name,
        "sort" | "grep" | "tr" | "cut" | "uniq" | "head" | "tail" | "sed" | "rev" | "fold"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jash_spec::Registry;

    fn reg() -> Registry {
        Registry::builtin()
    }

    fn region(cmds: Vec<ExpandedCommand>) -> Region {
        Region { commands: cmds }
    }

    #[test]
    fn simple_pipeline_compiles() {
        let mut first = ExpandedCommand::new("tr", &["A-Z", "a-z"]);
        first.stdin_redirect = Some("/in".into());
        let mut last = ExpandedCommand::new("sort", &[]);
        last.stdout_redirect = Some(("/out".into(), false));
        let c = compile(&region(vec![first, last]), &reg()).unwrap();
        c.dfg.validate().unwrap();
        assert_eq!(c.dfg.command_nodes().len(), 2);
        assert!(c.capture_from.is_some());
    }

    #[test]
    fn cat_fuses_to_reads() {
        let cat = ExpandedCommand::new("cat", &["/f1", "/f2"]);
        let wc = ExpandedCommand::new("wc", &["-l"]);
        let c = compile(&region(vec![cat, wc]), &reg()).unwrap();
        // No `cat` command node; two reads + concat merge + wc.
        assert_eq!(c.dfg.command_nodes().len(), 1);
        let reads = c
            .dfg
            .node_ids()
            .filter(|n| matches!(c.dfg.node(*n).kind, NodeKind::ReadFile { .. }))
            .count();
        assert_eq!(reads, 2);
    }

    #[test]
    fn single_file_cat_is_one_read() {
        let cat = ExpandedCommand::new("cat", &["/only"]);
        let grep = ExpandedCommand::new("grep", &["x"]);
        let c = compile(&region(vec![cat, grep]), &reg()).unwrap();
        let reads = c
            .dfg
            .node_ids()
            .filter(|n| matches!(c.dfg.node(*n).kind, NodeKind::ReadFile { .. }))
            .count();
        assert_eq!(reads, 1);
        assert!(c
            .dfg
            .node_ids()
            .all(|n| !matches!(c.dfg.node(n).kind, NodeKind::Merge { .. })));
    }

    #[test]
    fn sort_file_arg_normalized_to_read() {
        let sort = ExpandedCommand::new("sort", &["-n", "/data"]);
        let c = compile(&region(vec![sort]), &reg()).unwrap();
        let reads = c
            .dfg
            .node_ids()
            .filter(|n| matches!(c.dfg.node(*n).kind, NodeKind::ReadFile { .. }))
            .count();
        assert_eq!(reads, 1);
        // The sort node's args no longer include the file.
        let cmd = c.dfg.command_nodes()[0];
        match &c.dfg.node(cmd).kind {
            NodeKind::Command { args, .. } => assert_eq!(args, &vec!["-n".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn separate_option_values_stay_with_their_flag() {
        // Both spellings of `-n K`, `-k F` and `-t S`, fed by a pipe and
        // given a file: the value never becomes a read or leaves the args.
        for (name, joined, split) in [
            ("head", &["-n3"][..], &["-n", "3"][..]),
            ("tail", &["-n3"], &["-n", "3"]),
            ("sort", &["-k2"], &["-k", "2"]),
            ("sort", &["-t:"], &["-t", ":"]),
        ] {
            for flags in [joined, split] {
                let cat = ExpandedCommand::new("cat", &["/in"]);
                let piped = compile(
                    &region(vec![cat, ExpandedCommand::new(name, flags)]),
                    &reg(),
                )
                .unwrap_or_else(|e| panic!("cat /in | {name} {flags:?}: {e}"));
                let with_file: Vec<&str> = flags.iter().copied().chain(["/in"]).collect();
                let direct = compile(
                    &region(vec![ExpandedCommand::new(name, &with_file)]),
                    &reg(),
                )
                .unwrap_or_else(|e| panic!("{name} {with_file:?}: {e}"));
                for c in [piped, direct] {
                    let reads: Vec<_> = c
                        .dfg
                        .node_ids()
                        .filter_map(|n| match &c.dfg.node(n).kind {
                            NodeKind::ReadFile { path } => Some(path.clone()),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(reads, vec!["/in".to_string()], "{name} {flags:?}");
                    match &c.dfg.node(c.dfg.command_nodes()[0]).kind {
                        NodeKind::Command { args, .. } => assert_eq!(args, flags),
                        other => panic!("{other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_command_rejected() {
        let bad = ExpandedCommand::new("no-such-cmd", &[]);
        assert_eq!(
            compile(&region(vec![bad]), &reg()).unwrap_err(),
            CompileError::UnknownCommand("no-such-cmd".into())
        );
    }

    #[test]
    fn side_effectful_rejected() {
        let mut rm = ExpandedCommand::new("rm", &["/x"]);
        rm.stdin_redirect = Some("/in".into());
        assert!(matches!(
            compile(&region(vec![rm]), &reg()).unwrap_err(),
            CompileError::SideEffectful(_)
        ));
    }

    #[test]
    fn interactive_stdin_rejected() {
        let sort = ExpandedCommand::new("sort", &[]);
        assert_eq!(
            compile(&region(vec![sort]), &reg()).unwrap_err(),
            CompileError::NeedsInteractiveStdin
        );
    }

    #[test]
    fn the_spell_pipeline_compiles() {
        // cat F1 F2 | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u
        //   | comm -13 /dict -
        let cmds = vec![
            ExpandedCommand::new("cat", &["/f1", "/f2"]),
            ExpandedCommand::new("tr", &["A-Z", "a-z"]),
            ExpandedCommand::new("tr", &["-cs", "A-Za-z", "\\n"]),
            ExpandedCommand::new("sort", &["-u"]),
            ExpandedCommand::new("comm", &["-13", "/dict", "-"]),
        ];
        let c = compile(&region(cmds), &reg()).unwrap();
        assert_eq!(c.dfg.command_nodes().len(), 4);
        c.dfg.validate().unwrap();
    }

    #[test]
    fn the_temperature_pipeline_compiles() {
        let mut cut = ExpandedCommand::new("cut", &["-c", "89-92"]);
        cut.stdin_redirect = Some("/noaa".into());
        let cmds = vec![
            cut,
            ExpandedCommand::new("grep", &["-v", "999"]),
            ExpandedCommand::new("sort", &["-rn"]),
            ExpandedCommand::new("head", &["-n1"]),
        ];
        let c = compile(&region(cmds), &reg()).unwrap();
        assert_eq!(c.dfg.command_nodes().len(), 4);
    }

    #[test]
    fn mid_pipeline_redirect_rejected() {
        let mut a = ExpandedCommand::new("tr", &["a", "b"]);
        a.stdin_redirect = Some("/in".into());
        a.stdout_redirect = Some(("/mid".into(), false));
        let b = ExpandedCommand::new("sort", &[]);
        assert!(matches!(
            compile(&region(vec![a, b]), &reg()).unwrap_err(),
            CompileError::UnsupportedShape(_)
        ));
    }
}
