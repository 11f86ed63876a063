//! Per-invocation command specifications.
//!
//! A command specification describes a command *name*; resolving it
//! against a concrete argument vector yields an [`InstanceSpec`] — the classification
//! the dataflow compiler consumes. Flags matter: `sort` is
//! merge-aggregatable, `sort -rn` needs a numeric-reverse merge, `grep -q`
//! stops consuming input early, `tee` writes extra files.

use crate::class::{Aggregator, ParallelClass, SortKeySpec};

/// The specification of one concrete command invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Parallelizability classification.
    pub class: ParallelClass,
    /// Indices into the argument vector that name input files.
    pub input_args: Vec<usize>,
    /// Whether the command reads stdin when no file operands are given
    /// (or when `-` appears).
    pub reads_stdin: bool,
    /// Extra output files the command writes (e.g. `tee`).
    pub output_files: Vec<String>,
    /// Emits nothing until it has consumed all input (`sort`, `wc`, …).
    pub blocking: bool,
    /// May stop consuming input before EOF (`head`, `grep -q`).
    pub prefix_only: bool,
}

impl InstanceSpec {
    fn stateless() -> Self {
        InstanceSpec {
            class: ParallelClass::Stateless,
            input_args: Vec::new(),
            reads_stdin: true,
            output_files: Vec::new(),
            blocking: false,
            prefix_only: false,
        }
    }

    fn non_parallel() -> Self {
        InstanceSpec {
            class: ParallelClass::NonParallelizable,
            ..InstanceSpec::stateless()
        }
    }

    fn side_effectful() -> Self {
        InstanceSpec {
            class: ParallelClass::SideEffectful,
            reads_stdin: false,
            ..InstanceSpec::stateless()
        }
    }
}

/// Resolves the built-in specification for `name` applied to `args`.
///
/// Returns `None` for commands without a registered spec — the dataflow
/// compiler then treats them as opaque and leaves the pipeline to the
/// interpreter (the paper's B1 barrier, which user spec files lift).
pub fn resolve_builtin(name: &str, args: &[String]) -> Option<InstanceSpec> {
    // Indices of the file operands: every argument that is neither a flag
    // nor the value of one of `value_flags` given as the argument after it
    // (`-n 3`; `-n3` is one argument and a flag).
    let file_operands = |value_flags: &[&str]| -> Vec<usize> {
        let mut v = Vec::new();
        let mut past_flags = false;
        let mut is_value = false;
        for (i, a) in args.iter().enumerate() {
            if std::mem::take(&mut is_value) {
                continue;
            }
            if !past_flags && a.starts_with('-') && a.len() > 1 {
                past_flags = a == "--";
                is_value = value_flags.contains(&a.as_str());
                continue;
            }
            v.push(i);
        }
        v
    };

    Some(match name {
        "cat" => {
            let inputs = file_operands(&[]);
            InstanceSpec {
                reads_stdin: inputs.is_empty() || args.iter().any(|a| a == "-"),
                input_args: inputs,
                ..InstanceSpec::stateless()
            }
        }
        "tr" => {
            // All operands are sets, not files; purely stdin→stdout.
            // `-s` (squeeze) is stateful across a boundary only for the
            // byte at the seam; treating it as stateless would duplicate a
            // squeezed run across a split, so squeeze runs are bordered.
            let flags: Vec<&String> = args
                .iter()
                .take_while(|a| a.starts_with('-') && a.len() > 1)
                .collect();
            let squeeze = flags.iter().any(|a| a.contains('s'));
            let complement = flags.iter().any(|a| a.contains('c') || a.contains('C'));
            let delete = flags.iter().any(|a| a.contains('d'));
            if squeeze {
                let operands: Vec<&String> =
                    args.iter().skip(flags.len()).collect();
                // Squeezing applies to SET2 when translating, else SET1
                // (complemented when -c without a SET2).
                let set = match (operands.first(), operands.get(1), delete) {
                    (_, Some(s2), false) => jash_coreutils::cmds::tr::expand_set(s2),
                    (Some(s1), _, _) => {
                        let base = jash_coreutils::cmds::tr::expand_set(s1);
                        if complement {
                            (0u8..=255)
                                .filter(|b| !base.contains(b))
                                .collect()
                        } else {
                            base
                        }
                    }
                    _ => Vec::new(),
                };
                InstanceSpec {
                    class: ParallelClass::Parallelizable {
                        agg: Aggregator::SqueezeBoundary { set },
                    },
                    ..InstanceSpec::stateless()
                }
            } else {
                InstanceSpec::stateless()
            }
        }
        "grep" => {
            // `grep`'s own parser: a spelling it rejects is no region.
            let grep = jash_coreutils::cmds::grep::parse(args).ok()?;
            // `-n` numbers and `-m` counts lines across the whole input,
            // so neither survives a split.
            let class = if grep.line_numbers() || grep.max_count.is_some() {
                ParallelClass::NonParallelizable
            } else if grep.count_only {
                ParallelClass::Parallelizable {
                    agg: Aggregator::SumCounts,
                }
            } else {
                ParallelClass::Stateless
            };
            InstanceSpec {
                class,
                reads_stdin: grep.files.is_empty() || grep.files.iter().any(|&i| args[i] == "-"),
                prefix_only: grep.quiet || grep.max_count.is_some(),
                input_args: grep.files,
                output_files: Vec::new(),
                blocking: false,
            }
        }
        "cut" | "fold" => InstanceSpec::stateless(),
        "sed" => {
            // Only pure per-line scripts are stateless; anything with
            // addresses (line numbers, ranges, `$`), `q`, or hold-space
            // commands is order/position dependent.
            let script = args.iter().find(|a| !a.starts_with('-'))?;
            let simple = script.starts_with("s")
                || script.starts_with("/") && script.ends_with("d");
            let positional = script.chars().next().is_some_and(|c| c.is_ascii_digit())
                || script.contains('$')
                || script.contains('q');
            if simple && !positional {
                InstanceSpec::stateless()
            } else {
                InstanceSpec::non_parallel()
            }
        }
        "sort" => {
            let (opts, operands) =
                jash_coreutils::cmds::sort::SortOptions::parse(args)?;
            let key: SortKeySpec = opts.into();
            InstanceSpec {
                class: ParallelClass::Parallelizable {
                    agg: Aggregator::MergeSort { key },
                },
                reads_stdin: operands.is_empty() || operands.iter().any(|o| o == "-"),
                input_args: file_operands(&["-k", "-t"]),
                output_files: Vec::new(),
                blocking: true,
                prefix_only: false,
            }
        }
        "uniq" => {
            let counted = args.iter().any(|a| a.starts_with('-') && a.contains('c'));
            let selective = args
                .iter()
                .any(|a| a.starts_with('-') && (a.contains('d') || a.contains('u')));
            if selective {
                // -d/-u verdicts at a boundary depend on the neighbor run.
                InstanceSpec::non_parallel()
            } else {
                InstanceSpec {
                    class: ParallelClass::Parallelizable {
                        agg: Aggregator::UniqBoundary { counted },
                    },
                    input_args: file_operands(&[]),
                    ..InstanceSpec::stateless()
                }
            }
        }
        "wc" => InstanceSpec {
            class: ParallelClass::Parallelizable {
                agg: Aggregator::SumCounts,
            },
            input_args: file_operands(&[]),
            blocking: true,
            ..InstanceSpec::stateless()
        },
        "head" => InstanceSpec {
            prefix_only: true,
            input_args: file_operands(&["-n", "-c"]),
            ..InstanceSpec::non_parallel()
        },
        "tail" => InstanceSpec {
            blocking: true,
            input_args: file_operands(&["-n", "-c"]),
            ..InstanceSpec::non_parallel()
        },
        "comm" | "join" => {
            // Two-input relational operators: dataflow nodes, but not
            // splittable without key-range partitioning.
            InstanceSpec {
                input_args: file_operands(&[]),
                ..InstanceSpec::non_parallel()
            }
        }
        "rev" | "nl" => {
            if name == "nl" {
                InstanceSpec {
                    input_args: file_operands(&[]),
                    ..InstanceSpec::non_parallel()
                }
            } else {
                InstanceSpec {
                    input_args: file_operands(&[]),
                    ..InstanceSpec::stateless()
                }
            }
        }
        "tac" | "shuf" | "paste" => InstanceSpec {
            blocking: true,
            input_args: file_operands(&[]),
            ..InstanceSpec::non_parallel()
        },
        "seq" | "echo" | "printf" => InstanceSpec {
            reads_stdin: false,
            ..InstanceSpec::non_parallel()
        },
        "tee" => {
            let (_, files) = split_tee_args(args);
            InstanceSpec {
                class: ParallelClass::Stateless,
                input_args: Vec::new(),
                reads_stdin: true,
                output_files: files,
                blocking: false,
                prefix_only: false,
            }
        }
        "true" | "false" => InstanceSpec {
            reads_stdin: false,
            ..InstanceSpec::non_parallel()
        },
        "rm" | "cp" | "mv" | "ls" | "mkfifo" => InstanceSpec::side_effectful(),
        _ => return None,
    })
}

fn split_tee_args(args: &[String]) -> (bool, Vec<String>) {
    let mut append = false;
    let mut files = Vec::new();
    for a in args {
        if a == "-a" {
            append = true;
        } else if !a.starts_with('-') || a == "-" {
            files.push(a.clone());
        }
    }
    (append, files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cat_is_stateless_with_inputs() {
        let s = resolve_builtin("cat", &args(&["f1", "f2"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        assert_eq!(s.input_args, vec![0, 1]);
        assert!(!s.reads_stdin);
        let s = resolve_builtin("cat", &args(&[])).unwrap();
        assert!(s.reads_stdin);
    }

    #[test]
    fn plain_tr_stateless_squeeze_bordered() {
        let s = resolve_builtin("tr", &args(&["A-Z", "a-z"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        let s = resolve_builtin("tr", &args(&["-cs", "A-Za-z", "\\n"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::SqueezeBoundary { set },
            } => assert_eq!(set, vec![b'\n']),
            other => panic!("{other:?}"),
        }
        // Squeeze without translation: SET1 itself.
        let s = resolve_builtin("tr", &args(&["-s", "l"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::SqueezeBoundary { set },
            } => assert_eq!(set, vec![b'l']),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_gets_merge_aggregator_with_flags() {
        let s = resolve_builtin("sort", &args(&["-rn"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::MergeSort { key },
            } => {
                assert!(key.reverse && key.numeric);
            }
            other => panic!("{other:?}"),
        }
        assert!(s.blocking);
    }

    #[test]
    fn sort_u_unique_in_key() {
        let s = resolve_builtin("sort", &args(&["-u"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::MergeSort { key },
            } => assert!(key.unique),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grep_variants() {
        let s = resolve_builtin("grep", &args(&["-v", "999"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        assert!(s.reads_stdin);
        let s = resolve_builtin("grep", &args(&["-c", "x"])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::SumCounts
            }
        ));
        let s = resolve_builtin("grep", &args(&["-q", "x", "file"])).unwrap();
        assert!(s.prefix_only);
        assert_eq!(s.input_args, vec![2]);
    }

    #[test]
    fn head_is_prefix_only() {
        let s = resolve_builtin("head", &args(&["-n1"])).unwrap();
        assert!(s.prefix_only);
        assert!(!s.class.is_splittable());
    }

    #[test]
    fn separate_option_values_are_not_input_files() {
        for (cmd, joined, split) in [
            ("head", &["-n3", "f"][..], &["-n", "3", "f"][..]),
            ("head", &["-c3", "f"], &["-c", "3", "f"]),
            ("tail", &["-n3", "f"], &["-n", "3", "f"]),
            ("sort", &["-k2", "f"], &["-k", "2", "f"]),
            ("sort", &["-t:", "f"], &["-t", ":", "f"]),
        ] {
            let s = resolve_builtin(cmd, &args(joined)).unwrap();
            assert_eq!(s.input_args, vec![1], "{cmd} {joined:?}");
            let s = resolve_builtin(cmd, &args(split)).unwrap();
            assert_eq!(s.input_args, vec![2], "{cmd} {split:?}");
            // Without a file operand, neither spelling names an input.
            for spelling in [&joined[..1], &split[..2]] {
                let s = resolve_builtin(cmd, &args(spelling)).unwrap();
                assert_eq!(s.input_args, Vec::<usize>::new(), "{cmd} {spelling:?}");
                assert!(s.reads_stdin);
            }
        }
        // After `--` everything is an operand, dashes or not.
        let s = resolve_builtin("head", &args(&["-n", "3", "--", "-n"])).unwrap();
        assert_eq!(s.input_args, vec![3]);
    }

    #[test]
    fn wc_sums() {
        let s = resolve_builtin("wc", &args(&["-l"])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::SumCounts
            }
        ));
    }

    #[test]
    fn uniq_classes() {
        let s = resolve_builtin("uniq", &args(&[])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::UniqBoundary { counted: false }
            }
        ));
        let s = resolve_builtin("uniq", &args(&["-c"])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::UniqBoundary { counted: true }
            }
        ));
        let s = resolve_builtin("uniq", &args(&["-d"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
    }

    #[test]
    fn sed_pure_substitution_is_stateless() {
        let s = resolve_builtin("sed", &args(&["s/a/b/g"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        let s = resolve_builtin("sed", &args(&["2q"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
        let s = resolve_builtin("sed", &args(&["$d"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
    }

    #[test]
    fn tee_declares_output_files() {
        let s = resolve_builtin("tee", &args(&["-a", "log1", "log2"])).unwrap();
        assert_eq!(s.output_files, vec!["log1", "log2"]);
        assert_eq!(s.class, ParallelClass::Stateless);
    }

    #[test]
    fn mutators_are_side_effectful() {
        for cmd in ["rm", "cp", "mv"] {
            let s = resolve_builtin(cmd, &args(&["x"])).unwrap();
            assert_eq!(s.class, ParallelClass::SideEffectful);
        }
    }

    #[test]
    fn unknown_commands_unresolved() {
        assert!(resolve_builtin("frobnicate", &args(&[])).is_none());
    }

    #[test]
    fn comm_is_dataflow_but_not_splittable() {
        let s = resolve_builtin("comm", &args(&["-13", "dict", "-"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
        assert!(s.input_args.contains(&1));
    }
}
