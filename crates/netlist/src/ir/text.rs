//! Deterministic human-readable text format for netlists.
//!
//! The format is line-based and order-preserving, so
//! `text_parse(text_emit(n)) == n` holds exactly (PartialEq identity,
//! not just functional equivalence) and the same netlist always emits
//! byte-identical text:
//!
//! ```text
//! r2d3-netlist v1
//! nets 5
//! inputs 2
//! gate xor n2 n0 n1
//! gate and n3 n2 n0
//! gate or n4 n3 n2
//! output n4
//! redundant n3 0
//! end
//! ```
//!
//! Gate lines list the output net first, then the inputs, in stored
//! (topological) order. `redundant` lines record the
//! constant-by-construction ground truth used by fault preclassify.

use super::{validate, IrError};
use crate::netlist::{Gate, GateKind, NetId, Netlist};
use std::fmt::Write as _;

/// Magic first line of the text format.
const HEADER: &str = "r2d3-netlist v1";

/// Largest `nets` or `inputs` count [`text_parse`] accepts: 2^22 =
/// 4,194,304. Validation and the simulators size per-net state from
/// these counts, whatever gates the file lists, so a larger count is
/// refused as soon as its line is read. A valid netlist has
/// `nets == inputs + gates`; the limit is about 530 times the
/// 7,857-net core-level chain, and a 64 MiB core file has no room to
/// list that many gate lines.
pub const MAX_TEXT_NETS: usize = 1 << 22;

fn kind_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Buf => "buf",
        GateKind::Not => "not",
        GateKind::And => "and",
        GateKind::Or => "or",
        GateKind::Nand => "nand",
        GateKind::Nor => "nor",
        GateKind::Xor => "xor",
        GateKind::Xnor => "xnor",
        GateKind::Mux => "mux",
        GateKind::Const0 => "const0",
        GateKind::Const1 => "const1",
    }
}

fn kind_from_name(name: &str) -> Option<GateKind> {
    Some(match name {
        "buf" => GateKind::Buf,
        "not" => GateKind::Not,
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        "mux" => GateKind::Mux,
        "const0" => GateKind::Const0,
        "const1" => GateKind::Const1,
        _ => return None,
    })
}

/// Emits the netlist in the deterministic text format.
///
/// Same netlist → byte-identical string, on every platform.
#[must_use]
pub fn text_emit(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "nets {}", netlist.num_nets());
    let _ = writeln!(out, "inputs {}", netlist.num_inputs());
    for gate in netlist.gates() {
        let _ = write!(out, "gate {} {}", kind_name(gate.kind), gate.output);
        for input in &gate.inputs {
            let _ = write!(out, " {input}");
        }
        out.push('\n');
    }
    for output in netlist.outputs() {
        let _ = writeln!(out, "output {output}");
    }
    for &(net, value) in netlist.redundant_constants() {
        let _ = writeln!(out, "redundant {} {}", net, u8::from(value));
    }
    out.push_str("end\n");
    out
}

/// Parses the text format back into a netlist and validates it.
///
/// # Errors
///
/// Returns [`IrError::Text`] with a 1-based line number for syntax
/// problems or a `nets` or `inputs` count above [`MAX_TEXT_NETS`], or
/// the structural [`IrError`] from [`validate`] if the parsed netlist
/// violates IR invariants.
pub fn text_parse(text: &str) -> Result<Netlist, IrError> {
    let err = |line: usize, message: String| IrError::Text { line, message };
    let mut lines = text.lines().enumerate();

    let (line_no, first) = lines.next().ok_or_else(|| err(1, "empty input".into()))?;
    if first.trim() != HEADER {
        return Err(err(line_no + 1, format!("expected header `{HEADER}`")));
    }

    let parse_net = |token: &str, line: usize| -> Result<NetId, IrError> {
        let digits = token
            .strip_prefix('n')
            .ok_or_else(|| err(line, format!("expected net id like `n12`, got `{token}`")))?;
        let id: u32 = digits.parse().map_err(|_| err(line, format!("invalid net id `{token}`")))?;
        Ok(NetId(id))
    };

    let mut num_nets: Option<usize> = None;
    let mut num_inputs: Option<usize> = None;
    let mut gates: Vec<Gate> = Vec::new();
    let mut outputs: Vec<NetId> = Vec::new();
    let mut redundant: Vec<(NetId, bool)> = Vec::new();
    let mut saw_end = false;

    for (idx, raw) in lines {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if saw_end {
            return Err(err(line, "content after `end`".into()));
        }
        let mut tokens = trimmed.split_whitespace();
        let keyword = tokens.next().unwrap_or_default();
        match keyword {
            "nets" | "inputs" => {
                let value: usize = tokens
                    .next()
                    .ok_or_else(|| err(line, format!("`{keyword}` needs a count")))?
                    .parse()
                    .map_err(|_| err(line, format!("invalid `{keyword}` count")))?;
                if value > MAX_TEXT_NETS {
                    return Err(err(
                        line,
                        format!("`{keyword}` count {value} is above the limit of {MAX_TEXT_NETS}"),
                    ));
                }
                let slot = if keyword == "nets" { &mut num_nets } else { &mut num_inputs };
                if slot.replace(value).is_some() {
                    return Err(err(line, format!("duplicate `{keyword}` line")));
                }
            }
            "gate" => {
                let kind_token =
                    tokens.next().ok_or_else(|| err(line, "`gate` needs a kind".into()))?;
                let kind = kind_from_name(kind_token)
                    .ok_or_else(|| err(line, format!("unknown gate kind `{kind_token}`")))?;
                let output_token =
                    tokens.next().ok_or_else(|| err(line, "`gate` needs an output net".into()))?;
                let output = parse_net(output_token, line)?;
                let mut inputs = Vec::with_capacity(kind.arity());
                for token in tokens {
                    inputs.push(parse_net(token, line)?);
                }
                // Arity is re-checked structurally by `validate`, but a
                // syntax-level check gives the better (line-numbered) error.
                if inputs.len() != kind.arity() {
                    return Err(err(
                        line,
                        format!(
                            "gate `{kind_token}` expects {} inputs, got {}",
                            kind.arity(),
                            inputs.len()
                        ),
                    ));
                }
                gates.push(Gate { kind, inputs, output });
            }
            "output" => {
                let token =
                    tokens.next().ok_or_else(|| err(line, "`output` needs a net".into()))?;
                outputs.push(parse_net(token, line)?);
            }
            "redundant" => {
                let net_token =
                    tokens.next().ok_or_else(|| err(line, "`redundant` needs a net".into()))?;
                let net = parse_net(net_token, line)?;
                let value = match tokens.next() {
                    Some("0") => false,
                    Some("1") => true,
                    other => {
                        return Err(err(
                            line,
                            format!("`redundant` needs a 0/1 value, got `{}`", other.unwrap_or("")),
                        ))
                    }
                };
                redundant.push((net, value));
            }
            "end" => {
                if tokens.next().is_some() {
                    return Err(err(line, "trailing tokens after `end`".into()));
                }
                saw_end = true;
            }
            other => return Err(err(line, format!("unknown keyword `{other}`"))),
        }
    }
    if !saw_end {
        return Err(err(text.lines().count().max(1), "missing `end` line".into()));
    }
    let num_nets = num_nets.ok_or_else(|| err(1, "missing `nets` line".into()))?;
    let num_inputs = num_inputs.ok_or_else(|| err(1, "missing `inputs` line".into()))?;

    let netlist = Netlist::from_parts(num_nets, num_inputs, gates, outputs, redundant);
    validate(&netlist)?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new();
        let i = b.inputs(3);
        let x = b.xor2(i[0], i[1]);
        let y = b.and2(x, i[2]);
        let m = b.mux2(i[2], x, y);
        b.output(y);
        b.output(m);
        b.finish()
    }

    #[test]
    fn round_trip_is_identity() {
        let nl = sample();
        let text = text_emit(&nl);
        let back = text_parse(&text).unwrap();
        assert_eq!(back, nl);
    }

    #[test]
    fn emission_is_deterministic() {
        let a = text_emit(&sample());
        let b = text_emit(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(matches!(text_parse("bogus v9\nend\n"), Err(IrError::Text { line: 1, .. })));
    }

    #[test]
    fn parse_rejects_unknown_kind() {
        let text = "r2d3-netlist v1\nnets 2\ninputs 1\ngate nandy n1 n0\nend\n";
        assert!(matches!(text_parse(text), Err(IrError::Text { line: 4, .. })));
    }

    #[test]
    fn parse_rejects_wrong_arity() {
        let text = "r2d3-netlist v1\nnets 3\ninputs 2\ngate and n2 n0\nend\n";
        assert!(matches!(text_parse(text), Err(IrError::Text { line: 4, .. })));
    }

    #[test]
    fn parse_surfaces_structural_errors() {
        // Two drivers for n1: syntax is fine, structure is not.
        let text = "r2d3-netlist v1\nnets 2\ninputs 1\n\
                    gate buf n1 n0\ngate not n1 n0\noutput n1\nend\n";
        assert!(matches!(text_parse(text), Err(IrError::MultipleDrivers { net: NetId(1) })));
    }

    #[test]
    fn parse_rejects_missing_end() {
        let text = "r2d3-netlist v1\nnets 1\ninputs 1\noutput n0\n";
        assert!(matches!(text_parse(text), Err(IrError::Text { .. })));
    }

    #[test]
    fn parse_refuses_counts_above_the_limit() {
        // Refused before anything is sized from the count: the parser
        // never allocates for the declared nets.
        let text = "r2d3-netlist v1\nnets 1000000000000000\ninputs 0\nend\n";
        match text_parse(text) {
            Err(IrError::Text { line: 2, message }) => {
                assert!(message.contains("4194304"), "{message}");
            }
            other => panic!("expected a line-2 text error, got {other:?}"),
        }
        let text = format!("r2d3-netlist v1\nnets 1\ninputs {}\nend\n", MAX_TEXT_NETS + 1);
        assert!(matches!(text_parse(&text), Err(IrError::Text { line: 3, .. })));
        // The limit itself is a count the parser accepts.
        let text = format!("r2d3-netlist v1\nnets {MAX_TEXT_NETS}\ninputs 1\nend\n");
        assert!(!matches!(text_parse(&text), Err(IrError::Text { .. })));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "r2d3-netlist v1\n# a comment\nnets 2\n\ninputs 1\n\
                    gate not n1 n0\noutput n1\nend\n";
        let nl = text_parse(text).unwrap();
        assert_eq!(nl.num_gates(), 1);
    }
}
