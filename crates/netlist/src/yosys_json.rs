//! Importer for Yosys' JSON netlist format (`write_json`).
//!
//! The document is read by the workspace's one JSON reader
//! ([`crate::json`]) and fed to a cell mapper that understands the Yosys
//! single-bit cell library (`$_AND_`, `$_NOT_`, `$_MUX_`, …) and the
//! common word-level cells (`$and`, `$not`, `$mux`, `$reduce_*`, …).
//! The result is a validated, topologically numbered [`Netlist`] ready
//! for the fault simulator and the rewrite pipeline.
//!
//! Semantics notes:
//!
//! * Yosys `$_MUX_` / `$mux` compute `Y = S ? B : A`; this crate's
//!   [`GateKind::Mux`] computes `sel ? a : b`, so pins map `S→sel`,
//!   `B→a`, `A→b`.
//! * Constant bits `"0"`/`"1"` become shared `Const0`/`Const1` gates
//!   recorded in the redundancy ground truth; `"x"` (don't-care) is
//!   imported as constant 0.
//! * Only combinational cells are accepted — flops (`$dff`, `$_DFF_*`)
//!   are a typed error, matching the combinational-core scope of the
//!   stage substrate.

use crate::ir;
use crate::json::{self, FieldError, SyntaxError, Value};
use crate::netlist::{Gate, GateKind, NetId, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Errors from parsing or mapping a Yosys JSON netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YosysJsonError {
    /// 1-based line in the JSON text (0 when the problem is structural
    /// rather than syntactic).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for YosysJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "yosys json: {}", self.message)
        } else {
            write!(f, "yosys json line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for YosysJsonError {}

impl From<SyntaxError> for YosysJsonError {
    fn from(e: SyntaxError) -> Self {
        YosysJsonError { line: e.line, message: e.message }
    }
}

impl From<FieldError> for YosysJsonError {
    fn from(e: FieldError) -> Self {
        structural(e.to_string())
    }
}

/// A combinational core imported from Yosys JSON.
#[derive(Debug, Clone)]
pub struct ImportedCore {
    /// Module name in the JSON.
    pub name: String,
    /// The validated netlist (inputs first, gates topologically
    /// ordered and numbered).
    pub netlist: Netlist,
    /// Input ports in declaration order, as `(name, width)`.
    pub input_ports: Vec<(String, usize)>,
    /// Output ports in declaration order, as `(name, width)`.
    pub output_ports: Vec<(String, usize)>,
}

// ---------------------------------------------------------------------------
// Cell mapping.
// ---------------------------------------------------------------------------

/// One resolved connection bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BitRef {
    /// Yosys bit index.
    Wire(u64),
    Const(bool),
}

fn structural(message: impl Into<String>) -> YosysJsonError {
    YosysJsonError { line: 0, message: message.into() }
}

/// The members of `v`'s object `key`, none when the key is absent.
fn members<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], FieldError> {
    match v.opt(key) {
        Some(_) => v.obj(key),
        None => Ok(&[]),
    }
}

fn parse_bit(value: &Value, cell: &str) -> Result<BitRef, YosysJsonError> {
    match value {
        Value::Num(n) => value.as_int().map(BitRef::Wire).ok_or_else(|| {
            structural(format!("cell `{cell}`: connection bit {n} is not an exact integer"))
        }),
        Value::Str(s) => match s.as_str() {
            "0" => Ok(BitRef::Const(false)),
            "1" => Ok(BitRef::Const(true)),
            // Don't-care: any constant is a legal implementation.
            "x" | "z" => Ok(BitRef::Const(false)),
            other => Err(structural(format!("cell `{cell}`: unsupported bit literal `{other}`"))),
        },
        _ => Err(structural(format!("cell `{cell}`: connection bit must be number or string"))),
    }
}

struct CellConn {
    name: String,
    kind: String,
    /// Port name → resolved bits, in JSON order.
    ports: Vec<(String, Vec<BitRef>)>,
}

impl CellConn {
    fn port(&self, name: &str) -> Result<&[BitRef], YosysJsonError> {
        self.ports.iter().find(|(p, _)| p == name).map(|(_, bits)| bits.as_slice()).ok_or_else(
            || structural(format!("cell `{}` ({}): missing port `{name}`", self.name, self.kind)),
        )
    }

    fn single(&self, name: &str) -> Result<BitRef, YosysJsonError> {
        let bits = self.port(name)?;
        if bits.len() != 1 {
            return Err(structural(format!(
                "cell `{}` ({}): port `{name}` must be 1 bit wide, is {}",
                self.name,
                self.kind,
                bits.len()
            )));
        }
        Ok(bits[0])
    }
}

/// Builder that allocates nets in emission order, which keeps the gate
/// list topologically ordered *and* numbered (every output above its
/// inputs — the fault simulator's packing invariant).
struct CoreBuilder {
    next_net: u32,
    gates: Vec<Gate>,
    redundant: Vec<(NetId, bool)>,
    const_nets: [Option<NetId>; 2],
    bit_nets: HashMap<u64, NetId>,
}

impl CoreBuilder {
    fn alloc(&mut self) -> NetId {
        let net = NetId(self.next_net);
        self.next_net += 1;
        net
    }

    fn const_net(&mut self, value: bool) -> NetId {
        if let Some(net) = self.const_nets[usize::from(value)] {
            return net;
        }
        let net = self.alloc();
        let kind = if value { GateKind::Const1 } else { GateKind::Const0 };
        self.gates.push(Gate { kind, inputs: vec![], output: net });
        self.redundant.push((net, value));
        self.const_nets[usize::from(value)] = Some(net);
        net
    }

    fn bit(&mut self, bit: BitRef, cell: &str) -> Result<NetId, YosysJsonError> {
        match bit {
            BitRef::Const(v) => Ok(self.const_net(v)),
            BitRef::Wire(w) => self.bit_nets.get(&w).copied().ok_or_else(|| {
                structural(format!("cell `{cell}`: bit {w} has no driver and is not an input"))
            }),
        }
    }

    fn emit(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let out = self.alloc();
        self.gates.push(Gate { kind, inputs, output: out });
        out
    }

    fn define(&mut self, bit: u64, net: NetId, cell: &str) -> Result<(), YosysJsonError> {
        if self.bit_nets.insert(bit, net).is_some() {
            return Err(structural(format!("cell `{cell}`: bit {bit} driven more than once")));
        }
        Ok(())
    }
}

/// Maps one cell into gates. `CoreBuilder::bit` resolves reads;
/// produced bits are registered via `define`.
fn emit_cell(builder: &mut CoreBuilder, cell: &CellConn) -> Result<(), YosysJsonError> {
    let name = cell.name.as_str();
    let unary = |kind: GateKind| -> Result<(Vec<BitRef>, Vec<BitRef>, GateKind), YosysJsonError> {
        Ok((cell.port("A")?.to_vec(), cell.port("Y")?.to_vec(), kind))
    };
    match cell.kind.as_str() {
        // Single-bit gate library.
        "$_BUF_" | "$_NOT_" => {
            let kind = if cell.kind == "$_BUF_" { GateKind::Buf } else { GateKind::Not };
            let a = builder.bit(cell.single("A")?, name)?;
            let out = builder.emit(kind, vec![a]);
            bind_output(builder, cell.single("Y")?, out, name)?;
        }
        "$_AND_" | "$_OR_" | "$_XOR_" | "$_XNOR_" | "$_NAND_" | "$_NOR_" => {
            let kind = match cell.kind.as_str() {
                "$_AND_" => GateKind::And,
                "$_OR_" => GateKind::Or,
                "$_XOR_" => GateKind::Xor,
                "$_XNOR_" => GateKind::Xnor,
                "$_NAND_" => GateKind::Nand,
                _ => GateKind::Nor,
            };
            let a = builder.bit(cell.single("A")?, name)?;
            let b = builder.bit(cell.single("B")?, name)?;
            let out = builder.emit(kind, vec![a, b]);
            bind_output(builder, cell.single("Y")?, out, name)?;
        }
        "$_MUX_" => {
            // Yosys: Y = S ? B : A. Ours: Mux(sel, a, b) = sel ? a : b.
            let s = builder.bit(cell.single("S")?, name)?;
            let a = builder.bit(cell.single("A")?, name)?;
            let b = builder.bit(cell.single("B")?, name)?;
            let out = builder.emit(GateKind::Mux, vec![s, b, a]);
            bind_output(builder, cell.single("Y")?, out, name)?;
        }
        // Word-level cells, mapped bitwise with zero extension.
        "$buf" | "$not" => {
            let (a, y, kind) =
                unary(if cell.kind == "$buf" { GateKind::Buf } else { GateKind::Not })?;
            for (i, &ybit) in y.iter().enumerate() {
                let abit = a.get(i).copied().unwrap_or(BitRef::Const(false));
                let an = builder.bit(abit, name)?;
                let out = builder.emit(kind, vec![an]);
                bind_output(builder, ybit, out, name)?;
            }
        }
        "$and" | "$or" | "$xor" | "$xnor" => {
            let kind = match cell.kind.as_str() {
                "$and" => GateKind::And,
                "$or" => GateKind::Or,
                "$xor" => GateKind::Xor,
                _ => GateKind::Xnor,
            };
            let a = cell.port("A")?.to_vec();
            let b = cell.port("B")?.to_vec();
            let y = cell.port("Y")?.to_vec();
            for (i, &ybit) in y.iter().enumerate() {
                let abit = a.get(i).copied().unwrap_or(BitRef::Const(false));
                let bbit = b.get(i).copied().unwrap_or(BitRef::Const(false));
                let an = builder.bit(abit, name)?;
                let bn = builder.bit(bbit, name)?;
                let out = builder.emit(kind, vec![an, bn]);
                bind_output(builder, ybit, out, name)?;
            }
        }
        "$mux" => {
            let s = builder.bit(cell.single("S")?, name)?;
            let a = cell.port("A")?.to_vec();
            let b = cell.port("B")?.to_vec();
            let y = cell.port("Y")?.to_vec();
            for (i, &ybit) in y.iter().enumerate() {
                let abit = a.get(i).copied().unwrap_or(BitRef::Const(false));
                let bbit = b.get(i).copied().unwrap_or(BitRef::Const(false));
                let an = builder.bit(abit, name)?;
                let bn = builder.bit(bbit, name)?;
                // Y = S ? B : A
                let out = builder.emit(GateKind::Mux, vec![s, bn, an]);
                bind_output(builder, ybit, out, name)?;
            }
        }
        "$reduce_and" | "$reduce_or" | "$reduce_xor" | "$reduce_bool" => {
            let kind = match cell.kind.as_str() {
                "$reduce_and" => GateKind::And,
                "$reduce_xor" => GateKind::Xor,
                _ => GateKind::Or,
            };
            let a = cell.port("A")?.to_vec();
            let y = cell.port("Y")?.to_vec();
            let mut acc = builder.bit(a.first().copied().unwrap_or(BitRef::Const(false)), name)?;
            for &abit in a.iter().skip(1) {
                let an = builder.bit(abit, name)?;
                acc = builder.emit(kind, vec![acc, an]);
            }
            // Single-bit reduction result; upper Y bits are zero.
            let first = *y.first().ok_or_else(|| {
                structural(format!("cell `{name}` ({}): empty Y port", cell.kind))
            })?;
            // Reductions of a single wire still need a gate so the Y bit
            // has a driver of its own.
            if a.len() <= 1 {
                acc = builder.emit(GateKind::Buf, vec![acc]);
            }
            bind_output(builder, first, acc, name)?;
            for &ybit in y.iter().skip(1) {
                let zero = builder.const_net(false);
                let out = builder.emit(GateKind::Buf, vec![zero]);
                bind_output(builder, ybit, out, name)?;
            }
        }
        other if other.starts_with("$_DFF") || other.starts_with("$dff") || other == "$ff" => {
            return Err(structural(format!(
                "cell `{name}`: sequential cell `{other}` — only combinational cores import"
            )));
        }
        other => {
            return Err(structural(format!("cell `{name}`: unsupported cell type `{other}`")));
        }
    }
    Ok(())
}

fn bind_output(
    builder: &mut CoreBuilder,
    ybit: BitRef,
    net: NetId,
    cell: &str,
) -> Result<(), YosysJsonError> {
    match ybit {
        BitRef::Wire(w) => builder.define(w, net, cell),
        BitRef::Const(_) => {
            Err(structural(format!("cell `{cell}`: output pin tied to a constant")))
        }
    }
}

/// Which wire bits a cell drives (its Y port), used for dependency
/// ordering before emission.
fn driven_bits(cell: &CellConn) -> Vec<u64> {
    cell.ports
        .iter()
        .filter(|(p, _)| p == "Y")
        .flat_map(|(_, bits)| bits.iter())
        .filter_map(|b| match b {
            BitRef::Wire(w) => Some(*w),
            BitRef::Const(_) => None,
        })
        .collect()
}

fn read_bits(cell: &CellConn) -> Vec<u64> {
    cell.ports
        .iter()
        .filter(|(p, _)| p != "Y")
        .flat_map(|(_, bits)| bits.iter())
        .filter_map(|b| match b {
            BitRef::Wire(w) => Some(*w),
            BitRef::Const(_) => None,
        })
        .collect()
}

/// Parses Yosys `write_json` output into a validated combinational
/// netlist.
///
/// `top` selects the module to import; with `None` the JSON must
/// contain exactly one module. Input ports become primary inputs in
/// declaration order (bit 0 of the first port is net 0), cells are
/// topologically sorted and mapped to gates, and output ports become
/// primary outputs. The result always passes [`ir::validate`].
///
/// # Errors
///
/// Returns a [`YosysJsonError`] for JSON syntax problems (with line
/// numbers), unsupported or sequential cells, undriven or
/// multiply-driven bits, combinational cycles, and any residual
/// structural violation found by the IR validator.
pub fn parse_yosys_json(text: &str, top: Option<&str>) -> Result<ImportedCore, YosysJsonError> {
    let root = json::parse(text)?;
    let modules = root.obj("modules")?;
    let (module_name, module) = match top {
        Some(name) => modules
            .iter()
            .find(|(k, _)| k == name)
            .ok_or_else(|| structural(format!("module `{name}` not found")))?,
        None => {
            if modules.len() != 1 {
                let names: Vec<&str> = modules.iter().map(|(k, _)| k.as_str()).collect();
                return Err(structural(format!(
                    "JSON has {} modules ({}); pick one with --top",
                    modules.len(),
                    names.join(", ")
                )));
            }
            &modules[0]
        }
    };

    // Ports, in declaration order.
    let mut input_ports: Vec<(String, usize)> = Vec::new();
    let mut output_ports: Vec<(String, usize)> = Vec::new();
    let mut input_bits: Vec<u64> = Vec::new();
    let mut output_bits: Vec<Vec<BitRef>> = Vec::new();
    for (port_name, port) in members(module, "ports")? {
        let in_port = |e: FieldError| structural(format!("port `{port_name}`: {e}"));
        let direction = port.str("direction").map_err(in_port)?;
        let bits = port.arr("bits").map_err(in_port)?;
        let resolved: Vec<BitRef> =
            bits.iter().map(|b| parse_bit(b, port_name)).collect::<Result<_, _>>()?;
        match direction {
            "input" => {
                input_ports.push((port_name.clone(), resolved.len()));
                for bit in resolved {
                    match bit {
                        BitRef::Wire(w) => input_bits.push(w),
                        BitRef::Const(_) => {
                            return Err(structural(format!(
                                "port `{port_name}`: input bit tied to a constant"
                            )))
                        }
                    }
                }
            }
            "output" => {
                output_ports.push((port_name.clone(), resolved.len()));
                output_bits.push(resolved);
            }
            "inout" => {
                return Err(structural(format!("port `{port_name}`: inout ports unsupported")))
            }
            other => {
                return Err(structural(format!("port `{port_name}`: unknown direction `{other}`")))
            }
        }
    }

    // Cells, resolved but not yet ordered.
    let cells_json = members(module, "cells")?;
    let mut cells: Vec<CellConn> = Vec::with_capacity(cells_json.len());
    for (cell_name, cell) in cells_json {
        let in_cell = |e: FieldError| structural(format!("cell `{cell_name}`: {e}"));
        let kind = cell.str("type").map_err(in_cell)?.to_string();
        let connections = members(cell, "connections").map_err(in_cell)?;
        let mut ports: Vec<(String, Vec<BitRef>)> = Vec::with_capacity(connections.len());
        for (port_name, bits) in connections {
            let Value::Arr(bits) = bits else {
                return Err(in_cell(FieldError::invalid(port_name, "must be an array")));
            };
            let resolved: Vec<BitRef> =
                bits.iter().map(|b| parse_bit(b, cell_name)).collect::<Result<_, _>>()?;
            ports.push((port_name.clone(), resolved));
        }
        cells.push(CellConn { name: cell_name.clone(), kind, ports });
    }

    // Kahn over cell→cell dependencies; deterministic (declaration
    // order seeds and FIFO processing).
    let mut bit_driver: HashMap<u64, u32> = HashMap::new();
    for (ci, cell) in cells.iter().enumerate() {
        for bit in driven_bits(cell) {
            if input_bits.contains(&bit) {
                return Err(structural(format!("cell `{}`: drives input bit {bit}", cell.name)));
            }
            if bit_driver.insert(bit, ci as u32).is_some() {
                return Err(structural(format!(
                    "cell `{}`: bit {bit} driven more than once",
                    cell.name
                )));
            }
        }
    }
    let mut pending: Vec<u32> = vec![0; cells.len()];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); cells.len()];
    for (ci, cell) in cells.iter().enumerate() {
        for bit in read_bits(cell) {
            if let Some(&driver) = bit_driver.get(&bit) {
                pending[ci] += 1;
                readers[driver as usize].push(ci as u32);
            }
        }
    }
    let mut queue: Vec<u32> =
        (0..cells.len() as u32).filter(|&ci| pending[ci as usize] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(cells.len());
    let mut head = 0;
    while head < queue.len() {
        let ci = queue[head] as usize;
        head += 1;
        order.push(ci);
        for &reader in &readers[ci] {
            pending[reader as usize] -= 1;
            if pending[reader as usize] == 0 {
                queue.push(reader);
            }
        }
    }
    if order.len() != cells.len() {
        let stuck = cells
            .iter()
            .enumerate()
            .find(|(ci, _)| pending[*ci] > 0)
            .map(|(_, c)| c.name.clone())
            .unwrap_or_default();
        return Err(structural(format!("combinational cycle through cell `{stuck}`")));
    }

    // Emission: inputs first, then cells in topological order.
    let mut builder = CoreBuilder {
        next_net: 0,
        gates: Vec::new(),
        redundant: Vec::new(),
        const_nets: [None, None],
        bit_nets: HashMap::with_capacity(input_bits.len() + cells.len()),
    };
    for &bit in &input_bits {
        let net = builder.alloc();
        if builder.bit_nets.insert(bit, net).is_some() {
            return Err(structural(format!("input bit {bit} appears in two ports")));
        }
    }
    let num_inputs = builder.next_net as usize;
    for &ci in &order {
        emit_cell(&mut builder, &cells[ci])?;
    }
    let mut outputs: Vec<NetId> = Vec::new();
    for bits in &output_bits {
        for &bit in bits {
            let net = builder.bit(bit, "<output port>")?;
            outputs.push(net);
        }
    }

    let netlist = Netlist::from_parts(
        builder.next_net as usize,
        num_inputs,
        builder.gates,
        outputs,
        builder.redundant,
    );
    ir::validate(&netlist)
        .map_err(|e| structural(format!("imported netlist failed validation: {e}")))?;
    Ok(ImportedCore { name: module_name.clone(), netlist, input_ports, output_ports })
}

#[cfg(test)]
use crate::json::MAX_DEPTH;

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"{
      "creator": "Yosys test fixture",
      "modules": {
        "adder1": {
          "ports": {
            "a": { "direction": "input", "bits": [2] },
            "b": { "direction": "input", "bits": [3] },
            "cin": { "direction": "input", "bits": [4] },
            "sum": { "direction": "output", "bits": [5] },
            "cout": { "direction": "output", "bits": [6] }
          },
          "cells": {
            "x1": { "type": "$_XOR_", "connections": { "A": [2], "B": [3], "Y": [7] } },
            "s":  { "type": "$_XOR_", "connections": { "A": [7], "B": [4], "Y": [5] } },
            "a1": { "type": "$_AND_", "connections": { "A": [2], "B": [3], "Y": [8] } },
            "a2": { "type": "$_AND_", "connections": { "A": [7], "B": [4], "Y": [9] } },
            "c":  { "type": "$_OR_",  "connections": { "A": [8], "B": [9], "Y": [6] } }
          }
        }
      }
    }"#;

    #[test]
    fn imports_full_adder() {
        let core = parse_yosys_json(SMALL, None).unwrap();
        assert_eq!(core.name, "adder1");
        assert_eq!(core.netlist.num_inputs(), 3);
        assert_eq!(core.netlist.outputs().len(), 2);
        assert_eq!(core.netlist.num_gates(), 5);
        // Exhaustive check against the full-adder truth table.
        let a = 0b11110000u64;
        let b = 0b11001100u64;
        let cin = 0b10101010u64;
        let out = core.netlist.eval(&[a, b, cin]);
        let sum = a ^ b ^ cin;
        let cout = (a & b) | ((a ^ b) & cin);
        assert_eq!(out[0] & 0xff, sum & 0xff);
        assert_eq!(out[1] & 0xff, cout & 0xff);
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        let err = parse_yosys_json(&"[".repeat(1_000_000), None).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nesting deeper than 64"), "{err}");
        // A document nested within the cap still parses (and then fails
        // to map, because it is not a netlist).
        let within = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(!parse_yosys_json(&within, None).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn cells_out_of_order_are_sorted() {
        // Same adder with cells listed in reverse dependency order.
        let scrambled = r#"{
          "modules": { "m": {
            "ports": {
              "a": { "direction": "input", "bits": [2] },
              "b": { "direction": "input", "bits": [3] },
              "y": { "direction": "output", "bits": [4] }
            },
            "cells": {
              "second": { "type": "$_NOT_", "connections": { "A": [5], "Y": [4] } },
              "first":  { "type": "$_AND_", "connections": { "A": [2], "B": [3], "Y": [5] } }
            }
          } }
        }"#;
        let core = parse_yosys_json(scrambled, None).unwrap();
        let out = core.netlist.eval(&[0b1100, 0b1010]);
        assert_eq!(out[0] & 0xf, !(0b1100u64 & 0b1010) & 0xf, "nand via and+not");
    }

    #[test]
    fn mux_pin_order_follows_yosys_semantics() {
        // Y = S ? B : A.
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "s": { "direction": "input", "bits": [2] },
              "a": { "direction": "input", "bits": [3] },
              "b": { "direction": "input", "bits": [4] },
              "y": { "direction": "output", "bits": [5] }
            },
            "cells": {
              "m0": { "type": "$_MUX_", "connections": { "S": [2], "A": [3], "B": [4], "Y": [5] } }
            }
          } }
        }"#;
        let core = parse_yosys_json(text, None).unwrap();
        let s = 0b10u64;
        let a = 0b01u64;
        let b = 0b10u64;
        let out = core.netlist.eval(&[s, a, b]);
        // lane0: s=0 -> A=1; lane1: s=1 -> B=1.
        assert_eq!(out[0] & 0b11, 0b11);
    }

    #[test]
    fn constant_bits_become_redundant_consts() {
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "a": { "direction": "input", "bits": [2] },
              "y": { "direction": "output", "bits": [3] }
            },
            "cells": {
              "g": { "type": "$_AND_", "connections": { "A": [2], "B": ["1"], "Y": [3] } }
            }
          } }
        }"#;
        let core = parse_yosys_json(text, None).unwrap();
        assert_eq!(core.netlist.redundant_constants().len(), 1);
        let out = core.netlist.eval(&[0b10]);
        assert_eq!(out[0] & 0b11, 0b10);
    }

    #[test]
    fn word_level_cells_map_bitwise() {
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "a": { "direction": "input", "bits": [2, 3] },
              "b": { "direction": "input", "bits": [4, 5] },
              "y": { "direction": "output", "bits": [6, 7] },
              "r": { "direction": "output", "bits": [8] }
            },
            "cells": {
              "w": { "type": "$xor", "connections": { "A": [2, 3], "B": [4, 5], "Y": [6, 7] } },
              "red": { "type": "$reduce_or", "connections": { "A": [6, 7], "Y": [8] } }
            }
          } }
        }"#;
        let core = parse_yosys_json(text, None).unwrap();
        let out = core.netlist.eval(&[0b1100, 0b1010, 0b0110, 0b0101]);
        assert_eq!(out[0] & 0xf, (0b1100 ^ 0b0110) & 0xf);
        assert_eq!(out[1] & 0xf, (0b1010 ^ 0b0101) & 0xf);
        assert_eq!(out[2] & 0xf, ((0b1100 ^ 0b0110) | (0b1010 ^ 0b0101)) & 0xf);
    }

    #[test]
    fn rejects_multiple_drivers() {
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "a": { "direction": "input", "bits": [2] },
              "y": { "direction": "output", "bits": [3] }
            },
            "cells": {
              "g1": { "type": "$_NOT_", "connections": { "A": [2], "Y": [3] } },
              "g2": { "type": "$_BUF_", "connections": { "A": [2], "Y": [3] } }
            }
          } }
        }"#;
        let err = parse_yosys_json(text, None).unwrap_err();
        assert!(err.message.contains("driven more than once"), "{err}");
    }

    #[test]
    fn rejects_cycle() {
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "a": { "direction": "input", "bits": [2] },
              "y": { "direction": "output", "bits": [3] }
            },
            "cells": {
              "g1": { "type": "$_AND_", "connections": { "A": [2], "B": [4], "Y": [3] } },
              "g2": { "type": "$_BUF_", "connections": { "A": [3], "Y": [4] } }
            }
          } }
        }"#;
        let err = parse_yosys_json(text, None).unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn rejects_sequential_cells() {
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "clk": { "direction": "input", "bits": [2] },
              "d": { "direction": "input", "bits": [3] },
              "q": { "direction": "output", "bits": [4] }
            },
            "cells": {
              "ff": { "type": "$_DFF_P_", "connections": { "C": [2], "D": [3], "Q": [4] } }
            }
          } }
        }"#;
        let err = parse_yosys_json(text, None).unwrap_err();
        assert!(err.message.contains("combinational"), "{err}");
    }

    #[test]
    fn rejects_undriven_bit() {
        let text = r#"{
          "modules": { "m": {
            "ports": {
              "a": { "direction": "input", "bits": [2] },
              "y": { "direction": "output", "bits": [3] }
            },
            "cells": {
              "g": { "type": "$_AND_", "connections": { "A": [2], "B": [9], "Y": [3] } }
            }
          } }
        }"#;
        let err = parse_yosys_json(text, None).unwrap_err();
        assert!(err.message.contains("no driver"), "{err}");
    }

    #[test]
    fn json_syntax_errors_carry_line_numbers() {
        let err = parse_yosys_json("{\n  \"modules\": {\n  oops\n", None).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn trailing_text_is_a_syntax_error() {
        let err = parse_yosys_json(&format!("{SMALL}\n}}"), None).unwrap_err();
        assert_eq!(err.line, SMALL.lines().count() + 1, "{err}");
    }

    #[test]
    fn fractional_or_negative_bits_name_the_cell() {
        for bit in ["2.7", "-1"] {
            let text = format!(
                r#"{{ "modules": {{ "m": {{
                  "ports": {{ "a": {{ "direction": "input", "bits": [2] }},
                             "y": {{ "direction": "output", "bits": [3] }} }},
                  "cells": {{ "g": {{ "type": "$_NOT_", "connections": {{ "A": [{bit}], "Y": [3] }} }} }}
                }} }} }}"#
            );
            let err = parse_yosys_json(&text, None).unwrap_err();
            assert_eq!(err.line, 0, "{err}");
            assert!(err.message.contains("cell `g`") && err.message.contains(bit), "{err}");
        }
    }

    #[test]
    fn top_selects_among_modules() {
        let text = r#"{
          "modules": {
            "m1": { "ports": { "a": { "direction": "input", "bits": [2] },
                                "y": { "direction": "output", "bits": [3] } },
                    "cells": { "g": { "type": "$_NOT_", "connections": { "A": [2], "Y": [3] } } } },
            "m2": { "ports": { "a": { "direction": "input", "bits": [2] },
                                "y": { "direction": "output", "bits": [3] } },
                    "cells": { "g": { "type": "$_BUF_", "connections": { "A": [2], "Y": [3] } } } }
          }
        }"#;
        assert!(parse_yosys_json(text, None).is_err(), "ambiguous without --top");
        let core = parse_yosys_json(text, Some("m2")).unwrap();
        assert_eq!(core.name, "m2");
        assert_eq!(core.netlist.gates()[0].kind, GateKind::Buf);
    }

    #[test]
    fn imported_core_survives_rewrite() {
        let core = parse_yosys_json(SMALL, None).unwrap();
        let out = crate::ir::rewrite(&core.netlist).unwrap();
        let a = 0b11110000u64;
        let b = 0b11001100u64;
        let cin = 0b10101010u64;
        assert_eq!(core.netlist.eval(&[a, b, cin]), out.netlist.eval(&[a, b, cin]));
    }
}
