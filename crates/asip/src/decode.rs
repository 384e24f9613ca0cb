//! The decode stage: structured MIR → flat pre-resolved instruction
//! streams, the input of the native engine's fusion pass (`fuse.rs`).
//!
//! The tree-walking executor re-dispatches on nested `Stmt` enums and
//! re-derives control flow (loop trip counts, break/continue propagation
//! through `Flow` values) on every visit. Decoding flattens each
//! [`MirFunction`] once into a flat `Vec<DInst>` where all control flow is
//! explicit instruction offsets: `If` becomes a conditional branch with a
//! pre-resolved `if_false` target, `For`/`While` become a setup instruction
//! plus a back-edge, and `break`/`continue`/`return` become direct jumps.
//! Destination scalar-ness (`scalar_dst`) is pre-computed from the
//! function's type table so the hot loop never consults it. Nothing
//! executes a `DInst` directly: `fuse.rs` compiles each stream into the
//! native engine's step table.
//!
//! The decoded form is execution-equivalent to the tree walk *by
//! construction*: every instruction charges the same cycles and burns the
//! same fuel in the same order as `Exec::exec_stmt` would (the engine
//! differential test pins the native engine built from it against the tree
//! walker across the whole benchmark suite). One deliberate divergence
//! between the tree walker and the native engine: a `break`/`continue`
//! nested inside a `While` condition block (`cond_defs`) targets the
//! enclosing loop here, and so in the native engine fused from it, whereas
//! the tree walker silently discards that flow. MIR lowering never emits
//! control flow inside `cond_defs`, so the case is unreachable from real
//! programs.

use matic_frontend::span::Span;
use matic_mir::{Index, MirFunction, MirProgram, Operand, Rvalue, Stmt, VarId, VectorOp};
use std::collections::HashMap;

/// One pre-decoded instruction. Payload-bearing variants reuse the MIR
/// `Rvalue`/`Operand` types directly (they are already flat data); control
/// variants carry resolved instruction offsets into the owning function's
/// code stream.
#[derive(Debug, Clone, PartialEq)]
pub enum DInst {
    /// `dst = rv`, with the destination's register representation
    /// (scalar vs. array) pre-resolved from the type table.
    Def {
        dst: VarId,
        scalar_dst: bool,
        rv: Rvalue,
        span: Span,
    },
    /// Indexed store into an array variable.
    Store {
        array: VarId,
        indices: Vec<Index>,
        value: Operand,
        span: Span,
    },
    /// Multi-output call (user function or multi-output builtin).
    CallMulti {
        dsts: Vec<Option<VarId>>,
        func: String,
        args: Vec<Operand>,
        user: bool,
        span: Span,
    },
    /// Side effect (`disp`, `fprintf`, `error`, …).
    Effect {
        name: String,
        args: Vec<Operand>,
        span: Span,
    },
    /// Recognized data-parallel operation.
    VectorOp(VectorOp),
    /// Conditional branch: falls through when `cond` is truthy, else jumps
    /// to `if_false`. `burn` is set for `If` statements (which consume fuel
    /// at statement entry); a `While` condition test does not (its fuel is
    /// burned by [`DInst::WhileIter`]). `exit_loop` marks a `While` test,
    /// whose false edge also pops the loop frame.
    Branch {
        cond: Operand,
        if_false: u32,
        burn: bool,
        exit_loop: bool,
        span: Span,
    },
    /// Unconditional jump (loop back-edges, if/else joins). Free at
    /// runtime: the tree walker has no corresponding charge.
    Jump { target: u32, span: Span },
    /// `For` loop entry: evaluates bounds, computes the trip count and
    /// pushes a loop frame. The next instruction is the [`DInst::ForNext`]
    /// heading the loop.
    ForSetup {
        var: VarId,
        start: Operand,
        step: Operand,
        stop: Operand,
        span: Span,
    },
    /// `For` loop head: either starts the next iteration (burn fuel,
    /// charge induction-update + branch, set the loop variable) or pops
    /// the frame and jumps to `end`.
    ForNext { end: u32, span: Span },
    /// `While` loop entry: burns statement-entry fuel and pushes a frame.
    WhileEnter { span: Span },
    /// `While` iteration head: burns per-iteration fuel before the
    /// condition block runs.
    WhileIter { span: Span },
    /// `break`: pops the innermost loop frame and jumps past the loop.
    Break { target: u32, span: Span },
    /// `continue`: jumps to the innermost loop's iteration head.
    Continue { target: u32, span: Span },
    /// `return` (also `break`/`continue` outside any loop, which end the
    /// function in the tree walker).
    Return { span: Span },
}

impl DInst {
    /// The source span the instruction was decoded from. Control
    /// instructions inherit the span of their originating statement (an
    /// `if`/`for`/`while` header, or the `break`/`continue`/`return`
    /// itself); synthesized joins and back-edges use the enclosing
    /// construct's header span.
    pub fn span(&self) -> Span {
        match self {
            DInst::Def { span, .. }
            | DInst::Store { span, .. }
            | DInst::CallMulti { span, .. }
            | DInst::Effect { span, .. }
            | DInst::Branch { span, .. }
            | DInst::Jump { span, .. }
            | DInst::ForSetup { span, .. }
            | DInst::ForNext { span, .. }
            | DInst::WhileEnter { span }
            | DInst::WhileIter { span }
            | DInst::Break { span, .. }
            | DInst::Continue { span, .. }
            | DInst::Return { span } => *span,
            DInst::VectorOp(vop) => vop.span,
        }
    }
}

/// One function's decoded instruction stream, parallel to
/// `MirProgram::functions` by index.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    pub code: Vec<DInst>,
}

/// A whole program decoded into flat instruction streams.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    /// Decoded bodies, index-parallel to the MIR function list.
    pub funcs: Vec<DecodedFunction>,
    index: HashMap<String, usize>,
}

impl DecodedProgram {
    /// Index of a function by name (for call dispatch and entry lookup).
    pub fn func_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// Decodes every function of `mir`. Pure translation — no execution, no
/// cost model involvement (costs are resolved by the machine's flat cost
/// table at execution time).
pub fn decode_program(mir: &MirProgram) -> DecodedProgram {
    let index = mir
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    let funcs = mir.functions.iter().map(decode_function).collect();
    DecodedProgram { funcs, index }
}

fn decode_function(f: &MirFunction) -> DecodedFunction {
    let mut d = FnDecoder {
        f,
        code: Vec::with_capacity(f.stmt_count()),
        loops: Vec::new(),
    };
    d.emit_block(&f.body);
    debug_assert!(d.loops.is_empty());
    DecodedFunction { code: d.code }
}

/// Loop context during decoding: where `continue` goes, and which emitted
/// instructions need their loop-exit target patched once it is known.
struct LoopCtx {
    continue_pc: u32,
    exit_fixups: Vec<usize>,
}

struct FnDecoder<'a> {
    f: &'a MirFunction,
    code: Vec<DInst>,
    loops: Vec<LoopCtx>,
}

impl FnDecoder<'_> {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn emit_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.emit_stmt(s);
        }
    }

    fn emit_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Def { dst, rv, span } => {
                self.code.push(DInst::Def {
                    dst: *dst,
                    scalar_dst: self.f.var_ty(*dst).shape.is_scalar(),
                    rv: rv.clone(),
                    span: *span,
                });
            }
            Stmt::Store {
                array,
                indices,
                value,
                span,
            } => {
                self.code.push(DInst::Store {
                    array: *array,
                    indices: indices.clone(),
                    value: *value,
                    span: *span,
                });
            }
            Stmt::CallMulti {
                dsts,
                func,
                args,
                user,
                span,
            } => {
                self.code.push(DInst::CallMulti {
                    dsts: dsts.clone(),
                    func: func.clone(),
                    args: args.clone(),
                    user: *user,
                    span: *span,
                });
            }
            Stmt::Effect { name, args, span } => {
                self.code.push(DInst::Effect {
                    name: name.clone(),
                    args: args.clone(),
                    span: *span,
                });
            }
            Stmt::VectorOp(vop) => self.code.push(DInst::VectorOp(vop.clone())),
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let branch_at = self.code.len();
                self.code.push(DInst::Branch {
                    cond: *cond,
                    if_false: 0,
                    burn: true,
                    exit_loop: false,
                    span: *span,
                });
                self.emit_block(then_body);
                if else_body.is_empty() {
                    let join = self.pc();
                    self.patch_branch(branch_at, join);
                } else {
                    let jump_at = self.code.len();
                    self.code.push(DInst::Jump {
                        target: 0,
                        span: *span,
                    });
                    let else_start = self.pc();
                    self.patch_branch(branch_at, else_start);
                    self.emit_block(else_body);
                    let join = self.pc();
                    self.code[jump_at] = DInst::Jump {
                        target: join,
                        span: *span,
                    };
                }
            }
            Stmt::For {
                var,
                start,
                step,
                stop,
                body,
                span,
            } => {
                self.code.push(DInst::ForSetup {
                    var: *var,
                    start: *start,
                    step: *step,
                    stop: *stop,
                    span: *span,
                });
                let head = self.pc();
                let for_next_at = self.code.len();
                self.code.push(DInst::ForNext {
                    end: 0,
                    span: *span,
                });
                self.loops.push(LoopCtx {
                    continue_pc: head,
                    exit_fixups: vec![for_next_at],
                });
                self.emit_block(body);
                self.code.push(DInst::Jump {
                    target: head,
                    span: *span,
                });
                self.finish_loop();
            }
            Stmt::While {
                cond_defs,
                cond,
                body,
                span,
            } => {
                self.code.push(DInst::WhileEnter { span: *span });
                let head = self.pc();
                self.code.push(DInst::WhileIter { span: *span });
                self.loops.push(LoopCtx {
                    continue_pc: head,
                    exit_fixups: Vec::new(),
                });
                self.emit_block(cond_defs);
                let test_at = self.code.len();
                self.code.push(DInst::Branch {
                    cond: *cond,
                    if_false: 0,
                    burn: false,
                    exit_loop: true,
                    span: *span,
                });
                self.loops
                    .last_mut()
                    .expect("while ctx on stack")
                    .exit_fixups
                    .push(test_at);
                self.emit_block(body);
                self.code.push(DInst::Jump {
                    target: head,
                    span: *span,
                });
                self.finish_loop();
            }
            Stmt::Break(span) => match self.loops.last_mut() {
                Some(ctx) => {
                    ctx.exit_fixups.push(self.code.len());
                    self.code.push(DInst::Break {
                        target: 0,
                        span: *span,
                    });
                }
                // Outside a loop the tree walker's Break flow propagates
                // out of the function body: function end.
                None => self.code.push(DInst::Return { span: *span }),
            },
            Stmt::Continue(span) => match self.loops.last() {
                Some(ctx) => self.code.push(DInst::Continue {
                    target: ctx.continue_pc,
                    span: *span,
                }),
                None => self.code.push(DInst::Return { span: *span }),
            },
            Stmt::Return(span) => self.code.push(DInst::Return { span: *span }),
        }
    }

    fn patch_branch(&mut self, at: usize, to: u32) {
        if let DInst::Branch { if_false, .. } = &mut self.code[at] {
            *if_false = to;
        }
    }

    /// Pops the current loop context and resolves every exit-target fixup
    /// (the `ForNext`/`While`-test exit edge and all `break`s) to the
    /// instruction after the loop.
    fn finish_loop(&mut self) {
        let exit = self.pc();
        let ctx = self.loops.pop().expect("loop ctx on stack");
        for at in ctx.exit_fixups {
            match &mut self.code[at] {
                DInst::ForNext { end, .. } => *end = exit,
                DInst::Branch { if_false, .. } => *if_false = exit,
                DInst::Break { target, .. } => *target = exit,
                other => unreachable!("bad loop fixup target {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_src(src: &str, entry: &str, tys: &[matic_sema::Ty]) -> (MirProgram, DecodedProgram) {
        let (program, diags) = matic_frontend::parse(src);
        assert!(!diags.has_errors(), "{diags:?}");
        let analysis = matic_sema::analyze(&program, entry, tys);
        let (mir, _) = matic_mir::lower_program(&program, &analysis);
        let decoded = decode_program(&mir);
        (mir, decoded)
    }

    fn scalar_ty() -> matic_sema::Ty {
        matic_sema::Ty::double_scalar()
    }

    #[test]
    fn straight_line_code_has_no_control_instructions() {
        let (mir, decoded) = decode_src(
            "function y = f(x)\ny = x * 2 + 1;\nend",
            "f",
            &[scalar_ty()],
        );
        let idx = decoded.func_index("f").unwrap();
        assert_eq!(decoded.funcs.len(), mir.functions.len());
        assert!(decoded.funcs[idx]
            .code
            .iter()
            .all(|i| matches!(i, DInst::Def { .. } | DInst::Return { .. })));
    }

    #[test]
    fn loops_resolve_to_back_edges_within_bounds() {
        let (_, decoded) = decode_src(
            "function s = f(n)\ns = 0;\nfor k = 1:n\n if k > 2\n  s = s + k;\n end\nend\nwhile s > 100\n s = s - 1;\nend\nend",
            "f",
            &[scalar_ty()],
        );
        let code = &decoded.funcs[decoded.func_index("f").unwrap()].code;
        let len = code.len() as u32;
        let mut saw_for = false;
        let mut saw_while = false;
        for inst in code {
            match inst {
                DInst::ForNext { end, .. } => {
                    saw_for = true;
                    assert!(*end <= len);
                }
                DInst::Branch { if_false, .. } => assert!(*if_false <= len),
                DInst::Jump { target, .. } => assert!(*target < len),
                DInst::WhileEnter { .. } => saw_while = true,
                _ => {}
            }
        }
        assert!(saw_for && saw_while);
    }

    #[test]
    fn break_and_continue_target_the_innermost_loop() {
        let (_, decoded) = decode_src(
            "function s = f(n)\ns = 0;\nfor i = 1:n\n for j = 1:n\n  if j > i\n   break\n  end\n  if j == i\n   continue\n  end\n  s = s + 1;\n end\nend\nend",
            "f",
            &[scalar_ty()],
        );
        let code = &decoded.funcs[decoded.func_index("f").unwrap()].code;
        // Collect ForNext positions: inner loop is the second one.
        let heads: Vec<usize> = code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, DInst::ForNext { .. }))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(heads.len(), 2);
        let (outer_head, inner_head) = (heads[0], heads[1]);
        let DInst::ForNext { end: inner_end, .. } = code[inner_head] else {
            unreachable!()
        };
        for inst in code {
            if let DInst::Break { target, .. } = inst {
                assert_eq!(*target, inner_end, "break exits the inner loop");
            }
            if let DInst::Continue { target, .. } = inst {
                assert_eq!(
                    *target as usize, inner_head,
                    "continue re-enters inner head"
                );
                assert_ne!(*target as usize, outer_head);
            }
        }
    }
}
