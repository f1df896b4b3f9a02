#include "runtime/vm.h"

#include <bit>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "arith/interval.h"
#include "runtime/jit.h"
#include "support/failpoint.h"
#include "support/trace.h"
#include "tir/analysis/analysis.h"

namespace tir {
namespace runtime {

namespace {

/**
 * One-pass bytecode compiler. The recursion mirrors the tree-walking
 * interpreter case for case — `compileInt` is the static image of
 * `Interpreter::evalInt`, `compileValue` of `evalValue`, `compileStmt`
 * of `exec` — which is what makes the two engines bit-identical: the
 * same arithmetic happens in the same domains in the same order, only
 * resolved at compile time instead of per evaluation.
 *
 * Constant subexpressions fold at compile time using the exact runtime
 * operations (same floorDivInt, same double arithmetic). Folding never
 * *skips* runtime work that the interpreter would perform: operands of
 * a partially-constant binary op are still compiled (their loads still
 * bounds-check), and floor div/mod by a constant zero is left to the
 * runtime so both engines fail identically.
 */
class Compiler
{
  public:
    explicit Compiler(const PrimFunc& func)
    {
        out_.func = func;
        out_.registry = Interpreter::intrinsicSnapshot();
        for (const Buffer& param : func->params) {
            slotOf(param);
        }
        out_.num_params = func->params.size();
    }

    CompiledFunc
    compile()
    {
        compileStmt(out_.func->body);
        body_.push_back({Op::kHalt, 0, 0, 0, 0, 0});
        // Link: the constant-pool prelude runs first, so body-relative
        // jump targets shift by its length.
        const int64_t base = static_cast<int64_t>(prelude_.size());
        for (Instr& in : body_) {
            if (in.op == Op::kJump || in.op == Op::kJumpIfZero ||
                in.op == Op::kJumpIfGeI || in.op == Op::kIncJump) {
                in.imm += base;
            }
        }
        out_.code = std::move(prelude_);
        out_.code.insert(out_.code.end(), body_.begin(), body_.end());
        out_.num_regs = next_reg_;
        return std::move(out_);
    }

  private:
    /** Compile-time view of an integer expression: a constant, or a
     *  register holding the runtime value. */
    struct IVal
    {
        bool is_const = false;
        int64_t imm = 0;
        uint16_t reg = 0;
    };
    /** Same for the float (value) domain. */
    struct FVal
    {
        bool is_const = false;
        double imm = 0;
        uint16_t reg = 0;
    };

    uint16_t
    newReg()
    {
        TIR_CHECK(next_reg_ < 65535)
            << "bytecode compiler ran out of registers in "
            << out_.func->name;
        return static_cast<uint16_t>(next_reg_++);
    }

    /** Pooled register preloaded with an int constant. */
    uint16_t
    constI(int64_t v)
    {
        auto it = int_pool_.find(v);
        if (it != int_pool_.end()) return it->second;
        uint16_t r = newReg();
        prelude_.push_back({Op::kConstI, 0, 0, 0, r, v});
        int_pool_[v] = r;
        return r;
    }

    /** Pooled register preloaded with a float constant. */
    uint16_t
    constF(double v)
    {
        int64_t bits = std::bit_cast<int64_t>(v);
        auto it = float_pool_.find(bits);
        if (it != float_pool_.end()) return it->second;
        uint16_t r = newReg();
        prelude_.push_back({Op::kConstF, 0, 0, 0, r, bits});
        float_pool_[bits] = r;
        return r;
    }

    uint16_t
    regOf(const IVal& v)
    {
        return v.is_const ? constI(v.imm) : v.reg;
    }
    uint16_t
    regOf(const FVal& v)
    {
        return v.is_const ? constF(v.imm) : v.reg;
    }

    size_t
    emit(Instr in)
    {
        body_.push_back(in);
        return body_.size() - 1;
    }

    /** Retarget a forward jump at `pc` to the next emitted instruction. */
    void
    patchHere(size_t pc)
    {
        body_[pc].imm = static_cast<int64_t>(body_.size());
    }

    IVal
    emitIntBinary(ExprKind kind, const IVal& a, const IVal& b)
    {
        if (a.is_const && b.is_const) {
            // Fold with the same operations the runtime uses — except
            // division by a constant zero, which must keep failing at
            // run time exactly like the tree-walker.
            bool div = kind == ExprKind::kFloorDiv ||
                       kind == ExprKind::kFloorMod;
            if (!div || b.imm != 0) {
                return {true, foldInt(kind, a.imm, b.imm), 0};
            }
        }
        if (kind == ExprKind::kAdd && !body_.empty() &&
            body_.back().op == Op::kMulI &&
            !pinned_.count(body_.back().dst)) {
            // Peephole: fold the just-emitted multiply into a fused
            // multiply-add. Every expression temp has exactly one
            // reader, so the multiply's destination can only be read
            // again if it was pinned as a variable binding — checked
            // above. Integer + is commutative, so operand order of the
            // add does not matter.
            uint16_t ra = regOf(a);
            uint16_t rb = regOf(b);
            uint16_t md = body_.back().dst;
            if (md == ra || md == rb) {
                Instr mul = body_.back();
                body_.pop_back();
                uint16_t dst = newReg();
                emit({Op::kFmaI, 0, mul.a, mul.b, dst,
                      static_cast<int64_t>(md == ra ? rb : ra)});
                return {false, 0, dst};
            }
        }
        Op op;
        switch (kind) {
          case ExprKind::kAdd: op = Op::kAddI; break;
          case ExprKind::kSub: op = Op::kSubI; break;
          case ExprKind::kMul: op = Op::kMulI; break;
          case ExprKind::kFloorDiv: op = Op::kFloorDivI; break;
          case ExprKind::kFloorMod: op = Op::kFloorModI; break;
          case ExprKind::kMin: op = Op::kMinI; break;
          case ExprKind::kMax: op = Op::kMaxI; break;
          case ExprKind::kEQ: op = Op::kEqI; break;
          case ExprKind::kNE: op = Op::kNeI; break;
          case ExprKind::kLT: op = Op::kLtI; break;
          case ExprKind::kLE: op = Op::kLeI; break;
          case ExprKind::kGT: op = Op::kGtI; break;
          case ExprKind::kGE: op = Op::kGeI; break;
          case ExprKind::kAnd: op = Op::kAndI; break;
          case ExprKind::kOr: op = Op::kOrI; break;
          default:
            TIR_PANIC << "cannot integer-evaluate expression kind";
        }
        uint16_t dst = newReg();
        emit({op, 0, regOf(a), regOf(b), dst, 0});
        return {false, 0, dst};
    }

    static int64_t
    foldInt(ExprKind kind, int64_t a, int64_t b)
    {
        switch (kind) {
          case ExprKind::kAdd: return a + b;
          case ExprKind::kSub: return a - b;
          case ExprKind::kMul: return a * b;
          case ExprKind::kFloorDiv: return arith::floorDivInt(a, b);
          case ExprKind::kFloorMod: return arith::floorModInt(a, b);
          case ExprKind::kMin: return std::min(a, b);
          case ExprKind::kMax: return std::max(a, b);
          case ExprKind::kEQ: return a == b;
          case ExprKind::kNE: return a != b;
          case ExprKind::kLT: return a < b;
          case ExprKind::kLE: return a <= b;
          case ExprKind::kGT: return a > b;
          case ExprKind::kGE: return a >= b;
          case ExprKind::kAnd: return a && b;
          case ExprKind::kOr: return a || b;
          default:
            TIR_PANIC << "cannot integer-evaluate expression kind";
        }
    }

    /** Mirrors Interpreter::evalInt. */
    IVal
    compileInt(const Expr& expr)
    {
        switch (expr->kind) {
          case ExprKind::kIntImm:
            return {true, static_cast<const IntImmNode&>(*expr).value, 0};
          case ExprKind::kFloatImm:
            return {true,
                    static_cast<int64_t>(
                        static_cast<const FloatImmNode&>(*expr).value),
                    0};
          case ExprKind::kVar: {
            auto it = var_reg_.find(static_cast<const VarNode*>(expr.get()));
            TIR_ICHECK(it != var_reg_.end())
                << "unbound variable "
                << static_cast<const VarNode&>(*expr).name;
            return {false, 0, it->second};
          }
          case ExprKind::kCast: {
            const Expr& inner = static_cast<const CastNode&>(*expr).value;
            if (inner->dtype.isFloat()) {
                FVal v = compileValue(inner);
                if (v.is_const) {
                    return {true, static_cast<int64_t>(std::trunc(v.imm)),
                            0};
                }
                uint16_t dst = newReg();
                emit({Op::kFtoI, 0, v.reg, 0, dst, 0});
                return {false, 0, dst};
            }
            return compileInt(inner);
          }
          case ExprKind::kBufferLoad: {
            const auto& n = static_cast<const BufferLoadNode&>(*expr);
            IVal off = compileOffset(n.buffer, n.indices);
            uint16_t dst = newReg();
            emit({Op::kLoadI, 0, regOf(off), slotOf(n.buffer), dst, 0});
            return {false, 0, dst};
          }
          case ExprKind::kNot: {
            IVal a = compileInt(static_cast<const NotNode&>(*expr).a);
            if (a.is_const) return {true, a.imm ? 0 : 1, 0};
            uint16_t dst = newReg();
            emit({Op::kNotI, 0, a.reg, 0, dst, 0});
            return {false, 0, dst};
          }
          case ExprKind::kSelect: {
            const auto& n = static_cast<const SelectNode&>(*expr);
            IVal c = compileInt(n.cond);
            // Lazy, like the interpreter: only the taken side runs.
            if (c.is_const) {
                return compileInt(c.imm ? n.tval : n.fval);
            }
            uint16_t dst = newReg();
            size_t jz = emit({Op::kJumpIfZero, 0, c.reg, 0, 0, 0});
            IVal t = compileInt(n.tval);
            emit({Op::kMovI, 0, regOf(t), 0, dst, 0});
            size_t jend = emit({Op::kJump, 0, 0, 0, 0, 0});
            patchHere(jz);
            IVal f = compileInt(n.fval);
            emit({Op::kMovI, 0, regOf(f), 0, dst, 0});
            patchHere(jend);
            return {false, 0, dst};
          }
          default: {
            const auto& n = static_cast<const BinaryNode&>(*expr);
            IVal a = compileInt(n.a);
            IVal b = compileInt(n.b);
            return emitIntBinary(expr->kind, a, b);
          }
        }
    }

    /** Mirrors Interpreter::evalValue. */
    FVal
    compileValue(const Expr& expr)
    {
        switch (expr->kind) {
          case ExprKind::kIntImm:
            return {true,
                    static_cast<double>(
                        static_cast<const IntImmNode&>(*expr).value),
                    0};
          case ExprKind::kFloatImm:
            return {true, static_cast<const FloatImmNode&>(*expr).value,
                    0};
          case ExprKind::kVar: {
            IVal v = compileInt(expr);
            uint16_t dst = newReg();
            emit({Op::kItoF, 0, regOf(v), 0, dst, 0});
            return {false, 0, dst};
          }
          case ExprKind::kCast: {
            const auto& n = static_cast<const CastNode&>(*expr);
            FVal v = compileValue(n.value);
            if (n.dtype.isInt() || n.dtype.isBool()) {
                if (v.is_const) return {true, std::trunc(v.imm), 0};
                uint16_t dst = newReg();
                emit({Op::kTruncF, 0, v.reg, 0, dst, 0});
                return {false, 0, dst};
            }
            return v;
          }
          case ExprKind::kNot: {
            FVal a = compileValue(static_cast<const NotNode&>(*expr).a);
            if (a.is_const) return {true, a.imm == 0.0 ? 1.0 : 0.0, 0};
            uint16_t dst = newReg();
            emit({Op::kNotF, 0, a.reg, 0, dst, 0});
            return {false, 0, dst};
          }
          case ExprKind::kSelect: {
            const auto& n = static_cast<const SelectNode&>(*expr);
            FVal c = compileValue(n.cond);
            if (c.is_const) {
                return compileValue(c.imm != 0.0 ? n.tval : n.fval);
            }
            uint16_t cond = newReg();
            emit({Op::kFNonzero, 0, c.reg, 0, cond, 0});
            uint16_t dst = newReg();
            size_t jz = emit({Op::kJumpIfZero, 0, cond, 0, 0, 0});
            FVal t = compileValue(n.tval);
            emit({Op::kMovF, 0, regOf(t), 0, dst, 0});
            size_t jend = emit({Op::kJump, 0, 0, 0, 0, 0});
            patchHere(jz);
            FVal f = compileValue(n.fval);
            emit({Op::kMovF, 0, regOf(f), 0, dst, 0});
            patchHere(jend);
            return {false, 0, dst};
          }
          case ExprKind::kBufferLoad: {
            const auto& n = static_cast<const BufferLoadNode&>(*expr);
            IVal off = compileOffset(n.buffer, n.indices);
            uint16_t dst = newReg();
            emit({Op::kLoadF, 0, regOf(off), slotOf(n.buffer), dst, 0});
            return {false, 0, dst};
          }
          case ExprKind::kBufferPtr:
            TIR_PANIC << "BufferPtr evaluated as a value";
          case ExprKind::kCall: {
            const auto& n = static_cast<const CallNode&>(*expr);
            MathFn fn;
            if (n.op == "exp") fn = MathFn::kExp;
            else if (n.op == "sqrt") fn = MathFn::kSqrt;
            else if (n.op == "tanh") fn = MathFn::kTanh;
            else if (n.op == "erf") fn = MathFn::kErf;
            else if (n.op == "sigmoid") fn = MathFn::kSigmoid;
            else if (n.op == "abs") fn = MathFn::kAbs;
            else if (n.op == "log") fn = MathFn::kLog;
            else
                TIR_FATAL << "unknown pure call in value position: "
                          << n.op;
            FVal a = compileValue(n.args[0]);
            uint16_t dst = newReg();
            emit({Op::kCallF, static_cast<uint8_t>(fn), regOf(a), 0, dst,
                  0});
            return {false, 0, dst};
          }
          default: {
            if (!expr->dtype.isFloat()) {
                // evalValue falls back to evalInt on the whole
                // expression for non-float binaries.
                IVal v = compileInt(expr);
                if (v.is_const) {
                    return {true, static_cast<double>(v.imm), 0};
                }
                uint16_t dst = newReg();
                emit({Op::kItoF, 0, v.reg, 0, dst, 0});
                return {false, 0, dst};
            }
            const auto& n = static_cast<const BinaryNode&>(*expr);
            FVal a = compileValue(n.a);
            FVal b = compileValue(n.b);
            if (a.is_const && b.is_const) {
                return {true, foldFloat(expr->kind, a.imm, b.imm), 0};
            }
            if (expr->kind == ExprKind::kAdd && !body_.empty() &&
                body_.back().op == Op::kMulF &&
                !pinned_.count(body_.back().dst)) {
                // Same peephole as the integer domain. fn records which
                // side of the add held the product, so NaN-payload
                // operand selection matches the unfused kAddF exactly.
                uint16_t ra = regOf(a);
                uint16_t rb = regOf(b);
                uint16_t md = body_.back().dst;
                if (md == ra || md == rb) {
                    Instr mul = body_.back();
                    body_.pop_back();
                    uint16_t dst = newReg();
                    emit({Op::kFmaF,
                          static_cast<uint8_t>(md == ra ? 0 : 1), mul.a,
                          mul.b, dst,
                          static_cast<int64_t>(md == ra ? rb : ra)});
                    return FVal{false, 0, dst};
                }
            }
            Op op;
            switch (expr->kind) {
              case ExprKind::kAdd: op = Op::kAddF; break;
              case ExprKind::kSub: op = Op::kSubF; break;
              case ExprKind::kMul: op = Op::kMulF; break;
              case ExprKind::kDiv: op = Op::kDivF; break;
              case ExprKind::kMin: op = Op::kMinF; break;
              case ExprKind::kMax: op = Op::kMaxF; break;
              default:
                TIR_PANIC << "cannot value-evaluate expression kind";
            }
            uint16_t dst = newReg();
            emit({op, 0, regOf(a), regOf(b), dst, 0});
            return {false, 0, dst};
          }
        }
    }

    static double
    foldFloat(ExprKind kind, double a, double b)
    {
        switch (kind) {
          case ExprKind::kAdd: return a + b;
          case ExprKind::kSub: return a - b;
          case ExprKind::kMul: return a * b;
          case ExprKind::kDiv: return a / b;
          case ExprKind::kMin: return std::min(a, b);
          case ExprKind::kMax: return std::max(a, b);
          default:
            TIR_PANIC << "cannot value-evaluate expression kind";
        }
    }

    /** Mirrors Interpreter::linearOffset (row-major Horner form). The
     *  constant part folds away; loop-varying indices leave a short
     *  mul/add chain over the index registers. */
    IVal
    compileOffset(const Buffer& buffer, const std::vector<Expr>& indices)
    {
        TIR_ICHECK(indices.size() == buffer->ndim())
            << "buffer " << buffer->name << " has rank " << buffer->ndim()
            << " but the access supplies " << indices.size()
            << " indices";
        IVal offset = {true, 0, 0};
        for (size_t d = 0; d < indices.size(); ++d) {
            IVal scaled = emitIntBinary(
                ExprKind::kMul, offset, {true, buffer->shapeInt(d), 0});
            offset = emitIntBinary(ExprKind::kAdd, scaled,
                                   compileInt(indices[d]));
        }
        return offset;
    }

    uint16_t
    slotOf(const Buffer& buffer)
    {
        auto it = out_.slot_of.find(buffer.get());
        if (it != out_.slot_of.end()) return it->second;
        TIR_CHECK(out_.buffers.size() < 65535)
            << "bytecode compiler ran out of buffer slots";
        uint16_t slot = static_cast<uint16_t>(out_.buffers.size());
        out_.buffers.push_back(buffer);
        out_.slot_of[buffer.get()] = slot;
        return slot;
    }

    void
    compileIntrin(const CallNode& call)
    {
        auto impl_it = out_.registry->find(call.op);
        TIR_CHECK(impl_it != out_.registry->end())
            << "no runtime semantics registered for intrinsic "
            << call.op;
        IntrinCall ic;
        ic.call = &call;
        ic.impl = impl_it->second;
        ic.args.reserve(call.args.size());
        for (const Expr& arg : call.args) {
            IntrinArg desc;
            desc.expr = arg.get();
            if (arg->kind == ExprKind::kBufferPtr) {
                const auto& ptr = static_cast<const BufferPtrNode&>(*arg);
                desc.kind = IntrinArg::Kind::kPtr;
                desc.slot = slotOf(ptr.buffer);
                desc.reg = regOf(compileOffset(ptr.buffer, ptr.indices));
                desc.buffer = ptr.buffer;
            } else if (arg->kind == ExprKind::kStringImm ||
                       arg->dtype.isHandle()) {
                desc.kind = IntrinArg::Kind::kOpaque;
            } else if (arg->dtype.isFloat()) {
                desc.kind = IntrinArg::Kind::kFloat;
                desc.reg = regOf(compileValue(arg));
            } else {
                desc.kind = IntrinArg::Kind::kInt;
                desc.reg = regOf(compileInt(arg));
            }
            ic.args.push_back(std::move(desc));
        }
        int64_t index = static_cast<int64_t>(out_.intrins.size());
        out_.intrins.push_back(std::move(ic));
        emit({Op::kIntrin, 0, 0, 0, 0, index});
    }

    /** Mirrors Interpreter::exec, including its fuel accounting: one
     *  kStep per statement, at the point the statement starts. */
    void
    compileStmt(const Stmt& stmt)
    {
        emit({Op::kStep, 0, 0, 0, 0, 0});
        switch (stmt->kind) {
          case StmtKind::kBufferStore: {
            const auto& n = static_cast<const BufferStoreNode&>(*stmt);
            FVal value;
            if (n.value->dtype.isFloat()) {
                value = compileValue(n.value);
            } else {
                IVal iv = compileInt(n.value);
                if (iv.is_const) {
                    value = {true, static_cast<double>(iv.imm), 0};
                } else {
                    uint16_t dst = newReg();
                    emit({Op::kItoF, 0, iv.reg, 0, dst, 0});
                    value = {false, 0, dst};
                }
            }
            IVal off = compileOffset(n.buffer, n.indices);
            emit({Op::kStoreF, 0, regOf(off), slotOf(n.buffer),
                  regOf(value), 0});
            return;
          }
          case StmtKind::kEvaluate: {
            // Storage barriers are no-ops on sequential engines (the
            // step above is still charged, as in the tree-walker).
            if (asStorageSync(*stmt)) return;
            const auto& n = static_cast<const EvaluateNode&>(*stmt);
            TIR_ICHECK(n.value->kind == ExprKind::kCall)
                << "Evaluate expects an intrinsic call";
            compileIntrin(static_cast<const CallNode&>(*n.value));
            return;
          }
          case StmtKind::kSeq: {
            for (const Stmt& s :
                 static_cast<const SeqStmtNode&>(*stmt).seq) {
                compileStmt(s);
            }
            return;
          }
          case StmtKind::kIfThenElse: {
            const auto& n = static_cast<const IfThenElseNode&>(*stmt);
            IVal c = compileInt(n.cond);
            if (c.is_const) {
                if (c.imm) {
                    compileStmt(n.then_case);
                } else if (n.else_case) {
                    compileStmt(n.else_case);
                }
                return;
            }
            size_t jz = emit({Op::kJumpIfZero, 0, c.reg, 0, 0, 0});
            compileStmt(n.then_case);
            if (n.else_case) {
                size_t jend = emit({Op::kJump, 0, 0, 0, 0, 0});
                patchHere(jz);
                compileStmt(n.else_case);
                patchHere(jend);
            } else {
                patchHere(jz);
            }
            return;
          }
          case StmtKind::kFor: {
            const auto& n = static_cast<const ForNode&>(*stmt);
            IVal mn = compileInt(n.min);
            IVal ext = compileInt(n.extent);
            if (ext.is_const && ext.imm <= 0) return;
            // The loop variable gets a dedicated register; an outer
            // binding of the same VarNode is shadowed for the body and
            // restored after (compile-time image of the interpreter's
            // save/restore).
            uint16_t vr = newReg();
            auto saved = saveBinding(n.loop_var.get(), vr);
            emit({Op::kMovI, 0, regOf(mn), 0, vr, 0});
            IVal end = emitIntBinary(ExprKind::kAdd, mn, ext);
            uint16_t er = regOf(end);
            size_t head = body_.size();
            size_t exit = emit({Op::kJumpIfGeI, 0, vr, er, 0, 0});
            compileStmt(n.body);
            emit({Op::kIncJump, 0, vr, 0, 0,
                  static_cast<int64_t>(head)});
            patchHere(exit);
            restoreBinding(n.loop_var.get(), saved);
            return;
          }
          case StmtKind::kBlock:
            TIR_PANIC << "bare Block outside BlockRealize";
          case StmtKind::kBlockRealize: {
            const auto& n = static_cast<const BlockRealizeNode&>(*stmt);
            IVal p = compileInt(n.predicate);
            if (p.is_const && !p.imm) return;
            size_t skip = 0;
            bool has_skip = false;
            if (!p.is_const) {
                skip = emit({Op::kJumpIfZero, 0, p.reg, 0, 0, 0});
                has_skip = true;
            }
            const BlockNode& block = *n.block;
            for (const Buffer& b : block.alloc_buffers) slotOf(b);
            // Sequential iter binding — value i is computed with iters
            // 0..i-1 already bound, and each reduce iter's dom.min is
            // evaluated right after its own binding, matching the
            // interpreter's loop.
            std::vector<std::optional<uint16_t>> saved(
                block.iter_vars.size());
            bool start_const_false = false;
            std::optional<uint16_t> start_flag;
            for (size_t i = 0; i < block.iter_vars.size(); ++i) {
                const IterVar& iv = block.iter_vars[i];
                IVal value = compileInt(n.iter_values[i]);
                uint16_t vr = regOf(value);
                saved[i] = saveBinding(iv.var.get(), vr);
                if (iv.type != IterType::kReduce) continue;
                IVal m = compileInt(iv.dom.min);
                if (value.is_const && m.is_const) {
                    if (value.imm != m.imm) start_const_false = true;
                    continue;
                }
                IVal eq = emitIntBinary(ExprKind::kEQ, value, m);
                if (!start_flag) {
                    start_flag = regOf(eq);
                } else {
                    IVal combined = emitIntBinary(
                        ExprKind::kAnd, IVal{false, 0, *start_flag}, eq);
                    start_flag = regOf(combined);
                }
            }
            if (block.init && !start_const_false) {
                if (!start_flag) {
                    compileStmt(block.init);
                } else {
                    size_t jz = emit(
                        {Op::kJumpIfZero, 0, *start_flag, 0, 0, 0});
                    compileStmt(block.init);
                    patchHere(jz);
                }
            }
            compileStmt(block.body);
            for (size_t i = block.iter_vars.size(); i-- > 0;) {
                restoreBinding(block.iter_vars[i].var.get(), saved[i]);
            }
            if (has_skip) patchHere(skip);
            return;
          }
        }
    }

    /** Bind `var` to `reg`, returning the shadowed register if any.
     *  The register is pinned permanently: a bound register has more
     *  than one reader, so the fused-multiply-add peephole must never
     *  swallow the instruction that produces it. */
    std::optional<uint16_t>
    saveBinding(const VarNode* var, uint16_t reg)
    {
        pinned_.insert(reg);
        std::optional<uint16_t> prev;
        if (auto it = var_reg_.find(var); it != var_reg_.end()) {
            prev = it->second;
        }
        var_reg_[var] = reg;
        return prev;
    }

    void
    restoreBinding(const VarNode* var, std::optional<uint16_t> prev)
    {
        if (prev) {
            var_reg_[var] = *prev;
        } else {
            var_reg_.erase(var);
        }
    }

    CompiledFunc out_;
    uint32_t next_reg_ = 0;
    std::vector<Instr> prelude_;
    std::vector<Instr> body_;
    std::unordered_map<int64_t, uint16_t> int_pool_;
    std::unordered_map<int64_t, uint16_t> float_pool_;
    std::unordered_map<const VarNode*, uint16_t> var_reg_;
    /** Registers with more than one reader (variable bindings); the
     *  mul-add peephole must not consume their producers. */
    std::unordered_set<uint16_t> pinned_;
};

/** Untyped VM register. */
union Value
{
    int64_t i;
    double f;
};

/** Cached view of one buffer slot's backing storage. */
struct Mem
{
    double* data = nullptr;
    int64_t n = 0;
};

/**
 * ExecContext handed to intrinsic callbacks running under the VM. The
 * callback queries are matched against the pre-resolved call arguments
 * by expression node identity; anything else has no runtime
 * environment in compiled code and is a contract violation.
 */
class VmIntrinContext final : public ExecContext
{
  public:
    VmIntrinContext(const CompiledFunc& cf, const IntrinCall& ic,
                    Value* regs, NDArray** arrays)
        : cf_(cf), ic_(ic), regs_(regs), arrays_(arrays)
    {
    }

    double
    evalValue(const Expr& expr) override
    {
        if (const IntrinArg* a = find(expr)) {
            switch (a->kind) {
              case IntrinArg::Kind::kFloat: return regs_[a->reg].f;
              case IntrinArg::Kind::kInt:
                return static_cast<double>(regs_[a->reg].i);
              default: break;
            }
        }
        if (expr->kind == ExprKind::kIntImm) {
            return static_cast<double>(
                static_cast<const IntImmNode&>(*expr).value);
        }
        if (expr->kind == ExprKind::kFloatImm) {
            return static_cast<const FloatImmNode&>(*expr).value;
        }
        TIR_PANIC << "VM intrinsic context can only evaluate direct "
                     "arguments of the call";
    }

    int64_t
    evalInt(const Expr& expr) override
    {
        if (const IntrinArg* a = find(expr)) {
            switch (a->kind) {
              case IntrinArg::Kind::kInt: return regs_[a->reg].i;
              case IntrinArg::Kind::kFloat:
                return static_cast<int64_t>(regs_[a->reg].f);
              default: break;
            }
        }
        if (expr->kind == ExprKind::kIntImm) {
            return static_cast<const IntImmNode&>(*expr).value;
        }
        TIR_PANIC << "VM intrinsic context can only evaluate direct "
                     "arguments of the call";
    }

    BufferRef
    resolvePtr(const Expr& expr) override
    {
        TIR_ICHECK(expr->kind == ExprKind::kBufferPtr)
            << "intrinsic argument is not a buffer pointer";
        const IntrinArg* a = find(expr);
        TIR_ICHECK(a && a->kind == IntrinArg::Kind::kPtr)
            << "VM intrinsic context can only resolve direct "
               "arguments of the call";
        return {arrays_[a->slot], regs_[a->reg].i, a->buffer.get()};
    }

    NDArray*
    getArray(const Buffer& buffer) override
    {
        auto it = cf_.slot_of.find(buffer.get());
        TIR_ICHECK(it != cf_.slot_of.end())
            << "buffer " << buffer->name
            << " is not part of the compiled program";
        return arrays_[it->second];
    }

  private:
    const IntrinArg*
    find(const Expr& expr) const
    {
        for (const IntrinArg& a : ic_.args) {
            if (a.expr == expr.get()) return &a;
        }
        return nullptr;
    }

    const CompiledFunc& cf_;
    const IntrinCall& ic_;
    Value* regs_;
    NDArray** arrays_;
};

} // namespace

CompiledFunc
compile(const PrimFunc& func)
{
    return Compiler(func).compile();
}

void
VirtualMachine::run(const CompiledFunc& compiled,
                    const std::vector<NDArray*>& args)
{
    const PrimFunc& func = compiled.func;
    validateArguments(func, args);
    trace::Span span("vm.run", trace::arg("func", func->name));
    // Same failpoint site as the tree-walker so the tuner's sandbox and
    // the chaos schedules exercise both engines identically.
    if (failpoint::inject("interp.run")) {
        throw EvalError("injected interpreter fault (failpoint "
                        "interp.run) in " +
                        func->name);
    }
    if (Interpreter::debugChecksEnabled()) {
        analysis::AnalysisReport report = analysis::analyzeFunc(func);
        TIR_CHECK(report.ok())
            << "static memory analysis failed for " << func->name
            << " before execution:\n"
            << report.summary();
    }
    const uint64_t limit =
        step_limit_ ? *step_limit_ : Interpreter::defaultStepLimit();
    uint64_t steps = 0;

    std::vector<Value> regs(compiled.num_regs, Value{0});
    std::vector<std::unique_ptr<NDArray>> locals;
    std::vector<NDArray*> arrays(compiled.buffers.size(), nullptr);
    std::vector<Mem> mem(compiled.buffers.size());
    for (size_t s = 0; s < compiled.buffers.size(); ++s) {
        if (s < compiled.num_params) {
            arrays[s] = args[s];
        } else {
            const Buffer& b = compiled.buffers[s];
            std::vector<int64_t> shape;
            shape.reserve(b->ndim());
            for (size_t d = 0; d < b->ndim(); ++d) {
                shape.push_back(b->shapeInt(d));
            }
            locals.push_back(
                std::make_unique<NDArray>(b->dtype, std::move(shape)));
            arrays[s] = locals.back().get();
        }
        mem[s] = {arrays[s]->data(), arrays[s]->numel()};
    }

    // Raw pointers keep the dispatch loop free of vector-indexing
    // reloads: a buffer store could otherwise alias the register file
    // or the mem table as far as the optimizer can prove, forcing both
    // base pointers back from memory on every instruction.
    const Instr* code = compiled.code.data();
    Value* const r = regs.data();
    const Mem* const mems = mem.data();
    size_t pc = 0;
    for (;;) {
        const Instr& in = code[pc];
        switch (in.op) {
          case Op::kHalt:
            return;
          case Op::kStep:
            if (limit != 0 && ++steps > limit) {
                throw EvalError("interpreter step limit of " +
                                std::to_string(limit) +
                                " statements exceeded (runaway "
                                "program?)");
            }
            break;
          case Op::kConstI: r[in.dst].i = in.imm; break;
          case Op::kConstF:
            r[in.dst].f = std::bit_cast<double>(in.imm);
            break;
          case Op::kMovI: r[in.dst].i = r[in.a].i; break;
          case Op::kMovF: r[in.dst].f = r[in.a].f; break;
          case Op::kItoF:
            r[in.dst].f = static_cast<double>(r[in.a].i);
            break;
          case Op::kFtoI:
            r[in.dst].i =
                static_cast<int64_t>(std::trunc(r[in.a].f));
            break;
          case Op::kTruncF:
            r[in.dst].f = std::trunc(r[in.a].f);
            break;
          case Op::kFNonzero:
            r[in.dst].i = r[in.a].f != 0.0;
            break;
          case Op::kAddI:
            r[in.dst].i = r[in.a].i + r[in.b].i;
            break;
          case Op::kSubI:
            r[in.dst].i = r[in.a].i - r[in.b].i;
            break;
          case Op::kMulI:
            r[in.dst].i = r[in.a].i * r[in.b].i;
            break;
          case Op::kFloorDivI:
            r[in.dst].i =
                arith::floorDivInt(r[in.a].i, r[in.b].i);
            break;
          case Op::kFloorModI:
            r[in.dst].i =
                arith::floorModInt(r[in.a].i, r[in.b].i);
            break;
          case Op::kMinI:
            r[in.dst].i = std::min(r[in.a].i, r[in.b].i);
            break;
          case Op::kMaxI:
            r[in.dst].i = std::max(r[in.a].i, r[in.b].i);
            break;
          case Op::kEqI:
            r[in.dst].i = r[in.a].i == r[in.b].i;
            break;
          case Op::kNeI:
            r[in.dst].i = r[in.a].i != r[in.b].i;
            break;
          case Op::kLtI:
            r[in.dst].i = r[in.a].i < r[in.b].i;
            break;
          case Op::kLeI:
            r[in.dst].i = r[in.a].i <= r[in.b].i;
            break;
          case Op::kGtI:
            r[in.dst].i = r[in.a].i > r[in.b].i;
            break;
          case Op::kGeI:
            r[in.dst].i = r[in.a].i >= r[in.b].i;
            break;
          case Op::kAndI:
            r[in.dst].i = r[in.a].i && r[in.b].i;
            break;
          case Op::kOrI:
            r[in.dst].i = r[in.a].i || r[in.b].i;
            break;
          case Op::kNotI:
            r[in.dst].i = r[in.a].i ? 0 : 1;
            break;
          case Op::kAddF:
            r[in.dst].f = r[in.a].f + r[in.b].f;
            break;
          case Op::kSubF:
            r[in.dst].f = r[in.a].f - r[in.b].f;
            break;
          case Op::kMulF:
            r[in.dst].f = r[in.a].f * r[in.b].f;
            break;
          case Op::kDivF:
            r[in.dst].f = r[in.a].f / r[in.b].f;
            break;
          case Op::kMinF:
            r[in.dst].f = std::min(r[in.a].f, r[in.b].f);
            break;
          case Op::kMaxF:
            r[in.dst].f = std::max(r[in.a].f, r[in.b].f);
            break;
          case Op::kNotF:
            r[in.dst].f = r[in.a].f == 0.0 ? 1.0 : 0.0;
            break;
          case Op::kCallF: {
            double x = r[in.a].f;
            double y;
            switch (static_cast<MathFn>(in.fn)) {
              case MathFn::kExp: y = std::exp(x); break;
              case MathFn::kSqrt: y = std::sqrt(x); break;
              case MathFn::kTanh: y = std::tanh(x); break;
              case MathFn::kErf: y = std::erf(x); break;
              case MathFn::kSigmoid:
                y = 1.0 / (1.0 + std::exp(-x));
                break;
              case MathFn::kAbs: y = std::fabs(x); break;
              case MathFn::kLog: y = std::log(x); break;
              default: TIR_PANIC << "bad math-function id";
            }
            r[in.dst].f = y;
            break;
          }
          case Op::kLoadF: {
            int64_t off = r[in.a].i;
            const Mem& m = mems[in.b];
            TIR_ICHECK(off >= 0 && off < m.n)
                << "NDArray access out of range: " << off << " of "
                << m.n;
            r[in.dst].f = m.data[off];
            break;
          }
          case Op::kLoadI: {
            int64_t off = r[in.a].i;
            const Mem& m = mems[in.b];
            TIR_ICHECK(off >= 0 && off < m.n)
                << "NDArray access out of range: " << off << " of "
                << m.n;
            r[in.dst].i = static_cast<int64_t>(m.data[off]);
            break;
          }
          case Op::kStoreF: {
            int64_t off = r[in.a].i;
            const Mem& m = mems[in.b];
            TIR_ICHECK(off >= 0 && off < m.n)
                << "NDArray access out of range: " << off << " of "
                << m.n;
            m.data[off] = r[in.dst].f;
            break;
          }
          case Op::kJump:
            pc = static_cast<size_t>(in.imm);
            continue;
          case Op::kJumpIfZero:
            if (r[in.a].i == 0) {
                pc = static_cast<size_t>(in.imm);
                continue;
            }
            break;
          case Op::kJumpIfGeI:
            if (r[in.a].i >= r[in.b].i) {
                pc = static_cast<size_t>(in.imm);
                continue;
            }
            break;
          case Op::kIncJump:
            r[in.a].i += 1;
            pc = static_cast<size_t>(in.imm);
            continue;
          case Op::kFmaI:
            r[in.dst].i =
                r[in.a].i * r[in.b].i +
                r[static_cast<uint16_t>(in.imm)].i;
            break;
          case Op::kFmaF: {
            // Two separate roundings (the baseline is -O3 without
            // -march, so no hardware contraction either): bit-identical
            // to the kMulF/kAddF pair this replaced.
            double p = r[in.a].f * r[in.b].f;
            double o = r[static_cast<uint16_t>(in.imm)].f;
            r[in.dst].f = in.fn == 0 ? p + o : o + p;
            break;
          }
          case Op::kIntrin: {
            const IntrinCall& ic =
                compiled.intrins[static_cast<size_t>(in.imm)];
            VmIntrinContext ctx(compiled, ic, r,
                                arrays.data());
            ic.impl(ctx, *ic.call);
            break;
          }
        }
        ++pc;
    }
}

void
execute(const PrimFunc& func, const std::vector<NDArray*>& args)
{
    switch (selectedEngine()) {
      case Engine::kTreeWalk: {
        Interpreter interp;
        interp.run(func, args);
        return;
      }
      case Engine::kJit:
        if (jitTryRun(func, args)) return;
        // No native module (toolchain missing, compile/dlopen failure,
        // unsupported construct): degrade to the VM.
        break;
      case Engine::kVm:
        break;
    }
    VirtualMachine vm;
    vm.run(compile(func), args);
}

} // namespace runtime
} // namespace tir
