#include "codegen/c_codegen.h"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "intrin/tensor_intrin.h"
#include "lower/lower.h"
#include "support/logging.h"

namespace tir {
namespace codegen {

namespace {

/** Find the TensorIntrin whose implementation call uses `op`. */
const TensorIntrin*
intrinForCall(const std::string& op)
{
    for (const std::string& name : TensorIntrin::list()) {
        const TensorIntrin& ti = TensorIntrin::get(name);
        if (ti.impl->kind != StmtKind::kEvaluate) continue;
        const auto& eval = static_cast<const EvaluateNode&>(*ti.impl);
        if (eval.value->kind != ExprKind::kCall) continue;
        if (static_cast<const CallNode&>(*eval.value).op == op) {
            return &ti;
        }
    }
    return nullptr;
}

/**
 * The C emitter, built for the native execution tier (runtime/jit.h)
 * as a *semantic clone* of the interpreter/VM: every buffer is the
 * runtime's raw
 * `double*` storage, index/predicate arithmetic happens in int64 with
 * floor division semantics, value arithmetic happens in double, and
 * domain crossings (loads in int context, casts, stores of int values)
 * use exactly the conversions `Interpreter::evalInt` / `evalValue`
 * apply. Fuel is charged at every statement head — the same accounting
 * points as `Interpreter::exec` and the VM's kStep — except that the
 * native tier executes the *lowered* statement stream, so absolute
 * step counts differ from the other engines (documented in
 * docs/EXECUTION.md).
 */
class JitEmitter
{
  public:
    JitSource
    emit(const PrimFunc& func)
    {
        PrimFunc lowered = lowerToLoops(func);
        TIR_CHECK(isBlockFree(lowered->body))
            << "the native tier requires a fully lowered function";

        for (const Buffer& p : lowered->params) slotOf(p);
        out_.num_params = lowered->params.size();

        std::ostringstream body;
        emitStmt(body, lowered->body, 1);

        std::ostringstream os;
        os << "/* TensorIR native-tier kernel: " << lowered->name
           << " (emitted by codegen::emitJitC) */\n";
        os << "#include <math.h>\n#include <stdint.h>\n\n";
        os << "static inline int64_t tir_floordiv(int64_t a, int64_t "
              "b) {\n    int64_t q = a / b;\n    if ((a % b != 0) && "
              "((a < 0) != (b < 0))) --q;\n    return q;\n}\n";
        os << "static inline int64_t tir_floormod(int64_t a, int64_t "
              "b) {\n    return a - tir_floordiv(a, b) * b;\n}\n";
        // Min/max mirror std::min/std::max operand selection exactly
        // (returns the first operand on ties and on unordered NaN
        // comparisons), so the native tier picks the same NaN payloads
        // the other engines do.
        os << "static inline int64_t tir_imin(int64_t a, int64_t b) "
              "{ return b < a ? b : a; }\n";
        os << "static inline int64_t tir_imax(int64_t a, int64_t b) "
              "{ return a < b ? b : a; }\n";
        os << "static inline double tir_fmin(double a, double b) "
              "{ return b < a ? b : a; }\n";
        os << "static inline double tir_fmax(double a, double b) "
              "{ return a < b ? b : a; }\n";
        os << "static inline int64_t tir_f2i(double v) "
              "{ return (int64_t)trunc(v); }\n\n";
        for (const std::string& helper : mma_helpers_) {
            os << helper << "\n";
        }
        os << "#define TIR_STEP() do { if (tir_limit && ++tir_steps > "
              "tir_limit) return 1; } while (0)\n\n";
        os << "int64_t\n"
           << kEntrySymbol
           << "(double** tir_bufs, int64_t tir_limit)\n{\n"
           << "    int64_t tir_steps = 0;\n"
           << "    (void)tir_steps;\n";
        for (size_t s = 0; s < out_.buffers.size(); ++s) {
            os << "    double* tir_b" << s << " = tir_bufs[" << s
               << "];\n";
        }
        os << "\n" << body.str();
        os << "    return 0;\n}\n";
        out_.code = os.str();
        out_.entry_symbol = kEntrySymbol;
        return std::move(out_);
    }

  private:
    static constexpr const char* kEntrySymbol = "tir_entry";

    /** Stable, collision-free C name for a VarNode (two distinct loop
     *  variables may share a source name after scheduling). */
    std::string
    nameOf(const VarNode* v)
    {
        auto it = var_names_.find(v);
        if (it != var_names_.end()) return it->second;
        std::string base = v->name;
        for (char& c : base) {
            if (!isalnum(static_cast<unsigned char>(c))) c = '_';
        }
        std::string name =
            "v" + std::to_string(var_names_.size()) + "_" + base;
        var_names_[v] = name;
        return name;
    }

    size_t
    slotOf(const Buffer& buffer)
    {
        auto it = slot_of_.find(buffer.get());
        if (it != slot_of_.end()) return it->second;
        size_t slot = out_.buffers.size();
        out_.buffers.push_back(buffer);
        slot_of_[buffer.get()] = slot;
        return slot;
    }

    std::string
    bufName(const Buffer& buffer)
    {
        return "tir_b" + std::to_string(slotOf(buffer));
    }

    /** Row-major Horner offset, the image of Interpreter::linearOffset. */
    std::string
    offsetExpr(const Buffer& buffer, const std::vector<Expr>& indices)
    {
        TIR_ICHECK(indices.size() == buffer->ndim())
            << "buffer " << buffer->name << " has rank "
            << buffer->ndim() << " but the access supplies "
            << indices.size() << " indices";
        std::string result;
        for (size_t d = 0; d < indices.size(); ++d) {
            std::string idx = emitInt(indices[d]);
            if (d == 0) {
                result = idx;
            } else {
                result = "(" + result + ") * INT64_C(" +
                         std::to_string(buffer->shapeInt(d)) + ") + " +
                         idx;
            }
        }
        return result.empty() ? "0" : result;
    }

    /** Exact double literal (C99 hexadecimal float). */
    static std::string
    floatLiteral(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", v);
        return buf;
    }

    /** Mirrors Interpreter::evalInt; the result is an int64 C rvalue. */
    std::string
    emitInt(const Expr& expr)
    {
        switch (expr->kind) {
          case ExprKind::kIntImm:
            return "INT64_C(" +
                   std::to_string(
                       static_cast<const IntImmNode&>(*expr).value) +
                   ")";
          case ExprKind::kFloatImm:
            // evalInt truncates a float immediate at evaluation time;
            // fold the same truncation at emission time.
            return "INT64_C(" +
                   std::to_string(static_cast<int64_t>(
                       static_cast<const FloatImmNode&>(*expr).value)) +
                   ")";
          case ExprKind::kVar:
            return nameOf(static_cast<const VarNode*>(expr.get()));
          case ExprKind::kCast: {
            const Expr& inner =
                static_cast<const CastNode&>(*expr).value;
            if (inner->dtype.isFloat()) {
                return "tir_f2i(" + emitValue(inner) + ")";
            }
            return emitInt(inner);
          }
          case ExprKind::kBufferLoad: {
            const auto& n = static_cast<const BufferLoadNode&>(*expr);
            // Truncating double -> int64 cast, as evalInt's load does.
            return "(int64_t)" + bufName(n.buffer) + "[" +
                   offsetExpr(n.buffer, n.indices) + "]";
          }
          case ExprKind::kNot:
            return "((" +
                   emitInt(static_cast<const NotNode&>(*expr).a) +
                   ") ? INT64_C(0) : INT64_C(1))";
          case ExprKind::kSelect: {
            const auto& n = static_cast<const SelectNode&>(*expr);
            return "((" + emitInt(n.cond) + ") ? (" +
                   emitInt(n.tval) + ") : (" + emitInt(n.fval) + "))";
          }
          default: {
            const auto& n = static_cast<const BinaryNode&>(*expr);
            std::string a = emitInt(n.a);
            std::string b = emitInt(n.b);
            switch (expr->kind) {
              case ExprKind::kAdd: return "(" + a + " + " + b + ")";
              case ExprKind::kSub: return "(" + a + " - " + b + ")";
              case ExprKind::kMul: return "(" + a + " * " + b + ")";
              case ExprKind::kFloorDiv:
                return "tir_floordiv(" + a + ", " + b + ")";
              case ExprKind::kFloorMod:
                return "tir_floormod(" + a + ", " + b + ")";
              case ExprKind::kMin:
                return "tir_imin(" + a + ", " + b + ")";
              case ExprKind::kMax:
                return "tir_imax(" + a + ", " + b + ")";
              case ExprKind::kEQ:
                return "(int64_t)(" + a + " == " + b + ")";
              case ExprKind::kNE:
                return "(int64_t)(" + a + " != " + b + ")";
              case ExprKind::kLT:
                return "(int64_t)(" + a + " < " + b + ")";
              case ExprKind::kLE:
                return "(int64_t)(" + a + " <= " + b + ")";
              case ExprKind::kGT:
                return "(int64_t)(" + a + " > " + b + ")";
              case ExprKind::kGE:
                return "(int64_t)(" + a + " >= " + b + ")";
              case ExprKind::kAnd:
                return "(int64_t)(" + a + " && " + b + ")";
              case ExprKind::kOr:
                return "(int64_t)(" + a + " || " + b + ")";
              default:
                TIR_PANIC
                    << "cannot integer-evaluate expression kind";
            }
          }
        }
    }

    /** Mirrors Interpreter::evalValue; the result is a double rvalue. */
    std::string
    emitValue(const Expr& expr)
    {
        switch (expr->kind) {
          case ExprKind::kIntImm:
            return floatLiteral(static_cast<double>(
                static_cast<const IntImmNode&>(*expr).value));
          case ExprKind::kFloatImm:
            return floatLiteral(
                static_cast<const FloatImmNode&>(*expr).value);
          case ExprKind::kVar:
            return "(double)" +
                   nameOf(static_cast<const VarNode*>(expr.get()));
          case ExprKind::kCast: {
            const auto& n = static_cast<const CastNode&>(*expr);
            std::string v = emitValue(n.value);
            if (n.dtype.isInt() || n.dtype.isBool()) {
                return "trunc(" + v + ")";
            }
            return v;
          }
          case ExprKind::kNot:
            return "((" +
                   emitValue(static_cast<const NotNode&>(*expr).a) +
                   ") == 0.0 ? 1.0 : 0.0)";
          case ExprKind::kSelect: {
            const auto& n = static_cast<const SelectNode&>(*expr);
            return "((" + emitValue(n.cond) + ") != 0.0 ? (" +
                   emitValue(n.tval) + ") : (" + emitValue(n.fval) +
                   "))";
          }
          case ExprKind::kBufferLoad: {
            const auto& n = static_cast<const BufferLoadNode&>(*expr);
            return bufName(n.buffer) + "[" +
                   offsetExpr(n.buffer, n.indices) + "]";
          }
          case ExprKind::kBufferPtr:
            TIR_PANIC << "BufferPtr evaluated as a value";
          case ExprKind::kCall: {
            const auto& n = static_cast<const CallNode&>(*expr);
            // Double-precision libm, the same calls the interpreter
            // and the VM make.
            static const std::map<std::string, std::string> pure = {
                {"exp", "exp"},   {"sqrt", "sqrt"}, {"tanh", "tanh"},
                {"erf", "erf"},   {"log", "log"},   {"abs", "fabs"},
            };
            auto it = pure.find(n.op);
            if (it != pure.end()) {
                return it->second + "(" + emitValue(n.args[0]) + ")";
            }
            if (n.op == "sigmoid") {
                return "(1.0 / (1.0 + exp(-(" + emitValue(n.args[0]) +
                       "))))";
            }
            TIR_FATAL << "unknown pure call in value position: "
                      << n.op;
          }
          default: {
            if (!expr->dtype.isFloat()) {
                return "(double)(" + emitInt(expr) + ")";
            }
            const auto& n = static_cast<const BinaryNode&>(*expr);
            std::string a = emitValue(n.a);
            std::string b = emitValue(n.b);
            switch (expr->kind) {
              case ExprKind::kAdd: return "(" + a + " + " + b + ")";
              case ExprKind::kSub: return "(" + a + " - " + b + ")";
              case ExprKind::kMul: return "(" + a + " * " + b + ")";
              case ExprKind::kDiv: return "(" + a + " / " + b + ")";
              case ExprKind::kMin:
                return "tir_fmin(" + a + ", " + b + ")";
              case ExprKind::kMax:
                return "tir_fmax(" + a + ", " + b + ")";
              default:
                TIR_PANIC << "cannot value-evaluate expression kind";
            }
          }
        }
    }

    /** Tile-MMA helper in the double domain, accumulation order
     *  identical to the registered tileMma runtime semantics (a local
     *  accumulator per output cell, added to C once). */
    std::string
    ensureMmaHelper(const TensorIntrin& ti)
    {
        std::string name = "tir_mma_" + std::to_string(ti.tile_m) +
                           "x" + std::to_string(ti.tile_n) + "x" +
                           std::to_string(ti.tile_k);
        if (emitted_helpers_.insert(name).second) {
            std::ostringstream os;
            os << "static void " << name
               << "(double* c, int64_t ldc, const double* a, "
                  "int64_t lda, const double* b, int64_t ldb)\n"
               << "{\n"
               << "    for (int64_t i = 0; i < " << ti.tile_m
               << "; ++i) {\n"
               << "        for (int64_t j = 0; j < " << ti.tile_n
               << "; ++j) {\n"
               << "            double acc = 0;\n"
               << "            for (int64_t k = 0; k < " << ti.tile_k
               << "; ++k) {\n"
               << "                acc += a[i * lda + k] * "
                  "b[k * ldb + j];\n"
               << "            }\n"
               << "            c[i * ldc + j] += acc;\n"
               << "        }\n"
               << "    }\n"
               << "}\n";
            mma_helpers_.push_back(os.str());
        }
        return name;
    }

    void
    emitIntrin(std::ostringstream& os, const CallNode& call, int level)
    {
        const TensorIntrin* ti = intrinForCall(call.op);
        TIR_CHECK(ti) << "no native-tier rule for intrinsic call "
                      << call.op;
        TIR_CHECK(call.args.size() == 3 &&
                  call.args[0]->kind == ExprKind::kBufferPtr &&
                  call.args[1]->kind == ExprKind::kBufferPtr &&
                  call.args[2]->kind == ExprKind::kBufferPtr)
            << "unsupported intrinsic call shape for the native tier";
        std::string helper = ensureMmaHelper(*ti);
        indent(os, level);
        os << helper << "(";
        for (size_t i = 0; i < 3; ++i) {
            const auto& ptr =
                static_cast<const BufferPtrNode&>(*call.args[i]);
            // Row stride = innermost extent of the backing buffer,
            // matching the runtime semantics' rowStride().
            int64_t ld = ptr.buffer->shapeInt(ptr.buffer->ndim() - 1);
            if (i) os << ", ";
            os << bufName(ptr.buffer) << " + ("
               << offsetExpr(ptr.buffer, ptr.indices) << "), INT64_C("
               << ld << ")";
        }
        os << ");\n";
    }

    void
    indent(std::ostringstream& os, int level)
    {
        for (int i = 0; i < level; ++i) os << "    ";
    }

    /** Mirrors Interpreter::exec on the lowered statement stream,
     *  charging fuel at every statement head. */
    void
    emitStmt(std::ostringstream& os, const Stmt& s, int level)
    {
        indent(os, level);
        os << "TIR_STEP();\n";
        switch (s->kind) {
          case StmtKind::kBufferStore: {
            const auto& n = static_cast<const BufferStoreNode&>(*s);
            // Int-typed values are computed in the integer domain and
            // widened on store, exactly like the VM's ItoF-then-StoreF.
            std::string value =
                n.value->dtype.isFloat()
                    ? emitValue(n.value)
                    : "(double)(" + emitInt(n.value) + ")";
            indent(os, level);
            os << bufName(n.buffer) << "["
               << offsetExpr(n.buffer, n.indices) << "] = " << value
               << ";\n";
            return;
          }
          case StmtKind::kEvaluate: {
            // Storage barriers order GPU threads; the native tier runs
            // thread loops sequentially, so the statement is fuel-only.
            if (asStorageSync(*s)) {
                indent(os, level);
                os << "/* storage_sync */;\n";
                return;
            }
            const auto& n = static_cast<const EvaluateNode&>(*s);
            TIR_ICHECK(n.value->kind == ExprKind::kCall)
                << "Evaluate expects an intrinsic call";
            emitIntrin(os, static_cast<const CallNode&>(*n.value),
                       level);
            return;
          }
          case StmtKind::kSeq: {
            for (const Stmt& sub :
                 static_cast<const SeqStmtNode&>(*s).seq) {
                emitStmt(os, sub, level);
            }
            return;
          }
          case StmtKind::kIfThenElse: {
            const auto& n = static_cast<const IfThenElseNode&>(*s);
            indent(os, level);
            os << "if (" << emitInt(n.cond) << ") {\n";
            emitStmt(os, n.then_case, level + 1);
            if (n.else_case) {
                indent(os, level);
                os << "} else {\n";
                emitStmt(os, n.else_case, level + 1);
            }
            indent(os, level);
            os << "}\n";
            return;
          }
          case StmtKind::kFor: {
            const auto& n = static_cast<const ForNode&>(*s);
            TIR_CHECK(n.for_kind != ForKind::kThreadBinding)
                << "the native tier targets CPU functions only";
            // Bounds are evaluated once, before the loop, as the
            // interpreter does (they are pure, but keep the shape).
            std::string min_name =
                "tir_min" + std::to_string(temp_counter_);
            std::string end_name =
                "tir_end" + std::to_string(temp_counter_++);
            std::string v = nameOf(n.loop_var.get());
            indent(os, level);
            os << "{\n";
            indent(os, level + 1);
            os << "const int64_t " << min_name << " = "
               << emitInt(n.min) << ";\n";
            indent(os, level + 1);
            os << "const int64_t " << end_name << " = " << min_name
               << " + " << emitInt(n.extent) << ";\n";
            indent(os, level + 1);
            os << "for (int64_t " << v << " = " << min_name << "; "
               << v << " < " << end_name << "; ++" << v << ") {\n";
            emitStmt(os, n.body, level + 2);
            indent(os, level + 1);
            os << "}\n";
            indent(os, level);
            os << "}\n";
            return;
          }
          default:
            TIR_PANIC << "block encountered after lowering";
        }
    }

    JitSource out_;
    std::unordered_map<const BufferNode*, size_t> slot_of_;
    std::unordered_map<const VarNode*, std::string> var_names_;
    std::set<std::string> emitted_helpers_;
    std::vector<std::string> mma_helpers_;
    int temp_counter_ = 0;
};

} // namespace

std::string
emitStandaloneC(const PrimFunc& func, int num_outputs)
{
    JitSource src = emitJitC(func);
    TIR_CHECK(num_outputs >= 0 &&
              static_cast<size_t>(num_outputs) <= src.num_params)
        << "emitStandaloneC: " << num_outputs << " outputs of "
        << src.num_params << " parameters";
    const size_t first_output =
        src.num_params - static_cast<size_t>(num_outputs);
    std::ostringstream os;
    os << src.code << "\n#include <stdio.h>\n\nint main(void)\n{\n";
    // Static storage is zero-filled, as the runtime allocates every
    // slot the entry does not receive from its caller.
    for (size_t s = 0; s < src.buffers.size(); ++s) {
        os << "    static double tir_s" << s << "["
           << src.buffers[s]->numel() << "];\n";
    }
    for (size_t s = 0; s < first_output; ++s) {
        os << "    for (int64_t i = 0; i < " << src.buffers[s]->numel()
           << "; ++i) tir_s" << s << "[i] = (double)((i % 7) - 3);\n";
    }
    os << "    double* tir_bufs[] = {";
    for (size_t s = 0; s < src.buffers.size(); ++s) {
        os << (s ? ", " : "") << "tir_s" << s;
    }
    os << "};\n    " << src.entry_symbol << "(tir_bufs, 0);\n";
    for (size_t s = first_output; s < src.num_params; ++s) {
        os << "    { double sum = 0; for (int64_t i = 0; i < "
           << src.buffers[s]->numel() << "; ++i) sum += tir_s" << s
           << "[i]; printf(\"%.6e\\n\", sum); }\n";
    }
    os << "    return 0;\n}\n";
    return os.str();
}

JitSource
emitJitC(const PrimFunc& func)
{
    JitEmitter emitter;
    return emitter.emit(func);
}

} // namespace codegen
} // namespace tir
