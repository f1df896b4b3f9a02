#include "runtime/interpreter.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "arith/interval.h"
#include "support/env.h"
#include "support/failpoint.h"
#include "support/trace.h"
#include "tir/analysis/analysis.h"

namespace tir {
namespace runtime {

namespace {

/** Explicit setDebugChecks override; unset falls through to the env. */
std::optional<bool>&
debugChecksOverride()
{
    static std::optional<bool> value;
    return value;
}

/** Explicit setDefaultStepLimit override; unset falls to the env.
 *  Thread-local: concurrent tuning sessions (the schedule server runs
 *  background autoTune jobs in parallel) install their fuel budgets
 *  per thread, and all execution of a session happens on its own
 *  thread. */
std::optional<uint64_t>&
stepLimitOverride()
{
    static thread_local std::optional<uint64_t> value;
    return value;
}

/**
 * The intrinsic registry is written once per registration and read from
 * concurrent search workers (every candidate evaluation resolves its
 * intrinsic calls). Copy-on-write: writers rebuild an immutable map and
 * swap the pointer under the mutex; readers copy the pointer under the
 * same mutex and never observe a map mid-mutation. (Not
 * std::atomic<std::shared_ptr>: libstdc++ 12 releases its internal lock
 * with relaxed order, a race TSan reports.)
 */
std::mutex&
registryMutex()
{
    static std::mutex m;
    return m;
}

std::shared_ptr<const IntrinsicRegistry>&
registrySlot()
{
    static std::shared_ptr<const IntrinsicRegistry> slot =
        std::make_shared<const IntrinsicRegistry>();
    return slot;
}

/** The current immutable registry snapshot. */
std::shared_ptr<const IntrinsicRegistry>
intrinsicSnapshot()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    return registrySlot();
}

} // namespace

void
Interpreter::registerIntrinsic(const std::string& name, IntrinsicImpl impl)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    auto next = std::make_shared<IntrinsicRegistry>(*registrySlot());
    (*next)[name] = std::move(impl);
    registrySlot() = std::move(next);
}

bool
Interpreter::hasIntrinsic(const std::string& name)
{
    return intrinsicSnapshot()->count(name) > 0;
}

void
Interpreter::setDebugChecks(std::optional<bool> enabled)
{
    debugChecksOverride() = enabled;
}

bool
Interpreter::debugChecksEnabled()
{
    if (debugChecksOverride()) return *debugChecksOverride();
    return support::envFlag("TENSORIR_DEBUG_CHECKS", false);
}

void
Interpreter::setDefaultStepLimit(uint64_t limit)
{
    stepLimitOverride() = limit;
}

void
Interpreter::clearDefaultStepLimit()
{
    stepLimitOverride().reset();
}

uint64_t
Interpreter::defaultStepLimit()
{
    if (stepLimitOverride()) return *stepLimitOverride();
    if (const char* env = std::getenv("TENSORIR_STEP_LIMIT")) {
        // strtoull would map garbage ("abc", "10x", "-1") to 0 or a
        // wrapped value; 0 means *unlimited* fuel, so a typo silently
        // disarming the budget is the worst possible failure mode.
        const char* p = env;
        TIR_CHECK(*p != '\0' &&
                  std::all_of(p, p + std::string(env).size(),
                              [](unsigned char c) {
                                  return std::isdigit(c) != 0;
                              }))
            << "TENSORIR_STEP_LIMIT must be a non-negative integer, "
               "got \""
            << env << "\"";
        errno = 0;
        char* end = nullptr;
        uint64_t value = std::strtoull(env, &end, 10);
        TIR_CHECK(errno != ERANGE && end && *end == '\0')
            << "TENSORIR_STEP_LIMIT out of range: \"" << env << "\"";
        return value;
    }
    return 0;
}

ScopedStepLimit::ScopedStepLimit(uint64_t limit)
    : saved_(stepLimitOverride())
{
    Interpreter::setDefaultStepLimit(limit);
}

ScopedStepLimit::~ScopedStepLimit()
{
    stepLimitOverride() = saved_;
}

std::vector<NDArray>
seededArguments(const PrimFunc& func, Rng& rng)
{
    std::vector<NDArray> arrays;
    for (const Buffer& param : func->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < param->ndim(); ++d) {
            shape.push_back(param->shapeInt(d));
        }
        NDArray array(param->dtype, shape);
        if (param->dtype.isInt()) {
            array.fillRandom(rng, -4, 4);
        } else {
            array.fillRandom(rng);
        }
        arrays.push_back(std::move(array));
    }
    return arrays;
}

void
validateArguments(const PrimFunc& func, const std::vector<NDArray*>& args)
{
    TIR_CHECK(args.size() == func->params.size())
        << func->name << " expects " << func->params.size()
        << " arguments, got " << args.size();
    for (size_t i = 0; i < args.size(); ++i) {
        const Buffer& param = func->params[i];
        const std::vector<int64_t>& shape = args[i]->shape();
        // Per-dimension equality, not numel(): a 2x6 array must not
        // silently bind to a 3x4 parameter even though both hold 12
        // elements — every strided access would read the wrong cell.
        TIR_CHECK(shape.size() == param->ndim())
            << "argument " << i << " of " << func->name << " has rank "
            << shape.size() << ", parameter " << param->name
            << " expects rank " << param->ndim();
        for (size_t d = 0; d < shape.size(); ++d) {
            TIR_CHECK(shape[d] == param->shapeInt(d))
                << "argument " << i << " of " << func->name
                << " has extent " << shape[d] << " in dimension " << d
                << ", parameter " << param->name << " expects "
                << param->shapeInt(d);
        }
    }
}

void
Interpreter::run(const PrimFunc& func, const std::vector<NDArray*>& args)
{
    validateArguments(func, args);
    trace::Span span("interp.run", trace::arg("func", func->name));
    if (failpoint::inject("interp.run")) {
        throw EvalError("injected interpreter fault (failpoint "
                        "interp.run) in " +
                        func->name);
    }
    steps_ = 0;
    active_limit_ = step_limit_ ? *step_limit_ : defaultStepLimit();
    env_.clear();
    storage_.clear();
    bound_.clear();
    registry_ = intrinsicSnapshot();
    for (size_t i = 0; i < args.size(); ++i) {
        bound_[func->params[i].get()] = args[i];
    }
    if (debugChecksEnabled()) {
        analysis::AnalysisReport report = analysis::analyzeFunc(func);
        TIR_CHECK(report.ok())
            << "static memory analysis failed for " << func->name
            << " before execution:\n"
            << report.summary();
    }
    exec(func->body);
}

NDArray*
Interpreter::getArray(const Buffer& buffer)
{
    auto bound_it = bound_.find(buffer.get());
    if (bound_it != bound_.end()) return bound_it->second;
    auto it = storage_.find(buffer.get());
    if (it != storage_.end()) return it->second.get();
    std::vector<int64_t> shape;
    shape.reserve(buffer->ndim());
    for (size_t d = 0; d < buffer->ndim(); ++d) {
        shape.push_back(buffer->shapeInt(d));
    }
    auto array = std::make_unique<NDArray>(buffer->dtype, shape);
    NDArray* raw = array.get();
    storage_[buffer.get()] = std::move(array);
    return raw;
}

int64_t
Interpreter::linearOffset(const Buffer& buffer,
                          const std::vector<Expr>& indices)
{
    // An under-indexed access would quietly compute an offset into the
    // leading dimensions and read the wrong element.
    TIR_ICHECK(indices.size() == buffer->ndim())
        << "buffer " << buffer->name << " has rank " << buffer->ndim()
        << " but the access supplies " << indices.size() << " indices";
    int64_t offset = 0;
    for (size_t d = 0; d < indices.size(); ++d) {
        offset = offset * buffer->shapeInt(d) + evalInt(indices[d]);
    }
    return offset;
}

int64_t
Interpreter::evalInt(const Expr& expr)
{
    switch (expr->kind) {
      case ExprKind::kIntImm:
        return static_cast<const IntImmNode&>(*expr).value;
      case ExprKind::kFloatImm:
        return static_cast<int64_t>(
            static_cast<const FloatImmNode&>(*expr).value);
      case ExprKind::kVar: {
        auto it = env_.find(static_cast<const VarNode*>(expr.get()));
        TIR_ICHECK(it != env_.end())
            << "unbound variable "
            << static_cast<const VarNode&>(*expr).name;
        return it->second;
      }
      case ExprKind::kCast: {
        const Expr& inner = static_cast<const CastNode&>(*expr).value;
        if (inner->dtype.isFloat()) {
            return static_cast<int64_t>(std::trunc(evalValue(inner)));
        }
        return evalInt(inner);
      }
      case ExprKind::kBufferLoad: {
        const auto& n = static_cast<const BufferLoadNode&>(*expr);
        return static_cast<int64_t>(
            getArray(n.buffer)->at(linearOffset(n.buffer, n.indices)));
      }
      case ExprKind::kNot:
        return evalInt(static_cast<const NotNode&>(*expr).a) ? 0 : 1;
      case ExprKind::kSelect: {
        const auto& n = static_cast<const SelectNode&>(*expr);
        return evalInt(n.cond) ? evalInt(n.tval) : evalInt(n.fval);
      }
      default: {
        const auto& n = static_cast<const BinaryNode&>(*expr);
        int64_t a = evalInt(n.a);
        int64_t b = evalInt(n.b);
        switch (expr->kind) {
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
    }
}

double
Interpreter::evalValue(const Expr& expr)
{
    switch (expr->kind) {
      case ExprKind::kIntImm:
        return static_cast<double>(
            static_cast<const IntImmNode&>(*expr).value);
      case ExprKind::kFloatImm:
        return static_cast<const FloatImmNode&>(*expr).value;
      case ExprKind::kVar:
        return static_cast<double>(evalInt(expr));
      case ExprKind::kCast: {
        const auto& n = static_cast<const CastNode&>(*expr);
        double v = evalValue(n.value);
        if (n.dtype.isInt() || n.dtype.isBool()) return std::trunc(v);
        return v;
      }
      case ExprKind::kNot:
        return evalValue(static_cast<const NotNode&>(*expr).a) == 0.0;
      case ExprKind::kSelect: {
        const auto& n = static_cast<const SelectNode&>(*expr);
        return evalValue(n.cond) != 0.0 ? evalValue(n.tval)
                                        : evalValue(n.fval);
      }
      case ExprKind::kBufferLoad: {
        const auto& n = static_cast<const BufferLoadNode&>(*expr);
        return getArray(n.buffer)->at(linearOffset(n.buffer, n.indices));
      }
      case ExprKind::kBufferPtr:
        TIR_PANIC << "BufferPtr evaluated as a value";
      case ExprKind::kCall: {
        const auto& n = static_cast<const CallNode&>(*expr);
        if (n.op == "exp") return std::exp(evalValue(n.args[0]));
        if (n.op == "sqrt") return std::sqrt(evalValue(n.args[0]));
        if (n.op == "tanh") return std::tanh(evalValue(n.args[0]));
        if (n.op == "erf") return std::erf(evalValue(n.args[0]));
        if (n.op == "sigmoid") {
            return 1.0 / (1.0 + std::exp(-evalValue(n.args[0])));
        }
        if (n.op == "abs") return std::fabs(evalValue(n.args[0]));
        if (n.op == "log") return std::log(evalValue(n.args[0]));
        TIR_FATAL << "unknown pure call in value position: " << n.op;
      }
      default: {
        const auto& n = static_cast<const BinaryNode&>(*expr);
        if (!expr->dtype.isFloat()) {
            return static_cast<double>(evalInt(expr));
        }
        double a = evalValue(n.a);
        double b = evalValue(n.b);
        switch (expr->kind) {
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
    }
}

BufferRef
Interpreter::resolvePtr(const Expr& expr)
{
    TIR_ICHECK(expr->kind == ExprKind::kBufferPtr)
        << "intrinsic argument is not a buffer pointer";
    const auto& n = static_cast<const BufferPtrNode&>(*expr);
    return {getArray(n.buffer), linearOffset(n.buffer, n.indices),
            n.buffer.get()};
}

void
Interpreter::exec(const Stmt& stmt)
{
    // Fuel accounting: statements are the loop carriers, so counting
    // them bounds every runaway program (an infinite loop executes its
    // body statements forever) without taxing expression evaluation.
    if (active_limit_ != 0 && ++steps_ > active_limit_) {
        throw EvalError("interpreter step limit of " +
                        std::to_string(active_limit_) +
                        " statements exceeded (runaway program?)");
    }
    switch (stmt->kind) {
      case StmtKind::kBufferStore: {
        const auto& n = static_cast<const BufferStoreNode&>(*stmt);
        double value = n.value->dtype.isFloat()
                           ? evalValue(n.value)
                           : static_cast<double>(evalInt(n.value));
        getArray(n.buffer)->at(linearOffset(n.buffer, n.indices)) = value;
        return;
      }
      case StmtKind::kEvaluate: {
        // Storage barriers order threads on real hardware; sequential
        // execution is already ordered, so they are no-ops here.
        if (asStorageSync(*stmt)) return;
        const auto& n = static_cast<const EvaluateNode&>(*stmt);
        TIR_ICHECK(n.value->kind == ExprKind::kCall)
            << "Evaluate expects an intrinsic call";
        const auto& c = static_cast<const CallNode&>(*n.value);
        auto it = registry_->find(c.op);
        TIR_CHECK(it != registry_->end())
            << "no runtime semantics registered for intrinsic " << c.op;
        it->second(*this, c);
        return;
      }
      case StmtKind::kSeq: {
        for (const Stmt& s : static_cast<const SeqStmtNode&>(*stmt).seq) {
            exec(s);
        }
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto& n = static_cast<const IfThenElseNode&>(*stmt);
        if (evalInt(n.cond)) {
            exec(n.then_case);
        } else if (n.else_case) {
            exec(n.else_case);
        }
        return;
      }
      case StmtKind::kFor: {
        const auto& n = static_cast<const ForNode&>(*stmt);
        int64_t min_v = evalInt(n.min);
        int64_t extent = evalInt(n.extent);
        // Save a shadowed outer binding of the same VarNode: erasing
        // unconditionally after the loop would destroy it and any
        // later use of the outer variable would fault as unbound.
        std::optional<int64_t> shadowed;
        if (auto it = env_.find(n.loop_var.get()); it != env_.end()) {
            shadowed = it->second;
        }
        for (int64_t i = 0; i < extent; ++i) {
            env_[n.loop_var.get()] = min_v + i;
            exec(n.body);
        }
        if (shadowed) {
            env_[n.loop_var.get()] = *shadowed;
        } else {
            env_.erase(n.loop_var.get());
        }
        return;
      }
      case StmtKind::kBlock:
        TIR_PANIC << "bare Block outside BlockRealize";
      case StmtKind::kBlockRealize: {
        const auto& n = static_cast<const BlockRealizeNode&>(*stmt);
        if (!evalInt(n.predicate)) return;
        const BlockNode& block = *n.block;
        bool at_reduction_start = true;
        // Same save/restore discipline as kFor: a block iter var may
        // shadow an outer binding of the same VarNode.
        std::vector<std::optional<int64_t>> shadowed(
            block.iter_vars.size());
        for (size_t i = 0; i < block.iter_vars.size(); ++i) {
            const IterVar& iv = block.iter_vars[i];
            int64_t value = evalInt(n.iter_values[i]);
            if (auto it = env_.find(iv.var.get()); it != env_.end()) {
                shadowed[i] = it->second;
            }
            env_[iv.var.get()] = value;
            if (iv.type == IterType::kReduce &&
                value != evalInt(iv.dom.min)) {
                at_reduction_start = false;
            }
        }
        if (block.init && at_reduction_start) exec(block.init);
        exec(block.body);
        // Restore in reverse so a VarNode appearing twice in iter_vars
        // unwinds to the outermost shadowed value.
        for (size_t i = block.iter_vars.size(); i-- > 0;) {
            const IterVar& iv = block.iter_vars[i];
            if (shadowed[i]) {
                env_[iv.var.get()] = *shadowed[i];
            } else {
                env_.erase(iv.var.get());
            }
        }
        return;
      }
    }
}

} // namespace runtime
} // namespace tir
