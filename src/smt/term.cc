#include "src/smt/term.h"

#include <algorithm>
#include <new>
#include <type_traits>

#include "src/support/check.h"

namespace noctua::smt {
namespace {

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Spreads the mixed bits over the low ones, which index the intern tables.
uint64_t HashFinish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashString(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// The slot of `table` (power-of-two size, never full) holding an entry of `generation`
// with hash `h` that `same` accepts, or else the empty slot where such an entry belongs.
// Slots carry the low half of their entry's hash, so a probe dereferences only entries
// whose hash matches; a slot written in another generation is empty.
template <typename Slot, typename Same>
Slot* Probe(std::vector<Slot>& table, uint32_t generation, uint64_t h, const Same& same) {
  const size_t mask = table.size() - 1;
  const auto low = static_cast<uint32_t>(h);
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    Slot& s = table[i];
    if (s.generation != generation || (s.hash == low && same(s.entry))) {
      return &s;
    }
  }
}

// Doubles `table` once it holds `count` entries of `generation` and is half full.
template <typename Slot>
void MaybeGrow(std::vector<Slot>& table, uint32_t generation, size_t count) {
  if (2 * count <= table.size()) {
    return;
  }
  std::vector<Slot> old(2 * table.size());
  old.swap(table);
  for (const Slot& s : old) {
    if (s.generation == generation) {
      *Probe(table, generation, s.hash, [](const auto*) { return false; }) = s;
    }
  }
}

bool IsBinderKind(TermKind k) {
  switch (k) {
    case TermKind::kArrayLambda:
    case TermKind::kForall:
    case TermKind::kExists:
    case TermKind::kCount:
    case TermKind::kSum:
    case TermKind::kMinAgg:
    case TermKind::kMaxAgg:
    case TermKind::kArgExtreme:
      return true;
    default:
      return false;
  }
}

// True for fully-ground array indices (a Ref literal or a pair of Ref literals).
bool IsGroundIndex(Term t) {
  if (t->kind() == TermKind::kRefLit) {
    return true;
  }
  return t->kind() == TermKind::kMkPair && t->child(0)->kind() == TermKind::kRefLit &&
         t->child(1)->kind() == TermKind::kRefLit;
}

// The one definition of a ground atom (TermData::is_ground_atom), judged at interning
// from the node's own shape and its already-interned children.
bool IsGroundAtomShape(TermKind kind, Sort sort, std::span<const Term> children) {
  switch (kind) {
    case TermKind::kConst:
      return !sort->is_array() && !sort->is_tuple();
    case TermKind::kSelect:
      return children[0]->kind() == TermKind::kConst && IsGroundIndex(children[1]) &&
             !sort->is_tuple();
    case TermKind::kProj: {
      Term cell = children[0];
      return cell->kind() == TermKind::kSelect && cell->child(0)->kind() == TermKind::kConst &&
             IsGroundIndex(cell->child(1));
    }
    default:
      return false;
  }
}

const char* KindName(TermKind k) {
  switch (k) {
    case TermKind::kConst: return "const";
    case TermKind::kBoundVar: return "var";
    case TermKind::kBoolLit: return "bool";
    case TermKind::kIntLit: return "int";
    case TermKind::kStrLit: return "str";
    case TermKind::kRefLit: return "ref";
    case TermKind::kAnd: return "and";
    case TermKind::kOr: return "or";
    case TermKind::kNot: return "not";
    case TermKind::kImplies: return "=>";
    case TermKind::kIte: return "ite";
    case TermKind::kEq: return "=";
    case TermKind::kDistinct: return "distinct";
    case TermKind::kAdd: return "+";
    case TermKind::kSub: return "-";
    case TermKind::kMul: return "*";
    case TermKind::kNeg: return "neg";
    case TermKind::kLt: return "<";
    case TermKind::kLe: return "<=";
    case TermKind::kConcat: return "concat";
    case TermKind::kMkTuple: return "tuple";
    case TermKind::kProj: return "proj";
    case TermKind::kConstArray: return "K";
    case TermKind::kStore: return "store";
    case TermKind::kSelect: return "select";
    case TermKind::kArrayLambda: return "lambda";
    case TermKind::kMkPair: return "pair";
    case TermKind::kFst: return "fst";
    case TermKind::kSnd: return "snd";
    case TermKind::kForall: return "forall";
    case TermKind::kExists: return "exists";
    case TermKind::kCount: return "count";
    case TermKind::kSum: return "sum";
    case TermKind::kMinAgg: return "min";
    case TermKind::kMaxAgg: return "max";
    case TermKind::kArgExtreme: return "argext";
  }
  return "?";
}

}  // namespace

std::string TermData::ToString() const {
  switch (kind_) {
    case TermKind::kConst:
      return std::string(str_payload());
    case TermKind::kBoundVar:
      return "$" + std::to_string(int_payload_);
    case TermKind::kBoolLit:
      return int_payload_ ? "true" : "false";
    case TermKind::kIntLit:
      return std::to_string(int_payload_);
    case TermKind::kStrLit:
      return "\"" + std::string(str_payload()) + "\"";
    case TermKind::kRefLit:
      return "#" + std::to_string(int_payload_);
    case TermKind::kProj:
      return "(proj." + std::to_string(int_payload_) + " " + child(0)->ToString() + ")";
    default: {
      std::string out = "(";
      out += KindName(kind_);
      if (IsBinderKind(kind_)) {
        out += " $" + std::to_string(int_payload_);
      }
      for (Term c : children()) {
        out += " " + c->ToString();
      }
      return out + ")";
    }
  }
}

TermFactory::TermFactory() {
  // A pair session interns a few thousand terms at least; starting there saves the
  // early growth steps.
  terms_.resize(4096);
  sorts_.resize(64);
}
TermFactory::~TermFactory() {
  NOCTUA_CHECK_MSG(leased_maps_ == 0, "TermFactory destroyed with a ScratchMap on lease");
}

void TermFactory::Reset() {
  NOCTUA_CHECK_MSG(leased_maps_ == 0, "TermFactory::Reset with a ScratchMap on lease");
  if (++generation_ == 0) {  // wrapped: no old slot may carry the new generation
    for (auto& s : terms_) {
      s.generation = 0;
    }
    for (auto& s : sorts_) {
      s.generation = 0;
    }
    generation_ = 1;
  }
  num_terms_ = 0;
  num_sorts_ = 0;
  blocks_in_use_ = 0;
  block_next_ = nullptr;
  block_end_ = nullptr;
  next_bound_var_ = 0;
  intern_hits_ = 0;
}

void* TermFactory::Allocate(size_t bytes) {
  bytes = (bytes + 7) & ~size_t{7};
  if (static_cast<size_t>(block_end_ - block_next_) < bytes) {
    NextBlock(bytes);
  }
  void* out = block_next_;
  block_next_ += bytes;
  return out;
}

void TermFactory::NextBlock(size_t bytes) {
  // The blocks kept by Reset come first, in order; a request too large for the next one
  // gets a new block in its place.
  if (blocks_in_use_ == blocks_.size() || blocks_[blocks_in_use_].size < bytes) {
    const size_t size = std::max(bytes, next_block_bytes_);
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(blocks_in_use_),
                   Block{std::make_unique_for_overwrite<std::byte[]>(size), size});
    next_block_bytes_ = std::min(2 * next_block_bytes_, size_t{1} << 20);
  }
  Block& b = blocks_[blocks_in_use_++];
  block_next_ = b.bytes.get();
  block_end_ = block_next_ + b.size;
}

Sort TermFactory::InternSort(SortKind kind, int model_id, std::span<const Sort> children) {
  uint64_t h = HashMix(static_cast<uint64_t>(kind) * 0x100000001b3ULL,
                       static_cast<uint64_t>(model_id + 1));
  for (Sort c : children) {
    h = HashMix(h, c->hash());
  }
  h = HashFinish(h);
  auto* slot = Probe(sorts_, generation_, h, [&](const SortData* s) {
    return s->kind_ == kind && s->model_id_ == model_id &&
           std::ranges::equal(s->children(), children);
  });
  if (slot->generation == generation_) {
    return slot->entry;
  }
  Sort* kids = static_cast<Sort*>(Allocate(children.size() * sizeof(Sort)));
  std::ranges::copy(children, kids);
  auto* s = new (Allocate(sizeof(SortData)))
      SortData(kind, model_id, kids, static_cast<uint32_t>(children.size()), h);
  *slot = {static_cast<uint32_t>(h), generation_, s};
  MaybeGrow(sorts_, generation_, ++num_sorts_);
  return s;
}

Sort TermFactory::RefSort(int model_id) {
  NOCTUA_CHECK(model_id >= 0);
  return InternSort(SortKind::kRef, model_id, {});
}

Sort TermFactory::PairSort(Sort ref1, Sort ref2) {
  NOCTUA_CHECK(ref1->is_ref() && ref2->is_ref());
  const Sort kids[] = {ref1, ref2};
  return InternSort(SortKind::kPair, -1, kids);
}

Sort TermFactory::TupleSort(std::span<const Sort> fields) {
  return InternSort(SortKind::kTuple, -1, fields);
}

Sort TermFactory::ArraySort(Sort index, Sort element) {
  NOCTUA_CHECK_MSG(index->is_finite_domain(), "array index sort must be Ref or Pair");
  const Sort kids[] = {index, element};
  return InternSort(SortKind::kArray, -1, kids);
}

Term TermFactory::Intern(TermKind kind, Sort sort, std::span<const Term> children,
                         int64_t int_payload, int64_t int_payload2, std::string_view str_payload,
                         Sort binder_sort) {
  uint64_t h = HashMix(static_cast<uint64_t>(kind), sort->hash());
  for (Term c : children) {
    h = HashMix(h, c->id());
  }
  h = HashMix(h, static_cast<uint64_t>(int_payload));
  h = HashMix(h, static_cast<uint64_t>(int_payload2));
  h = HashMix(h, HashString(str_payload));
  if (binder_sort != nullptr) {
    h = HashMix(h, binder_sort->hash());
  }
  h = HashFinish(h);

  auto* slot = Probe(terms_, generation_, h, [&](const TermData* t) {
    return t->kind_ == kind && t->sort_ == sort && t->int_payload_ == int_payload &&
           t->int_payload2_ == int_payload2 && t->binder_sort_ == binder_sort &&
           t->str_payload() == str_payload && std::ranges::equal(t->children(), children);
  });
  if (slot->generation == generation_) {
    ++intern_hits_;
    return slot->entry;
  }

  // One allocation holds the node, then its children, then its string payload. Nothing
  // in the factory's blocks is ever destroyed one by one.
  static_assert(std::is_trivially_destructible_v<TermData>);
  static_assert(std::is_trivially_destructible_v<SortData>);
  static_assert(sizeof(TermData) % alignof(Term) == 0);
  auto* mem = static_cast<std::byte*>(
      Allocate(sizeof(TermData) + children.size() * sizeof(Term) + str_payload.size()));
  auto* t = new (mem) TermData();
  Term* kids = reinterpret_cast<Term*>(mem + sizeof(TermData));
  std::ranges::copy(children, kids);
  char* str = reinterpret_cast<char*>(kids + children.size());
  std::ranges::copy(str_payload, str);
  t->kind_ = kind;
  t->sort_ = sort;
  t->children_ = kids;
  t->num_children_ = static_cast<uint32_t>(children.size());
  t->int_payload_ = int_payload;
  t->int_payload2_ = int_payload2;
  t->str_payload_ = str;
  t->str_size_ = str_payload.size();
  t->binder_sort_ = binder_sort;
  t->id_ = num_terms_;
  t->is_ground_atom_ = IsGroundAtomShape(kind, sort, children);
  // Free bound-variable tracking: a binder removes its own variable from scope.
  bool hbv = kind == TermKind::kBoundVar;
  uint64_t sig = t->is_ground_atom_ ? uint64_t{1} << (t->id_ & 63) : 0;
  for (Term c : children) {
    hbv = hbv || c->has_bound_var();
    sig |= c->atom_sig();
  }
  t->atom_sig_ = sig;
  if (IsBinderKind(kind)) {
    // Conservative: we do not track exact free-variable sets, so a binder only clears the
    // flag when its body mentions no *other* variables. We detect that cheaply by checking
    // whether the body's variables are all equal to the binder's own id.
    bool other = false;
    for (Term c : children) {
      other = other || HasOtherBoundVar(c, int_payload);
    }
    hbv = other;
  }
  t->has_bound_var_ = hbv;
  *slot = {static_cast<uint32_t>(h), generation_, t};
  MaybeGrow(terms_, generation_, ++num_terms_);
  return t;
}

// Returns true if `t` contains a bound variable whose id differs from `self_id`.
// (File-scope helper declared here because Intern needs it.)
static bool HasOtherBoundVarImpl(Term t, int64_t self_id) {
  if (!t->has_bound_var()) {
    return false;
  }
  if (t->kind() == TermKind::kBoundVar) {
    return t->int_payload() != self_id;
  }
  for (Term c : t->children()) {
    if (HasOtherBoundVarImpl(c, self_id)) {
      return true;
    }
  }
  return false;
}

bool HasOtherBoundVar(Term t, int64_t self_id) { return HasOtherBoundVarImpl(t, self_id); }

// --- Leaves -----------------------------------------------------------------------------

Term TermFactory::Const(std::string_view name, Sort sort) {
  return Intern(TermKind::kConst, sort, {}, 0, 0, name, nullptr);
}

Term TermFactory::BoolLit(bool v) {
  return Intern(TermKind::kBoolLit, BoolSort(), {}, v ? 1 : 0, 0, "", nullptr);
}

Term TermFactory::IntLit(int64_t v) {
  return Intern(TermKind::kIntLit, IntSort(), {}, v, 0, "", nullptr);
}

Term TermFactory::StrLit(std::string_view v) {
  return Intern(TermKind::kStrLit, StringSort(), {}, 0, 0, v, nullptr);
}

Term TermFactory::RefLit(Sort ref_sort, int64_t index) {
  NOCTUA_CHECK(ref_sort->is_ref());
  NOCTUA_CHECK(index >= 0);
  return Intern(TermKind::kRefLit, ref_sort, {}, index, 0, "", nullptr);
}

Term TermFactory::NewBoundVar(Sort sort) {
  return Intern(TermKind::kBoundVar, sort, {}, next_bound_var_++, 0, "", nullptr);
}

// --- Boolean ----------------------------------------------------------------------------

bool TermFactory::GatherJuncts(std::span<const Term> xs, TermKind kind, bool unit) {
  std::vector<Term>& uniq = junct_scratch_;
  uniq.clear();
  // Deduplicates and detects complementary literals.
  auto add = [&](Term x) {
    for (Term u : uniq) {
      if (u == x) {
        return true;
      }
    }
    for (Term u : uniq) {
      if ((u->kind() == TermKind::kNot && u->child(0) == x) ||
          (x->kind() == TermKind::kNot && x->child(0) == u)) {
        return false;
      }
    }
    uniq.push_back(x);
    return true;
  };
  for (Term x : xs) {
    NOCTUA_DCHECK(x->sort()->is_bool());
    if (x->IsBoolLit(unit)) {
      continue;
    }
    if (x->IsBoolLit(!unit)) {
      return false;
    }
    if (x->kind() == kind) {
      for (Term c : x->children()) {
        if (!add(c)) {
          return false;
        }
      }
    } else if (!add(x)) {
      return false;
    }
  }
  return true;
}

Term TermFactory::And(std::span<const Term> xs) {
  if (!GatherJuncts(xs, TermKind::kAnd, true)) {
    return False();
  }
  if (junct_scratch_.empty()) {
    return True();
  }
  if (junct_scratch_.size() == 1) {
    return junct_scratch_[0];
  }
  return Intern(TermKind::kAnd, BoolSort(), junct_scratch_, 0, 0, "", nullptr);
}

Term TermFactory::Or(std::span<const Term> xs) {
  if (!GatherJuncts(xs, TermKind::kOr, false)) {
    return True();
  }
  if (junct_scratch_.empty()) {
    return False();
  }
  if (junct_scratch_.size() == 1) {
    return junct_scratch_[0];
  }
  return Intern(TermKind::kOr, BoolSort(), junct_scratch_, 0, 0, "", nullptr);
}

Term TermFactory::Not(Term a) {
  NOCTUA_DCHECK(a->sort()->is_bool());
  if (a->kind() == TermKind::kBoolLit) {
    return BoolLit(a->int_payload() == 0);
  }
  if (a->kind() == TermKind::kNot) {
    return a->child(0);
  }
  return Intern(TermKind::kNot, BoolSort(), {a}, 0, 0, "", nullptr);
}

Term TermFactory::Implies(Term a, Term b) { return Or(Not(a), b); }

Term TermFactory::Ite(Term cond, Term then_t, Term else_t) {
  NOCTUA_DCHECK(cond->sort()->is_bool());
  NOCTUA_DCHECK(then_t->sort() == else_t->sort());
  if (cond->IsBoolLit(true)) {
    return then_t;
  }
  if (cond->IsBoolLit(false)) {
    return else_t;
  }
  if (then_t == else_t) {
    return then_t;
  }
  if (then_t->sort()->is_bool()) {
    if (then_t->IsBoolLit(true) && else_t->IsBoolLit(false)) {
      return cond;
    }
    if (then_t->IsBoolLit(false) && else_t->IsBoolLit(true)) {
      return Not(cond);
    }
    // Boolean ite is cheap to express with connectives, which the 3-valued evaluator
    // short-circuits better.
    return Or(And(cond, then_t), And(Not(cond), else_t));
  }
  return Intern(TermKind::kIte, then_t->sort(), {cond, then_t, else_t}, 0, 0, "", nullptr);
}

Term TermFactory::Eq(Term a, Term b) {
  NOCTUA_CHECK_MSG(a->sort() == b->sort(),
                   "eq sorts differ: " << a->sort()->ToString() << " vs "
                                       << b->sort()->ToString());
  if (a == b) {
    return True();
  }
  if (a->IsLiteral() && b->IsLiteral()) {
    // Interning guarantees equal literals are pointer-equal.
    return False();
  }
  if (a->sort()->is_bool()) {
    if (a->kind() == TermKind::kBoolLit) {
      return a->int_payload() ? b : Not(b);
    }
    if (b->kind() == TermKind::kBoolLit) {
      return b->int_payload() ? a : Not(a);
    }
  }
  if (a->sort()->is_tuple()) {
    // Tuple equality decomposes element-wise, so each field constrains search separately.
    std::vector<Term> eqs;
    for (size_t i = 0; i < a->sort()->children().size(); ++i) {
      eqs.push_back(Eq(Proj(a, static_cast<int64_t>(i)), Proj(b, static_cast<int64_t>(i))));
    }
    return And(eqs);
  }
  if (a->kind() == TermKind::kMkPair && b->kind() == TermKind::kMkPair) {
    return And(Eq(a->child(0), b->child(0)), Eq(a->child(1), b->child(1)));
  }
  // Canonical argument order for commutative equality.
  if (a->id() > b->id()) {
    std::swap(a, b);
  }
  return Intern(TermKind::kEq, BoolSort(), {a, b}, 0, 0, "", nullptr);
}

Term TermFactory::Distinct(std::span<const Term> xs) {
  if (xs.size() < 2) {
    return True();
  }
  bool all_lit = true;
  for (Term x : xs) {
    all_lit = all_lit && x->IsLiteral();
  }
  if (all_lit) {
    for (size_t i = 0; i < xs.size(); ++i) {
      for (size_t j = i + 1; j < xs.size(); ++j) {
        if (xs[i] == xs[j]) {
          return False();
        }
      }
    }
    return True();
  }
  return Intern(TermKind::kDistinct, BoolSort(), xs, 0, 0, "", nullptr);
}

// --- Integers ---------------------------------------------------------------------------
//
// Integer terms are kept in a *linear normal form*: every +,-,neg,const*term combination
// is flattened into c0 + c1*t1 + ... + cn*tn with the ti sorted by term id. Combined with
// hash consing, algebraically equal sums become pointer-equal, so the commutativity rule's
// state equalities (balance + x + y vs balance + y + x) collapse statically — the job
// Z3's arithmetic simplifier does in the paper's pipeline.

void TermFactory::DecomposeLinear(Term t, int64_t scale, std::map<Term, int64_t>& coeffs,
                                  int64_t& constant) {
  if (scale == 0) {
    return;
  }
  switch (t->kind()) {
    case TermKind::kIntLit:
      constant += scale * t->int_payload();
      return;
    case TermKind::kAdd:
      DecomposeLinear(t->child(0), scale, coeffs, constant);
      DecomposeLinear(t->child(1), scale, coeffs, constant);
      return;
    case TermKind::kSub:
      DecomposeLinear(t->child(0), scale, coeffs, constant);
      DecomposeLinear(t->child(1), -scale, coeffs, constant);
      return;
    case TermKind::kNeg:
      DecomposeLinear(t->child(0), -scale, coeffs, constant);
      return;
    case TermKind::kMul:
      if (t->child(0)->kind() == TermKind::kIntLit) {
        DecomposeLinear(t->child(1), scale * t->child(0)->int_payload(), coeffs, constant);
        return;
      }
      if (t->child(1)->kind() == TermKind::kIntLit) {
        DecomposeLinear(t->child(0), scale * t->child(1)->int_payload(), coeffs, constant);
        return;
      }
      break;
    default:
      break;
  }
  coeffs[t] += scale;
}

Term TermFactory::BuildLinear(const std::map<Term, int64_t>& coeffs, int64_t constant) {
  // Deterministic atom order: by term id.
  std::vector<std::pair<Term, int64_t>> parts(coeffs.begin(), coeffs.end());
  std::sort(parts.begin(), parts.end(),
            [](const auto& a, const auto& b) { return a.first->id() < b.first->id(); });
  Term acc = nullptr;
  for (const auto& [t, c] : parts) {
    if (c == 0) {
      continue;
    }
    Term scaled = c == 1 ? t
                         : Intern(TermKind::kMul, IntSort(), {IntLit(c), t}, 0, 0, "", nullptr);
    acc = acc == nullptr
              ? scaled
              : Intern(TermKind::kAdd, IntSort(), {acc, scaled}, 0, 0, "", nullptr);
  }
  if (acc == nullptr) {
    return IntLit(constant);
  }
  if (constant != 0) {
    acc = Intern(TermKind::kAdd, IntSort(), {acc, IntLit(constant)}, 0, 0, "", nullptr);
  }
  return acc;
}

Term TermFactory::Linear(Term a, int64_t sa, Term b, int64_t sb) {
  std::map<Term, int64_t> coeffs;
  int64_t constant = 0;
  DecomposeLinear(a, sa, coeffs, constant);
  if (b != nullptr) {
    DecomposeLinear(b, sb, coeffs, constant);
  }
  return BuildLinear(coeffs, constant);
}

Term TermFactory::Add(Term a, Term b) { return Linear(a, 1, b, 1); }

Term TermFactory::Sub(Term a, Term b) { return Linear(a, 1, b, -1); }

Term TermFactory::Mul(Term a, Term b) {
  if (a->kind() == TermKind::kIntLit || b->kind() == TermKind::kIntLit) {
    Term lit = a->kind() == TermKind::kIntLit ? a : b;
    Term other = a->kind() == TermKind::kIntLit ? b : a;
    return Linear(other, lit->int_payload(), nullptr, 0);
  }
  if (a->id() > b->id()) {
    std::swap(a, b);
  }
  return Intern(TermKind::kMul, IntSort(), {a, b}, 0, 0, "", nullptr);
}

Term TermFactory::Neg(Term a) { return Linear(a, -1, nullptr, 0); }

Term TermFactory::Lt(Term a, Term b) {
  // Normalize to diff < 0 so a guard and its negation share one atom.
  Term diff = Sub(a, b);
  if (diff->kind() == TermKind::kIntLit) {
    return BoolLit(diff->int_payload() < 0);
  }
  return Intern(TermKind::kLt, BoolSort(), {diff, IntLit(0)}, 0, 0, "", nullptr);
}

Term TermFactory::Le(Term a, Term b) {
  Term diff = Sub(a, b);
  if (diff->kind() == TermKind::kIntLit) {
    return BoolLit(diff->int_payload() <= 0);
  }
  // a <= b  ==  !(b - a < 0); keep a single canonical predicate per difference.
  return Not(Intern(TermKind::kLt, BoolSort(), {Linear(diff, -1, nullptr, 0), IntLit(0)}, 0,
                    0, "", nullptr));
}

// --- Strings ----------------------------------------------------------------------------

Term TermFactory::Concat(Term a, Term b) {
  if (a->kind() == TermKind::kStrLit && b->kind() == TermKind::kStrLit) {
    std::string joined(a->str_payload());
    joined += b->str_payload();
    return StrLit(joined);
  }
  if (a->kind() == TermKind::kStrLit && a->str_payload().empty()) {
    return b;
  }
  if (b->kind() == TermKind::kStrLit && b->str_payload().empty()) {
    return a;
  }
  return Intern(TermKind::kConcat, StringSort(), {a, b}, 0, 0, "", nullptr);
}

// --- Tuples -----------------------------------------------------------------------------

Term TermFactory::MkTuple(std::span<const Term> fields) {
  sort_scratch_.clear();
  for (Term f : fields) {
    sort_scratch_.push_back(f->sort());
  }
  return Intern(TermKind::kMkTuple, TupleSort(sort_scratch_), fields, 0, 0, "", nullptr);
}

Term TermFactory::Proj(Term tuple, int64_t index) {
  NOCTUA_CHECK(tuple->sort()->is_tuple());
  NOCTUA_CHECK(index >= 0 &&
               static_cast<size_t>(index) < tuple->sort()->children().size());
  if (tuple->kind() == TermKind::kMkTuple) {
    return tuple->child(index);
  }
  if (tuple->kind() == TermKind::kIte) {
    return Intern(TermKind::kIte, tuple->sort()->children()[index],
                  {tuple->child(0), Proj(tuple->child(1), index), Proj(tuple->child(2), index)},
                  0, 0, "", nullptr);
  }
  return Intern(TermKind::kProj, tuple->sort()->children()[index], {tuple}, index, 0, "",
                nullptr);
}

Term TermFactory::TupleWith(Term tuple, int64_t index, Term value) {
  NOCTUA_CHECK(tuple->sort()->is_tuple());
  std::vector<Term> fields;
  size_t n = tuple->sort()->children().size();
  fields.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fields.push_back(static_cast<int64_t>(i) == index ? value : Proj(tuple, i));
  }
  return MkTuple(fields);
}

// --- Arrays -----------------------------------------------------------------------------

Term TermFactory::ConstArray(Sort index_sort, Term default_value) {
  return Intern(TermKind::kConstArray, ArraySort(index_sort, default_value->sort()),
                {default_value}, 0, 0, "", index_sort);
}

// True for fully-ground array indices: a Ref literal or a pair of Ref literals. Ground
// indices of the same sort are pointer-distinct when distinct, enabling store folding.
Term TermFactory::Store(Term array, Term index, Term value) {
  NOCTUA_CHECK(array->sort()->is_array());
  NOCTUA_DCHECK(array->sort()->index_sort() == index->sort());
  NOCTUA_DCHECK(array->sort()->element_sort() == value->sort());
  // store(a, i, select(a, i)) == a
  if (value->kind() == TermKind::kSelect && value->child(0) == array &&
      value->child(1) == index) {
    return array;
  }
  return Intern(TermKind::kStore, array->sort(), {array, index, value}, 0, 0, "", nullptr);
}

Term TermFactory::Select(Term array, Term index) {
  NOCTUA_CHECK(array->sort()->is_array());
  NOCTUA_DCHECK(array->sort()->index_sort() == index->sort());
  if (array->kind() == TermKind::kConstArray) {
    return array->child(0);
  }
  if (array->kind() == TermKind::kStore) {
    Term si = array->child(1);
    if (si == index) {
      return array->child(2);
    }
    if (IsGroundIndex(si) && IsGroundIndex(index)) {
      // Distinct ground indices (pointer-distinct by interning).
      return Select(array->child(0), index);
    }
  }
  if (array->kind() == TermKind::kArrayLambda) {
    // Beta reduction; bound variables are globally unique so capture cannot occur.
    return SubstituteBoundVar(*this, array->child(0), array->int_payload(), index);
  }
  return Intern(TermKind::kSelect, array->sort()->element_sort(), {array, index}, 0, 0, "",
                nullptr);
}

Term TermFactory::ArrayLambda(Term var, Term body) {
  NOCTUA_CHECK(var->kind() == TermKind::kBoundVar);
  return Intern(TermKind::kArrayLambda, ArraySort(var->sort(), body->sort()), {body},
                var->int_payload(), 0, "", var->sort());
}

Term TermFactory::SetUnion(Term a, Term b) {
  if (a == b) {
    return a;
  }
  Term var = NewBoundVar(a->sort()->index_sort());
  return ArrayLambda(var, Or(Select(a, var), Select(b, var)));
}

Term TermFactory::SetIntersect(Term a, Term b) {
  if (a == b) {
    return a;
  }
  Term var = NewBoundVar(a->sort()->index_sort());
  return ArrayLambda(var, And(Select(a, var), Select(b, var)));
}

Term TermFactory::SetDifference(Term a, Term b) {
  Term var = NewBoundVar(a->sort()->index_sort());
  return ArrayLambda(var, And(Select(a, var), Not(Select(b, var))));
}

Term TermFactory::SetSubset(Term a, Term b) {
  if (a == b) {
    return True();
  }
  Term var = NewBoundVar(a->sort()->index_sort());
  return Forall(var, Implies(Select(a, var), Select(b, var)));
}

Term TermFactory::SetIsEmpty(Term set) {
  Term var = NewBoundVar(set->sort()->index_sort());
  return Not(Exists(var, Select(set, var)));
}

Term TermFactory::SetEq(Term a, Term b) {
  if (a == b) {
    return True();
  }
  Term var = NewBoundVar(a->sort()->index_sort());
  return Forall(var, Eq(Select(a, var), Select(b, var)));
}

// --- Pairs ------------------------------------------------------------------------------

Term TermFactory::MkPair(Term fst, Term snd) {
  return Intern(TermKind::kMkPair, PairSort(fst->sort(), snd->sort()), {fst, snd}, 0, 0, "",
                nullptr);
}

Term TermFactory::Fst(Term pair) {
  NOCTUA_CHECK(pair->sort()->is_pair());
  if (pair->kind() == TermKind::kMkPair) {
    return pair->child(0);
  }
  return Intern(TermKind::kFst, pair->sort()->children()[0], {pair}, 0, 0, "", nullptr);
}

Term TermFactory::Snd(Term pair) {
  NOCTUA_CHECK(pair->sort()->is_pair());
  if (pair->kind() == TermKind::kMkPair) {
    return pair->child(1);
  }
  return Intern(TermKind::kSnd, pair->sort()->children()[1], {pair}, 0, 0, "", nullptr);
}

// --- Binders ----------------------------------------------------------------------------

Term TermFactory::MakeBinder(TermKind kind, Term var, std::initializer_list<Term> bodies,
                             Sort result_sort, int64_t payload2) {
  NOCTUA_CHECK(var->kind() == TermKind::kBoundVar);
  NOCTUA_CHECK_MSG(var->sort()->is_finite_domain(), "binder variable must be Ref or Pair");
  return Intern(kind, result_sort, bodies, var->int_payload(), payload2, "", var->sort());
}

Term TermFactory::Forall(Term var, Term body) {
  if (body->kind() == TermKind::kBoolLit) {
    return body;
  }
  return MakeBinder(TermKind::kForall, var, {body}, BoolSort());
}

Term TermFactory::Exists(Term var, Term body) {
  if (body->kind() == TermKind::kBoolLit) {
    return body;
  }
  return MakeBinder(TermKind::kExists, var, {body}, BoolSort());
}

Term TermFactory::Count(Term var, Term cond) {
  if (cond->IsBoolLit(false)) {
    return IntLit(0);
  }
  return MakeBinder(TermKind::kCount, var, {cond}, IntSort());
}

Term TermFactory::Sum(Term var, Term cond, Term value) {
  if (cond->IsBoolLit(false)) {
    return IntLit(0);
  }
  return MakeBinder(TermKind::kSum, var, {cond, value}, IntSort());
}

Term TermFactory::MinAgg(Term var, Term cond, Term value) {
  return MakeBinder(TermKind::kMinAgg, var, {cond, value}, IntSort());
}

Term TermFactory::MaxAgg(Term var, Term cond, Term value) {
  return MakeBinder(TermKind::kMaxAgg, var, {cond, value}, IntSort());
}

Term TermFactory::ArgExtreme(Term var, Term cond, Term key, bool want_max) {
  return MakeBinder(TermKind::kArgExtreme, var, {cond, key}, var->sort(), want_max ? 1 : 0);
}

// --- Substitution (beta reduction support) ----------------------------------------------

namespace {

Term SubstituteImpl(TermFactory& f, Term t, int64_t var_id, Term value, TermMap& memo) {
  if (!t->has_bound_var()) {
    return t;
  }
  if (t->kind() == TermKind::kBoundVar) {
    return t->int_payload() == var_id ? value : t;
  }
  if (const Term* done = memo.Find(t)) {
    return *done;
  }
  ChildBuffer kids(t->children().size());
  bool changed = false;
  for (size_t i = 0; i < t->children().size(); ++i) {
    kids[i] = SubstituteImpl(f, t->child(i), var_id, value, memo);
    changed = changed || kids[i] != t->child(i);
  }
  // Rebuild through the factory so simplifications re-fire.
  Term result = changed ? RebuildTerm(f, t, kids.span()) : t;
  memo.Set(t, result);
  return result;
}

Term RebuildBinder(TermFactory& f, Term t, std::span<const Term> kids) {
  // Recreate the bound variable term so the factory can re-intern the binder. Bound
  // variables are identified by id, so making "the same" variable is just an intern hit.
  Term var = f.InternBoundVar(t->binder_sort(), t->int_payload());
  switch (t->kind()) {
    case TermKind::kArrayLambda:
      return f.ArrayLambda(var, kids[0]);
    case TermKind::kForall:
      return f.Forall(var, kids[0]);
    case TermKind::kExists:
      return f.Exists(var, kids[0]);
    case TermKind::kCount:
      return f.Count(var, kids[0]);
    case TermKind::kSum:
      return f.Sum(var, kids[0], kids[1]);
    case TermKind::kMinAgg:
      return f.MinAgg(var, kids[0], kids[1]);
    case TermKind::kMaxAgg:
      return f.MaxAgg(var, kids[0], kids[1]);
    case TermKind::kArgExtreme:
      return f.ArgExtreme(var, kids[0], kids[1], t->int_payload2() != 0);
    default:
      NOCTUA_UNREACHABLE("not a binder");
  }
}

}  // namespace

Term SubstituteBoundVar(TermFactory& f, Term body, int64_t var_id, Term value) {
  if (!body->has_bound_var()) {
    return body;
  }
  // A rebuilt Select can beta-reduce, which substitutes again: a nested call leases a
  // map of its own.
  ScratchMap memo(f);
  return SubstituteImpl(f, body, var_id, value, *memo);
}

ScratchMap::ScratchMap(TermFactory& f) : f_(f) {
  if (!f_.spare_maps_.empty()) {
    map_ = std::move(f_.spare_maps_.back());
    f_.spare_maps_.pop_back();
    map_.Clear();
  }
  ++f_.leased_maps_;
}

ScratchMap::~ScratchMap() {
  --f_.leased_maps_;
  f_.spare_maps_.push_back(std::move(map_));
}

Term RebuildTerm(TermFactory& f, Term t, std::span<const Term> kids) {
  switch (t->kind()) {
    case TermKind::kAnd:
      return f.And(kids);
    case TermKind::kOr:
      return f.Or(kids);
    case TermKind::kNot:
      return f.Not(kids[0]);
    case TermKind::kIte:
      return f.Ite(kids[0], kids[1], kids[2]);
    case TermKind::kEq:
      return f.Eq(kids[0], kids[1]);
    case TermKind::kDistinct:
      return f.Distinct(kids);
    case TermKind::kAdd:
      return f.Add(kids[0], kids[1]);
    case TermKind::kSub:
      return f.Sub(kids[0], kids[1]);
    case TermKind::kMul:
      return f.Mul(kids[0], kids[1]);
    case TermKind::kNeg:
      return f.Neg(kids[0]);
    case TermKind::kLt:
      return f.Lt(kids[0], kids[1]);
    case TermKind::kLe:
      return f.Le(kids[0], kids[1]);
    case TermKind::kConcat:
      return f.Concat(kids[0], kids[1]);
    case TermKind::kMkTuple:
      return f.MkTuple(kids);
    case TermKind::kProj:
      return f.Proj(kids[0], t->int_payload());
    case TermKind::kConstArray:
      return f.ConstArray(t->sort()->index_sort(), kids[0]);
    case TermKind::kStore:
      return f.Store(kids[0], kids[1], kids[2]);
    case TermKind::kSelect:
      return f.Select(kids[0], kids[1]);
    case TermKind::kMkPair:
      return f.MkPair(kids[0], kids[1]);
    case TermKind::kFst:
      return f.Fst(kids[0]);
    case TermKind::kSnd:
      return f.Snd(kids[0]);
    case TermKind::kArrayLambda:
    case TermKind::kForall:
    case TermKind::kExists:
    case TermKind::kCount:
    case TermKind::kSum:
    case TermKind::kMinAgg:
    case TermKind::kMaxAgg:
    case TermKind::kArgExtreme:
      // Binder nodes: the bound variable id and sort are unchanged; rebuild via Intern by
      // reconstructing the same binder with the substituted bodies.
      return RebuildBinder(f, t, kids);
    default:
      NOCTUA_UNREACHABLE("rebuild of leaf term");
  }
}

Term TermFactory::InternBoundVar(Sort sort, int64_t id) {
  return Intern(TermKind::kBoundVar, sort, {}, id, 0, "", nullptr);
}

}  // namespace noctua::smt
