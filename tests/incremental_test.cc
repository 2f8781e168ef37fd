// Tests for store-backed runs: stable serialization of verdicts (each path part stored
// once); renaming-invariant path fingerprints; verdict keys joined from per-path parts,
// which must classify queries exactly like the shared-context reference key; the on-disk
// artifact store (a manifest and the verdicts) with its fail-closed loader and version
// gate; and O(change) re-verification — a warm run must produce the byte-identical
// restriction set of a cold run while replaying every verdict the edit did not touch.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/session.h"
#include "src/soir/printer.h"
#include "src/soir/serialize.h"
#include "src/verifier/cache.h"
#include "src/verifier/encoder.h"

namespace noctua {
namespace {

using analyzer::Sym;
using analyzer::SymObj;
using analyzer::SymSet;
using analyzer::ViewCtx;
using soir::FieldDef;
using soir::FieldType;
using soir::OnDelete;
using soir::RelationKind;

// ------------------------------------------------------------------ parameterized app
//
// A small lending app whose every name is a parameter captured by the handlers, so a
// "codebase-wide rename" edit is literally the same program under different names —
// the scenario the renaming-invariant fingerprints must see through.

struct LibraryNames {
  std::string book = "Book";
  std::string member = "Member";
  std::string loan = "Loan";
  std::string title = "title";
  std::string copies = "copies";
  std::string borrower = "borrower";
  std::string of_book = "of_book";
};

struct LibraryConfig {
  LibraryNames names;
  // Guard constant in the checkout handler: changing it is the "developer edited a
  // handler body" scenario.
  int min_copies = 1;
  // Registers one extra endpoint (the "developer added an endpoint" scenario).
  bool with_review = false;
};

app::App MakeLibraryApp(const LibraryConfig& cfg) {
  app::App app("library", __FILE__);
  soir::Schema& s = app.schema();
  const LibraryNames n = cfg.names;

  s.AddModel(n.book);
  s.AddField(n.book, FieldDef{.name = n.title, .type = FieldType::kString});
  s.AddField(n.book, FieldDef{.name = n.copies, .type = FieldType::kInt});
  s.AddModel(n.member);
  s.AddField(n.member, FieldDef{.name = "name", .type = FieldType::kString});
  s.AddModel(n.loan);
  s.AddField(n.loan, FieldDef{.name = "created", .type = FieldType::kDatetime});
  s.AddRelation(n.borrower, n.loan, n.member, RelationKind::kManyToOne, OnDelete::kCascade,
                "loans");
  s.AddRelation(n.of_book, n.loan, n.book, RelationKind::kManyToOne, OnDelete::kCascade,
                "book_loans");

  app.AddView(
      "add_book",
      [n](ViewCtx& v) {
        v.Create(n.book, {{n.title, v.Post("title")}, {n.copies, v.PostInt("copies")}});
      });

  const int min_copies = cfg.min_copies;
  app.AddView(
      "checkout",
      [n, min_copies](ViewCtx& v) {
        SymObj member = v.Deref(n.member, v.ParamRef("member", n.member));
        SymObj book = v.M(n.book).get("id", v.ParamRef("book", n.book));
        v.Guard(book.attr(n.copies) >= min_copies);
        v.Create(n.loan, {{"created", v.PostInt("now")}},
                 {{n.borrower, member}, {n.of_book, book}});
        book.with(n.copies, book.attr(n.copies) - 1).save();
      });

  app.AddView(
      "return_book",
      [n](ViewCtx& v) {
        SymObj member = v.Deref(n.member, v.ParamRef("member", n.member));
        SymObj book = v.M(n.book).get("id", v.ParamRef("book", n.book));
        SymSet loan = v.M(n.loan).filter(n.borrower, member).filter(n.of_book, book);
        v.Guard(loan.exists());
        loan.del();
        book.with(n.copies, book.attr(n.copies) + 1).save();
      });

  if (cfg.with_review) {
    app.AddView(
        "review",
        [n](ViewCtx& v) {
          SymObj book = v.M(n.book).get("id", v.ParamRef("book", n.book));
          book.with(n.title, v.Post("title")).save();
        });
  }
  return app;
}

LibraryConfig RenamedConfig() {
  LibraryConfig cfg;
  cfg.names.book = "Tome";
  cfg.names.member = "Patron";
  cfg.names.loan = "Lending";
  cfg.names.title = "headline";
  cfg.names.copies = "stock";
  cfg.names.borrower = "holder";
  cfg.names.of_book = "of_tome";
  return cfg;
}

// --------------------------------------------------------------------------- helpers

std::string TempStore(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/noctua_incremental_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// One run against the store at `store`, on a fresh engine of `threads` workers.
PipelineResult RunStored(const app::App& a, const std::string& store,
                         const PipelineOptions& options = {}, int threads = 2) {
  EngineConfig config;
  config.threads = threads;
  return Engine(config).Run(a, options, store);
}

// The strict O(change) property: any pair not involving a view in `changed` must have
// been replayed (or prefiltered) — never solved this run.
void ExpectUnchangedPairsReplayed(const verifier::RestrictionReport& report,
                                  const std::set<std::string>& changed) {
  auto view_of = [](const std::string& op) { return op.substr(0, op.find('#')); };
  for (const auto& v : report.pairs) {
    if (changed.count(view_of(v.p)) != 0 || changed.count(view_of(v.q)) != 0) {
      continue;
    }
    EXPECT_NE(v.provenance, verifier::PairProvenance::kComputed)
        << "(" << v.p << ", " << v.q << ") was re-verified but neither endpoint changed";
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  ASSERT_TRUE(out.good()) << path;
}

// The keys the verifier builds for a pair's queries, joined from the two paths' parts:
// commutativity under the given app-wide order set, NotInvalidate under the pair's own.
std::string ComKey(const soir::Schema& schema, const soir::CodePath& p, const soir::CodePath& q,
                   const std::set<int>& order) {
  return verifier::PairKey("com", soir::FingerprintPath(schema, p),
                           soir::FingerprintPath(schema, q), {&order});
}

std::string NiKey(const soir::Schema& schema, const soir::CodePath& p,
                  const soir::CodePath& q) {
  const std::set<int> op = soir::OrderRelevantModels(p);
  const std::set<int> oq = soir::OrderRelevantModels(q);
  return verifier::PairKey("ni", soir::FingerprintPath(schema, p),
                           soir::FingerprintPath(schema, q), {&op, &oq});
}

// The canonical identities (soir::FingerprintPath texts) of `view`'s paths, in discovery
// order: what the verifier's path table computes for each path, renaming-invariant.
std::vector<std::string> EndpointTexts(const soir::Schema& schema,
                                       const analyzer::AnalysisResult& r,
                                       const std::string& view) {
  std::vector<std::string> texts;
  for (const soir::CodePath& p : r.paths) {
    if (p.view_name == view) {
      texts.push_back(soir::FingerprintPath(schema, p).text);
    }
  }
  EXPECT_FALSE(texts.empty()) << "no path for " << view;
  return texts;
}

// The artifact token a string is stored as.
std::string Quoted(const std::string& s) {
  soir::ArtifactWriter w;
  w.Str(s);
  return w.str();
}

size_t Occurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// -------------------------------------------------------------- serialization round-trips

TEST(SerializeTest, VerdictCachePersistsAndMarksReplayed) {
  verifier::VerdictCache cache;
  cache.Insert("com|a \"quoted\" key\nwith newline", verifier::CheckOutcome::kFail);
  cache.Insert("ni|simple", verifier::CheckOutcome::kPass);
  std::string file = TempStore("verdicts") + ".verdicts";
  ASSERT_TRUE(cache.SaveToFile(file));

  verifier::VerdictCache loaded;
  ASSERT_TRUE(loaded.LoadFromFile(file));
  EXPECT_EQ(loaded.size(), 2u);
  auto entry = loaded.LookupEntry("com|a \"quoted\" key\nwith newline");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->outcome, verifier::CheckOutcome::kFail);
  EXPECT_TRUE(entry->replayed);

  // Corruption fails closed and leaves the cache untouched.
  std::string data = ReadAll(file);
  for (const std::string& bad :
       {data.substr(0, data.size() / 2), std::string("garbage"),
        std::string("noctua-verdicts 999 0"), data + " trailing"}) {
    WriteAll(file, bad);
    verifier::VerdictCache fresh;
    EXPECT_FALSE(fresh.LoadFromFile(file));
    EXPECT_EQ(fresh.size(), 0u);
  }
}

// A store whose keys share path parts writes each part once.
TEST(VerdictStoreTest, EachPathPartIsWrittenOnce) {
  app::App a = apps::MakeSmallBankApp();
  std::vector<soir::CodePath> eff = analyzer::AnalyzeApp(a).EffectfulPaths();
  const std::set<int> none;
  verifier::VerdictCache cache;
  std::set<std::string> parts;
  for (size_t i = 0; i < eff.size(); ++i) {
    parts.insert(soir::FingerprintPath(a.schema(), eff[i]).text);
    for (size_t j = i; j < eff.size(); ++j) {
      cache.Insert(ComKey(a.schema(), eff[i], eff[j], none), verifier::CheckOutcome::kPass);
      cache.Insert(NiKey(a.schema(), eff[i], eff[j]), verifier::CheckOutcome::kFail);
      cache.Insert(NiKey(a.schema(), eff[j], eff[i]), verifier::CheckOutcome::kPass);
    }
  }
  ASSERT_LT(parts.size(), cache.size());
  std::string file = TempStore("parts") + ".verdicts";
  ASSERT_TRUE(cache.SaveToFile(file));

  const std::string data = ReadAll(file);
  soir::ArtifactReader r(data);
  r.ExpectAtom("noctua-verdicts");
  EXPECT_EQ(r.Int(), soir::kArtifactVersion);
  EXPECT_EQ(r.Count(1000), parts.size());
  ASSERT_TRUE(r.ok());
  for (const std::string& part : parts) {
    EXPECT_EQ(Occurrences(data, Quoted(part)), 1u) << part;
  }
}

// Pair keys and free-form keys (tests insert those; some even look like the start of a
// pair key) come back exactly, and an equal cache writes the same bytes.
TEST(VerdictStoreTest, RoundTripRestoresPairAndFreeFormKeys) {
  app::App a = apps::MakeSmallBankApp();
  std::vector<soir::CodePath> eff = analyzer::AnalyzeApp(a).EffectfulPaths();
  const std::set<int> order = {0};
  std::vector<std::string> keys = {
      "com|a \"quoted\" key\nwith newline",
      "ni|simple",
      "",
      "3:ab",            // a field cut short
      "01:x0:0:",        // a non-canonical length
      "0:0:0:",          // the empty pair key
      "1:\"2:\n\\1:\"tail",  // a pair key whose pieces need escaping
  };
  for (size_t i = 0; i < eff.size(); ++i) {
    for (size_t j = i; j < eff.size(); ++j) {
      keys.push_back(ComKey(a.schema(), eff[i], eff[j], order));
      keys.push_back(NiKey(a.schema(), eff[j], eff[i]));
    }
  }
  verifier::VerdictCache cache;
  for (size_t k = 0; k < keys.size(); ++k) {
    cache.Insert(keys[k], static_cast<verifier::CheckOutcome>(k % 4));
  }
  std::string file = TempStore("round_trip") + ".verdicts";
  ASSERT_TRUE(cache.SaveToFile(file));

  verifier::VerdictCache loaded;
  ASSERT_TRUE(loaded.LoadFromFile(file));
  EXPECT_EQ(loaded.size(), cache.size());
  for (const std::string& key : keys) {
    auto want = cache.LookupEntry(key);
    auto got = loaded.LookupEntry(key);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(got->outcome, want->outcome) << key;
    EXPECT_TRUE(got->replayed) << key;
  }
  std::string again = TempStore("round_trip_again") + ".verdicts";
  ASSERT_TRUE(loaded.SaveToFile(again));
  EXPECT_EQ(ReadAll(again), ReadAll(file));
}

// A bad part reference or a broken part table fails the whole load and leaves the cache
// as it was.
TEST(VerdictStoreTest, CorruptPartTablesFailClosed) {
  const std::string head = "noctua-verdicts " + std::to_string(soir::kArtifactVersion) + " ";
  const std::string file = TempStore("corrupt_parts") + ".verdicts";

  // The well-formed store the corruptions start from: two parts, one pair entry (head,
  // part indices, tail, outcome), one whole key.
  WriteAll(file, head + "2 \"part a\" \"part b\" 2 p \"com\" 0 1 \"tail\" 1 k \"free\" 2");
  {
    verifier::VerdictCache cache;
    ASSERT_TRUE(cache.LoadFromFile(file));
    EXPECT_EQ(cache.size(), 2u);
    auto pair_entry = cache.LookupEntry("3:com6:part a6:part btail");
    auto free_entry = cache.LookupEntry("free");
    ASSERT_TRUE(pair_entry.has_value() && free_entry.has_value());
    EXPECT_EQ(pair_entry->outcome, verifier::CheckOutcome::kFail);
    EXPECT_EQ(free_entry->outcome, verifier::CheckOutcome::kTimeout);
  }

  const std::pair<const char*, std::string> kCorruptions[] = {
      {"index out of range", "2 \"part a\" \"part b\" 1 p \"com\" 0 2 \"tail\" 1"},
      {"negative index", "2 \"part a\" \"part b\" 1 p \"com\" -1 1 \"tail\" 1"},
      {"part count over the cap", "99999999999 \"part a\" 1 k \"free\" 2"},
      {"truncated part table", "3 \"part a\" \"part b\""},
  };
  for (const auto& [what, body] : kCorruptions) {
    WriteAll(file, head + body);
    verifier::VerdictCache cache;
    cache.Insert("computed", verifier::CheckOutcome::kFail);
    EXPECT_FALSE(cache.LoadFromFile(file)) << what;
    EXPECT_EQ(cache.size(), 1u) << what;
    auto entry = cache.LookupEntry("computed");
    ASSERT_TRUE(entry.has_value()) << what;
    EXPECT_EQ(entry->outcome, verifier::CheckOutcome::kFail) << what;
    EXPECT_FALSE(entry->replayed) << what;
  }
}

// ----------------------------------------------------------- fingerprint equivalence

// The pair key as it was built before per-path parts: both paths rendered under one
// shared renaming context, then the order bit of each model that context assigned, then
// its schema signature. Kept only as the reference the part-built keys must classify
// queries exactly like.
std::string SharedContextKey(const std::string& rule, const soir::Schema& schema,
                             const soir::CodePath& p, const soir::CodePath& q,
                             const std::set<int>& order) {
  soir::CanonicalizationCtx ctx(schema);
  std::string key = rule + "|";
  key += soir::CanonicalPath(schema, p, &ctx);
  key += "|";
  key += soir::CanonicalPath(schema, q, &ctx);
  key += "|ord:";
  for (int m : ctx.models()) {
    key += order.count(m) != 0 ? '1' : '0';
  }
  key += "|";
  key += ctx.SchemaSignature();
  return key;
}

// For every query of the six apps (every pair i <= j, commutativity and both
// NotInvalidate directions), the map from the reference key to the part-built key is a
// bijection: the two keys put queries into the same classes, so the cache hits and
// misses exactly as before. The engine's cache is shared across apps, so the classes
// are compared across all six at once, and commutativity is keyed under both app-wide
// order sets the verifier uses: the effectful paths' alone, and with the read-only
// paths as order observers.
TEST(FingerprintEquivalenceTest, PartKeysClassifyQueriesLikeSharedContextKeys) {
  std::map<std::string, std::string> to_key;
  std::map<std::string, std::string> to_reference;
  size_t queries = 0;
  size_t conflicts = 0;
  auto record = [&](const std::string& reference, const std::string& key) {
    ++queries;
    auto [it, added] = to_key.emplace(reference, key);
    conflicts += !added && it->second != key ? 1 : 0;
    auto [jt, added_back] = to_reference.emplace(key, reference);
    conflicts += !added_back && jt->second != reference ? 1 : 0;
  };
  size_t observed_orders = 0;
  for (const apps::AppEntry& entry : apps::EvaluatedApps()) {
    app::App a = entry.make();
    const soir::Schema& schema = a.schema();
    analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
    std::vector<soir::CodePath> eff = analysis.EffectfulPaths();
    std::vector<soir::PathFingerprint> parts;
    std::vector<std::set<int>> ord;
    std::set<int> app_order;
    for (const soir::CodePath& p : eff) {
      parts.push_back(soir::FingerprintPath(schema, p));
      ord.push_back(soir::OrderRelevantModels(p));
      app_order.insert(ord.back().begin(), ord.back().end());
    }
    std::set<int> observed_order = app_order;
    for (const soir::CodePath& p : analysis.paths) {
      std::set<int> o = soir::OrderRelevantModels(p);
      observed_order.insert(o.begin(), o.end());
    }
    observed_orders += observed_order != app_order ? 1 : 0;

    for (size_t i = 0; i < eff.size(); ++i) {
      for (size_t j = i; j < eff.size(); ++j) {
        for (const std::set<int>* order : {&app_order, &observed_order}) {
          record(SharedContextKey("com", schema, eff[i], eff[j], *order),
                 verifier::PairKey("com", parts[i], parts[j], {order}));
        }
        std::set<int> pair_order = ord[i];
        pair_order.insert(ord[j].begin(), ord[j].end());
        record(SharedContextKey("ni", schema, eff[i], eff[j], pair_order),
               verifier::PairKey("ni", parts[i], parts[j], {&ord[i], &ord[j]}));
        record(SharedContextKey("ni", schema, eff[j], eff[i], pair_order),
               verifier::PairKey("ni", parts[j], parts[i], {&ord[j], &ord[i]}));
      }
    }
  }
  EXPECT_EQ(conflicts, 0u);
  EXPECT_EQ(to_key.size(), to_reference.size());
  // Not vacuous: queries do share classes (NotInvalidate(P, P) twice per self-pair), and
  // read-only paths do change some app's order set.
  EXPECT_LT(to_key.size(), queries);
  EXPECT_GT(observed_orders, 0u);
}

// ----------------------------------------------------------- fingerprint anti-collision

TEST(FingerprintAntiCollisionTest, DifferentGuardLiteralsGetDifferentKeys) {
  LibraryConfig one;
  LibraryConfig five;
  five.min_copies = 5;
  app::App a1 = MakeLibraryApp(one);
  app::App a5 = MakeLibraryApp(five);
  analyzer::AnalysisResult r1 = analyzer::AnalyzeApp(a1);
  analyzer::AnalysisResult r5 = analyzer::AnalyzeApp(a5);
  // Only the guard constant differs; the fingerprints and the verdict keys must separate.
  EXPECT_NE(EndpointTexts(a1.schema(), r1, "checkout"),
            EndpointTexts(a5.schema(), r5, "checkout"));
  EXPECT_EQ(EndpointTexts(a1.schema(), r1, "add_book"),
            EndpointTexts(a5.schema(), r5, "add_book"));

  auto path_of = [](const analyzer::AnalysisResult& r, const std::string& view) {
    for (const soir::CodePath& p : r.EffectfulPaths()) {
      if (p.view_name == view) {
        return p;
      }
    }
    ADD_FAILURE() << "no effectful path for " << view;
    return soir::CodePath{};
  };
  soir::CodePath p1 = path_of(r1, "checkout");
  soir::CodePath p5 = path_of(r5, "checkout");
  const std::set<int> none;
  EXPECT_NE(ComKey(a1.schema(), p1, p1, none), ComKey(a5.schema(), p5, p5, none));
  EXPECT_NE(NiKey(a1.schema(), p1, p1), NiKey(a5.schema(), p5, p5));
}

TEST(FingerprintAntiCollisionTest, DirectionOrderAndPairingChangeKeys) {
  app::App a = MakeLibraryApp(LibraryConfig{});
  analyzer::AnalysisResult r = analyzer::AnalyzeApp(a);
  const soir::CodePath* checkout = nullptr;
  const soir::CodePath* add_book = nullptr;
  const soir::CodePath* ret = nullptr;
  for (const soir::CodePath& p : r.EffectfulPaths()) {
    if (p.view_name == "checkout") checkout = &p;
    if (p.view_name == "add_book") add_book = &p;
    if (p.view_name == "return_book") ret = &p;
  }
  ASSERT_TRUE(checkout != nullptr && add_book != nullptr && ret != nullptr);

  // NotInvalidate is directed: (p, q) and (q, p) are different queries.
  EXPECT_NE(NiKey(a.schema(), *checkout, *add_book), NiKey(a.schema(), *add_book, *checkout));
  // Pairing the same path with different partners separates.
  const std::set<int> none;
  EXPECT_NE(ComKey(a.schema(), *checkout, *add_book, none),
            ComKey(a.schema(), *checkout, *ret, none));
  // Order membership of a mentioned model is part of the commutativity fingerprint.
  const std::set<int> book = {a.schema().ModelId("Book")};
  EXPECT_NE(ComKey(a.schema(), *checkout, *add_book, none),
            ComKey(a.schema(), *checkout, *add_book, book));
}

TEST(FingerprintAntiCollisionTest, SmallBankDigestsSeparateFieldSlots) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult r = analyzer::AnalyzeApp(a);
  auto texts = [&](const std::string& view) { return EndpointTexts(a.schema(), r, view); };
  // SendPayment and Amalgamate are canonically the same operation (the cache's win)...
  EXPECT_EQ(texts("SendPayment"), texts("Amalgamate"));
  // ...but operations over different field slots must keep distinct fingerprints.
  EXPECT_NE(texts("DepositChecking"), texts("TransactSavings"));
  EXPECT_NE(texts("DepositChecking"), texts("SendPayment"));
}

// ------------------------------------------------------------------- incremental engine

TEST(IncrementalTest, WarmRunReplaysEverythingWhenNothingChanged) {
  std::string store = TempStore("unchanged");
  app::App a = MakeLibraryApp(LibraryConfig{});
  PipelineResult cold = RunStored(a, store);
  EXPECT_TRUE(cold.cold);
  EXPECT_EQ(cold.stats().pairs_replayed, 0u);
  ASSERT_FALSE(cold.restrictions.pairs.empty());

  app::App again = MakeLibraryApp(LibraryConfig{});
  PipelineResult warm = RunStored(again, store);
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.stats().pairs_computed, 0u);
  ExpectUnchangedPairsReplayed(warm.restrictions, {});
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

// A run that loads the store and adds no verdict writes nothing (equal caches write
// equal bytes), so it spends no time rewriting the store under the engine lock; the
// untouched store still replays the next run whole.
TEST(IncrementalTest, WarmReplayLeavesTheStoreUntouched) {
  std::string store = TempStore("untouched");
  app::App a = MakeLibraryApp(LibraryConfig{});
  ASSERT_TRUE(RunStored(a, store).artifacts_saved);
  // Back-date both files, so that a rewrite shows even within one clock tick.
  const auto long_ago = std::filesystem::file_time_type::clock::now() - std::chrono::hours(1);
  using Snapshot = std::map<std::string, std::pair<std::string, std::filesystem::file_time_type>>;
  auto snapshot = [&] {
    Snapshot files;
    for (const char* file : {"manifest", "verdicts"}) {
      const std::string path = store + "/" + file;
      files[file] = {ReadAll(path), std::filesystem::last_write_time(path)};
    }
    return files;
  };
  for (const char* file : {"manifest", "verdicts"}) {
    std::filesystem::last_write_time(store + "/" + file, long_ago);
  }
  const Snapshot before = snapshot();

  obs::Collector collector(obs::ObsOptions{.enabled = true});
  PipelineResult warm = RunStored(a, store);
  collector.Stop();
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.stats().pairs_computed, 0u);
  EXPECT_TRUE(warm.artifacts_saved);
  EXPECT_EQ(collector.counter(obs::Counter::kArtifactSaves), 0u);
  EXPECT_TRUE(snapshot() == before) << "a warm replay rewrote the store";

  PipelineResult next = RunStored(a, store);
  EXPECT_FALSE(next.cold);
  EXPECT_EQ(next.stats().pairs_computed, 0u);
  EXPECT_EQ(next.restrictions.VerdictLines(), warm.restrictions.VerdictLines());
}

TEST(IncrementalTest, HandlerEditReverifiesOnlyPairsTouchingIt) {
  std::string store = TempStore("handler_edit");
  RunStored(MakeLibraryApp(LibraryConfig{}), store);

  LibraryConfig edited;
  edited.min_copies = 5;  // checkout's guard changed
  app::App b = MakeLibraryApp(edited);
  PipelineResult warm = RunStored(b, store);
  EXPECT_FALSE(warm.cold);
  EXPECT_GT(warm.stats().pairs_replayed, 0u);
  ExpectUnchangedPairsReplayed(warm.restrictions, {"checkout"});

  // Byte-identical to a from-scratch run of the edited app.
  std::string cold_store = TempStore("handler_edit_cold");
  PipelineResult cold = RunStored(MakeLibraryApp(edited), cold_store);
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

TEST(IncrementalTest, AddedEndpointReverifiesOnlyItsPairs) {
  std::string store = TempStore("add_endpoint");
  RunStored(MakeLibraryApp(LibraryConfig{}), store);

  LibraryConfig with_review;
  with_review.with_review = true;
  app::App b = MakeLibraryApp(with_review);
  PipelineResult warm = RunStored(b, store);
  EXPECT_FALSE(warm.cold);
  ExpectUnchangedPairsReplayed(warm.restrictions, {"review"});

  std::string cold_store = TempStore("add_endpoint_cold");
  PipelineResult cold = RunStored(MakeLibraryApp(with_review), cold_store);
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

TEST(IncrementalTest, RenameOnlyEditReplaysEveryVerdict) {
  std::string store = TempStore("rename");
  app::App a = MakeLibraryApp(LibraryConfig{});
  PipelineResult cold = RunStored(a, store);

  // Every model, field and relation renamed: every verdict key is renaming-invariant,
  // so nothing is re-verified and the restriction set is byte-identical.
  app::App renamed = MakeLibraryApp(RenamedConfig());
  PipelineResult warm = RunStored(renamed, store);
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.stats().pairs_computed, 0u) << "a pure rename must replay 100% of verdicts";
  ExpectUnchangedPairsReplayed(warm.restrictions, {});
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

// A structural schema edit keeps the store: a pair's keys change only if one of its paths
// reaches the edited model, so exactly those pairs re-solve and the rest replay.
TEST(IncrementalTest, StructuralSchemaEditReplaysPairsItDoesNotTouch) {
  std::string store = TempStore("schema_edit");
  RunStored(MakeLibraryApp(LibraryConfig{}), store);

  auto with_email = [] {
    app::App b = MakeLibraryApp(LibraryConfig{});
    b.schema().AddField("Member", FieldDef{.name = "email", .type = FieldType::kString});
    return b;
  };
  app::App b = with_email();
  PipelineResult warm = RunStored(b, store);
  EXPECT_FALSE(warm.cold);

  // The paths whose schema fragment (a part of every key they are in) holds Member.
  const int member = b.schema().ModelId("Member");
  std::set<std::string> touch_member;
  for (const soir::CodePath& p : warm.analysis.EffectfulPaths()) {
    const std::vector<int> models = soir::FingerprintPath(b.schema(), p).models;
    if (std::find(models.begin(), models.end(), member) != models.end()) {
      touch_member.insert(p.op_name);
    }
  }
  size_t replayed = 0;
  size_t computed = 0;
  for (const verifier::PairVerdict& v : warm.restrictions.pairs) {
    if (v.prefiltered) {
      continue;
    }
    const bool touched = touch_member.count(v.p) != 0 || touch_member.count(v.q) != 0;
    EXPECT_EQ(v.provenance,
              touched ? verifier::PairProvenance::kComputed : verifier::PairProvenance::kReplayed)
        << "(" << v.p << ", " << v.q << ")";
    ++(touched ? computed : replayed);
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(computed, 0u);

  PipelineResult cold = RunStored(with_email(), TempStore("schema_edit_cold"));
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

TEST(IncrementalTest, CorruptedArtifactsFallBackToColdWithIdenticalVerdicts) {
  std::string store = TempStore("corrupt");
  app::App a = MakeLibraryApp(LibraryConfig{});
  PipelineResult reference = RunStored(a, store);
  std::vector<std::string> expected = reference.restrictions.VerdictLines();

  struct Corruption {
    const char* file;
    enum { kTruncate, kGarbage, kVersion, kDelete } kind;
  };
  const Corruption kCorruptions[] = {
      {"verdicts", Corruption::kTruncate},
      {"verdicts", Corruption::kGarbage},
      {"manifest", Corruption::kVersion},
      {"manifest", Corruption::kDelete},
  };
  for (const Corruption& c : kCorruptions) {
    std::string path = store + "/" + c.file;
    switch (c.kind) {
      case Corruption::kTruncate:
        WriteAll(path, ReadAll(path).substr(0, ReadAll(path).size() / 2));
        break;
      case Corruption::kGarbage:
        WriteAll(path, "not an artifact at all {{{");
        break;
      case Corruption::kVersion:
        WriteAll(path, "noctua-manifest 9999 \"library\" 0");
        break;
      case Corruption::kDelete:
        std::filesystem::remove(path);
        break;
    }
    PipelineResult warm = RunStored(a, store);
    EXPECT_TRUE(warm.cold) << c.file << " corruption must degrade to a cold run";
    EXPECT_EQ(warm.restrictions.VerdictLines(), expected) << c.file;
    // The run re-saved good artifacts; prove the store recovered.
    PipelineResult recovered = RunStored(a, store);
    EXPECT_FALSE(recovered.cold) << c.file;
  }
}

TEST(IncrementalTest, RealAppsReplayByteIdentical) {
  for (const apps::AppEntry& entry : {apps::AppEntry{"SmallBank", apps::MakeSmallBankApp},
                                      apps::AppEntry{"Courseware", apps::MakeCoursewareApp}}) {
    std::string store = TempStore(std::string("real_") + entry.name);
    app::App a = entry.make();
    PipelineResult cold = RunStored(a, store);
    EXPECT_TRUE(cold.cold) << entry.name;

    app::App b = entry.make();
    PipelineResult warm = RunStored(b, store);
    EXPECT_FALSE(warm.cold) << entry.name;
    EXPECT_EQ(warm.stats().pairs_computed, 0u) << entry.name;
    EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines())
        << entry.name;
  }
}

// A store written by an earlier build fails the version gate: that run is cold, saves a
// store of the current version, and the next run replays from it. The earlier store here
// is laid out as version 3 wrote it: the verdicts in today's format under the old version
// token, and a manifest that also lists every endpoint's digest.
TEST(IncrementalTest, StoreFromAnEarlierVersionRunsColdOnce) {
  std::string store = TempStore("version_earlier");
  app::App a = MakeLibraryApp(LibraryConfig{});
  PipelineResult first = RunStored(a, store);
  ASSERT_TRUE(first.cold);
  // The store is the manifest and the verdicts, nothing else.
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(store)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"manifest", "verdicts"}));
  const std::string current = " " + std::to_string(soir::kArtifactVersion) + " ";
  const std::string earlier = " " + std::to_string(soir::kArtifactVersion - 1) + " ";
  for (const char* file : {"manifest", "verdicts"}) {
    std::string path = store + "/" + file;
    std::string data = ReadAll(path);
    size_t at = data.find(' ');
    ASSERT_EQ(data.compare(at, current.size(), current), 0) << file;
    WriteAll(path, data.replace(at, current.size(), earlier));
  }
  std::string manifest = ReadAll(store + "/manifest") + " 3";
  for (const char* view : {"add_book", "checkout", "return_book"}) {
    manifest += " " + Quoted(view) + " " + Quoted(soir::DigestHex(soir::Fnv1a64(view)));
  }
  WriteAll(store + "/manifest", manifest);

  analyzer::AnalysisResult analysis;
  verifier::VerdictCache verdicts;
  EXPECT_FALSE(Session(store).LoadPrior(a, &analysis, &verdicts));
  PipelineResult cold = RunStored(a, store);
  EXPECT_TRUE(cold.cold);
  PipelineResult warm = RunStored(a, store);
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.stats().pairs_computed, 0u);
  EXPECT_GT(warm.stats().pairs_replayed, 0u);
  EXPECT_EQ(warm.restrictions.VerdictLines(), first.restrictions.VerdictLines());
}

// A timeout says how much budget a run had, not what its query's answer is, so no cache
// keeps one: a run on a store written under a starved budget re-solves every pair that
// timed out there, and matches a cold run.
TEST(IncrementalTest, TimeoutsAreNeverStored) {
  std::string store = TempStore("timeouts");
  app::App a = apps::MakeZhihuApp();
  PipelineOptions starved;
  starved.checker.solver.budget.max_nodes = 1;
  PipelineResult first = RunStored(a, store, starved);
  std::set<std::pair<std::string, std::string>> timed_out;
  for (const verifier::PairVerdict& v : first.restrictions.pairs) {
    if (v.commutativity == verifier::CheckOutcome::kTimeout ||
        v.semantic == verifier::CheckOutcome::kTimeout) {
      timed_out.emplace(v.p, v.q);
    }
  }
  ASSERT_FALSE(timed_out.empty());

  PipelineResult warm = RunStored(a, store);
  EXPECT_FALSE(warm.cold);
  for (const verifier::PairVerdict& v : warm.restrictions.pairs) {
    if (timed_out.count({v.p, v.q}) != 0) {
      EXPECT_EQ(v.provenance, verifier::PairProvenance::kComputed)
          << "(" << v.p << ", " << v.q << ") replayed a stored timeout";
    }
  }
  PipelineResult cold = RunStored(a, TempStore("timeouts_cold"));
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

// An engine reads the environment once, when it is built. Its store-backed runs verify
// with the options it resolved, so a malformed knob set afterwards goes unread.
TEST(IncrementalTest, EngineRunsDoNotReadTheEnvironmentAgain) {
  EngineConfig config;
  config.threads = 2;
  Engine engine(config);
  const char* saved = std::getenv("NOCTUA_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("NOCTUA_THREADS", "abc", 1), 0);
  ::testing::internal::CaptureStderr();
  PipelineResult cold =
      engine.Run(MakeLibraryApp(LibraryConfig{}), {}, TempStore("no_env"));
  const std::string err = ::testing::internal::GetCapturedStderr();
  if (saved != nullptr) {
    setenv("NOCTUA_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("NOCTUA_THREADS");
  }
  EXPECT_TRUE(cold.cold);
  EXPECT_FALSE(cold.restrictions.pairs.empty());
  EXPECT_EQ(err.find("NOCTUA_THREADS"), std::string::npos) << err;
}

// A daemon probes the artifact root it ends up with, wherever it came from, and stops on
// one it cannot create, naming that path: here no variable was set.
TEST(ArtifactRootDeathTest, RootUnderARegularFileFailsNamingThePath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string file = TempStore("regular_file");
  WriteAll(file, "not a directory");
  const std::string root = file + "/sub";
  EXPECT_DEATH(ProbeArtifactDir(root), "artifact root \"" + root + "\" cannot be created");
}

// ---------------------------------------------------------------------------- paranoia

// Paranoia audits keys, not reads: each verdict the cold run solved is stored once, and
// at p = 1 its owner in the warm run re-solves it once, however many pairs read it.
TEST(IncrementalTest, FullParanoiaAgreesOnAnHonestStore) {
  std::string store = TempStore("paranoia_honest");
  app::App a = MakeLibraryApp(LibraryConfig{});
  PipelineResult cold = RunStored(a, store);

  PipelineOptions opts;
  opts.parallel.paranoia = 1.0;
  opts.parallel.paranoia_seed = 7;
  PipelineResult warm = RunStored(a, store, opts);
  EXPECT_FALSE(warm.cold);
  const verifier::ReportStats& stats = warm.restrictions.stats;
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(stats.paranoia_rechecks, cold.stats().solver_checks)
      << "paranoia=1.0 must re-solve every replayed verdict once";
  EXPECT_EQ(stats.solver_checks, stats.paranoia_rechecks);
  EXPECT_EQ(warm.stats().pairs_computed, 0u);
}

// A paranoia re-solve that runs out of budget decides nothing, so it cannot convict an
// honest store: an audit under a starved budget keeps the stored verdicts.
TEST(IncrementalTest, ParanoiaUnderAStarvedBudgetKeepsAnHonestStore) {
  std::string store = TempStore("paranoia_starved");
  app::App a = MakeLibraryApp(LibraryConfig{});
  PipelineResult cold = RunStored(a, store);

  PipelineOptions opts;
  opts.checker.solver.budget.max_nodes = 1;
  opts.parallel.paranoia = 1.0;
  PipelineResult warm = RunStored(a, store, opts);
  EXPECT_FALSE(warm.cold);
  EXPECT_GT(warm.restrictions.stats.paranoia_rechecks, 0u);
  EXPECT_EQ(warm.restrictions.stats.paranoia_rechecks, cold.stats().solver_checks);
  EXPECT_EQ(warm.restrictions.VerdictLines(), cold.restrictions.VerdictLines());
}

TEST(IncrementalDeathTest, ParanoiaCatchesAPoisonedStore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string store = TempStore("paranoia_poison");
  app::App a = MakeLibraryApp(LibraryConfig{});
  RunStored(a, store, {}, 1);

  // Flip the first stored verdict — the silent corruption FNV fingerprints can't catch.
  // The file is the part table, then the entries: a pair key's head, part indices and
  // tail ("p"), or a whole key ("k"), each followed by its outcome.
  std::string file = store + "/verdicts";
  soir::ArtifactReader r(ReadAll(file));
  r.ExpectAtom("noctua-verdicts");
  int64_t version = r.Int();
  soir::ArtifactWriter w;
  w.Atom("noctua-verdicts");
  w.Int(version);
  size_t num_parts = r.Count(1000000);
  w.Int(static_cast<int64_t>(num_parts));
  for (size_t i = 0; i < num_parts; ++i) {
    w.Str(r.Str());
  }
  size_t n = r.Count(1000000);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(n, 0u);
  w.Int(static_cast<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    std::string tag = r.Atom();
    w.Atom(tag);
    if (tag == "p") {
      w.Str(r.Str());
      w.Int(r.Int());
      w.Int(r.Int());
      w.Str(r.Str());
    } else {
      ASSERT_EQ(tag, "k");
      w.Str(r.Str());
    }
    int64_t outcome = r.Int();
    if (i == 0) {
      outcome = outcome == 0 ? 1 : 0;
    }
    w.Int(outcome);
  }
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  WriteAll(file, w.str());

  PipelineOptions opts;
  opts.parallel.paranoia = 1.0;
  EXPECT_DEATH(RunStored(a, store, opts, 1), "paranoia recheck disagrees");
}

}  // namespace
}  // namespace noctua
