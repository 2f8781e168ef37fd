// Cold-vs-warm sweep for store-backed runs. For each app the bench runs the pipeline
// cold once to populate an artifact store, then replays three scripted developer edits —
// add an endpoint, edit one handler's body, rename a model across the codebase — each
// against a fresh copy of the store. A warm run analyzes the edited app from scratch and
// replays every stored verdict whose key the edit left alone. Every warm run is compared
// against a from-scratch cold run of the edited app, and that comparison is the one
// gate: the restriction sets must be byte-identical (the bench exits nonzero otherwise).
// The speedups are wall-clock ratios, reported and not gated: warm runs of tens of
// milliseconds swing 2-3x from run to run on a shared host. The O(change) property
// itself (an edit re-verifies only the pairs that touch it) is gated exactly, on which
// pairs reach the solver rather than on time, by
// IncrementalTest.HandlerEditReverifiesOnlyPairsTouchingIt and
// IncrementalTest.AddedEndpointReverifiesOnlyItsPairs in tests/incremental_test.cc.
//
// Emits one JSON document on stdout (progress goes to stderr):
//
//   {"apps": [{"app": "Zhihu", "pairs": N, "cold_seconds": ...,
//              "edits": [{"edit": "edit_handler", "changed_endpoints": ["VoteAnswer"],
//                         "cold_seconds": ..., "warm_seconds": ..., "speedup": ...,
//                         "pairs_replayed": ..., "pairs_computed": ...,
//                         "verdicts_replayed": ...,
//                         "solver_checks": ..., "identical_restrictions": true}, ...]},
//             ...],
//    "identical_everywhere": true}
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/ownphotos.h"
#include "src/apps/zhihu.h"
#include "src/pipeline/engine.h"

namespace {

using noctua::PipelineResult;
using noctua::analyzer::Sym;
using noctua::analyzer::SymObj;
using noctua::analyzer::SymSet;
using noctua::analyzer::ViewCtx;

// One run against the store at `store`, on a fresh engine. The solver's budget decisions
// are pinned so verdicts are identical across separate runs — the identity assertion
// below is exact.
PipelineResult RunStored(const noctua::app::App& app, const std::string& store) {
  noctua::PipelineOptions options;
  options.checker.solver.budget.deterministic = true;
  return noctua::Engine().Run(app, options, store);
}

std::string TempDirFor(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("noctua_incremental_sweep_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// One scripted developer edit: mutates a freshly built app in place.
struct Edit {
  const char* name;
  std::function<void(noctua::app::App&)> apply;
};

std::vector<Edit> ZhihuEdits() {
  std::vector<Edit> edits;

  // A brand-new endpoint: discard the user's draft for a question.
  edits.push_back({"add_endpoint", [](noctua::app::App& app) {
    app.AddView(
        "DeleteDraft",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          SymSet drafts = v.M("Draft").filter("author", author).filter("question", q);
          v.Guard(drafts.exists());
          drafts.del();
        });
  }});

  // One handler body edited: upvotes are now worth 25 reputation instead of 10.
  edits.push_back({"edit_handler", [](noctua::app::App& app) {
    app.ReplaceView(
        "VoteAnswer",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          SymObj answer = v.M("Answer").get("id", v.ParamRef("answer", "Answer"));
          v.GuardUniqueTogether("Vote", {{"user", user}, {"answer", answer}});
          if (v.PostBool("positive")) {
            v.Create("Vote", {{"positive", Sym(true)}}, {{"user", user}, {"answer", answer}});
            answer.with("votes", answer.attr("votes") + 1).save();
            SymObj author = answer.rel("author");
            author.with("reputation", author.attr("reputation") + 25).save();
          } else {
            v.Create("Vote", {{"positive", Sym(false)}}, {{"user", user}, {"answer", answer}});
            answer.with("votes", answer.attr("votes") - 1).save();
          }
        });
  }});

  // A codebase-wide rename: model Draft becomes DraftPost, and every handler mentioning
  // it is rewritten — but nothing behavioral changed, so the warm run should replay 100%
  // of the prior verdicts.
  edits.push_back({"rename_model", [](noctua::app::App& app) {
    noctua::soir::Schema& s = app.schema();
    s.RenameModel(s.ModelId("Draft"), "DraftPost");
    app.ReplaceView(
        "PostAnswer",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          if (v.PostBool("from_draft")) {
            SymObj draft =
                v.M("DraftPost").filter("author", author).filter("question", q).any();
            v.Create("Answer", {{"content", draft.attr("content")}, {"votes", Sym(0)}},
                     {{"question", q}, {"author", author}});
            v.M("DraftPost").filter("author", author).filter("question", q).del();
          } else {
            v.Create("Answer", {{"content", v.Post("content")}, {"votes", Sym(0)}},
                     {{"question", q}, {"author", author}});
          }
        });
    app.ReplaceView(
        "SaveDraft",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          v.M("DraftPost").filter("author", author).filter("question", q).del();
          v.Create("DraftPost", {{"content", v.Post("content")}},
                   {{"author", author}, {"question", q}});
        });
  }});
  return edits;
}

std::vector<Edit> OwnPhotosEdits() {
  std::vector<Edit> edits;

  // A brand-new endpoint: un-hide everything the user hid.
  edits.push_back({"add_endpoint", [](noctua::app::App& app) {
    app.AddView(
        "unhide_all",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          v.ClearLinks("hidden_photos", user);
        });
  }});

  // One handler body edited: ratings now go up to 10 stars.
  edits.push_back({"edit_handler", [](noctua::app::App& app) {
    app.ReplaceView(
        "rate_photo",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          SymObj photo = v.M("Photo").get("id", v.ParamRef("pk", "Photo"));
          if (!(photo.rel("owner").ref() == user.ref())) {
            v.Abort();
          }
          Sym rating = v.PostInt("rating");
          v.Guard(rating >= 0);
          v.Guard(rating <= 10);
          photo.with("rating", rating).save();
        });
  }});

  // Schema-only rename: no handler mentions Cluster by name; every verdict replays.
  edits.push_back({"rename_model", [](noctua::app::App& app) {
    noctua::soir::Schema& s = app.schema();
    s.RenameModel(s.ModelId("Cluster"), "FaceCluster");
  }});
  return edits;
}

}  // namespace

int main() {
  struct AppCase {
    const char* name;
    std::function<noctua::app::App()> make;
    std::vector<Edit> edits;
  };
  const std::vector<AppCase> cases = {
      {"Zhihu", noctua::apps::MakeZhihuApp, ZhihuEdits()},
      {"OwnPhotos", noctua::apps::MakeOwnPhotosApp, OwnPhotosEdits()},
  };

  bool identical_everywhere = true;
  noctua::obs::JsonWriter json = noctua::bench::BenchDocument("incremental_sweep");
  json.Key("apps").BeginArray();
  for (const AppCase& app_case : cases) {
    // Cold base run populates the artifact store the edits start from.
    std::string base_store = TempDirFor(std::string(app_case.name) + "_base");
    noctua::app::App base = app_case.make();
    fprintf(stderr, "[incremental_sweep] %s: cold base run...\n", app_case.name);
    PipelineResult cold_base = RunStored(base, base_store);
    fprintf(stderr, "[incremental_sweep] %s: cold %.3fs (%zu pairs)\n", app_case.name,
            cold_base.total_seconds, cold_base.restrictions.pairs.size());

    json.BeginObject().Key("app").String(app_case.name);
    json.Key("pairs").Uint(cold_base.restrictions.pairs.size());
    json.Key("cold_seconds").Double(cold_base.total_seconds, 3).Key("edits").BeginArray();

    for (const Edit& edit : app_case.edits) {
      noctua::app::App edited = app_case.make();
      edit.apply(edited);

      // Each edit starts from its own copy of the base store, as if it were the next
      // thing the developer did after the base commit.
      std::string warm_store = TempDirFor(std::string(app_case.name) + "_" + edit.name);
      std::filesystem::copy(base_store, warm_store,
                            std::filesystem::copy_options::recursive);
      PipelineResult warm = RunStored(edited, warm_store);

      // Reference: the same edited app verified from scratch.
      noctua::app::App edited_again = app_case.make();
      edit.apply(edited_again);
      std::string cold_store = TempDirFor(std::string(app_case.name) + "_" + edit.name + "_cold");
      PipelineResult cold = RunStored(edited_again, cold_store);

      bool identical =
          !warm.cold && warm.restrictions.VerdictLines() == cold.restrictions.VerdictLines();
      identical_everywhere = identical_everywhere && identical;
      double speedup = cold.total_seconds / warm.total_seconds;
      fprintf(stderr,
              "[incremental_sweep] %s/%s: warm %.3fs vs cold %.3fs  speedup %.2fx  "
              "(%llu pairs replayed, %llu computed)%s\n",
              app_case.name, edit.name, warm.total_seconds, cold.total_seconds, speedup,
              static_cast<unsigned long long>(warm.stats().pairs_replayed),
              static_cast<unsigned long long>(warm.stats().pairs_computed),
              identical ? "" : "  RESTRICTIONS DIVERGED");

      json.BeginObject().Key("edit").String(edit.name);
      json.Key("changed_endpoints").BeginArray();
      for (const std::string& endpoint : warm.changed_endpoints) {
        json.String(endpoint);
      }
      json.EndArray().Key("cold_seconds").Double(cold.total_seconds, 3);
      json.Key("warm_seconds").Double(warm.total_seconds, 3);
      json.Key("speedup").Double(speedup, 2);
      json.Key("pairs_replayed").Uint(warm.stats().pairs_replayed);
      json.Key("pairs_computed").Uint(warm.stats().pairs_computed);
      json.Key("verdicts_replayed").Uint(warm.restrictions.stats.replayed);
      json.Key("solver_checks").Uint(warm.restrictions.stats.solver_checks);
      json.Key("identical_restrictions").Bool(identical).EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().Key("identical_everywhere").Bool(identical_everywhere).EndObject();
  printf("%s\n", json.Take().c_str());
  if (!identical_everywhere) {
    fprintf(stderr,
            "[incremental_sweep] FAILED: a warm run diverged from its cold reference\n");
    return 1;
  }
  return 0;
}
