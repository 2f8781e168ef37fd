// Example: analyzing your own application.
//
// Shows the full authoring surface: models with validators, relations with on-delete
// policies, views with branching, bulk updates with F-expressions, and how the analyzer
// discovers parameters and paths — then prints the SOIR and the restriction set.
//
// The app is a tiny ticket tracker: agents claim tickets, resolve them, and escalate
// stale ones.
#include <cstdio>

#include "src/pipeline/engine.h"
#include "src/soir/printer.h"

int main() {
  using namespace noctua;
  using analyzer::Sym;
  using analyzer::SymObj;
  using analyzer::SymSet;
  using analyzer::ViewCtx;

  app::App app("tickets", __FILE__);
  soir::Schema& s = app.schema();

  s.AddModel("Agent");
  s.AddField("Agent", {.name = "name", .type = soir::FieldType::kString, .unique = true});
  s.AddField("Agent", {.name = "open_load", .type = soir::FieldType::kInt, .positive = true});

  s.AddModel("Ticket");
  s.AddField("Ticket", {.name = "subject", .type = soir::FieldType::kString});
  s.AddField("Ticket",
             {.name = "status",
              .type = soir::FieldType::kString,
              .choices = {"open", "claimed", "resolved"},
              .default_string = "open"});
  s.AddField("Ticket", {.name = "priority", .type = soir::FieldType::kInt, .positive = true});
  s.AddRelation("assignee", "Ticket", "Agent", soir::RelationKind::kManyToOne,
                soir::OnDelete::kSetNull);

  // open_ticket: anyone may file a ticket.
  app.AddView("open_ticket", [](ViewCtx& v) {
    Sym priority = v.PostInt("priority");
    v.Guard(priority >= 0);
    v.Create("Ticket", {{"subject", v.Post("subject")},
                        {"status", Sym("open")},
                        {"priority", priority}});
  });

  // claim_ticket: an agent takes an open ticket; their load counter goes up.
  app.AddView("claim_ticket", [](ViewCtx& v) {
    SymObj agent = v.Deref("Agent", v.ParamRef("agent", "Agent"));
    SymObj ticket = v.M("Ticket").get("id", v.ParamRef("ticket", "Ticket"));
    v.Guard(ticket.attr("status") == "open");
    ticket.with("status", Sym("claimed")).save();
    v.Link("assignee", ticket, agent);
    agent.with("open_load", agent.attr("open_load") + 1).save();
  });

  // resolve_ticket: the assignee closes it and sheds load.
  app.AddView("resolve_ticket", [](ViewCtx& v) {
    SymObj agent = v.Deref("Agent", v.ParamRef("agent", "Agent"));
    SymObj ticket = v.M("Ticket").get("id", v.ParamRef("ticket", "Ticket"));
    v.Guard(ticket.attr("status") == "claimed");
    ticket.with("status", Sym("resolved")).save();
    v.Guard(agent.attr("open_load") >= 1);
    agent.with("open_load", agent.attr("open_load") - 1).save();
  });

  // escalate_stale: bulk-bumps the priority of every open ticket (an F-expression).
  app.AddView("escalate_stale", [](ViewCtx& v) {
    SymSet open = v.M("Ticket").filter("status", Sym("open"));
    open.update_each("priority", [](SymObj t) { return t.attr("priority") + 1; });
  });

  PipelineResult result = Engine().Run(app);
  printf("=== %zu code paths ===\n\n", result.analysis.num_code_paths);
  for (const auto& path : result.analysis.paths) {
    printf("%s\n", soir::PrintCodePath(app.schema(), path).c_str());
  }

  printf("=== Restriction set ===\n%s", result.restrictions.ToString().c_str());
  printf("\nReading the result: claim_ticket conflicts with itself (two agents claiming\n"
         "the same open ticket both see status == \"open\"), while open_ticket commutes\n"
         "with everything thanks to database-generated unique IDs.\n");
  return 0;
}
