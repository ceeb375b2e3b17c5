#include "perfbench/src/check.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "src/serve/json.h"

namespace perfbench {

namespace {

using scwsc::serve::JsonValue;

void ParallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(threads, 1u); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

bool SameAnswer(const Answer& a, const Answer& b) {
  return a.selection == b.selection &&
         std::bit_cast<std::uint64_t>(a.total_cost) ==
             std::bit_cast<std::uint64_t>(b.total_cost);
}

double Number(const JsonValue* v) {
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Reference answers per (version, key), filled by one task per version.
using Refs = std::vector<std::map<int, scwsc::Result<Answer>>>;

}  // namespace

std::vector<Response> DecodeResponses(const std::vector<OpRecord>& records) {
  std::vector<Response> responses(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].answered) continue;
    Response& out = responses[i];
    out.answered = true;
    const auto parsed = scwsc::serve::ParseJson(records[i].response);
    if (!parsed.ok() || !parsed->is_object()) {
      out.error = "undecodable response";
      continue;
    }
    const JsonValue* ok = parsed->Find("ok");
    out.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (const JsonValue* error = parsed->Find("error")) {
      const JsonValue* code = error->Find("code");
      out.error = code != nullptr && code->is_string() ? code->as_string()
                                                       : "error";
    }
    const JsonValue* result = parsed->Find("result");
    if (result == nullptr) continue;
    if (const JsonValue* selection = result->Find("selection");
        selection != nullptr && selection->is_array()) {
      for (const JsonValue& label : selection->as_array()) {
        out.answer.selection.push_back(label.is_string() ? label.as_string()
                                                         : "?");
      }
    }
    out.answer.total_cost = Number(result->Find("total_cost"));
    const JsonValue* cached = result->Find("from_result_cache");
    out.from_cache = cached != nullptr && cached->is_bool() && cached->as_bool();
    out.queue_s = Number(result->Find("queue_seconds"));
    out.run_s = Number(result->Find("run_seconds"));
    if (const JsonValue* hash = result->Find("content_hash");
        hash != nullptr && hash->is_string()) {
      out.content_hash = hash->as_string();
    }
  }
  return responses;
}

CheckResult CheckRun(const WorkloadSpec& spec, const Dataset& dataset,
                     const Plan& plan, const std::vector<OpRecord>& records,
                     const std::vector<Response>& responses,
                     unsigned threads) {
  CheckResult out;
  std::mutex mu;
  const auto problem = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (out.problems.size() < 8) out.problems.push_back(what);
  };
  const auto id = [](std::size_t i) { return "r" + std::to_string(i); };

  // Which versions exist: version v is the head after the v-th delta that
  // succeeded, in send order (one connection carries every delta).
  std::vector<scwsc::Table> tables;
  std::vector<double> version_sent{0.0}, version_recv{0.0};
  std::vector<std::string> version_hash{""};
  {
    auto base = ReadTable(dataset);
    if (!base.ok()) {
      problem("reading the dataset: " + base.status().ToString());
      ++out.mismatches;
      return out;
    }
    tables.push_back(*std::move(base));
  }
  std::vector<Row> shadow = dataset.rows;
  std::vector<std::size_t> solves;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const OpRecord& record = records[i];
    if (!record.sent) continue;
    const Response& response = responses[i];
    if (!response.answered || !response.ok) {
      ++out.failed;
      problem(id(i) + ": " +
              (response.answered ? "error " + response.error : "no response"));
      continue;
    }
    const Op& op = plan.ops[i];
    if (op.kind == OpKind::kSolve) solves.push_back(i);
    if (op.kind != OpKind::kDelta) continue;
    const DeltaOp& delta = plan.deltas[static_cast<std::size_t>(op.delta)];
    shadow.erase(shadow.begin() + static_cast<std::ptrdiff_t>(delta.retract));
    shadow.push_back(delta.append);
    auto table = TableFromRows(dataset, shadow);
    if (!table.ok()) {
      problem("shadow table: " + table.status().ToString());
      ++out.mismatches;
      return out;
    }
    tables.push_back(*std::move(table));
    version_sent.push_back(record.sent_s);
    version_recv.push_back(record.recv_s);
    version_hash.push_back(response.content_hash);
  }
  const std::size_t versions = tables.size();
  out.versions = versions;

  // Candidate versions [lo, hi] for each solve: lo is the newest version
  // whose delta had been answered before the solve was sent, hi the newest
  // whose delta had been sent before the solve's answer arrived.
  std::vector<std::pair<std::size_t, std::size_t>> window(plan.ops.size());
  for (const std::size_t i : solves) {
    std::size_t lo = 0, hi = 0;
    for (std::size_t v = 1; v < versions; ++v) {
      if (version_recv[v] <= records[i].sent_s) lo = v;
      if (version_sent[v] <= records[i].recv_s) hi = v;
    }
    window[i] = {lo, std::max(lo, hi)};
  }

  // Builds each needed version from scratch, checks its content hash
  // against the delta response, and solves the keys asked of it.
  Refs refs(versions);
  std::vector<char> hash_checked(versions, 0);
  const auto fill = [&](const std::vector<std::set<int>>& needs) {
    std::vector<std::size_t> todo;
    for (std::size_t v = 0; v < versions; ++v) {
      if (!needs[v].empty() || (v > 0 && !hash_checked[v])) todo.push_back(v);
    }
    ParallelFor(todo.size(), threads, [&](std::size_t t) {
      const std::size_t v = todo[t];
      auto snapshot = BuildSnapshot(spec, tables[v], spec.hierarchy);
      std::map<int, scwsc::Result<Answer>> answers;
      if (!snapshot.ok()) {
        problem("rebuilding version " + std::to_string(v) + ": " +
                snapshot.status().ToString());
      }
      for (const int key : needs[v]) {
        answers.emplace(key, snapshot.ok()
                                 ? ReferenceSolve(*snapshot,
                                                  plan.keys[static_cast<std::size_t>(key)])
                                 : scwsc::Result<Answer>(snapshot.status()));
      }
      std::lock_guard<std::mutex> lock(mu);
      refs[v].merge(answers);
      if (v > 0 && !hash_checked[v]) {
        hash_checked[v] = 1;
        const std::string rebuilt =
            snapshot.ok() ? HashHex((*snapshot)->content_hash()) : "";
        if (rebuilt != version_hash[v]) {
          ++out.mismatches;
          if (out.problems.size() < 8) {
            out.problems.push_back("version " + std::to_string(v) +
                                   ": delta hash " + version_hash[v] +
                                   " != rebuild " + rebuilt);
          }
        }
      }
    });
  };
  const auto matches = [&](std::size_t i, std::size_t v) {
    const auto it = refs[v].find(plan.ops[i].key);
    return it != refs[v].end() && it->second.ok() &&
           SameAnswer(*it->second, responses[i].answer);
  };

  std::vector<std::set<int>> needs(versions);
  for (const std::size_t i : solves) needs[window[i].first].insert(plan.ops[i].key);
  fill(needs);
  std::vector<std::size_t> unmatched;
  for (const std::size_t i : solves) {
    if (!matches(i, window[i].first)) unmatched.push_back(i);
  }
  needs.assign(versions, {});
  for (const std::size_t i : unmatched) {
    for (std::size_t v = window[i].first + 1; v <= window[i].second; ++v) {
      needs[v].insert(plan.ops[i].key);
    }
  }
  fill(needs);
  for (const std::size_t i : unmatched) {
    bool any = false;
    for (std::size_t v = window[i].first + 1; v <= window[i].second; ++v) {
      any = any || matches(i, v);
    }
    if (!any) {
      ++out.mismatches;
      problem(id(i) + ": " + plan.keys[static_cast<std::size_t>(plan.ops[i].key)].solver +
              " answer differs from the serial reference");
    }
  }
  return out;
}

}  // namespace perfbench
