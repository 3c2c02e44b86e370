// Spec-level reference matchers for SEQ and EXCEPTION_SEQ (paper §3.1),
// the oracle the history matcher (src/cep) is checked against.
//
// The reference keeps every accepted arrival and never purges. At each
// trigger it enumerates complete candidates by brute force and applies
// the rules below, so it shares no state-management code with the
// operators it checks. Predicates (arrival filters, star gates,
// pairwise conditions, final checks, projections) are the planner's
// bound expressions, evaluated over the same slots the operator binds.
//
// SEQ rules (§3.1.1, DESIGN.md §5):
//  * Entries. A plain position's entry is one tuple. A starred
//    position's entries are groups: an arrival joins the open group
//    when the star gate passes against the group's last tuple, else it
//    closes that group and opens a new one.
//  * Candidates. One entry per non-negated position, the trigger at the
//    last position: the arriving tuple, or for a trailing star the open
//    group just extended. Entries are strictly ordered by (timestamp,
//    arrival). A candidate is admissible when every pairwise condition
//    holds (a star slot binds its group and the group's last tuple),
//    every window bound holds against the anchor entry, and no stored
//    tuple of a negated position lies strictly between the neighbouring
//    chosen entries.
//  * Modes, with entries ranked by arrival:
//    - UNRESTRICTED emits every admissible candidate that passes the
//      final checks, the earliest-ranked entry at the position before
//      the trigger first, then the position before it, and so on.
//    - RECENT takes the admissible candidate that ranks latest at the
//      position before the trigger, then at the one before that, and so
//      on; it is emitted if it passes the final checks.
//    - CHRONICLE takes the admissible candidate of unconsumed entries
//      that ranks earliest at position 0, then position 1, and so on.
//      If it passes the final checks it is emitted and its entries are
//      consumed; a consumed group no longer grows, and a consumed
//      trailing group ends.
//    - CONSECUTIVE matches the block of accepted arrivals (all ports)
//      that ends at the trigger, when it splits into one segment per
//      position: one tuple for a plain position, and for a starred one
//      the whole run of that port's arrivals, every gate passing. A
//      leading star keeps the longest gate-connected tail of its run.
//      A negated position can never be filled, so it never matches.
//      The run qualifies as it is built: a starred position's pairwise
//      conditions on earlier positions are checked when its group
//      opens, against the group's first tuple.
//  * Emission carries the trigger's last timestamp; a multiple-return
//    star emits one row per group member.
//
// EXCEPTION_SEQ rules (§3.1.3): one partial sequence is tracked. An
// arrival that extends it (next position, or the current starred
// position while its gate holds) must satisfy the pairwise conditions
// against the partial. Anything else is a terminal event at the
// partial's level; under RECENT a repeat of an earlier position instead
// truncates the partial to that position and takes its place. A
// FOLLOWING window arms a deadline when the anchor position fills; a
// tuple or heartbeat past it ends the partial at its level. A terminal
// event is emitted when its level satisfies the level comparison, with
// the offending tuple bound at its own position.

#ifndef ESLEV_TESTS_CEP_SEQ_REFERENCE_H_
#define ESLEV_TESTS_CEP_SEQ_REFERENCE_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "cep/seq_config.h"
#include "expr/eval_row.h"

namespace eslev {
namespace cep_test {

/// One input of a reference run: an arrival on an operator port, or a
/// heartbeat.
struct RefInput {
  bool heartbeat = false;
  size_t port = 0;
  Tuple tuple;
  Timestamp now = 0;  // heartbeat time
};

namespace ref_internal {

struct Entry {
  std::vector<Tuple> tuples;
  uint64_t first = 0;  // arrival index of the first / last tuple
  uint64_t last = 0;
  bool open = false;
  mutable bool consumed = false;  // CHRONICLE; set through const Chosen

  Timestamp first_ts() const { return tuples.front().ts(); }
  Timestamp last_ts() const { return tuples.back().ts(); }
};

inline bool Before(const Entry& a, const Entry& b) {
  return a.last_ts() < b.first_ts() ||
         (a.last_ts() == b.first_ts() && a.last < b.first);
}

}  // namespace ref_internal

class SeqReference {
 public:
  explicit SeqReference(const SeqOperatorConfig& config)
      : c_(config), n_(config.positions.size()), scratch_(n_), entries_(n_) {}

  Result<std::vector<Tuple>> Run(const std::vector<RefInput>& inputs) {
    out_.clear();
    uint64_t arrival = 0;
    for (const RefInput& in : inputs) {
      if (in.heartbeat) continue;  // SEQ output never depends on time alone
      const uint64_t seq = arrival++;
      if (!c_.arrival_filters.empty() && c_.arrival_filters[in.port]) {
        scratch_.Clear();
        scratch_.SetTuple(in.port, &in.tuple);
        ESLEV_ASSIGN_OR_RETURN(
            bool pass,
            EvalPredicate(*c_.arrival_filters[in.port], scratch_.Row()));
        if (!pass) continue;
      }
      if (c_.mode == PairingMode::kConsecutive) {
        ESLEV_RETURN_NOT_OK(Consecutive(in.port, in.tuple, seq));
        continue;
      }
      ESLEV_RETURN_NOT_OK(Store(in.port, in.tuple, seq));
      if (in.port == n_ - 1) {
        ESLEV_RETURN_NOT_OK(Trigger(entries_[n_ - 1].back()));
      }
    }
    return out_;
  }

 private:
  using Entry = ref_internal::Entry;
  using Chosen = std::vector<const Entry*>;

  bool Star(size_t pos) const { return c_.positions[pos].star; }
  bool Negated(size_t pos) const { return c_.positions[pos].negated; }

  Result<bool> Gate(size_t pos, const Tuple& t, const Tuple& previous) {
    if (c_.star_gates.empty() || !c_.star_gates[pos]) return true;
    scratch_.Clear();
    scratch_.SetTuple(pos, &t);
    scratch_.SetPrevious(pos, &previous);
    return EvalPredicate(*c_.star_gates[pos], scratch_.Row());
  }

  Status Store(size_t pos, const Tuple& t, uint64_t seq) {
    std::vector<Entry>& list = entries_[pos];
    if (Star(pos) && !list.empty() && list.back().open &&
        !list.back().consumed) {
      ESLEV_ASSIGN_OR_RETURN(bool joins,
                             Gate(pos, t, list.back().tuples.back()));
      if (joins) {
        list.back().tuples.push_back(t);
        list.back().last = seq;
        return Status::OK();
      }
    }
    if (!list.empty()) list.back().open = false;
    Entry e;
    e.tuples.push_back(t);
    e.first = e.last = seq;
    e.open = Star(pos);
    list.push_back(std::move(e));
    return Status::OK();
  }

  void Bind(const Chosen& chosen) {
    scratch_.Clear();
    for (size_t p = 0; p < n_; ++p) {
      if (chosen[p] == nullptr) continue;
      scratch_.SetTuple(p, &chosen[p]->tuples.back());
      if (Star(p)) scratch_.SetStarGroup(p, &chosen[p]->tuples);
    }
  }

  // Window, pairwise conditions and negation over a complete candidate.
  Result<bool> Admissible(const Chosen& chosen) {
    if (!WindowOk(chosen)) return false;
    ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOk(chosen, chosen));
    return ok && NegationOk(chosen);
  }

  bool WindowOk(const Chosen& chosen) const {
    if (!c_.window) return true;
    const SeqWindow& w = *c_.window;
    const Entry& anchor = *chosen[w.anchor];
    const bool preceding = w.direction != WindowDirection::kFollowing;
    const bool following = w.direction != WindowDirection::kPreceding;
    for (size_t p = 0; p < n_; ++p) {
      if (chosen[p] == nullptr) continue;
      if (preceding && p <= w.anchor &&
          chosen[p]->first_ts() < anchor.last_ts() - w.length) {
        return false;
      }
      if (following && p >= w.anchor &&
          chosen[p]->last_ts() > anchor.first_ts() + w.length) {
        return false;
      }
    }
    return true;
  }

  // Each condition binds its earlier position from `earlier` and its
  // later position from `later`.
  Result<bool> PairwiseOk(const Chosen& earlier, const Chosen& later) {
    for (const PairwiseConstraint& pc : c_.pairwise) {
      Chosen pair(n_, nullptr);
      pair[pc.pos_a] = earlier[pc.pos_a];
      pair[pc.pos_b] = later[pc.pos_b];
      Bind(pair);
      ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*pc.expr, scratch_.Row()));
      if (!ok) return false;
    }
    return true;
  }

  bool NegationOk(const Chosen& chosen) const {
    for (size_t p = 0; p < n_; ++p) {
      if (!Negated(p)) continue;
      const Entry* left = nullptr;
      const Entry* right = nullptr;
      for (size_t q = p; q-- > 0 && left == nullptr;) left = chosen[q];
      for (size_t q = p + 1; q < n_ && right == nullptr; ++q) {
        right = chosen[q];
      }
      for (const Entry& e : entries_[p]) {
        if (ref_internal::Before(*left, e) &&
            ref_internal::Before(e, *right)) {
          return false;
        }
      }
    }
    return true;
  }

  Result<bool> FinalChecks(const Chosen& chosen) {
    Bind(chosen);
    for (const BoundExprPtr& check : c_.final_checks) {
      ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*check, scratch_.Row()));
      if (!ok) return false;
    }
    return true;
  }

  Status Emit(const Chosen& chosen) {
    Bind(chosen);
    const Timestamp ts = chosen[n_ - 1]->last_ts();
    const auto project = [&]() -> Status {
      std::vector<Value> values;
      for (const BoundExprPtr& e : c_.projection) {
        ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
        values.push_back(std::move(v));
      }
      ESLEV_ASSIGN_OR_RETURN(Tuple t,
                             MakeTuple(c_.out_schema, std::move(values), ts));
      out_.push_back(std::move(t));
      return Status::OK();
    };
    if (c_.per_tuple_star < 0) return project();
    const size_t star = static_cast<size_t>(c_.per_tuple_star);
    for (const Tuple& member : chosen[star]->tuples) {
      scratch_.SetTuple(star, &member);
      ESLEV_RETURN_NOT_OK(project());
    }
    return Status::OK();
  }

  // Visit the order-consistent candidates for `trigger` in the mode's
  // preference order until `visit` returns true.
  Result<bool> Enumerate(const Entry& trigger,
                         const std::function<Result<bool>(const Chosen&)>&
                             visit) {
    Chosen chosen(n_, nullptr);
    chosen[n_ - 1] = &trigger;
    const bool forward = c_.mode == PairingMode::kChronicle;
    const bool latest_first = c_.mode == PairingMode::kRecent;
    std::function<Result<bool>(size_t)> step =
        [&](size_t depth) -> Result<bool> {
      if (depth == n_ - 1) return visit(chosen);
      const size_t pos = forward ? depth : n_ - 2 - depth;
      if (Negated(pos)) return step(depth + 1);
      const std::vector<Entry>& list = entries_[pos];
      for (size_t k = 0; k < list.size(); ++k) {
        const Entry& e = list[latest_first ? list.size() - 1 - k : k];
        if (e.consumed || !ref_internal::Before(e, trigger)) continue;
        bool ordered = true;
        for (size_t q = 0; q + 1 < n_; ++q) {
          if (chosen[q] == nullptr || q == pos) continue;
          if (q < pos ? !ref_internal::Before(*chosen[q], e)
                      : !ref_internal::Before(e, *chosen[q])) {
            ordered = false;
          }
        }
        if (!ordered) continue;
        chosen[pos] = &e;
        ESLEV_ASSIGN_OR_RETURN(bool stop, step(depth + 1));
        chosen[pos] = nullptr;
        if (stop) return true;
      }
      return false;
    };
    return step(0);
  }

  Status Trigger(const Entry& trigger) {
    if (c_.mode == PairingMode::kUnrestricted) {
      return Enumerate(trigger, [&](const Chosen& c) -> Result<bool> {
               ESLEV_ASSIGN_OR_RETURN(bool ok, Admissible(c));
               if (ok) {
                 ESLEV_ASSIGN_OR_RETURN(ok, FinalChecks(c));
               }
               if (ok) ESLEV_RETURN_NOT_OK(Emit(c));
               return false;  // visit every candidate
             })
          .status();
    }
    Chosen pick;
    ESLEV_ASSIGN_OR_RETURN(
        bool found, Enumerate(trigger, [&](const Chosen& c) -> Result<bool> {
          ESLEV_ASSIGN_OR_RETURN(bool ok, Admissible(c));
          if (ok) pick = c;
          return ok;
        }));
    if (!found) return Status::OK();
    ESLEV_ASSIGN_OR_RETURN(bool passes, FinalChecks(pick));
    if (!passes) return Status::OK();
    ESLEV_RETURN_NOT_OK(Emit(pick));
    if (c_.mode == PairingMode::kChronicle) {
      for (size_t p = 0; p < n_; ++p) {
        if (pick[p] != nullptr) pick[p]->consumed = true;
      }
    }
    return Status::OK();
  }

  // ---- CONSECUTIVE --------------------------------------------------------

  struct Arrival {
    size_t port;
    Tuple tuple;
    uint64_t seq;
  };

  Status Consecutive(size_t port, const Tuple& t, uint64_t seq) {
    log_.push_back({port, t, seq});
    if (port != n_ - 1) return Status::OK();
    for (size_t p = 0; p < n_; ++p) {
      if (Negated(p)) return Status::OK();
    }
    // Carve the block ending here into segments, last position first.
    std::vector<Entry> segments(n_);
    size_t end = log_.size();  // one past the segment being carved
    for (size_t p = n_; p-- > 0;) {
      if (end == 0 || log_[end - 1].port != p) return Status::OK();
      size_t begin = end - 1;
      if (Star(p)) {
        while (begin > 0 && log_[begin - 1].port == p) --begin;
        for (size_t i = end - 1; i > begin; --i) {
          ESLEV_ASSIGN_OR_RETURN(
              bool joins, Gate(p, log_[i].tuple, log_[i - 1].tuple));
          if (joins) continue;
          if (p != 0) return Status::OK();
          begin = i;  // a leading star keeps the gate-connected tail
          break;
        }
      }
      for (size_t i = begin; i < end; ++i) {
        segments[p].tuples.push_back(log_[i].tuple);
      }
      segments[p].first = log_[begin].seq;
      segments[p].last = log_[end - 1].seq;
      end = begin;
    }
    // The run qualifies each position as it opens: a starred position's
    // conditions on earlier positions bind the group's first tuple.
    std::vector<Entry> opened = segments;
    Chosen chosen(n_);
    Chosen as_opened(n_);
    for (size_t p = 0; p < n_; ++p) {
      if (Star(p)) opened[p].tuples.resize(1);
      chosen[p] = &segments[p];
      as_opened[p] = &opened[p];
    }
    bool ok = WindowOk(chosen);
    if (ok) {
      ESLEV_ASSIGN_OR_RETURN(ok, PairwiseOk(chosen, as_opened));
    }
    if (ok) {
      ESLEV_ASSIGN_OR_RETURN(ok, FinalChecks(chosen));
    }
    if (ok) ESLEV_RETURN_NOT_OK(Emit(chosen));
    return Status::OK();
  }

  const SeqOperatorConfig& c_;
  const size_t n_;
  RowScratch scratch_;
  std::vector<std::vector<Entry>> entries_;  // per position, never purged
  std::vector<Arrival> log_;                 // CONSECUTIVE joint history
  std::vector<Tuple> out_;
};

class ExceptionSeqReference {
 public:
  explicit ExceptionSeqReference(const ExceptionSeqConfig& config)
      : c_(config), n_(config.positions.size()), scratch_(n_) {}

  Result<std::vector<Tuple>> Run(const std::vector<RefInput>& inputs) {
    out_.clear();
    for (const RefInput& in : inputs) {
      if (in.heartbeat) {
        ESLEV_RETURN_NOT_OK(Expire(in.now));
        continue;
      }
      if (!c_.arrival_filters.empty() && c_.arrival_filters[in.port]) {
        scratch_.Clear();
        scratch_.SetTuple(in.port, &in.tuple);
        ESLEV_ASSIGN_OR_RETURN(
            bool pass,
            EvalPredicate(*c_.arrival_filters[in.port], scratch_.Row()));
        if (!pass) continue;
      }
      ESLEV_RETURN_NOT_OK(Expire(in.tuple.ts()));
      ESLEV_RETURN_NOT_OK(Arrive(in.port, in.tuple));
    }
    return out_;
  }

 private:
  Status Arrive(size_t port, const Tuple& t) {
    const size_t level = partial_.size();
    if (level > 0 && port == level - 1 && c_.positions[port].star) {
      bool joins = true;
      if (!c_.star_gates.empty() && c_.star_gates[port]) {
        scratch_.Clear();
        scratch_.SetTuple(port, &t);
        scratch_.SetPrevious(port, &partial_.back().back());
        ESLEV_ASSIGN_OR_RETURN(
            joins, EvalPredicate(*c_.star_gates[port], scratch_.Row()));
      }
      if (joins) {
        ESLEV_ASSIGN_OR_RETURN(joins, Qualifies(port, t));
      }
      if (joins) {
        partial_.back().push_back(t);
        return Status::OK();
      }
      ESLEV_RETURN_NOT_OK(Terminal(level, &t, port));
      return Restart(port, t);
    }
    if (port == level) {
      ESLEV_ASSIGN_OR_RETURN(bool ok, Qualifies(port, t));
      if (ok) return Extend(t);
    }
    if (level > 0) ESLEV_RETURN_NOT_OK(Terminal(level, &t, port));
    if (level > 0 && c_.mode == PairingMode::kRecent && port < level) {
      partial_.resize(port);
      deadline_.reset();
      ESLEV_ASSIGN_OR_RETURN(bool ok, Qualifies(port, t));
      if (ok) {
        partial_.push_back({t});
        Arm();
        return Status::OK();
      }
    }
    return Restart(port, t);
  }

  Status Restart(size_t port, const Tuple& t) {
    partial_.clear();
    deadline_.reset();
    if (port == 0) return Extend(t);
    return Terminal(0, &t, port);
  }

  Status Extend(const Tuple& t) {
    partial_.push_back({t});
    Arm();
    if (partial_.size() < n_) return Status::OK();
    ESLEV_RETURN_NOT_OK(Terminal(n_, nullptr, 0));
    partial_.clear();
    deadline_.reset();
    return Status::OK();
  }

  void Arm() {
    if (c_.window && !deadline_ && partial_.size() > c_.window->anchor) {
      deadline_ = partial_[c_.window->anchor].front().ts() + c_.window->length;
    }
  }

  Status Expire(Timestamp now) {
    if (!deadline_ || now <= *deadline_) return Status::OK();
    ESLEV_RETURN_NOT_OK(Terminal(partial_.size(), nullptr, 0));
    partial_.clear();
    deadline_.reset();
    return Status::OK();
  }

  Result<bool> Qualifies(size_t port, const Tuple& t) {
    for (const PairwiseConstraint& pc : c_.pairwise) {
      if (pc.pos_b != port || pc.pos_a >= partial_.size()) continue;
      scratch_.Clear();
      scratch_.SetTuple(pc.pos_a, &partial_[pc.pos_a].back());
      if (c_.positions[pc.pos_a].star) {
        scratch_.SetStarGroup(pc.pos_a, &partial_[pc.pos_a]);
      }
      scratch_.SetTuple(pc.pos_b, &t);
      ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*pc.expr, scratch_.Row()));
      if (!ok) return false;
    }
    return true;
  }

  bool LevelSelected(int64_t level) const {
    switch (c_.level_op) {
      case BinaryOp::kLt:
        return level < c_.level_rhs;
      case BinaryOp::kLe:
        return level <= c_.level_rhs;
      case BinaryOp::kGt:
        return level > c_.level_rhs;
      case BinaryOp::kGe:
        return level >= c_.level_rhs;
      case BinaryOp::kEq:
        return level == c_.level_rhs;
      case BinaryOp::kNe:
        return level != c_.level_rhs;
      default:
        return false;
    }
  }

  Status Terminal(size_t level, const Tuple* offender, size_t offender_pos) {
    if (!LevelSelected(static_cast<int64_t>(level))) return Status::OK();
    static const std::vector<Tuple> kNoGroup;
    scratch_.Clear();
    Timestamp ts = 0;
    for (size_t p = 0; p < n_; ++p) {
      if (c_.positions[p].star) scratch_.SetStarGroup(p, &kNoGroup);
    }
    for (size_t p = 0; p < level && p < partial_.size(); ++p) {
      scratch_.SetTuple(p, &partial_[p].back());
      if (c_.positions[p].star) scratch_.SetStarGroup(p, &partial_[p]);
      ts = std::max(ts, partial_[p].back().ts());
    }
    if (offender != nullptr) {
      scratch_.SetTuple(offender_pos, offender);
      ts = std::max(ts, offender->ts());
    }
    std::vector<Value> values;
    for (const BoundExprPtr& e : c_.projection) {
      ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
      values.push_back(std::move(v));
    }
    ESLEV_ASSIGN_OR_RETURN(Tuple t,
                           MakeTuple(c_.out_schema, std::move(values), ts));
    out_.push_back(std::move(t));
    return Status::OK();
  }

  const ExceptionSeqConfig& c_;
  const size_t n_;
  RowScratch scratch_;
  std::vector<std::vector<Tuple>> partial_;  // one group per filled position
  std::optional<Timestamp> deadline_;
  std::vector<Tuple> out_;
};

}  // namespace cep_test
}  // namespace eslev

#endif  // ESLEV_TESTS_CEP_SEQ_REFERENCE_H_
