// Agent-level web-evolution simulator.
//
// This is the substitute for the paper's experimental substrate (four
// crawl snapshots of 154 real Web sites): it *implements the paper's own
// user-visitation model* as a discrete-event process and exposes the
// evolving link structure, so the Section 8 evaluation can run against
// snapshots whose ground-truth page quality is known.
//
// World:
//   * n users; user u owns a "home page" (page id u, born at t = 0).
//   * Pages carry a latent quality Q(p) ~ Beta(alpha, beta), fixed at
//     birth (the paper's assumption: quality is inherent and constant).
//   * Per step dt, page p receives Poisson((r * P(p) + e) * dt) visits
//     (Proposition 1: V = r * P; `e` is an optional exploration rate),
//     each by a uniformly random user (Proposition 2).
//   * A visitor who was unaware of p becomes aware; with probability
//     Q(p) they like it and create the link home(u) -> p (Definition 1:
//     quality is the like-given-first-discovery probability).
//   * Popularity P(p) = likes(p) / n (Definition 2), so in-links from
//     home pages are exactly the paper's popularity-by-link-count.
//   * Optional page births (content pages authored by existing users,
//     seeded with `seed_likers` initial likers — "one user liked the
//     page at its creation") and optional forgetting (Section 9.1): a
//     liker forgets at rate `forget_rate`, dropping the link and their
//     awareness.
//
// The link structure lives in a DynamicGraph, so any instant can be
// snapshotted to an immutable CsrGraph — the in-memory equivalent of
// "downloading the Web multiple times".

#ifndef QRANK_SIM_WEB_SIMULATOR_H_
#define QRANK_SIM_WEB_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "sim/search_engine.h"

namespace qrank {

struct WebSimulatorOptions {
  /// Number of Web users n; also the number of home pages born at t=0.
  uint32_t num_users = 2000;

  /// Extra authorless-content pages born at t=0 (beyond the home pages).
  uint32_t initial_content_pages = 0;

  /// Simulation step. Visit counts are Poisson-sampled per step, so dt
  /// only trades resolution for speed (must be > 0).
  double time_step = 0.25;

  /// Visit-rate normalization as a multiple of n: r = visit_rate_factor
  /// * n. The paper's Figures use r = n (factor 1).
  double visit_rate_factor = 1.0;

  /// Baseline exploration visits per page per unit time, independent of
  /// popularity (0 reproduces the pure model, where an unliked page is
  /// never discovered).
  double exploration_visit_rate = 0.0;

  /// Users who like each page unconditionally at its birth (P(p,0) =
  /// seed_likers / n > 0, required by the model). Must be >= 1 and
  /// < num_users.
  uint32_t seed_likers = 1;

  /// New content pages per unit time (Poisson).
  double page_birth_rate = 0.0;

  /// Rate at which an individual liker forgets a page (Section 9.1
  /// extension); 0 disables forgetting.
  double forget_rate = 0.0;

  /// Latent quality distribution Beta(quality_alpha, quality_beta),
  /// clamped to [0.01, 0.99].
  double quality_alpha = 1.3;
  double quality_beta = 3.0;

  /// Optional search-engine mediation (Section 1's feedback loop):
  /// when search.policy != kNone, search.search_traffic_fraction of the
  /// visit volume is steered by a ranking instead of raw popularity.
  SearchEngineOptions search;

  uint64_t seed = 42;

  /// Executors for the per-page visit-sampling pass: 0 = process default
  /// (SetDefaultThreads / hardware concurrency), 1 = serial. Each page
  /// draws from a private RNG stream split from (seed, step, page), and
  /// draws are applied serially in page order, so the trajectory is
  /// identical for every value of num_threads.
  int num_threads = 0;
};

/// Per-page observable state.
struct PageState {
  double quality = 0.0;     // latent ground truth Q(p)
  double birth_time = 0.0;
  uint32_t likes = 0;       // |users who currently like p| = n * P(p)
  uint32_t aware = 0;       // |users aware of p| = n * A(p)
  uint64_t visits = 0;      // cumulative visit count
};

class WebSimulator {
 public:
  static Result<WebSimulator> Create(const WebSimulatorOptions& options);

  const WebSimulatorOptions& options() const { return options_; }
  double now() const { return now_; }
  NodeId num_pages() const { return static_cast<NodeId>(pages_.size()); }

  /// Advances in whole steps until now() + time_step would exceed `t`.
  Status AdvanceTo(double t);

  /// Runs exactly one step.
  void Step();

  /// The evolving link structure (home(u) -> p like-links).
  const DynamicGraph& graph() const { return graph_; }

  /// CSR snapshot of the current instant.
  Result<CsrGraph> Snapshot() const { return graph_.SnapshotAt(now_); }

  const PageState& page(NodeId p) const { return pages_[p]; }
  const std::vector<PageState>& pages() const { return pages_; }

  /// Ground-truth popularity P(p) = likes / n (Definition 2).
  double TruePopularity(NodeId p) const {
    return static_cast<double>(pages_[p].likes) /
           static_cast<double>(options_.num_users);
  }

  /// Ground-truth awareness A(p) = aware / n (Definition 4).
  double TrueAwareness(NodeId p) const {
    return static_cast<double>(pages_[p].aware) /
           static_cast<double>(options_.num_users);
  }

  double TrueQuality(NodeId p) const { return pages_[p].quality; }

  /// Injects a brand-new content page with an explicit quality (used by
  /// the new-page-discovery example and tests). Returns the page id.
  Result<NodeId> AddPageWithQuality(double quality);

  /// Total visit events processed so far.
  uint64_t total_visits() const { return total_visits_; }
  /// Total like (link-creation) events so far.
  uint64_t total_likes_created() const { return total_likes_created_; }
  /// Total forget (link-removal) events so far.
  uint64_t total_forgets() const { return total_forgets_; }
  /// Visits that arrived through the search engine.
  uint64_t total_search_visits() const { return total_search_visits_; }
  /// Number of index rebuilds the simulated search engine performed.
  uint64_t rerank_count() const { return rerank_count_; }

  /// The search engine's current result list (top pages in rank order);
  /// empty when search is off or before the first rerank.
  const std::vector<NodeId>& search_results() const {
    return search_results_;
  }

 private:
  WebSimulator(const WebSimulatorOptions& options, Rng rng);

  Status Initialize();

  /// Creates one content page at time `t` with quality `q`; seeds
  /// awareness and likes.
  Result<NodeId> BirthPage(double t, double quality);

  /// One visit by user `u` to page `p` at time `t`; the like decision
  /// draws from the simulator's main RNG stream.
  void VisitPage(uint32_t u, NodeId p, double t);

  /// Visit with a pre-drawn like variate (the parallel sampling pass
  /// draws it from the page's stream): the user likes the page iff
  /// like_draw < quality and they just became aware of it.
  void ApplyVisit(uint32_t u, NodeId p, double t, double like_draw);

  /// One liker of `p` forgets it.
  void ForgetOne(NodeId p, double t);

  /// Marks user `u` aware of page `p`; false if `u` already was.
  bool MarkAware(uint32_t u, NodeId p);

  /// User `u`, aware of page `p`, forgets it.
  void UnmarkAware(uint32_t u, NodeId p);

  double DrawQuality();

  /// Rebuilds the search result list per the configured policy.
  Status Rerank();

  /// Dispatches `count` search-mediated visits through the click model.
  void ServeSearchVisits(uint64_t count, double t);

  WebSimulatorOptions options_;
  Rng rng_;
  double now_ = 0.0;
  uint64_t steps_taken_ = 0;  // seeds the per-step per-page RNG streams
  DynamicGraph graph_;
  std::vector<PageState> pages_;
  /// The users aware of one page (visited it and not forgotten it): a
  /// sorted id list while that is smaller than a bitset row over all n
  /// users, then that row. A page costs about min(4 * aware, n / 8)
  /// bytes plus two empty vectors, so memory follows the awareness marks
  /// on sparse pages (most home pages) and is capped at n / 8 on popular
  /// ones, where membership becomes one bit test.
  struct AwareSet {
    std::vector<uint32_t> users;  // ascending; emptied when `bits` is set
    std::vector<uint64_t> bits;   // ceil(n / 64) words, or empty
  };
  /// aware_[p] = the users aware of page p.
  std::vector<AwareSet> aware_;
  /// likers_[p] = users currently liking p (swap-remove on forget).
  std::vector<std::vector<uint32_t>> likers_;

  uint64_t total_visits_ = 0;
  uint64_t total_likes_created_ = 0;
  uint64_t total_forgets_ = 0;

  // --- Search-engine state (active when options_.search.policy != kNone).
  std::vector<NodeId> search_results_;  // rank order, truncated
  AliasTable position_sampler_;         // position-bias click model
  double next_rerank_time_ = 0.0;
  uint64_t total_search_visits_ = 0;
  uint64_t rerank_count_ = 0;
  /// PageRank of the previous index build (kQualityEstimate policy).
  std::vector<double> previous_pagerank_;
};

}  // namespace qrank

#endif  // QRANK_SIM_WEB_SIMULATOR_H_
