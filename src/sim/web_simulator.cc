#include "sim/web_simulator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "rank/baselines.h"
#include "rank/pagerank.h"
#include "rank/rank_vector.h"

namespace qrank {

namespace {

ParallelOptions SimParallel(const WebSimulatorOptions& options) {
  ParallelOptions par;
  par.num_threads = options.num_threads;
  par.grain = 256;  // pages per block; fixed so draws never depend on threads
  return par;
}

}  // namespace

Result<WebSimulator> WebSimulator::Create(const WebSimulatorOptions& options) {
  if (options.num_users < 2) {
    return Status::InvalidArgument("need at least 2 users");
  }
  if (!(options.time_step > 0.0)) {
    return Status::InvalidArgument("time_step must be positive");
  }
  if (!(options.visit_rate_factor > 0.0)) {
    return Status::InvalidArgument("visit_rate_factor must be positive");
  }
  if (options.exploration_visit_rate < 0.0) {
    return Status::InvalidArgument("exploration_visit_rate must be >= 0");
  }
  if (options.seed_likers < 1 || options.seed_likers >= options.num_users) {
    return Status::InvalidArgument("seed_likers must be in [1, num_users)");
  }
  if (options.page_birth_rate < 0.0) {
    return Status::InvalidArgument("page_birth_rate must be >= 0");
  }
  if (options.forget_rate < 0.0) {
    return Status::InvalidArgument("forget_rate must be >= 0");
  }
  if (options.quality_alpha <= 0.0 || options.quality_beta <= 0.0) {
    return Status::InvalidArgument("quality Beta parameters must be positive");
  }
  QRANK_RETURN_NOT_OK(ValidateSearchEngineOptions(options.search));
  WebSimulator sim(options, Rng(options.seed));
  QRANK_RETURN_NOT_OK(sim.Initialize());
  return sim;
}

WebSimulator::WebSimulator(const WebSimulatorOptions& options, Rng rng)
    : options_(options), rng_(rng) {}

double WebSimulator::DrawQuality() {
  double q = rng_.Beta(options_.quality_alpha, options_.quality_beta);
  return std::clamp(q, 0.01, 0.99);
}

Status WebSimulator::Initialize() {
  const uint32_t n = options_.num_users;
  aware_.resize(n);

  // Home pages: ids [0, n), born at t = 0. Reserve the node slots first,
  // then seed likes (seed likers need existing home pages to link from).
  graph_.AddNodes(n, 0.0);
  pages_.resize(n);
  likers_.resize(n);
  for (NodeId p = 0; p < n; ++p) {
    pages_[p].quality = DrawQuality();
    pages_[p].birth_time = 0.0;
  }
  for (NodeId p = 0; p < n; ++p) {
    // The author is aware of (and likes) their own page implicitly; that
    // self-endorsement carries no link. Seed external likers instead.
    uint32_t seeded = 0;
    while (seeded < options_.seed_likers) {
      uint32_t u = static_cast<uint32_t>(rng_.UniformUint64(n));
      if (u == p) continue;  // would be a self-link
      if (!MarkAware(u, p)) continue;  // already aware
      Status st = graph_.AddEdge(u, p, 0.0);
      if (!st.ok()) return st;
      likers_[p].push_back(u);
      ++pages_[p].likes;
      ++pages_[p].aware;
      ++total_likes_created_;
      ++seeded;
    }
  }

  for (uint32_t i = 0; i < options_.initial_content_pages; ++i) {
    QRANK_ASSIGN_OR_RETURN(NodeId ignored, BirthPage(0.0, DrawQuality()));
    (void)ignored;
  }
  return Status::OK();
}

Result<NodeId> WebSimulator::BirthPage(double t, double quality) {
  if (!(quality > 0.0) || quality > 1.0) {
    return Status::InvalidArgument("quality must be in (0, 1]");
  }
  const uint32_t n = options_.num_users;
  NodeId p = graph_.AddNode(t);
  pages_.push_back(PageState{});
  aware_.emplace_back();
  likers_.emplace_back();
  PageState& page = pages_.back();
  page.quality = quality;
  page.birth_time = t;

  uint32_t seeded = 0;
  while (seeded < options_.seed_likers) {
    uint32_t u = static_cast<uint32_t>(rng_.UniformUint64(n));
    if (!MarkAware(u, p)) continue;
    Status st = graph_.AddEdge(u, p, t);
    if (!st.ok()) return st;
    likers_[p].push_back(u);
    ++page.likes;
    ++page.aware;
    ++total_likes_created_;
    ++seeded;
  }
  return p;
}

Result<NodeId> WebSimulator::AddPageWithQuality(double quality) {
  return BirthPage(now_, quality);
}

void WebSimulator::VisitPage(uint32_t u, NodeId p, double t) {
  ApplyVisit(u, p, t, rng_.UniformDouble());
}

void WebSimulator::ApplyVisit(uint32_t u, NodeId p, double t,
                              double like_draw) {
  ++total_visits_;
  ++pages_[p].visits;
  if (!MarkAware(u, p)) {
    return;  // repeat visit by an already-aware user: no new signal
  }
  ++pages_[p].aware;
  if (like_draw < pages_[p].quality && u != p) {
    Status st = graph_.AddEdge(u, p, t);
    if (st.ok()) {
      likers_[p].push_back(u);
      ++pages_[p].likes;
      ++total_likes_created_;
    }
  }
}

bool WebSimulator::MarkAware(uint32_t u, NodeId p) {
  AwareSet& set = aware_[p];
  if (!set.bits.empty()) {
    uint64_t& word = set.bits[u / 64];
    const uint64_t bit = uint64_t{1} << (u % 64);
    if (word & bit) return false;
    word |= bit;
    return true;
  }
  auto it = std::lower_bound(set.users.begin(), set.users.end(), u);
  if (it != set.users.end() && *it == u) return false;
  set.users.insert(it, u);
  // Past n / 32 ids (4 bytes each) the list outgrows a row of n bits.
  const uint32_t n = options_.num_users;
  if (set.users.size() > n / 32) {
    set.bits.assign((static_cast<size_t>(n) + 63) / 64, 0);
    for (uint32_t v : set.users) set.bits[v / 64] |= uint64_t{1} << (v % 64);
    set.users = {};
  }
  return true;
}

void WebSimulator::UnmarkAware(uint32_t u, NodeId p) {
  AwareSet& set = aware_[p];
  if (!set.bits.empty()) {
    set.bits[u / 64] &= ~(uint64_t{1} << (u % 64));
    return;
  }
  auto it = std::lower_bound(set.users.begin(), set.users.end(), u);
  QRANK_DCHECK(it != set.users.end() && *it == u);
  set.users.erase(it);
}

void WebSimulator::ForgetOne(NodeId p, double t) {
  auto& likers = likers_[p];
  if (likers.empty()) return;
  size_t idx = static_cast<size_t>(rng_.UniformUint64(likers.size()));
  uint32_t u = likers[idx];
  likers[idx] = likers.back();
  likers.pop_back();
  Status st = graph_.RemoveEdge(u, p, t);
  QRANK_CHECK(st.ok());
  UnmarkAware(u, p);
  --pages_[p].likes;
  --pages_[p].aware;
  ++total_forgets_;
}

Status WebSimulator::Rerank() {
  QRANK_ASSIGN_OR_RETURN(CsrGraph snapshot, Snapshot());
  const NodeId n_pages = snapshot.num_nodes();
  std::vector<double> scores;

  switch (options_.search.policy) {
    case RankingPolicy::kNone:
      return Status::OK();
    case RankingPolicy::kInDegree:
      scores = InDegreeScores(snapshot);
      break;
    case RankingPolicy::kRandom:
      scores.resize(n_pages);
      for (double& s : scores) s = rng_.UniformDouble();
      break;
    case RankingPolicy::kTrueQuality:
      scores.resize(n_pages);
      for (NodeId p = 0; p < n_pages; ++p) scores[p] = pages_[p].quality;
      break;
    case RankingPolicy::kPageRank:
    case RankingPolicy::kQualityEstimate: {
      QRANK_ASSIGN_OR_RETURN(PageRankResult pr,
                             ComputePageRank(snapshot, PageRankOptions{}));
      if (options_.search.policy == RankingPolicy::kPageRank) {
        scores = std::move(pr.scores);
      } else {
        // Equation 1 from the engine's own index history: pages with a
        // previous index entry get the C * dPR/PR correction; pages new
        // to the index fall back to current PageRank.
        scores = pr.scores;
        const double c = options_.search.quality_constant;
        for (size_t p = 0; p < previous_pagerank_.size() && p < scores.size();
             ++p) {
          double prev = previous_pagerank_[p];
          if (prev > 0.0) {
            scores[p] = c * (pr.scores[p] - prev) / prev + pr.scores[p];
            if (scores[p] < 0.0) scores[p] = 0.0;
          }
        }
        previous_pagerank_ = std::move(pr.scores);
      }
      break;
    }
  }

  const uint32_t depth = std::min<uint32_t>(
      options_.search.results_per_query, n_pages);
  search_results_ = TopK(scores, depth);
  std::vector<double> position_weights(search_results_.size());
  for (size_t k = 0; k < position_weights.size(); ++k) {
    position_weights[k] =
        std::pow(static_cast<double>(k + 1), -options_.search.position_bias);
  }
  position_sampler_ = AliasTable(position_weights);
  ++rerank_count_;
  return Status::OK();
}

void WebSimulator::ServeSearchVisits(uint64_t count, double t) {
  if (search_results_.empty()) return;
  const uint32_t n = options_.num_users;
  for (uint64_t i = 0; i < count; ++i) {
    NodeId p = search_results_[position_sampler_.Sample(&rng_)];
    uint32_t u = static_cast<uint32_t>(rng_.UniformUint64(n));
    ++total_search_visits_;
    VisitPage(u, p, t);
  }
}

void WebSimulator::Step() {
  const double dt = options_.time_step;
  const double t_end = now_ + dt;
  const uint32_t n = options_.num_users;
  const double r = options_.visit_rate_factor * static_cast<double>(n);
  const bool search_on = options_.search.policy != RankingPolicy::kNone;
  const double organic_share =
      search_on ? 1.0 - options_.search.search_traffic_fraction : 1.0;

  // Page births first (they participate in this step's visits).
  if (options_.page_birth_rate > 0.0) {
    uint64_t births = rng_.Poisson(options_.page_birth_rate * dt);
    for (uint64_t i = 0; i < births; ++i) {
      Result<NodeId> res = BirthPage(t_end, DrawQuality());
      QRANK_CHECK(res.ok());
    }
  }

  // Periodic index rebuild.
  if (search_on && now_ >= next_rerank_time_) {
    Status st = Rerank();
    QRANK_CHECK(st.ok());
    next_rerank_time_ = now_ + options_.search.rerank_period;
  }

  // Organic visits: page p draws Poisson((r * P(p) + e) * dt) uniformly
  // random visitors (Propositions 1 + 2), scaled down by the share of
  // traffic the search engine captures. Rates are frozen at the step
  // start (standard tau-leaping).
  //
  // Two phases so the hot sampling loop can run on the parallel
  // substrate without perturbing the trajectory: (1) every page draws
  // its visit count, visitors, and like variates from a private stream
  // split from (seed, step, page) — embarrassingly parallel over fixed
  // page blocks, and independent of thread count by construction;
  // (2) the draws are applied serially in ascending page order (awareness
  // sets, the like graph, and counters are shared mutable state).
  const NodeId num_pages_now = num_pages();
  const double total_popularity = ParallelReduce(
      num_pages_now,
      [&](size_t lo, size_t hi) {
        double sum = 0.0;
        for (size_t p = lo; p < hi; ++p) {
          sum += static_cast<double>(pages_[p].likes) /
                 static_cast<double>(n);
        }
        return sum;
      },
      SimParallel(options_));

  struct PendingVisit {
    uint32_t user;
    double like_draw;
  };
  std::vector<std::vector<PendingVisit>> pending(num_pages_now);
  uint64_t stream_base = options_.seed;
  (void)SplitMix64Next(&stream_base);
  stream_base ^= steps_taken_ * 0x9E3779B97F4A7C15ULL;
  ParallelFor(
      num_pages_now,
      [&](size_t p) {
        double popularity =
            static_cast<double>(pages_[p].likes) / static_cast<double>(n);
        double lambda = (organic_share * r * popularity +
                         options_.exploration_visit_rate) *
                        dt;
        if (lambda <= 0.0) return;
        uint64_t stream = stream_base + p;
        Rng page_rng(SplitMix64Next(&stream));
        uint64_t visits = page_rng.Poisson(lambda);
        if (visits == 0) return;
        auto& buf = pending[p];
        buf.reserve(visits);
        for (uint64_t k = 0; k < visits; ++k) {
          buf.push_back({static_cast<uint32_t>(page_rng.UniformUint64(n)),
                         page_rng.UniformDouble()});
        }
      },
      SimParallel(options_));
  for (NodeId p = 0; p < num_pages_now; ++p) {
    for (const PendingVisit& visit : pending[p]) {
      ApplyVisit(visit.user, p, t_end, visit.like_draw);
    }
  }

  // Search-mediated visits: the captured share of the same total visit
  // volume, steered by the ranking + click model instead of popularity.
  if (search_on) {
    double lambda = options_.search.search_traffic_fraction * r *
                    total_popularity * dt;
    if (lambda > 0.0) {
      ServeSearchVisits(rng_.Poisson(lambda), t_end);
    }
  }

  // Forgetting (Section 9.1 extension).
  if (options_.forget_rate > 0.0) {
    for (NodeId p = 0; p < num_pages_now; ++p) {
      if (pages_[p].likes == 0) continue;
      uint64_t forgets = rng_.Poisson(options_.forget_rate *
                                      static_cast<double>(pages_[p].likes) *
                                      dt);
      forgets = std::min<uint64_t>(forgets, pages_[p].likes);
      for (uint64_t k = 0; k < forgets; ++k) ForgetOne(p, t_end);
    }
  }

  now_ = t_end;
  ++steps_taken_;
}

Status WebSimulator::AdvanceTo(double t) {
  if (t < now_) {
    return Status::InvalidArgument("cannot advance backwards in time");
  }
  // Tolerate floating-point accumulation at the boundary.
  while (now_ + options_.time_step <= t + 1e-12) {
    Step();
  }
  return Status::OK();
}

}  // namespace qrank
