// Self-tests of the benchmark's own logic: seeded generators, the tail
// percentile rule, span self-time arithmetic and the payload oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "client.hpp"
#include "gen.hpp"
#include "serve/protocol.hpp"
#include "spans.hpp"

namespace {

using namespace opmbench;

bool parses(const GenRequest& g) {
  opm::serve::protocol::Request req;
  opm::serve::protocol::Error err;
  return opm::serve::protocol::parse_request(wire_line(g, 1), &req, &err) &&
         opm::serve::protocol::to_string(req.type) == g.type;
}

TEST(Generators, HotUniverseIsDeterministicDistinctAndValid) {
  const auto a = hot_universe(7, 96);
  EXPECT_EQ(a, hot_universe(7, 96));
  EXPECT_NE(a, hot_universe(8, 96));
  ASSERT_EQ(a.size(), 96u);
  std::set<std::string> bodies;
  std::set<std::string> types;
  for (const GenRequest& g : a) {
    bodies.insert(g.body);
    types.insert(g.type);
    EXPECT_TRUE(parses(g)) << g.body;
  }
  EXPECT_EQ(bodies.size(), a.size());
  EXPECT_EQ(types, (std::set<std::string>{"advise", "dense", "footprint", "sparse"}));
}

TEST(Generators, ZipfIsDeterministicSkewedAndExactPerCycle) {
  const std::vector<std::size_t> deck = zipf_deck(96, 1.0, 500);
  const std::size_t cycle = deck.size();
  EXPECT_NEAR(static_cast<double>(cycle), 500.0, 48.0);
  const auto a = zipf_sequence(3, 96, 1.0, 500, 20 * cycle);
  EXPECT_EQ(a, zipf_sequence(3, 96, 1.0, 500, 20 * cycle));
  EXPECT_NE(a, zipf_sequence(4, 96, 1.0, 500, 20 * cycle));
  std::vector<std::size_t> per_rank(96);
  for (std::size_t k : deck) ++per_rank[k];
  // zipf(1): rank 0 about twice rank 1 and ten times rank 9; every rank present.
  EXPECT_NEAR(static_cast<double>(per_rank[0]) / per_rank[1], 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(per_rank[0]) / per_rank[9], 10.0, 1.0);
  EXPECT_GE(*std::min_element(per_rank.begin(), per_rank.end()), 1u);
  // Every whole cycle holds exactly the deck, whatever the seed.
  for (std::uint64_t seed : {3, 4}) {
    const auto seq = zipf_sequence(seed, 96, 1.0, 500, 3 * cycle);
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<std::size_t> got(96);
      for (std::size_t i = c * cycle; i < (c + 1) * cycle; ++i) ++got[seq[i]];
      EXPECT_EQ(got, per_rank);
    }
  }
}

TEST(Generators, HotRanksHaveSeedIndependentTypes) {
  const auto a = hot_universe(1, 96), b = hot_universe(2, 96);
  for (std::size_t r = 0; r < 96; ++r) EXPECT_EQ(a[r].type, b[r].type) << r;
}

TEST(Percentiles, TailIsTheHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(5000, 99), 99);
  EXPECT_EQ(tail_percentile(1000, 99), 99);  // exactly 10 beyond p99
  EXPECT_EQ(tail_percentile(999, 99), 98);
  EXPECT_EQ(tail_percentile(200, 99), 95);
  EXPECT_EQ(tail_percentile(114, 99), 91);
  EXPECT_EQ(tail_percentile(100, 99), 90);
  EXPECT_EQ(tail_percentile(11, 99), 9);
  EXPECT_EQ(tail_percentile(10, 99), 0);
  EXPECT_EQ(tail_percentile(3, 99), 0);
  EXPECT_EQ(tail_percentile(100000, 50), 50);
  for (std::size_t n = 10; n < 3000; ++n) {
    const int p = tail_percentile(n, 99);
    EXPECT_GE(static_cast<double>(n) * (100 - p), 1000.0) << n;
    if (p < 99) {
      EXPECT_LT(static_cast<double>(n) * (100 - (p + 1)), 1000.0) << n;
    }
  }
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  int used = 0;
  EXPECT_NEAR(tail_value(v, 99, &used), 990.01, 1e-9);
  EXPECT_EQ(used, 99);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"run", 0.0, 10.0, -1, 0},
      {"core.sweep", 1.0, 3.0, 0, 0},
      {"protocol.render", 2.0, 5.0, 0, 0},   // overlaps the previous child
      {"advise.run", 7.0, 8.0, 0, 0},
      {"protocol.parse", 9.0, 12.0, 0, 0},   // clipped to the parent
      {"sim.exact", 7.25, 7.75, 3, 0},       // grandchild
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 1.0 + 1.0));
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 0.5);
  const auto layers = layer_self_times(spans);
  EXPECT_DOUBLE_EQ(layers.at("other"), 4.0);
  EXPECT_DOUBLE_EQ(layers.at("protocol"), 3.0 + 3.0);
  EXPECT_DOUBLE_EQ(layers.at("core"), 2.0);
  EXPECT_DOUBLE_EQ(layers.at("advise"), 0.5);
  EXPECT_DOUBLE_EQ(layers.at("sim"), 0.5);
  EXPECT_EQ(layer_of("protocol.render_points"), "protocol");
  EXPECT_EQ(layer_of("setup"), "setup");
}

TEST(Spans, TracerNestsAndDisabledTracerRecordsNothing) {
  Tracer on(true);
  {
    Scope outer(on, "run");
    Scope inner(on, "core.sweep", 5);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].req, 5u);
  EXPECT_LE(on.spans()[1].end, on.spans()[0].end);
  Tracer off(false);
  {
    Scope s(off, "run");
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Oracle, PayloadDigestIgnoresEnvelopeIdentity) {
  namespace protocol = opm::serve::protocol;
  const std::string a = protocol::render_response(protocol::Envelope{2, "17", 0},
                                                  protocol::RequestType::kDense, "x,y\n1,2\n");
  const std::string b = protocol::render_response(protocol::Envelope{2, "9000", 1},
                                                  protocol::RequestType::kDense, "x,y\n1,2\n");
  const std::string c = protocol::render_response(protocol::Envelope{2, "17", 0},
                                                  protocol::RequestType::kDense, "x,y\n1,3\n");
  EXPECT_EQ(payload_tail_digest(a), payload_tail_digest(b));
  EXPECT_NE(payload_tail_digest(a), payload_tail_digest(c));
  EXPECT_EQ(payload_tail_digest("{\"ok\":false}"), opm::util::Digest128{});
}

}  // namespace
