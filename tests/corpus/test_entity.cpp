#include "corpus/entity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace qadist::corpus {
namespace {

TEST(GazetteerTest, AddAndLookupIsCaseNormalized) {
  Gazetteer g;
  g.add("Port Amsen", EntityType::kLocation);
  EXPECT_EQ(g.lookup("port amsen"), EntityType::kLocation);
  EXPECT_FALSE(g.lookup("Port Amsen").has_value());  // keys are lowercase
  EXPECT_FALSE(g.lookup("port").has_value());
  EXPECT_EQ(g.size(), 1u);
}

TEST(GazetteerTest, ReinsertOverwritesType) {
  Gazetteer g;
  g.add("Amsen", EntityType::kLocation);
  g.add("Amsen", EntityType::kPerson);
  EXPECT_EQ(g.lookup("amsen"), EntityType::kPerson);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GazetteerTest, MaxTokensTracksLongestEntry) {
  Gazetteer g;
  EXPECT_EQ(g.max_tokens(), 0u);
  g.add("Amsen", EntityType::kLocation);
  EXPECT_EQ(g.max_tokens(), 1u);
  g.add("the Amsen Lighthouse", EntityType::kLocation);
  EXPECT_EQ(g.max_tokens(), 3u);
  g.add("Bo Li", EntityType::kPerson);
  EXPECT_EQ(g.max_tokens(), 3u);  // stays at the max
}

TEST(GazetteerTest, MaxTokensFromBoundsEachFirstWord) {
  Gazetteer g;
  g.add("Port Amsen", EntityType::kLocation);
  g.add("Port Amsen Harbor Authority", EntityType::kOrganization);
  g.add("the Amsen Lighthouse", EntityType::kLocation);
  g.add("Amsen", EntityType::kPerson);
  EXPECT_EQ(g.max_tokens_from("port"), 4u);
  EXPECT_EQ(g.max_tokens_from("the"), 3u);
  EXPECT_EQ(g.max_tokens_from("amsen"), 1u);
  EXPECT_EQ(g.max_tokens_from("harbor"), 0u);  // never a first word
  EXPECT_EQ(g.max_tokens_from("Port"), 0u);    // keys are lowercase
}

TEST(GazetteerTest, SurfacesOfFiltersByType) {
  Gazetteer g;
  g.add("Port Amsen", EntityType::kLocation);
  g.add("Lake Tarnin", EntityType::kLocation);
  g.add("Doran Veltis", EntityType::kPerson);
  auto locations = g.surfaces_of(EntityType::kLocation);
  std::sort(locations.begin(), locations.end());
  EXPECT_EQ(locations,
            (std::vector<std::string>{"lake tarnin", "port amsen"}));
  EXPECT_EQ(g.surfaces_of(EntityType::kDisease).size(), 0u);
}

TEST(EntityTypeTest, AllTypesHaveNames) {
  for (int t = 0; t < kEntityTypeCount; ++t) {
    EXPECT_FALSE(to_string(static_cast<EntityType>(t)).empty());
  }
  EXPECT_EQ(to_string(EntityType::kUnknown), "UNKNOWN");
  EXPECT_EQ(to_string(EntityType::kLocation), "LOCATION");
}

}  // namespace
}  // namespace qadist::corpus
