// Regenerates the pinned JSON fixtures under tests/data/ from the configs in
// tests/fixture_configs.h: one CallStats fixture per Variant (captured from
// the pre-conference point-to-point Call implementation) and one
// ConferenceStats fixture per pinned conference shape. conference_test.cc
// asserts fresh runs still reproduce them byte for byte. Only regenerate (and
// commit the diff) when a change *intentionally* moves results — the whole
// point of the fixtures is to make silent behaviour drift loud.
//
// Usage: gen_call_fixtures <output-dir>
#include <cstdio>
#include <fstream>
#include <string>

#include "session/call.h"
#include "session/conference.h"
#include "session/stats_json.h"
#include "fixture_configs.h"

int main(int argc, char** argv) {
  using namespace converge;
  using namespace converge::fixtures;
  const std::string dir = argc > 1 ? argv[1] : "tests/data";
  auto write = [&dir](const std::string& file, const std::string& json) {
    const std::string path = dir + "/" + file;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    out << json;
    std::printf("%s\n", path.c_str());
    return true;
  };
  for (Variant v : kFixtureVariants) {
    Call call(FixtureCallConfig(v));
    if (!write(FixtureFileName(v), CallStatsToJson(call.Run()))) return 1;
  }
  for (const ConferenceFixture& fixture : kConferenceFixtures) {
    Conference conference(fixture.config());
    if (!write(fixture.file, ConferenceStatsToJson(conference.Run()))) {
      return 1;
    }
  }
  return 0;
}
